"""Strong odd coloring toolkit.

A strong odd coloring is a proper vertex coloring in which every color
present in a vertex's neighborhood appears there an odd number of times.
This package builds the graph families where the minimum number of such
colors is known in closed form (wheels, cycle-hub joins, and bipyramids
glued at an apex), verifies colorings, computes the exact value by pruned
search with an independent brute-force oracle, and emits self-contained
certificates for the planar constructions that need 14 to 17 colors.
"""

from .coloring import (
    Coloring,
    ParityEntry,
    format_coloring,
    is_odd_coloring,
    is_proper,
    is_strong_odd,
    parity_report,
    parse_coloring,
    proper_violations,
)
from .certificates import (
    Certificate,
    counterexample,
    counterexample_pair,
    make_union_certificate,
    reverify_certificate,
)
from .embedding import EmbeddingCheck, embed_family, verify_embedding
from .errors import (
    CertificationError,
    InternalError,
    InvalidColoringError,
    InvalidParameterError,
    InvalidRotationError,
    ParseError,
    StrongOddError,
    UnsupportedFamilyError,
)
from .families import Formula, coloring_for, formula, wheel_cycle_pattern
from .graphs import (
    Bipyramid,
    BipyramidUnion,
    Complete,
    Cycle,
    Empty,
    FamilySpec,
    Graph,
    JoinCycleEmpty,
    Wheel,
    build,
    from_dimacs,
    one_point_union,
    to_dimacs,
)
from .solver import (
    Budget,
    DecideResult,
    SolveResult,
    ValueWitness,
    brute_force_so,
    chromatic_strong_odd,
    decide_k,
)

__all__ = [
    "Bipyramid",
    "BipyramidUnion",
    "Budget",
    "Certificate",
    "CertificationError",
    "Coloring",
    "Complete",
    "Cycle",
    "DecideResult",
    "EmbeddingCheck",
    "Empty",
    "FamilySpec",
    "Formula",
    "Graph",
    "InternalError",
    "InvalidColoringError",
    "InvalidParameterError",
    "InvalidRotationError",
    "JoinCycleEmpty",
    "ParityEntry",
    "ParseError",
    "SolveResult",
    "StrongOddError",
    "UnsupportedFamilyError",
    "ValueWitness",
    "Wheel",
    "brute_force_so",
    "build",
    "chromatic_strong_odd",
    "coloring_for",
    "counterexample",
    "counterexample_pair",
    "decide_k",
    "embed_family",
    "format_coloring",
    "formula",
    "from_dimacs",
    "is_odd_coloring",
    "is_proper",
    "is_strong_odd",
    "make_union_certificate",
    "one_point_union",
    "parity_report",
    "parse_coloring",
    "proper_violations",
    "reverify_certificate",
    "to_dimacs",
    "verify_embedding",
    "wheel_cycle_pattern",
]

__version__ = "0.1.0"
