"""The public surface: the names ``strongodd`` exports, and the README's
library quick start run as written."""

import re
from pathlib import Path

import strongodd

README = Path(__file__).resolve().parent.parent / "README.md"


def test_exported_names():
    # adding or removing a public name is a deliberate edit of this list
    assert sorted(strongodd.__all__) == [
        "Bipyramid", "BipyramidUnion", "Budget", "Certificate", "CertificationError",
        "Coloring", "Complete", "Cycle", "DecideResult", "EmbeddingCheck", "Empty",
        "FamilySpec", "Graph", "InternalError", "InvalidColoringError",
        "InvalidParameterError", "InvalidRotationError", "JoinCycleEmpty", "ParityEntry",
        "ParseError", "SolveResult", "StrongOddError", "UnsupportedFamilyError",
        "ValueWitness", "Wheel", "brute_force_so", "build", "chromatic_strong_odd",
        "counterexample", "counterexample_pair", "decide_k", "embed_family",
        "format_coloring", "from_dimacs", "is_odd_coloring", "is_proper", "is_strong_odd",
        "join_coloring", "join_formula", "join_formula_case", "make_union_certificate",
        "one_point_union", "parity_report", "parse_coloring", "proper_violations",
        "reverify_certificate", "to_dimacs", "union_coloring", "union_formula",
        "union_formula_case", "verify_embedding", "wheel_coloring", "wheel_cycle_pattern",
        "wheel_formula", "wheel_formula_case",
    ]
    assert all(hasattr(strongodd, name) for name in strongodd.__all__)


def test_readme_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
