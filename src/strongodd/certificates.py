"""Self-contained certificates for the planar glued-bipyramid constructions.

A certificate bundles the graph (DIMACS text), the coloring (coloring file
text), the claimed chromatic value, a rotation system witnessing planarity,
and a log of every check that was run.  Everything needed to re-verify the
claim travels inside the document, so ``reverify_certificate`` can audit a
bundle read back from disk with no other state.

``Certificate.to_json`` writes the bytes of ``json.dumps(fields, indent=2,
sort_keys=True)`` plus a newline without json's indenting encoder, which
is pure Python, where the unindented encoder is in C.  Each field is
encoded on its own and indented one level; ``rotation`` and ``labels``,
lists of flat rows, take one C encoder call each (``_rows_json``).

``Certificate.from_json`` raises ParseError on text that is not JSON, nests
too deeply to parse or holds an integer longer than Python's int-string
limit, on a document that is not an object or lacks a field, and on a field
of the wrong JSON type: each field must have exactly the type its
annotation names (so ``true`` is not an integer), and ``rotation`` must be
a list of lists of integers.  A document that passes is well typed, so
``reverify_certificate`` only has to judge its content: an unparsable
graph or coloring text raises the parser's error, a rotation that does not
match the graph (InvalidRotationError) fails the "euler" check instead of
raising, and the "family" check rebuilds the named BipyramidUnion(m, n)
and compares it with the bundled graph and ``labels``.  A family of
another kind, with non-integer sizes, or of a size other than the bundled
graph's fails that check before anything is built.  The "euler" check also
holds ``faces`` and ``euler_ok`` to the traced embedding, and the "record"
check holds the claim to the bundle's own record: it fails a claim kind
other than "exact" and "upper-bound", a check log with an entry that is
not ok, and an "exact" claim with no ok "refutation" entry.

Claims default to kind "upper-bound": the coloring proves the value is
attainable.  A claim is upgraded to "exact" only when a refutation search
at value - 1 completes within an explicitly supplied budget (``--try-exact``
on the command line).  All four special pairs refute that way: (6, 8) and
(7, 7) at 14 colors in 7,265 and 3,330 nodes, (7, 8) at 15 colors in 9,352
nodes and (8, 8) at 16 colors in 11,923 nodes, each whole ``certify`` run
taking at most 11 ms on a shared 2-vCPU x86-64 machine with CPython 3.11.
Members of the infinite 14-color family refute the same way when a budget
is given, at 13 colors in a number of nodes about linear in n: 3,259 at
n = 11, 32,419 at n = 101 and 1,294,075 at n = 3995 (1.3 s).  Without a
completed refutation their exactness rests on the structural argument.
The node count of a refutation is recorded in the notes, its time is
not (so the bundle's bytes repeat), and ``reverify_certificate`` does
not re-run the search.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from itertools import chain
from typing import get_origin, get_type_hints

from .coloring import Coloring, is_proper, is_strong_odd, format_coloring, parse_coloring
from .embedding import embed_family, verify_embedding
from .errors import CertificationError, InvalidParameterError, InvalidRotationError, ParseError
from .families import _union_colors, formula
from .graphs import BipyramidUnion, Graph, build, from_dimacs, to_dimacs
from .solver import Budget, decide_k

# the glued-bipyramid pairs whose values 15, 16, and 17 are certified
SPECIAL_PAIRS: dict[tuple[int, int], int] = {
    (6, 8): 15,
    (7, 7): 15,
    (7, 8): 16,
    (8, 8): 17,
}


@dataclass
class Certificate:
    family: dict
    graph_dimacs: str
    labels: list[list]
    coloring: str
    claimed_value: int
    claim_kind: str  # "exact" | "upper-bound"
    rotation: list[list[int]]
    faces: int
    euler_ok: bool
    checks: list[dict]
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        members = []
        for name in sorted(f.name for f in fields(self)):
            value = getattr(self, name)
            if _is_rows(value, {int, str}):
                text = _rows_json(value)
            else:
                text = json.dumps(value, indent=2, sort_keys=True)
            # a raw newline in JSON text is layout, never string content
            members.append(f'  "{name}": ' + text.replace("\n", "\n  "))
        return "{\n" + ",\n".join(members) + "\n}\n"

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        try:
            data = json.loads(text)
        # ValueError covers JSONDecodeError and integers past the int-string limit
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"certificate is not valid JSON: {exc}") from None
        required = {f.name for f in fields(cls)}
        if not isinstance(data, dict) or not required.issubset(data):
            missing = required - set(data) if isinstance(data, dict) else required
            raise ParseError(f"certificate document missing fields: {sorted(missing)}")
        # the annotations are the schema; exact types keep bools out of int fields
        for name, hint in sorted(get_type_hints(cls).items()):
            expected = get_origin(hint) or hint
            if type(data[name]) is not expected:
                raise ParseError(
                    f"certificate field {name!r} must be {expected.__name__}, "
                    f"got {type(data[name]).__name__}"
                )
        if not _is_rows(data["rotation"], {int}):
            raise ParseError("certificate field 'rotation' must be a list of lists of integers")
        return cls(**{k: data[k] for k in required})


def make_union_certificate(m: int, n: int, try_exact_budget: Budget | None = None) -> Certificate:
    """Build, check, and bundle the glued-bipyramid certificate for (m, n).

    The graph is built once, and the constructed coloring is judged on it
    by the check log.  Raises CertificationError if any check fails; a
    certificate is only ever emitted with an all-true check log.
    """
    spec = BipyramidUnion(m, n)
    g = build(spec)
    col = Coloring(_union_colors(m, n))
    claimed, case = formula(spec)
    rot = embed_family(spec)
    emb = verify_embedding(g, rot)

    checks = [
        {"name": "proper", "ok": is_proper(g, col)},
        {"name": "strong_odd", "ok": is_strong_odd(g, col)},
        {"name": "palette_count", "ok": len(col.palette) == claimed},
        {"name": "euler", "ok": emb.euler_ok},
    ]
    notes = [
        f"glued bipyramids ({m}, {n}): {g.n} vertices, {g.edge_count} edges, planar",
        f"closed-form value: {case} = {claimed}",
    ]
    claim_kind = "upper-bound"
    if try_exact_budget is None:
        notes.append(
            f"claim kind upper-bound: the bundled coloring attains {claimed} colors; "
            f"no machine refutation of {claimed - 1} colors was attempted"
        )
    else:
        r = decide_k(g, claimed - 1, try_exact_budget)
        if r.answer == "no":
            claim_kind = "exact"
            checks.append({"name": "refutation", "ok": True})
            notes.append(
                f"refutation: no strong odd coloring with {claimed - 1} colors exists; "
                f"search explored {r.nodes} nodes"
            )
        elif r.answer == "yes":
            raise CertificationError(
                f"claimed value {claimed} is not exact: a {claimed - 1}-coloring exists"
            )
        else:
            notes.append(
                f"refutation attempt at {claimed - 1} colors exhausted its budget "
                f"({r.reason}, {r.nodes} nodes); claim stays upper-bound"
            )
    failed = [c["name"] for c in checks if not c["ok"]]
    if failed:
        raise CertificationError(f"certificate checks failed: {failed}")
    return Certificate(
        family={"kind": "bipyramid-union", "m": m, "n": n},
        graph_dimacs=to_dimacs(g, include_labels=False),
        labels=_label_rows(g),
        coloring=format_coloring(col),
        claimed_value=claimed,
        claim_kind=claim_kind,
        rotation=[list(row) for row in rot],
        faces=emb.faces,
        euler_ok=emb.euler_ok,
        checks=checks,
        notes=notes,
    )


def counterexample(n: int, try_exact_budget: Budget | None = None) -> Certificate:
    """Certificate for a member of the infinite 14-color planar family.

    Accepts n > 9 with n = 1 or 5 (mod 6); the certified graph glues the
    size-8 bipyramid to the size-n one, and its claimed value is 14.
    """
    if not (n > 9 and n % 6 in (1, 5)):
        raise InvalidParameterError(
            f"the 14-color family needs n > 9 with n = 1 or 5 (mod 6), got {n}"
        )
    cert = make_union_certificate(8, n, try_exact_budget)
    cert.notes.append("member of the infinite family of planar graphs needing 14 colors")
    return cert


def counterexample_pair(m: int, n: int, try_exact_budget: Budget | None = None) -> Certificate:
    """Certificate for one of the specific pairs with values 15, 16, or 17."""
    key = (m, n) if m <= n else (n, m)
    if key not in SPECIAL_PAIRS:
        raise InvalidParameterError(
            f"supported pairs are {sorted(SPECIAL_PAIRS)} (values 15, 16, 17), got ({m}, {n})"
        )
    return make_union_certificate(m, n, try_exact_budget)


def reverify_certificate(text: str) -> tuple[bool, list[tuple[str, bool]]]:
    """Re-run every certificate check from the serialized document alone.

    Parses the graph, coloring, and rotation out of the document and judges
    the claim with the ordinary verifiers, then checks that ``family`` and
    ``labels`` describe that graph; nothing from generation time is
    trusted; see the module docstring for what each check compares.  A
    recorded refutation is a search transcript summary and is not
    re-executed here.
    """
    cert = Certificate.from_json(text)
    g = from_dimacs(cert.graph_dimacs)
    col = parse_coloring(cert.coloring, g.n)
    results = [
        ("proper", is_proper(g, col)),
        ("strong_odd", is_strong_odd(g, col)),
        ("palette_count", len(col.palette) == cert.claimed_value),
    ]
    try:
        emb = verify_embedding(g, cert.rotation)
        results.append(("euler", emb.euler_ok and emb == (cert.faces, cert.euler_ok)))
    except InvalidRotationError:
        results.append(("euler", False))
    results.append(("family", _family_matches(cert, g)))
    passed = [c.get("name") for c in cert.checks if type(c) is dict and c.get("ok") is True]
    claim_backed = cert.claim_kind == "upper-bound" or cert.claim_kind == "exact" and "refutation" in passed
    results.append(("record", len(passed) == len(cert.checks) and claim_backed))
    return all(ok for _, ok in results), results


def _family_matches(cert: Certificate, g: Graph) -> bool:
    """True when ``cert.family`` names a BipyramidUnion(m, n) whose build has
    the adjacency of ``g`` and the labels of ``cert.labels``."""
    fam = cert.family
    m, n = fam.get("m"), fam.get("n")
    if fam.get("kind") != "bipyramid-union" or type(m) is not int or type(n) is not int:
        return False
    # sizes first, so a forged family never builds a graph larger than g
    if m < 3 or n < 3 or m + n + 3 != g.n:
        return False
    built = build(BipyramidUnion(m, n))
    return (
        built.adj == g.adj
        and cert.labels == _label_rows(built)
        and all(type(v) is int for v, _ in cert.labels)  # 1.0 == 1, but is no vertex id
    )


def _is_rows(value: object, item_types: set[type]) -> bool:
    """True for a list of lists whose items have exact types in ``item_types``
    (so a bool is not an int)."""
    return (
        type(value) is list
        and set(map(type, value)) <= {list}
        and set(map(type, chain.from_iterable(value))) <= item_types
    )


def _rows_json(rows: list[list]) -> str:
    """``json.dumps(rows, indent=2)``, from one call of the C encoder.

    The encoder puts a raw newline after every comma.  The items are ints
    and strings, whose JSON never holds a raw newline, so a comma between
    rows is the only one after ``]`` and before ``[``.  The newlines are
    indented for items, the row boundaries re-indented, and an empty row,
    left with a blank line between its brackets, put back as ``[]``.
    """
    if not rows:
        return "[]"
    body = json.dumps(rows, separators=(",\n", ": "))[2:-2].replace("\n", "\n    ")
    body = body.replace("],\n    [", "\n  ],\n  [\n    ")
    return ("[\n  [\n    " + body + "\n  ]\n]").replace("[\n    \n  ]", "[]")


def _label_rows(g: Graph) -> list[list]:
    return [[v, role] for v, role in sorted(g.labels.items())]
