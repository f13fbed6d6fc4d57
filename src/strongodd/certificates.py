"""Self-contained certificates for the planar glued-bipyramid constructions.

A certificate bundles the graph (DIMACS text with its label lines, the
bytes of the bundle's ``.col`` file), the coloring (coloring file text),
the claimed chromatic value, a rotation system witnessing planarity, and a
log of every check that was run.  Everything needed to re-verify the claim
travels inside the document, and each fact is stored once: recheck works
out the faces and Euler's formula again from ``rotation``, and reads the
labels from the graph text, so ``reverify_certificate`` can audit a bundle
read back from disk with no other state.

``Certificate.to_json`` writes one member a line, in sorted order, each
value encoded by json's C encoder with sorted keys.
``Certificate.from_json`` raises ParseError on text that is not JSON, nests
too deeply to parse or holds an integer longer than Python's int-string
limit, on a document that is not an object or whose fields are not exactly
the dataclass's (a field no check reads would be a claim nothing checks),
and on a field whose JSON type is not exactly its annotation's (so ``true``
is not an integer; ``rotation`` must be a list of lists of integers).

``_judge`` writes the "proper", "strong_odd", "palette_count" and "euler"
rows once, for certify's log and for recheck's result.  On recheck
"family" reads the named BipyramidUnion(m, n) spec once and passes only
when ``graph_dimacs`` is byte for byte ``to_dimacs`` of its build, the
text certify writes; a family of another kind, with sizes the spec
refuses, of another vertex count than the graph text's header, or with
a graph text shorter than any text of that family fails before anything
is built.  When "family" passes, the other rows judge
that build, and the graph text is not parsed; otherwise they judge the
parsed graph text, and an unparsable graph raises the parser's error.  An
unparsable coloring raises its parser's error, and a rotation that does
not match the graph, or whose faces break Euler's formula, fails "euler".
"record" fails a claim kind other than "exact" and "upper-bound", a
logged check that is not ok, and an "exact" claim with no ok
"refutation" entry or off the ``formula`` value of that same spec.

The notes state the claimed value as the count it comes from, with C(n)
the number of cycle colors of ``families._cycle_colors``: for the union
(8, 11) the note reads ``closed-form value: C(8) + C(11) + 1 = 8 + 5 + 1
= 14``.

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
completed refutation their exactness rests on the counting argument
(``families._cycle_colors``), which no check in the bundle records.
The node count of a refutation is recorded in the notes, its time is
not (so the bundle's bytes repeat).  ``reverify_certificate`` does not
re-run the search, but holds an "exact" claim to the closed form, so a
forged "refutation" entry backs no other value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from itertools import chain
from typing import get_origin, get_type_hints

from .coloring import Coloring, is_proper, is_strong_odd, format_coloring, parse_coloring
from .embedding import embed_family, verify_embedding
from .errors import CertificationError, InvalidParameterError, InvalidRotationError, ParseError
from .families import _union_colors, formula
from .graphs import BipyramidUnion, Graph, build, from_dimacs, to_dimacs
from .solver import Budget, decide_k

# the glued-bipyramid pairs certified beside the 14-color family
SPECIAL_PAIRS: tuple[tuple[int, int], ...] = ((6, 8), (7, 7), (7, 8), (8, 8))


@dataclass
class Certificate:
    family: dict
    graph_dimacs: str
    coloring: str
    claimed_value: int
    claim_kind: str  # "exact" | "upper-bound"
    rotation: list[list[int]]
    checks: list[dict]
    notes: list[str]

    def to_json(self) -> str:
        # field names need no escaping; the C encoder writes each value on one line
        members = [f'  "{name}": ' + json.dumps(getattr(self, name), sort_keys=True)
                   for name in sorted(f.name for f in fields(self))]
        return "{\n" + ",\n".join(members) + "\n}\n"

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        try:
            data = json.loads(text)
        # ValueError covers JSONDecodeError and integers past the int-string limit
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"certificate is not valid JSON: {exc}") from None
        required = {f.name for f in fields(cls)}
        keys = set(data) if isinstance(data, dict) else set()
        if keys != required:
            wrong = [f"{side} fields: {sorted(names)}"
                     for side, names in (("missing", required - keys), ("unknown", keys - required)) if names]
            raise ParseError("certificate document " + ", ".join(wrong))
        # the annotations are the schema; exact types keep bools out of int fields
        for name, hint in sorted(get_type_hints(cls).items()):
            expected = get_origin(hint) or hint
            if type(data[name]) is not expected:
                raise ParseError(
                    f"certificate field {name!r} must be {expected.__name__}, "
                    f"got {type(data[name]).__name__}"
                )
        rows = data["rotation"]  # a list, as its annotation says
        if not set(map(type, rows)) <= {list} or not set(map(type, chain.from_iterable(rows))) <= {int}:
            raise ParseError("certificate field 'rotation' must be a list of lists of integers")
        return cls(**data)


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
    euler_ok = verify_embedding(g, rot).euler_ok
    checks = [{"name": name, "ok": ok} for name, ok in _judge(g, col, claimed, euler_ok)]
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
        graph_dimacs=to_dimacs(g),
        coloring=format_coloring(col),
        claimed_value=claimed,
        claim_kind=claim_kind,
        rotation=rot,
        checks=checks,
        notes=notes,
    )


def counterexample(n: int, try_exact_budget: Budget | None = None) -> Certificate:
    """Certificate for a member of the infinite 14-color planar family.

    Accepts the n > 9 whose union with the size-8 bipyramid has the
    closed-form value 14, which are n = 1 or 5 (mod 6); the certified graph
    glues the size-8 bipyramid to the size-n one.
    """
    # a size that is not an int is refused before it meets a comparison
    if type(n) is not int or not (n > 9 and formula(BipyramidUnion(8, n)).value == 14):
        raise InvalidParameterError(
            f"the 14-color family needs n > 9 with n = 1 or 5 (mod 6), got {n!r}"
        )
    cert = make_union_certificate(8, n, try_exact_budget)
    cert.notes.append("member of the infinite family of planar graphs needing 14 colors")
    return cert


def counterexample_pair(m: int, n: int, try_exact_budget: Budget | None = None) -> Certificate:
    """Certificate for one of the SPECIAL_PAIRS, in either order."""
    # sizes that are not ints are refused before they meet a comparison
    if type(m) is not int or type(n) is not int or (min(m, n), max(m, n)) not in SPECIAL_PAIRS:
        raise InvalidParameterError(f"supported pairs are {list(SPECIAL_PAIRS)}, got ({m!r}, {n!r})")
    return make_union_certificate(m, n, try_exact_budget)


def reverify_certificate(text: str) -> tuple[bool, list[tuple[str, bool]]]:
    """Re-run every certificate check from the serialized document alone.

    The "family" check passes only when the graph text is byte for byte
    ``to_dimacs`` of the family's build, and then the claim is judged on
    that build; otherwise the graph text is parsed and judged.  The
    coloring and rotation are read from the document, the claim is judged
    with the ordinary verifiers, and nothing from generation time is
    trusted; see the module docstring for what each check compares.  A
    recorded refutation is a search transcript summary and is not
    re-executed here, but an "exact" claim must equal the closed form of
    the bundled family.
    """
    cert = Certificate.from_json(text)
    spec, g = _bundled_family(cert.family, cert.graph_dimacs)
    if g is None:
        g = from_dimacs(cert.graph_dimacs)
    col = parse_coloring(cert.coloring, g.n)
    try:
        euler = verify_embedding(g, cert.rotation).euler_ok
    except InvalidRotationError:
        euler = False
    results = _judge(g, col, cert.claimed_value, euler)
    results.append(("family", spec is not None))
    passed = [c.get("name") for c in cert.checks if type(c) is dict and c.get("ok") is True]
    exact_backed = "refutation" in passed and spec is not None and cert.claimed_value == formula(spec).value
    claim_backed = cert.claim_kind == "upper-bound" or cert.claim_kind == "exact" and exact_backed
    results.append(("record", len(passed) == len(cert.checks) and claim_backed))
    return all(ok for _, ok in results), results


def _judge(g: Graph, col: Coloring, claimed: int, euler_ok: bool) -> list[tuple[str, bool]]:
    """The check rows of every bundle, for certify's log and recheck's result alike."""
    # a strong odd coloring is proper, so properness is judged again only
    # when strong oddness fails
    strong = is_strong_odd(g, col)
    return [
        ("proper", strong or is_proper(g, col)),
        ("strong_odd", strong),
        ("palette_count", len(col.palette) == claimed),
        ("euler", euler_ok),
    ]


def _bundled_family(fam: dict, graph_text: str) -> tuple[BipyramidUnion, Graph] | tuple[None, None]:
    """The BipyramidUnion that ``fam`` names and its build, when
    ``graph_text`` is byte for byte that build's ``to_dimacs`` text;
    otherwise (None, None).  No build is made for a text shorter than
    18 (m + n) bytes, the 3 (m + n) edge lines of at least 6 bytes each
    that every such text holds."""
    try:
        spec = BipyramidUnion(fam.get("m"), fam.get("n"))
    except InvalidParameterError:  # the spec judges the sizes' types and least values
        return None, None
    # the kind, the length and the header's vertex count first, so a forged
    # family never builds a graph larger than the text's length allows
    size = spec.m + spec.n
    if (fam.get("kind") != "bipyramid-union" or len(graph_text) < 18 * size
            or not graph_text.startswith(f"p edge {size + 3} ")):
        return None, None
    g = build(spec)
    return (spec, g) if to_dimacs(g) == graph_text else (None, None)
