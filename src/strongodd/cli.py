"""Command-line surface: gen, verify, solve, formula, certify, oracle.

Exit codes: 0 success, 1 parse or usage error (every package error but a
certification failure, any unreadable or non-UTF-8 file, and running out
of memory), 2 violation or refuted decision, 3 budget exhausted, 4
certification failure.  Output files are byte-deterministic; neither
timestamps nor durations appear in file content.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .certificates import (
    counterexample,
    counterexample_pair,
    reverify_certificate,
)
from .coloring import (
    format_coloring,
    is_odd_coloring,
    is_proper,
    is_strong_odd,
    parity_report,
    parse_coloring,
    proper_violations,
)
from .embedding import embed_family, verify_embedding
from .errors import CertificationError, InvalidParameterError, StrongOddError
from .families import formula
from .graphs import (
    Bipyramid,
    BipyramidUnion,
    Complete,
    Cycle,
    Empty,
    JoinCycleEmpty,
    Wheel,
    build,
    from_dimacs,
    to_dimacs,
)
from .solver import Budget, chromatic_strong_odd, decide_k, brute_force_so

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VIOLATION = 2
EXIT_BUDGET = 3
EXIT_CERT = 4

# family name -> spec class; the spec's fields name the size options
_FAMILIES = {
    "cycle": Cycle,
    "empty": Empty,
    "complete": Complete,
    "wheel": Wheel,
    "join-cycle-empty": JoinCycleEmpty,
    "bipyramid": Bipyramid,
    "g-graph": Bipyramid,  # alternate spelling
    "bipyramid-union": BipyramidUnion,
    "union-g": BipyramidUnion,  # alternate spelling
}

# the size options of gen: every field of a spec, first seen first
_SIZE_OPTIONS = tuple(dict.fromkeys(f.name for cls in _FAMILIES.values() for f in fields(cls)))

# formula kind -> spec class; the spec's fields name the parameters
_FORMULAS = {"wheel": Wheel, "join": JoinCycleEmpty, "union": BipyramidUnion}


def _parse_duration(text: str) -> float:
    scale = {"s": 1.0, "m": 60.0, "h": 3600.0}.get(text[-1:])
    try:
        return float(text) if scale is None else float(text[:-1]) * scale
    except ValueError:
        raise InvalidParameterError(f"cannot parse duration {text!r}") from None


def _budget_from(args) -> Budget | None:
    # Budget judges the limits: positive, and a finite number of seconds
    if args.max_nodes is None and args.timeout is None:
        return None
    return Budget(args.max_nodes, None if args.timeout is None else _parse_duration(args.timeout))


def _family_spec(args):
    kind = args.family
    if kind not in _FAMILIES:
        raise InvalidParameterError(f"unknown family {kind!r}; choose from {sorted(_FAMILIES)}")
    cls = _FAMILIES[kind]
    names = [f.name for f in fields(cls)]
    for name in names:
        if getattr(args, name) is None:
            raise InvalidParameterError(f"family {kind!r} needs --{name}")
    unused = [f"--{name}" for name in _SIZE_OPTIONS if name not in names and getattr(args, name) is not None]
    if unused:
        raise InvalidParameterError(f"family {kind!r} takes no {' '.join(unused)}")
    return cls(*(getattr(args, name) for name in names))


def _load_graph(path: str):
    return from_dimacs(Path(path).read_text(encoding="utf-8"))


def _write_witness(path: str | None, witness) -> None:
    if path and witness is not None:
        Path(path).write_text(format_coloring(witness), encoding="utf-8")
        print(f"wrote {path}")


def _cmd_gen(args) -> int:
    if args.embed and not args.output:
        # the rotation and the euler line would land in the graph text
        raise InvalidParameterError("gen --embed needs -o FILE to write the rotation beside the graph")
    spec = _family_spec(args)
    g = build(spec)
    # a family with no embedding fails before anything is written
    rot = embed_family(spec) if args.embed else None
    text = to_dimacs(g, include_labels=not args.no_labels)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output} ({g.n} vertices, {g.edge_count} edges)")
    else:
        sys.stdout.write(text)
    if rot is not None:
        faces, ok = verify_embedding(g, rot)
        rot_path = args.output + ".rot.json"
        Path(rot_path).write_text(json.dumps(rot) + "\n", encoding="utf-8")
        print(f"wrote {rot_path}")
        print(f"euler: {'ok' if ok else 'FAILED'} (V={g.n} E={g.edge_count} F={faces})")
        if not ok:
            return EXIT_VIOLATION
    return EXIT_OK


def _parity_lines(g, col) -> list[str]:
    rows = parity_report(g, col)
    return [f"violated ({len(rows)} even neighborhood class(es))",
            *(f"  vertex {e.vertex + 1} sees color {e.color} {e.count} times" for e in rows)]


# verify mode -> (its judge, its ok line, the lines after "<mode>: " for a
# proper coloring the judge fails; the proper judge fails none).  Each judge
# is called through its name in this module, where bench/tracing.py wraps it
_VERIFY_MODES = {
    "proper": (lambda g, col: is_proper(g, col), "ok", None),
    "odd": (lambda g, col: is_odd_coloring(g, col), "ok",
            lambda g, col: ["violated (some vertex has no odd color in its neighborhood)"]),
    "strong-odd": (lambda g, col: is_strong_odd(g, col), "ok ({colors} colors)", _parity_lines),
}


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    col = parse_coloring(Path(args.coloring).read_text(encoding="utf-8"), g.n)
    judge, ok, violated = _VERIFY_MODES[args.mode]
    # the mode's own judge decides; the violations are listed only when it fails
    if judge(g, col):
        print(f"{args.mode}: {ok.format(colors=len(col.palette))}")
        return EXIT_OK
    bad_edges = proper_violations(g, col)
    if bad_edges:
        print(f"improper: {len(bad_edges)} monochromatic edge(s)")
        for u, v in bad_edges:
            print(f"  edge ({u + 1}, {v + 1}) color {col[u]}")
        return EXIT_VIOLATION
    print(f"{args.mode}: " + "\n".join(violated(g, col)))
    return EXIT_VIOLATION


def _cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    budget = _budget_from(args)
    if args.decide is not None:
        r = decide_k(g, args.decide, budget)
        print(f"answer: {r.answer}")
        print(f"nodes: {r.nodes}")
        print(f"elapsed: {r.seconds:.3f}s")
        if r.answer == "yes":
            print(f"colors: {len(r.witness.palette)}")
            _write_witness(args.output, r.witness)
            return EXIT_OK
        return EXIT_VIOLATION if r.answer == "no" else EXIT_BUDGET
    res = chromatic_strong_odd(g, budget)
    print(f"status: {res.status}")
    if res.status == "exact":
        print(f"value: {res.value}")
    else:
        print(f"lower: {res.lower}")
        print(f"upper: {res.upper}")
    print(f"nodes: {res.nodes}")
    print(f"elapsed: {res.seconds:.3f}s")
    _write_witness(args.output, res.witness)
    return EXIT_OK if res.status == "exact" else EXIT_BUDGET


def _cmd_formula(args) -> int:
    cls = _FORMULAS[args.kind]
    names = [f.name for f in fields(cls)]
    if len(args.params) != len(names):
        count = "one parameter" if len(names) == 1 else "two parameters"
        raise InvalidParameterError(f"formula {args.kind} takes {count}: {' '.join(names)}")
    value, case = formula(cls(*args.params))
    print(value)
    print(f"case: {case}")
    return EXIT_OK


def _write_bundle(cert, outdir: Path) -> None:
    m, n = cert.family["m"], cert.family["n"]
    stem = f"bipyramid_union_{m}_{n}"
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / f"{stem}.cert.json").write_text(cert.to_json(), encoding="utf-8")
    (outdir / f"{stem}.col").write_text(cert.graph_dimacs, encoding="utf-8")
    (outdir / f"{stem}.coloring").write_text(cert.coloring, encoding="utf-8")
    print(f"wrote {outdir / (stem + '.cert.json')}")
    print(f"wrote {outdir / (stem + '.col')}")
    print(f"wrote {outdir / (stem + '.coloring')}")


def _cmd_certify(args) -> int:
    # one source of the bundle, and its size with the family alone: any other
    # combination would drop an option
    sources = [flag for flag, value in (("--pair", args.pair), ("--family", args.family),
                                        ("--recheck", args.recheck)) if value is not None]
    if len(sources) != 1:
        raise InvalidParameterError("certify needs one of --pair M N, --family counterexample --n N"
                                    f" and --recheck PATH, got {' '.join(sources) or 'none'}")
    if args.n is not None and args.family is None:
        raise InvalidParameterError("--n only applies with --family counterexample")
    if args.recheck:
        # the recheck reads only the bundle, so any other option would be ignored
        given = [flag for flag, value in (("--try-exact", args.try_exact), ("--timeout", args.timeout),
                                          ("--max-nodes", args.max_nodes), ("-o", args.output))
                 if value is not None and value is not False]
        if given:
            raise InvalidParameterError(f"--recheck takes no other option, got {' '.join(given)}")
        ok, results = reverify_certificate(Path(args.recheck).read_text(encoding="utf-8"))
        for name, good in results:
            print(f"{name}: {'ok' if good else 'FAILED'}")
        if ok:
            print("certificate: ok")
            return EXIT_OK
        print("certificate: FAILED")
        return EXIT_CERT
    budget = _budget_from(args)
    if args.try_exact and budget is None:
        raise InvalidParameterError("--try-exact needs --timeout and/or --max-nodes")
    if budget is not None and not args.try_exact:
        raise InvalidParameterError("--timeout and --max-nodes only apply with --try-exact")
    if not args.output:
        raise InvalidParameterError("certify needs -o DIR to write the bundle")
    if args.pair:
        cert = counterexample_pair(args.pair[0], args.pair[1], budget)
    elif args.n is None:
        raise InvalidParameterError("certify --family counterexample needs --n")
    else:
        cert = counterexample(args.n, budget)
    _write_bundle(cert, Path(args.output))
    print(f"claimed value: {cert.claimed_value} ({cert.claim_kind})")
    print("all checks passed")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    g = _load_graph(args.graph)
    value, witness = brute_force_so(g)
    print(f"value: {value}")
    _write_witness(args.output, witness)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strongodd",
        description="Strong odd coloring toolkit: graph families, exact solver, verifiers, certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family graph as a DIMACS-style file")
    p.add_argument("--family", required=True)
    for name in _SIZE_OPTIONS:
        p.add_argument(f"--{name}", type=int)
    p.add_argument("-o", "--output")
    p.add_argument("--embed", action="store_true",
                   help="also write a rotation system to OUTPUT.rot.json (needs -o) and check Euler's formula")
    p.add_argument("--no-labels", action="store_true")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="check a coloring file against a graph file")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.add_argument("--mode", choices=_VERIFY_MODES, default="strong-odd")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve", help="exact value or k-decision for a graph file")
    p.add_argument("graph")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--exact", action="store_true")
    group.add_argument("--decide", type=int, metavar="K")
    p.add_argument("--timeout", help="wall-clock limit, e.g. 30, 1.5m, 2h")
    p.add_argument("--max-nodes", type=int)
    p.add_argument("-o", "--output", help="witness coloring file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser(
        "formula", help="closed-form value for wheel, join, or union families, as a count of cycle colors C(n)")
    p.add_argument("kind", choices=_FORMULAS)
    p.add_argument("params", type=int, nargs="+")
    p.set_defaults(func=_cmd_formula)

    p = sub.add_parser("certify", help="emit or recheck a counterexample certificate bundle")
    p.add_argument("--family", choices=["counterexample"])
    p.add_argument("--n", type=int)
    p.add_argument("--pair", type=int, nargs=2, metavar=("M", "N"))
    p.add_argument("--recheck", metavar="CERT_JSON")
    p.add_argument("-o", "--output", metavar="DIR")
    p.add_argument("--try-exact", action="store_true",
                   help="attempt a refutation at value-1 within the given budget")
    p.add_argument("--timeout")
    p.add_argument("--max-nodes", type=int)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("oracle", help="brute-force value for a graph file with at most 10 vertices")
    p.add_argument("graph")
    p.add_argument("-o", "--output", help="witness coloring file")
    p.set_defaults(func=_cmd_oracle)

    return parser


# parsing leaves the parser unchanged, so every call shares this one
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_PARSE
    try:
        return args.func(args)
    except CertificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERT
    except (StrongOddError, UnicodeDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError:
        # a size too large to build; where the kernel kills the process first,
        # nothing can be printed
        print("error: out of memory", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
