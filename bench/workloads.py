"""Seeded inputs, command lists and verdict checks for the benchmark workloads.

Each workload turns a seed into input files (written with the package's own
constructors) and a list of CLI commands.  ``judge`` reads a command's exit
code and output and returns its outcome, raises ``WrongVerdict`` when the
program answered wrongly, or returns None when the command failed (an
unexpected exit code); a crash is caught by the caller.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from strongodd.coloring import parse_coloring, is_strong_odd
from strongodd.errors import StrongOddError
from strongodd.graphs import BipyramidUnion, Cycle, Graph, JoinCycleEmpty, Wheel, build, to_dimacs
from strongodd.solver import brute_force_so


class WrongVerdict(Exception):
    """The program gave an answer the benchmark knows to be wrong."""


@dataclass(frozen=True)
class Outcome:
    status: str
    value: int | None
    nodes: int | None
    decided: bool


@dataclass
class Command:
    key: str                 # stable name of the input, used in digests
    kind: str                # decide | pair | solve | certify | recheck | verify
    argv: list[str]
    graph: Graph | None = None
    extra: dict = field(default_factory=dict)


@dataclass
class Inputs:
    commands: list[Command]
    files: list[Path]        # generated input files, in generation order
    build_s: float           # time spent in strongodd.graphs constructing and serialising


# --- refute ---------------------------------------------------------------

# family members at value - 1, all known "no"; nodes = decide_k's exact
# count on default degree order at the commit that defined this benchmark
REFUTE_POOL = [
    ("W14", Wheel(14), 6, 20_318),
    ("W17", Wheel(17), 5, 10_088),
    ("W19", Wheel(19), 5, 42_546),
    ("W23", Wheel(23), 5, 685_535),
    ("J14_4", JoinCycleEmpty(14, 4), 7, 81_313),
    ("J19_4", JoinCycleEmpty(19, 4), 6, 170_215),
    ("U4_8", BipyramidUnion(4, 8), 12, 163_577),
    ("U5_9", BipyramidUnion(5, 9), 8, 413_060),
    ("U6_7", BipyramidUnion(6, 7), 13, 225_513),
    ("U7_7", BipyramidUnion(7, 7), 14, 470_293),
    ("U6_8", BipyramidUnion(6, 8), 14, 1_224_335),
    ("U9_10", BipyramidUnion(9, 10), 7, 494_281),
]
CERTIFY_PAIRS = {(6, 8), (7, 7)}   # refuted through `certify --pair --try-exact`
REFUTE_MAX_NODES = 20_000_000      # a safety budget far above every count above


def refute_inputs(seed: int, workdir: Path) -> Inputs:
    """Every pool member once per pass, in a seeded order, so the work of a
    pass does not depend on the seed."""
    rng = random.Random(seed)
    pool = list(REFUTE_POOL)
    rng.shuffle(pool)
    commands, files, build_s = [], [], 0.0
    for key, spec, k, _ in pool:
        if isinstance(spec, BipyramidUnion) and (spec.m, spec.n) in CERTIFY_PAIRS:
            outdir = workdir / "pairs"
            argv = ["certify", "--pair", str(spec.m), str(spec.n), "--try-exact",
                    "--max-nodes", str(REFUTE_MAX_NODES), "-o", str(outdir)]
            cert = outdir / f"bipyramid_union_{spec.m}_{spec.n}.cert.json"
            commands.append(Command(key, "pair", argv, extra={"value": k + 1, "cert": cert}))
            continue
        path = workdir / f"{key}.col"
        t0 = perf_counter()
        text = to_dimacs(build(spec))
        build_s += perf_counter() - t0
        path.write_text(text, encoding="utf-8")
        files.append(path)
        argv = ["solve", str(path), "--decide", str(k), "--max-nodes", str(REFUTE_MAX_NODES)]
        commands.append(Command(key, "decide", argv))
    return Inputs(commands, files, build_s)


# --- solve ----------------------------------------------------------------

SOLVE_MAX_NODES = 50_000
ORACLE_MAX_N = 9

# (generator, vertex counts, inputs per count per pass): "gnp" is G(n, 0.3),
# "dense" G(n, 0.5), "planar" a stacked triangulation with each edge dropped
# with probability 0.2.  Fixed counts per n leave only the graphs' structure
# to the seed.  The many small graphs put verdict_p50_ms among n = 10-13 and
# give it enough of them to be steady.  Up to n = 20 most searches end in a yes and a few run out of
# budget; the dense stratum never decides within the budget, so the number of
# exhausted searches, which cost most of a pass, barely moves with the seed.
# It is one kind of graph so that verdict_p90_ms, which falls in its middle,
# does not straddle two kinds with different costs per node.
SOLVE_STRATA = [
    ("gnp", range(7, 10), 8),
    ("planar", range(7, 10), 8),
    ("gnp", range(10, 14), 10),
    ("planar", range(10, 14), 10),
    ("gnp", range(14, 17), 4),
    ("planar", range(14, 17), 4),
    ("gnp", range(17, 21), 2),
    ("planar", range(17, 21), 2),
    ("dense", range(26, 29), 10),
]
# long sparse cycles, one log-uniform size per stratum of [1200, 5000);
# decide_k recurses once per vertex on them
LONG_CYCLES = (1200, 5000, 4)


def _gnp(rng: random.Random, n: int, p: float) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def _planar(rng: random.Random, n: int) -> Graph:
    edges = {(0, 1), (0, 2), (1, 2)}
    faces = [(0, 1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges |= {(a, v), (b, v), (c, v)}
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    return Graph(n, [e for e in sorted(edges) if rng.random() >= 0.2])


_GENERATORS = {
    "gnp": lambda rng, n: _gnp(rng, n, 0.3),
    "dense": lambda rng, n: _gnp(rng, n, 0.5),
    "planar": _planar,
    "cycle": lambda rng, n: build(Cycle(n)),
}


def solve_inputs(seed: int, workdir: Path) -> Inputs:
    rng = random.Random(seed)
    drawn = [(kind, n) for kind, sizes, count in SOLVE_STRATA for n in sizes for _ in range(count)]
    lo, hi, count = LONG_CYCLES
    ratio = (hi / lo) ** (1 / count)
    drawn += [("cycle", int(lo * ratio ** (i + rng.random()))) for i in range(count)]
    drawn = [(f"{kind}{i:03d}_n{n}", kind, n) for i, (kind, n) in enumerate(drawn)]
    rng.shuffle(drawn)
    commands, files, build_s = [], [], 0.0
    for key, kind, n in drawn:
        t0 = perf_counter()
        g = _GENERATORS[kind](rng, n)
        text = to_dimacs(g)
        build_s += perf_counter() - t0
        path = workdir / f"{key}.col"
        path.write_text(text, encoding="utf-8")
        files.append(path)
        witness = workdir / f"{key}.coloring"
        argv = ["solve", str(path), "--exact", "--max-nodes", str(SOLVE_MAX_NODES), "-o", str(witness)]
        commands.append(Command(key, "solve", argv, graph=g, extra={"witness": witness}))
    return Inputs(commands, files, build_s)


def oracle_check(commands: list[Command], outcomes: list[Outcome]) -> int:
    """Compare exact values on small inputs with the brute-force oracle."""
    checked = 0
    for cmd, out in zip(commands, outcomes):
        if cmd.graph is not None and cmd.graph.n <= ORACLE_MAX_N and out is not None and out.status == "exact":
            expected = brute_force_so(cmd.graph).value
            if out.value != expected:
                raise WrongVerdict(f"{cmd.key}: solve says {out.value}, oracle says {expected}")
            checked += 1
    return checked


# --- certify --------------------------------------------------------------

CERTIFY_LO, CERTIFY_HI = 11, 4000
# two sizes per log-uniform stratum, at mirrored positions u and 1 - u, so
# that the sizes' costs, and the latency quantiles, vary little with the
# seed.  A stratum boundary sits at n = 3269,
# where verify_embedding's set of 6n + 48 darts outgrows a hash-table size
# and its cost steps up about threefold, so no seed moves a size across it
CERTIFY_STRATA = 31
CERTIFY_STEP_N = 3269
CERTIFY_VALUE = 14


def _family_size_at_most(x: float) -> int:
    """Largest n <= x with n = 1 or 5 (mod 6), the sizes the family takes."""
    n = int(x)
    while n % 6 not in (1, 5):
        n -= 1
    return max(n, CERTIFY_LO)


def certify_sizes(seed: int) -> list[int]:
    rng = random.Random(seed)
    ratio = CERTIFY_HI / CERTIFY_STEP_N
    lo = CERTIFY_STEP_N / ratio ** (CERTIFY_STRATA - 1)
    sizes = []
    for i in range(CERTIFY_STRATA):
        u = rng.random()
        sizes += [_family_size_at_most(lo * ratio ** (i + u)), _family_size_at_most(lo * ratio ** (i + 1 - u))]
    rng.shuffle(sizes)
    return sizes


def certify_inputs(seed: int, workdir: Path) -> Inputs:
    commands = []
    outdir = workdir / "certs"
    for n in certify_sizes(seed):
        stem = outdir / f"bipyramid_union_8_{n}"
        key = f"cx{n}"
        commands.append(Command(key, "certify", ["certify", "--family", "counterexample", "--n", str(n), "-o", str(outdir)]))
        commands.append(Command(key, "recheck", ["certify", "--recheck", f"{stem}.cert.json"]))
        commands.append(Command(key, "verify", ["verify", f"{stem}.col", f"{stem}.coloring"]))
    return Inputs(commands, [], 0.0)


WORKLOADS = {"refute": refute_inputs, "solve": solve_inputs, "certify": certify_inputs}


# --- verdicts -------------------------------------------------------------

def _field(out: str, name: str) -> str:
    m = re.search(rf"^{re.escape(name)}: (\S+)", out, re.MULTILINE)
    if m is None:
        raise WrongVerdict(f"output lacks {name!r}: {out!r}")
    return m.group(1)


def judge(cmd: Command, rc: int, out: str) -> Outcome | None:
    if cmd.kind == "decide":
        if rc == 2 and _field(out, "answer") == "no":
            return Outcome("no", None, int(_field(out, "nodes")), True)
        if rc == 3:
            return Outcome("timeout", None, int(_field(out, "nodes")), False)
        if rc == 0:
            raise WrongVerdict(f"{cmd.key}: expected no, got {out!r}")
        return None
    if cmd.kind == "pair":
        if rc != 0:
            if rc == 4:
                raise WrongVerdict(f"{cmd.key}: certification failed: {out!r}")
            return None
        m = re.search(r"^claimed value: (\d+) \((\S+)\)", out, re.MULTILINE)
        if m is None:
            raise WrongVerdict(f"{cmd.key}: output lacks the claim: {out!r}")
        value, kind = m.groups()
        if int(value) != cmd.extra["value"]:
            raise WrongVerdict(f"{cmd.key}: claimed {value}, expected {cmd.extra['value']}")
        notes = cmd.extra["cert"].read_text(encoding="utf-8")
        m = re.search(r"search explored (\d+) nodes", notes)
        nodes = int(m.group(1)) if m else None
        return Outcome(kind, int(value), nodes, kind == "exact")
    if cmd.kind == "solve":
        if rc == 3:
            return Outcome("bounds", None, int(_field(out, "nodes")), False)
        if rc != 0:
            return None
        value = int(_field(out, "value"))
        g = cmd.graph
        try:
            witness = parse_coloring(cmd.extra["witness"].read_text(encoding="utf-8"), g.n)
        except StrongOddError as exc:
            raise WrongVerdict(f"{cmd.key}: unreadable witness: {exc}") from None
        if not is_strong_odd(g, witness) or len(witness.palette) != value:
            raise WrongVerdict(f"{cmd.key}: witness does not verify at value {value}")
        return Outcome("exact", value, int(_field(out, "nodes")), True)
    if cmd.kind == "certify":
        if rc != 0:
            return None
        m = re.search(r"^claimed value: (\d+) \((\S+)\)", out, re.MULTILINE)
        if m is None or int(m.group(1)) != CERTIFY_VALUE:
            raise WrongVerdict(f"{cmd.key}: expected a {CERTIFY_VALUE}-colour claim, got {out!r}")
        return Outcome(m.group(2), CERTIFY_VALUE, None, True)
    if cmd.kind == "recheck":
        if rc == 0 and "certificate: ok" in out:
            return Outcome("ok", None, None, True)
        if rc == 4:
            raise WrongVerdict(f"{cmd.key}: recheck failed: {out!r}")
        return None
    if cmd.kind == "verify":
        if rc == 0 and f"strong-odd: ok ({CERTIFY_VALUE} colors)" in out:
            return Outcome("ok", CERTIFY_VALUE, None, True)
        if rc == 2:
            raise WrongVerdict(f"{cmd.key}: coloring rejected: {out!r}")
        return None
    raise ValueError(f"unknown command kind {cmd.kind!r}")
