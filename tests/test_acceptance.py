"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Solver results feeding several criteria are computed
once in module-scoped fixtures.
"""

import json
import random
from contextlib import contextmanager
from time import perf_counter

import pytest

from helpers import c4_with_pendants, class_sizes_on, cycle_vertices, is_two_distance_on, random_graph
from strongodd import (
    BipyramidUnion,
    Cycle,
    JoinCycleEmpty,
    Wheel,
    brute_force_so,
    build,
    chromatic_strong_odd,
    coloring_for,
    decide_k,
    formula,
    is_strong_odd,
    reverify_certificate,
)
from strongodd.cli import main as cli_main


@contextmanager
def criterion(num, limit_seconds=None):
    rec = type("Rec", (), {"elapsed": None, "detail": ""})()
    t0 = perf_counter()
    try:
        yield rec
    except BaseException:
        elapsed = rec.elapsed if rec.elapsed is not None else perf_counter() - t0
        print(f"\nACCEPTANCE criterion {num}: FAIL ({elapsed:.2f}s) {rec.detail}")
        raise
    elapsed = rec.elapsed if rec.elapsed is not None else perf_counter() - t0
    print(f"\nACCEPTANCE criterion {num}: PASS ({elapsed:.2f}s) {rec.detail}")
    if limit_seconds is not None:
        assert elapsed < limit_seconds, f"criterion {num} took {elapsed:.2f}s, limit {limit_seconds}s"


@pytest.fixture(scope="module")
def wheel_solves():
    t0 = perf_counter()
    results = {n: chromatic_strong_odd(build(Wheel(n))) for n in range(3, 13)}
    return results, perf_counter() - t0


@pytest.fixture(scope="module")
def hard_wheel_decides():
    results = {}
    times = {}
    for n, k in [(13, 5), (13, 6), (14, 6), (14, 7)]:
        t0 = perf_counter()
        results[(n, k)] = decide_k(build(Wheel(n)), k)
        times[(n, k)] = perf_counter() - t0
    return results, times


@pytest.fixture(scope="module")
def join_adjudication():
    t0 = perf_counter()
    result = chromatic_strong_odd(build(JoinCycleEmpty(9, 2)))
    return result, perf_counter() - t0


def test_criterion_1_wheel_formula_vs_exact_solver(wheel_solves):
    results, elapsed = wheel_solves
    expected = {3: 4, 4: 5, 5: 6, 6: 7, 7: 8, 8: 9, 9: 4, 10: 5, 11: 6, 12: 5}
    with criterion(1, limit_seconds=10.0) as rec:
        rec.elapsed = elapsed
        for n in range(3, 13):
            r = results[n]
            assert r.status == "exact", f"W_{n} not solved exactly"
            assert r.value == formula(Wheel(n)).value == expected[n], f"W_{n}: got {r.value}"
        rec.detail = f"values {[results[n].value for n in range(3, 13)]}"


def test_criterion_2_hard_wheel_decisions(hard_wheel_decides):
    results, times = hard_wheel_decides
    with criterion(2) as rec:
        rec.elapsed = sum(times.values())
        assert results[(13, 5)].answer == "no"
        assert results[(13, 6)].answer == "yes"
        assert results[(14, 6)].answer == "no"
        assert results[(14, 7)].answer == "yes"
        for key, t in times.items():
            assert t < 300.0, f"decide {key} took {t:.1f}s, limit 300s"
        rec.detail = "W13: no@5 yes@6, W14: no@6 yes@7"


def test_criterion_3_constructive_upper_bounds_at_scale():
    with criterion(3, limit_seconds=5.0) as rec:
        specs = ([Wheel(n) for n in range(3, 61)]
                 + [JoinCycleEmpty(n, m) for n in range(3, 31) for m in range(1, 7)]
                 + [BipyramidUnion(m, n) for m in range(3, 21) for n in range(3, 21)])
        for spec in specs:
            c = coloring_for(spec)
            assert is_strong_odd(build(spec), c)
            assert len(c.palette) == formula(spec).value
        rec.detail = f"{len(specs)} colorings verified"


def test_criterion_4_oracle_equivalence(connected_small_graphs):
    with criterion(4, limit_seconds=600.0) as rec:
        for g in connected_small_graphs:
            exact = chromatic_strong_odd(g)
            oracle = brute_force_so(g)
            assert exact.status == "exact" and exact.value == oracle.value, g.edges()
        rng = random.Random(20250808)
        for _ in range(200):
            n = rng.randint(7, 9)
            p = rng.choice([0.15, 0.3, 0.45, 0.6, 0.75])
            g = random_graph(n, p, rng)
            exact = chromatic_strong_odd(g)
            oracle = brute_force_so(g)
            assert exact.status == "exact" and exact.value == oracle.value, g.edges()
        rec.detail = f"{len(connected_small_graphs)} connected + 200 random graphs"


def test_criterion_5_one_point_union_at_desk_scale():
    with criterion(5, limit_seconds=120.0) as rec:
        g = build(BipyramidUnion(3, 3))
        value, witness = brute_force_so(g)
        assert value == 7 == formula(BipyramidUnion(3, 3)).value
        assert is_strong_odd(g, witness)
        constructed = coloring_for(BipyramidUnion(3, 3))
        assert is_strong_odd(g, constructed) and len(constructed.palette) == 7
        rec.detail = "brute force value 7 matches the closed form"


def test_criterion_6_join_parity_adjudication(join_adjudication):
    result, elapsed = join_adjudication
    with criterion(6, limit_seconds=600.0) as rec:
        rec.elapsed = elapsed
        assert result.status == "exact"
        assert result.value == 5
        rec.detail = "cycle-9 with 2 hubs needs 5 colors (hub-count parity governs)"


def test_criterion_7_counterexample_certificates(tmp_path):
    cases = (
        [("--family", "counterexample", "--n", str(n)) for n in (11, 17, 23)]
        + [("--pair", str(m), str(n)) for m, n in ((6, 8), (7, 7), (7, 8), (8, 8))]
    )
    expected_values = [14, 14, 14, 15, 15, 16, 17]
    with criterion(7, limit_seconds=10.0) as rec:
        values = []
        for i, case in enumerate(cases):
            outdir = tmp_path / f"bundle{i}"
            code = cli_main(["certify", *case, "-o", str(outdir)])
            assert code == 0, case
            cert_files = list(outdir.glob("*.cert.json"))
            assert len(cert_files) == 1
            document = cert_files[0].read_text(encoding="utf-8")
            data = json.loads(document)
            assert all(check["ok"] for check in data["checks"])
            assert {c["name"] for c in data["checks"]} >= {"proper", "strong_odd", "palette_count", "euler"}
            ok, results = reverify_certificate(document)
            assert ok, results
            values.append(data["claimed_value"])
        assert values == expected_values
        rec.detail = f"claimed values {values}, all re-verified from disk"


def test_criterion_8_witness_parity_and_distance(wheel_solves, hard_wheel_decides, join_adjudication):
    witnesses = []
    for n, res in wheel_solves[0].items():
        witnesses.append((build(Wheel(n)), res.witness))
    for (n, k), r in hard_wheel_decides[0].items():
        if r.answer == "yes":
            witnesses.append((build(Wheel(n)), r.witness))
    witnesses.append((build(JoinCycleEmpty(9, 2)), join_adjudication[0].witness))
    with criterion(8) as rec:
        for g, w in witnesses:
            assert w is not None
            cyc = cycle_vertices(g)
            assert all(k % 2 for k in class_sizes_on(g, w, cyc).values() if k), (g, w)
            assert is_two_distance_on(g, w, cyc), (g, w)
        rec.detail = f"{len(witnesses)} solver witnesses: cycle classes odd, 2-distance holds"


def test_criterion_9_non_monotonicity_witness():
    with criterion(9, limit_seconds=1.0) as rec:
        g, c = c4_with_pendants()
        assert is_strong_odd(g, c)
        assert len(c.palette) == 2
        assert brute_force_so(build(Cycle(4))).value == 4
        rec.detail = "supergraph of the 4-color cycle colored with 2"
