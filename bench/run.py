"""Benchmark for the strongodd command line: refute, solve and certify workloads.

Usage, from the repository root:

    python3 bench/run.py --workload {refute,solve,certify,all} --seed N \
        --seconds S --trace {0,1}

One client drives ``strongodd.cli.main(argv)`` in this process, in a closed
loop with no threads, over input files generated from the seed under
``.bench_work/``.  Every verdict is checked; a wrong one aborts the run.  A
run repeats whole passes over its inputs until ``--seconds`` have been
spent.  Command times are scaled to a reference machine speed (see
speed.py); the unscaled times are printed too.  With ``--trace 0`` it prints
the end-to-end metrics; with
``--trace 1`` it runs untraced passes for half the time and traced passes for
the other half, prints the per-layer metrics and writes the spans to
``.bench_out/``.  The last line of output is one JSON object.  See
bench/README.md for the metrics and what each one is predicted to move.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 9

END_TO_END = {
    "setup_s": "s",
    "wall_s": "ref_s",
    "verdict_p50_ms": "ref_ms",
    "verdict_p90_ms": "ref_ms",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def fresh_import() -> None:
    """Start a new interpreter that imports strongodd, and wait for it.

    No timeout: with one, subprocess polls for the child's exit with sleeps
    of up to 50 ms, which would quantise the set-up time.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import strongodd"], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def set_up(name: str, seed: int, workdir: Path):
    """Build the inputs SETUP_REPS times from scratch; keep the last set."""
    times, build_times = [], []
    for _ in range(SETUP_REPS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = perf_counter()
        fresh_import()
        inputs = workloads.WORKLOADS[name](seed, workdir)
        times.append(perf_counter() - t0)
        build_times.append(inputs.build_s)
    return inputs, statistics.median(times), statistics.median(build_times)


def run_pass(commands, main, probe: speed.SpeedProbe) -> tuple[list[tuple[float, float]], list]:
    """One pass over the commands; returns each command's (start, seconds)
    and outcome.

    Only the call into ``main`` is timed; the speed probes and verdict checks
    between commands are not.  An outcome of None is a failed command (a crash
    or an exit code that is no verdict).
    """
    timings, outcomes = [], []
    for cmd in commands:
        probe.tick()
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = main(cmd.argv)
        except Exception as exc:  # a traceback from the CLI is a failed command, not a stop
            timings.append((t0, perf_counter() - t0))
            outcomes.append(None)
            print(f"  failed: {cmd.key}: {type(exc).__name__}", file=sys.stderr)
            continue
        timings.append((t0, perf_counter() - t0))
        outcome = workloads.judge(cmd, rc, out.getvalue())
        if outcome is None:
            print(f"  failed: {cmd.key}: exit {rc}: {err.getvalue().strip()}", file=sys.stderr)
        outcomes.append(outcome)
    return timings, outcomes


def run_passes(commands, main, seconds: float, probe, first: list | None, before_pass=None):
    """Whole passes until ``seconds`` are spent; every pass must repeat the
    outcomes of the first exactly (verdicts, values and node counts).
    Returns each pass's timings and the outcomes."""
    passes, outcomes_seen = [], first
    t_end = perf_counter() + seconds
    while True:
        if before_pass is not None:
            before_pass()
        timings, outcomes = run_pass(commands, main, probe)
        if outcomes_seen is None:
            outcomes_seen = outcomes
        elif outcomes != outcomes_seen:
            diff = [c.key for c, a, b in zip(commands, outcomes, outcomes_seen) if a != b]
            raise workloads.WrongVerdict(f"outcomes differ between passes on {diff}")
        passes.append(timings)
        if perf_counter() >= t_end:
            probe.tick(force=True)
            return passes, outcomes_seen


def pass_walls(passes, scale=None) -> list[float]:
    """Seconds inside ``main`` per pass; reference-speed seconds with a scale."""
    return [sum(dt * (scale(t) if scale else 1.0) for t, dt in p) for p in passes]


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()[:16]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int]:
    from strongodd import cli

    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    try:
        inputs, setup_s, setup_build_s = set_up(name, seed, workdir)
        commands = inputs.commands
        print(f"[{name}] seed {seed}: {len(commands)} commands per pass")
        print(f"[{name}] input digest {digest(p.name + ':' + hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs.files)}"
              f" ({len(inputs.files)} files; command digest"
              f" {digest(' '.join(c.argv).replace(str(workdir), '.') for c in commands)})")

        untraced_s = seconds / 2 if trace else seconds
        probe = speed.SpeedProbe()
        untraced, outcomes = run_passes(commands, cli.main, untraced_s, probe, None)
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            marks = []  # index of each traced pass's first span
            try:
                traced, _ = run_passes(commands, tracer.wrap("cli.main", cli.main), seconds / 2, probe,
                                       outcomes, lambda: marks.append(len(tracer.spans)))
            finally:
                tracer.uninstall()
            spans_path = ROOT / ".bench_out" / f"spans-{name}-seed{seed}.jsonl"
            tracer.write(spans_path, marks)
            bounds = marks + [len(tracer.spans)]
            per_pass = [tracing.pass_metrics(tracer.spans, bounds[i], bounds[i + 1]) for i in range(len(marks))]
            print(f"[{name}] {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(o is None for o in outcomes)
    decided = sum(o is not None and o.decided for o in outcomes)
    rows = [f"{c.key} {o.status} {o.value} {o.nodes}" if o else f"{c.key} failed"
            for c, o in sorted(zip(commands, outcomes), key=lambda co: (co[0].key, co[0].kind))]
    print(f"[{name}] verdict digest {digest(rows)} (input, status, value, nodes)")
    if name == "solve":
        print(f"[{name}] oracle agreed on {workloads.oracle_check(commands, outcomes)} inputs with <= {workloads.ORACLE_MAX_N} vertices")
    if name == "refute":
        reference = {key: nodes for key, _, _, nodes in workloads.REFUTE_POOL}
        for c, o in sorted(zip(commands, outcomes), key=lambda co: co[0].key):
            nodes = o.nodes if o else None
            note = "" if nodes == reference[c.key] else f" (reference {reference[c.key]})"
            print(f"[{name}] nodes {c.key} {nodes}{note}")
    n_cmd = len(commands)
    passes = untraced + (traced if trace else [])
    print(f"[{name}] {len(passes)} passes, {n_cmd} commands each; failed {failed}/{n_cmd} per pass"
          f" (failed_ratio {failed / n_cmd:.4f}); {len(untraced) * n_cmd} untraced latency samples")
    walls = pass_walls(untraced, probe.scale)
    print(f"[{name}] speed scale {probe.median_scale():.4f} ref_s/s from {len(probe.took)} probes;"
          f" pass walls {' '.join(f'{w:.3f}' for w in pass_walls(untraced))} s"
          f" = {' '.join(f'{w:.3f}' for w in walls)} ref_s"
          + (f"; traced {' '.join(f'{w:.3f}' for w in pass_walls(traced, probe.scale))} ref_s" if trace else ""))

    if trace:
        metrics = tracing.median_metrics(per_pass)
        metrics["cli.main.failed"] = failed
        metrics["setup.graphs.build.s"] = setup_build_s
        metrics["tracing_overhead_s"] = (statistics.median(pass_walls(traced, probe.scale))
                                         - statistics.median(walls))
        units = tracing.LAYER_METRICS
    else:
        raw = [dt for p in untraced for t, dt in p]
        scaled = [dt * probe.scale(t) for p in untraced for t, dt in p]
        print(f"[{name}] as measured: wall_s = {statistics.median(pass_walls(untraced)):.6g} s,"
              f" verdict_p50_ms = {statistics.median(raw) * 1e3:.6g} ms,"
              f" verdict_p90_ms = {statistics.quantiles(raw, n=10, method='inclusive')[8] * 1e3:.6g} ms")
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "verdict_p50_ms": statistics.median(scaled) * 1e3,
            "verdict_p90_ms": statistics.quantiles(scaled, n=10, method="inclusive")[8] * 1e3,
            "decided_ratio": decided / n_cmd,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    result = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    for k, v in result.items():
        print(f"[{name}] {k} = {v['value']:.6g} {v['unit']}")
    return result, len(passes) * n_cmd, len(passes) * failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["refute", "solve", "certify", "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "strongodd" / "__init__.py").is_file():
        print(f"error: no strongodd package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global workloads, tracing  # both import strongodd, so only once it is known to exist
    import tracing
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            result, a, f = run_workload(name, args.seed, args.seconds, bool(args.trace))
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in result.items()})
            attempted += a
            failed += f
    except workloads.WrongVerdict as exc:
        print(f"error: wrong verdict: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1), "failed": failed, "metrics": {}}))
        return 1
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
