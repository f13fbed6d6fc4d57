"""Span tracing around calls into the strongodd modules, installed from outside.

The package has no tracing of its own, so the benchmark wraps, for the length
of a traced pass, every function a strongodd module imports from a sibling
module (the names ``cli``, ``certificates``, ``solver`` and ``families`` bind
at import time), plus ``solver.decide_k``,
``certificates.make_union_certificate`` and ``Certificate.to_json``.  Each
call records a span (name, start, end, parent).  A span's self time is its
duration minus the durations of its direct children; a layer's self time is
the sum over the spans named after it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "graphs", "coloring", "families", "solver", "embedding", "certificates")

# per-layer metric name -> unit, in print order; the names BENCHMARK.json lists
LAYER_METRICS = {
    "solver.nodes": "count",
    "solver.nodes_per_s": "1/s",
    "solver.decide_k.s": "s",
    "solver.decide_k.calls": "count",
    "solver.decide_k.answers.yes": "count",
    "solver.decide_k.answers.no": "count",
    "solver.decide_k.answers.timeout": "count",
    "solver.chromatic_strong_odd.self_s": "s",
    "solver.wasted_node_ratio": "ratio",
    "cli.main.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.failed": "count",
    "embedding.verify_embedding.s": "s",
    "embedding.verify_embedding.darts_per_s": "1/s",
    "embedding.embed_family.s": "s",
    "graphs.from_dimacs.s": "s",
    "graphs.from_dimacs.bytes_per_s": "B/s",
    "graphs.build.s": "s",
    "graphs.to_dimacs.s": "s",
    "coloring.is_strong_odd.s": "s",
    "coloring.is_strong_odd.calls": "count",
    "coloring.parse_coloring.s": "s",
    "coloring.parity_report.s": "s",
    "families.union_coloring.s": "s",
    "certificates.make_union_certificate.self_s": "s",
    "certificates.reverify_certificate.self_s": "s",
    "certificates.Certificate.to_json.s": "s",
    "certificates.bytes": "B",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "setup.graphs.build.s": "s",
    "tracing_overhead_s": "ref_s",
    "trace.spans": "count",
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name: str, parent: int | None):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.info = None


def _decide_info(args, result):
    return result.answer, result.nodes


def _solve_info(args, result):
    return result.status, result.nodes


# span name -> what to keep from a successful call (arguments, result)
_OBSERVERS = {
    "solver.decide_k": _decide_info,
    "solver.chromatic_strong_odd": _solve_info,
    "embedding.verify_embedding": lambda args, result: 2 * args[0].edge_count,  # darts
    "graphs.from_dimacs": lambda args, result: len(args[0]),  # bytes; the format is ASCII
    "certificates.Certificate.to_json": lambda args, result: len(result),  # bytes
}


class Tracer:
    """Collects spans while installed; ``uninstall`` restores every name."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if observe is not None:
                span.info = observe(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"strongodd.{layer}")
            for attr, value in list(vars(module).items()):
                home = getattr(value, "__module__", "") or ""
                if inspect.isfunction(value) and home.startswith("strongodd.") and home != module.__name__:
                    self._patch(module, attr, f"{home.split('.')[1]}.{value.__name__}")
        # calls that stay inside one module: chromatic_strong_odd -> decide_k,
        # counterexample -> make_union_certificate
        solver = importlib.import_module("strongodd.solver")
        self._patch(solver, "decide_k", "solver.decide_k")
        certificates = importlib.import_module("strongodd.certificates")
        self._patch(certificates, "make_union_certificate", "certificates.make_union_certificate")
        self._patch(certificates.Certificate, "to_json", "certificates.Certificate.to_json")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: Path, marks: list[int]) -> None:
        """One JSON line per span: name, start, end, parent index, pass index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        bounds = marks + [len(self.spans)]
        with path.open("w", encoding="utf-8") as fh:
            for p in range(len(marks)):
                for i in range(bounds[p], bounds[p + 1]):
                    s = self.spans[i]
                    fh.write(json.dumps([s.name, s.start, s.end, s.parent, p]) + "\n")


def pass_metrics(spans: list[Span], lo: int, hi: int) -> dict[str, float]:
    """Per-layer figures for the spans[lo:hi] of one traced pass."""
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        p = spans[i].parent
        if p is not None:
            child[p - lo] += spans[i].end - spans[i].start
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    nodes = wasted = darts = dimacs_bytes = cert_bytes = 0
    answers = {"yes": 0, "no": 0, "timeout": 0}
    for i in range(lo, hi):
        s = spans[i]
        dur = s.end - s.start
        own = dur - child[i - lo]
        total[s.name] = total.get(s.name, 0.0) + dur
        self_s[s.name] = self_s.get(s.name, 0.0) + own
        calls[s.name] = calls.get(s.name, 0) + 1
        layer_self[s.name.split(".")[0]] += own
        if s.info is None:
            continue
        if s.name == "solver.decide_k":
            answer, n = s.info
            answers[answer] += 1
            nodes += n
            parent = spans[s.parent] if s.parent is not None else None
            if parent is not None and parent.name == "solver.chromatic_strong_odd":
                # an aborted solve wastes every level it searched
                if parent.info is None or parent.info[0] != "exact":
                    wasted += n
            elif answer == "timeout":
                wasted += n
        elif s.name == "embedding.verify_embedding":
            darts += s.info
        elif s.name == "graphs.from_dimacs":
            dimacs_bytes += s.info
        elif s.name == "certificates.Certificate.to_json":
            cert_bytes += s.info

    def rate(amount, name):
        return amount / total[name] if total.get(name) else 0.0

    out = {
        "solver.nodes": nodes,
        "solver.nodes_per_s": rate(nodes, "solver.decide_k"),
        "solver.decide_k.s": total.get("solver.decide_k", 0.0),
        "solver.decide_k.calls": calls.get("solver.decide_k", 0),
        **{f"solver.decide_k.answers.{a}": c for a, c in answers.items()},
        "solver.chromatic_strong_odd.self_s": self_s.get("solver.chromatic_strong_odd", 0.0),
        "solver.wasted_node_ratio": wasted / nodes if nodes else 0.0,
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "cli.main.calls": calls.get("cli.main", 0),
        "embedding.verify_embedding.s": total.get("embedding.verify_embedding", 0.0),
        "embedding.verify_embedding.darts_per_s": rate(darts, "embedding.verify_embedding"),
        "embedding.embed_family.s": total.get("embedding.embed_family", 0.0),
        "graphs.from_dimacs.s": total.get("graphs.from_dimacs", 0.0),
        "graphs.from_dimacs.bytes_per_s": rate(dimacs_bytes, "graphs.from_dimacs"),
        "graphs.build.s": total.get("graphs.build", 0.0),
        "graphs.to_dimacs.s": total.get("graphs.to_dimacs", 0.0),
        "coloring.is_strong_odd.s": total.get("coloring.is_strong_odd", 0.0),
        "coloring.is_strong_odd.calls": calls.get("coloring.is_strong_odd", 0),
        "coloring.parse_coloring.s": total.get("coloring.parse_coloring", 0.0),
        "coloring.parity_report.s": total.get("coloring.parity_report", 0.0),
        "families.union_coloring.s": total.get("families.union_coloring", 0.0),
        "certificates.make_union_certificate.self_s": self_s.get("certificates.make_union_certificate", 0.0),
        "certificates.reverify_certificate.self_s": self_s.get("certificates.reverify_certificate", 0.0),
        "certificates.Certificate.to_json.s": total.get("certificates.Certificate.to_json", 0.0),
        "certificates.bytes": cert_bytes,
        **{f"layer.{layer}.self_s": t for layer, t in layer_self.items()},
        "trace.spans": hi - lo,
    }
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
