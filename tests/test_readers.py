"""The bulk readers against the line walks.

``from_dimacs`` and ``parse_coloring`` read text in exactly the writers'
layout in bulk and hand any other text to their line walks
(``graphs._walk``, ``coloring._walk``).  Each reader must return what its
walk returns, or raise the same error with the same message and line, on
the writers' own output and on small edits of it; and the writers' output
must never reach a walk, or the bulk path could go dead unnoticed.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import strongodd.coloring
import strongodd.graphs
from helpers import family_specs, labeled_graphs
from strongodd import (
    BipyramidUnion,
    Coloring,
    Graph,
    build,
    format_coloring,
    from_dimacs,
    parse_coloring,
    to_dimacs,
)

family_graphs = family_specs.map(build)


def outcome(read, *args):
    """What a reader makes of its input: the graph or coloring it returns,
    or the type, message and line of the error it raises."""
    try:
        result = read(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    if isinstance(result, Graph):
        return "graph", result.n, result.adj, dict(result.labels)
    return "coloring", result.colors


def _number_at(draw, lines, kinds):
    """The index of a line of one of ``kinds`` and of a numeric token in it."""
    at = draw(st.sampled_from([i for i, line in enumerate(lines) if line[:1] in kinds]))
    numeric = [j for j, token in enumerate(lines[at].split(" ")) if token.isdigit()]
    return at, draw(st.sampled_from(numeric))


@st.composite
def edited(draw, text, kinds, comment, extra_lines):
    """``text`` with up to two line edits, then perhaps CRLF endings and no
    final newline.  ``kinds`` are the first characters of the lines whose
    numbers may be edited, ``comment`` a comment line, and ``extra_lines``
    lines that break a rule when inserted."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(
            ["comment", "space", "prefix", "move", "duplicate", "delete", "insert", "swap"]))
        if edit == "comment":
            lines.insert(draw(st.integers(0, len(lines))), comment)
            continue
        if edit == "insert":
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(extra_lines)))
            continue
        if not lines:
            continue
        at = draw(st.integers(0, len(lines) - 1))
        if edit == "space" and " " in lines[at]:
            # whitespace that str.split takes, the last two also line breaks
            lines[at] = lines[at].replace(" ", draw(st.sampled_from(["\t", "  ", "\r", "\x85"])), 1)
        elif edit == "prefix" and any(line[:1] in kinds for line in lines):
            i, j = _number_at(draw, lines, kinds)
            tokens = lines[i].split(" ")
            tokens[j] = draw(st.sampled_from(["0", "+"])) + tokens[j]
            lines[i] = " ".join(tokens)
        elif edit == "move":
            lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(at))
        elif edit == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[at])
        elif edit == "delete":
            del lines[at]
        elif edit == "swap" and lines[at][:1] in kinds:
            tokens = lines[at].split(" ")
            if len(tokens) == 3 and tokens[1].isdigit() and tokens[2].isdigit():
                # an edge line with u > v or u == v
                tokens[1], tokens[2] = tokens[2], draw(st.sampled_from([tokens[1], tokens[2]]))
                lines[at] = " ".join(tokens)
    # each ending edit one time in four, so that the line edits alone are
    # drawn often enough
    end = "\r\n" if draw(st.integers(0, 3)) == 0 else "\n"
    out = end.join(lines) + (end if lines else "")
    return out[:-1] if out and draw(st.integers(0, 3)) == 0 else out


@st.composite
def dimacs_texts(draw):
    g = draw(st.one_of(labeled_graphs(), family_graphs))
    text = to_dimacs(g, include_labels=draw(st.booleans()))
    n = g.n
    # an edge or label past n, a self-loop, and headers with the wrong counts
    extra = [f"e 1 {n + 1}", f"e {n} {n}", f"l {n + 1} hub", f"l {max(n, 1)} hub",
             f"p edge {n} {g.edge_count + 1}", f"p edge {n + 1} {g.edge_count}", "e 1 2", "x 1 2"]
    lines = text.splitlines()
    if draw(st.integers(0, 3)) == 0:
        # a wrong count in the header itself
        v, e = draw(st.sampled_from([(n, g.edge_count + 1), (n, max(g.edge_count - 1, 0)), (max(n - 1, 0), g.edge_count)]))
        lines[0] = f"p edge {v} {e}"
    return draw(edited("\n".join(lines) + "\n", "pel", "c note", extra))


@st.composite
def coloring_texts(draw):
    n = draw(st.integers(0, 12))
    colors = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    text = format_coloring(Coloring(colors))
    extra = [f"{n + 1} 1", "1 0", f"{max(n, 1)} 3", "1 1 # inline", "1"]
    # the reader is told n, one more or one fewer
    told = draw(st.sampled_from([n, n, n, n + 1, max(n - 1, 0)]))
    return draw(edited(text, "0123456789", "# note", extra)), told


class TestSameAsTheWalk:
    @given(dimacs_texts())
    def test_from_dimacs(self, text):
        assert outcome(from_dimacs, text) == outcome(strongodd.graphs._walk, text)

    @given(coloring_texts())
    def test_parse_coloring(self, case):
        text, n = case
        assert outcome(parse_coloring, text, n) == outcome(strongodd.coloring._walk, text, n)

    # a text of several 16 KB blocks, edited on a line in the first block,
    # just past the first block, in the last edge line and in the last line
    BIG = to_dimacs(build(BipyramidUnion(8, 1201)))

    @pytest.mark.parametrize("edit", [
        lambda line: line.replace(" ", "\t", 1),
        lambda line: line.replace(" ", "  ", 1),
        lambda line: line.replace(" ", "\r", 1),
        lambda line: line + "\r",
        lambda line: line + " 1",
        lambda line: "c " + line,
        lambda line: line.replace(" ", " 0", 1),
        lambda line: line.replace(" ", " 99999", 1),
    ], ids=["tab", "double-space", "cr-between", "cr", "fourth-token", "comment", "leading-zero", "past-n"])
    @pytest.mark.parametrize("where", ["first", "past-block", "last-edge", "last"])
    def test_edits_across_blocks(self, edit, where):
        lines = self.BIG.splitlines()
        assert len(self.BIG) > 3 * strongodd.graphs._BLOCK
        at = {"first": 1, "past-block": self.BIG.count("\n", 0, strongodd.graphs._BLOCK) + 2,
              "last-edge": max(i for i, line in enumerate(lines) if line.startswith("e ")),
              "last": len(lines) - 1}[where]
        lines[at] = edit(lines[at])
        text = "\n".join(lines) + "\n"
        assert outcome(from_dimacs, text) == outcome(strongodd.graphs._walk, text)

    BIG_COLORING = format_coloring([1 + v % 17 for v in range(6000)])

    @pytest.mark.parametrize("edit", [
        lambda lines, at: lines.insert(at + 5, lines.pop(at)),
        lambda lines, at: lines.insert(at, lines[at]),
        lambda lines, at: lines.pop(at),
        lambda lines, at: lines.__setitem__(at, lines[at].replace(" ", "\t")),
        lambda lines, at: lines.__setitem__(at, lines[at].replace(" ", "\r")),
        lambda lines, at: lines.__setitem__(at, lines[at].replace(" ", " 0")),
        lambda lines, at: lines.__setitem__(at, lines[at].split()[0] + " 0"),
    ], ids=["moved", "twice", "missing", "tab", "cr", "leading-zero", "color-zero"])
    @pytest.mark.parametrize("where", ["first", "past-block", "last"])
    def test_coloring_edits_across_blocks(self, edit, where):
        lines = self.BIG_COLORING.splitlines()
        assert len(self.BIG_COLORING) > 2 * strongodd.graphs._BLOCK
        at = {"first": 0, "past-block": self.BIG_COLORING.count("\n", 0, strongodd.graphs._BLOCK) + 1,
              "last": len(lines) - 6}[where]
        edit(lines, at)
        text = "\n".join(lines) + "\n"
        assert outcome(parse_coloring, text, 6000) == outcome(strongodd.coloring._walk, text, 6000)

    def test_huge_vertex_count_in_writer_layout(self):
        # a header past the text's length goes to the walk, which reads the
        # one edge line and names the missing edge at the header
        text = "p edge 99 2\ne 1 2\n"
        assert outcome(from_dimacs, text) == outcome(strongodd.graphs._walk, text)
        assert outcome(from_dimacs, text)[1] == "line 1: header announced 2 edges but 1 were given"


class TestWriterOutputIsReadInBulk:
    @pytest.fixture(autouse=True)
    def no_walks(self, monkeypatch):
        def walk(*args):
            raise AssertionError("the writer's layout reached the line walk")

        monkeypatch.setattr(strongodd.graphs, "_walk", walk)
        monkeypatch.setattr(strongodd.coloring, "_walk", walk)

    @given(st.one_of(labeled_graphs(), family_graphs), st.booleans())
    def test_graphs(self, g, labels):
        text = to_dimacs(g, include_labels=labels)
        # the bulk reader takes a vertex count up to the text's length,
        # which the text of a graph with many isolated vertices can be below
        assume(g.n <= len(text))
        back = from_dimacs(text)
        assert back.adj == g.adj and dict(back.labels) == (dict(g.labels) if labels else {})

    @given(st.lists(st.integers(1, 10 ** 30), max_size=30))
    def test_colorings(self, colors):
        assert parse_coloring(format_coloring(colors), len(colors)) == Coloring(colors)

    def test_large_family_member(self):
        g = build(BipyramidUnion(8, 3995))
        assert from_dimacs(to_dimacs(g)) == g
        col = Coloring([1 + v % 17 for v in range(g.n)])
        assert parse_coloring(format_coloring(col), g.n) == col


def test_huge_header_fails_at_once(tmp_path):
    """``verify`` on a header of 10**12 vertices ends in "out of memory" from
    one request, not by filling memory a row at a time.  The header is only
    read under a 400 MB address-space limit, in a child process."""
    graph, coloring = tmp_path / "huge.col", tmp_path / "huge.coloring"
    graph.write_text("p edge 1000000000000 0\n", encoding="utf-8")
    coloring.write_text("", encoding="utf-8")
    limit = 400 * 2 ** 20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(strongodd.graphs.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    with subprocess.Popen(
            [sys.executable, "-m", "strongodd", "verify", str(graph), str(coloring)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, preexec_fn=limit_memory) as child:
        out, err = child.stdout.read(), child.stderr.read()
        # this child's own peak, which a row-at-a-time fill grows to the limit
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    assert (child.returncode, out, err) == (1, b"", b"error: out of memory\n")
    assert usage.ru_maxrss < limit // 2 // 1024  # KB
