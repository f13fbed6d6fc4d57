"""The public surface: the names ``strongodd`` exports, and the README's
library quick start and command line block run as written."""

import re
import shlex
from pathlib import Path

import strongodd
from strongodd import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_exported_names():
    # adding or removing a public name is a deliberate edit of this list
    assert sorted(strongodd.__all__) == [
        "Bipyramid", "BipyramidUnion", "Budget", "Certificate", "CertificationError",
        "Coloring", "Complete", "Cycle", "DecideResult", "EmbeddingCheck", "Empty",
        "FamilySpec", "Formula", "Graph", "InternalError", "InvalidColoringError",
        "InvalidParameterError", "InvalidRotationError", "JoinCycleEmpty", "ParityEntry",
        "ParseError", "SolveResult", "StrongOddError", "UnsupportedFamilyError",
        "ValueWitness", "Wheel", "brute_force_so", "build", "chromatic_strong_odd",
        "coloring_for", "counterexample", "counterexample_pair", "decide_k", "embed_family",
        "format_coloring", "formula", "from_dimacs", "is_odd_coloring", "is_proper",
        "is_strong_odd", "make_union_certificate", "one_point_union", "parity_report",
        "parse_coloring", "proper_violations", "reverify_certificate", "to_dimacs",
        "verify_embedding", "wheel_cycle_pattern",
    ]
    assert all(hasattr(strongodd, name) for name in strongodd.__all__)


def test_readme_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_command_line_runs(tmp_path, monkeypatch, capsys):
    # the block runs in order in an empty directory, each line through the
    # console script's entry point; the --decide 6 line is the documented
    # refutation (W14 needs 7 colors), exit code 2
    blocks = re.findall(r"^## Command line\n.*?^```\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    for line in blocks[0].splitlines():
        prog, *argv = shlex.split(line)
        assert prog == "strongodd"
        assert cli.main(argv) == (2 if "--decide 6" in line else 0), (line, capsys.readouterr().err)
