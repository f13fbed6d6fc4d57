import hashlib
import json
import os
import resource
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import strongodd.certificates

from strongodd import (
    BipyramidUnion,
    Budget,
    Certificate,
    InvalidParameterError,
    ParseError,
    counterexample,
    counterexample_pair,
    embed_family,
    formula,
    from_dimacs,
    make_union_certificate,
    parse_coloring,
    reverify_certificate,
    verify_embedding,
)
from strongodd.certificates import SPECIAL_PAIRS

from helpers import forged_exact_15

# one wrong JSON type per certificate field; bools are not integers.  Keyed
# by test id: the ids are those pytest gave the cases by position when the
# bundle had three more fields, kept so that each case keeps its name
WRONG_TYPES = {
    "family-value0": ("family", ["bipyramid-union", 8, 11]),
    "graph_dimacs-5": ("graph_dimacs", 5),
    "coloring-value3": ("coloring", ["x"]),
    "claimed_value-14": ("claimed_value", "14"),
    "claimed_value-True": ("claimed_value", True),
    "claim_kind-None": ("claim_kind", None),
    "rotation-value7": ("rotation", {"0": [1, 2]}),
    "rotation-value8": ("rotation", [5]),
    "rotation-value9": ("rotation", [[1, "2"]]),
    "rotation-value10": ("rotation", [[False, True]]),
    "checks-value14": ("checks", {}),
    "notes-none": ("notes", "none"),
}


# strings that JSON must escape, or that look like the layout around them
texts = st.text(max_size=10) | st.sampled_from(['"', "\\", '\\"', "é", "雪", "\u2028", "\n", "],\n[", "[]", ""])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | texts,
    lambda items: st.lists(items, max_size=3) | st.dictionaries(texts, items, max_size=3),
    max_leaves=8,
)
certificates = st.builds(
    Certificate,
    family=st.dictionaries(texts, json_values, max_size=3),
    graph_dimacs=texts,
    coloring=texts,
    claimed_value=st.integers(),
    claim_kind=texts,
    rotation=st.lists(st.lists(st.integers(0, 10 ** 4), max_size=5), max_size=5),
    checks=st.lists(st.fixed_dictionaries({"name": texts, "ok": st.booleans()}), max_size=3),
    notes=st.lists(texts, max_size=3),
)


def check_json_layout(cert):
    """The oracle for Certificate.to_json: the text parses back to the
    certificate's fields, with one member a line in sorted order."""
    text = cert.to_json()
    data = {f.name: getattr(cert, f.name) for f in fields(cert)}
    assert json.loads(text) == data
    lines = text.split("\n")
    assert lines[0] == "{" and lines[-2:] == ["}", ""]
    members = lines[1:-2]
    assert [line.split(":")[0] for line in members] == [f'  "{name}"' for name in sorted(data)]
    assert all(line.endswith(",") for line in members[:-1])


def cert_note(cert, prefix):
    (note,) = [note for note in cert.notes if note.startswith(prefix)]
    return note


class TestGeneration:
    def test_family_member_11(self):
        cert = counterexample(11)
        assert cert.claimed_value == 14
        assert cert.claim_kind == "upper-bound"
        assert all(c["ok"] for c in cert.checks)
        g = from_dimacs(cert.graph_dimacs)
        assert g.n == 22 and g.edge_count == 57
        assert verify_embedding(g, cert.rotation).euler_ok

    def test_family_rejects_off_family_n(self):
        with pytest.raises(InvalidParameterError):
            counterexample(12)
        with pytest.raises(InvalidParameterError):
            counterexample(9)  # value would be 12, not in the 14-family
        with pytest.raises(InvalidParameterError):
            counterexample(11.0)  # a float size is refused before any comparison

    @pytest.mark.parametrize("n", ["a", None, [11]])
    def test_family_refuses_a_size_that_is_not_an_int(self, n):
        # comparing such a size with 9 ended in a bare TypeError
        with pytest.raises(InvalidParameterError, match="the 14-color family needs n > 9"):
            counterexample(n)

    def test_family_is_n_above_9_at_1_or_5_mod_6(self):
        # the family is read off the closed form; the paper states it by residue
        assert {n for n in range(3, 200) if n > 9 and formula(BipyramidUnion(8, n)).value == 14} == {
            n for n in range(10, 200) if n % 6 in (1, 5)}

    @pytest.mark.parametrize("m,n,value", [(6, 8, 15), (7, 7, 15), (7, 8, 16), (8, 8, 17)])
    def test_special_pairs(self, m, n, value):
        cert = counterexample_pair(m, n)
        assert cert.claimed_value == value

    def test_refutation_note_records_nodes_not_time(self):
        # the note holds no duration, so --try-exact bundles are byte-deterministic
        cert = counterexample_pair(8, 8, Budget(max_nodes=100_000))
        assert cert_note(cert, "refutation:") == (
            "refutation: no strong odd coloring with 16 colors exists; search explored 11923 nodes")

    def test_closed_form_note_is_the_formula_case(self):
        value, case = formula(BipyramidUnion(8, 11))
        assert cert_note(counterexample(11), "closed-form value:") == f"closed-form value: {case} = {value}"

    def test_pair_order_insensitive(self):
        assert counterexample_pair(8, 6).claimed_value == 15

    def test_unlisted_pair_rejected(self):
        with pytest.raises(InvalidParameterError):
            counterexample_pair(5, 5)

    @pytest.mark.parametrize("m,n", [("a", 8), (8, "a"), (6.0, 8), (None, None)])
    def test_pair_refuses_sizes_that_are_not_ints(self, m, n):
        # ordering ("a", 8) ended in a bare TypeError
        with pytest.raises(InvalidParameterError, match="supported pairs are"):
            counterexample_pair(m, n)

    def test_exact_upgrade_with_budget(self):
        cert = make_union_certificate(3, 3, try_exact_budget=Budget(max_nodes=2_000_000))
        assert cert.claim_kind == "exact"
        assert {"name": "refutation", "ok": True} in cert.checks

    def test_exhausted_budget_stays_upper_bound(self):
        cert = make_union_certificate(3, 3, try_exact_budget=Budget(max_nodes=1))
        assert cert.claim_kind == "upper-bound"
        assert any("exhausted" in note for note in cert.notes)


class TestSerialization:
    def test_json_round_trip(self):
        cert = counterexample(11)
        again = Certificate.from_json(cert.to_json())
        assert again == cert

    @pytest.mark.parametrize("m,n", [(3, 3), (8, 8), (8, 11), (13, 5)])
    def test_rotation_is_the_family_layout(self, m, n):
        cert = make_union_certificate(m, n)
        assert cert.rotation == embed_family(BipyramidUnion(m, n))
        assert {type(row) for row in cert.rotation} == {list}
        assert Certificate.from_json(cert.to_json()).rotation == cert.rotation

    def test_missing_field(self):
        # only the side that is not empty is named
        with pytest.raises(ParseError, match=r"^certificate document missing fields: \['checks', .*\]$"):
            Certificate.from_json(json.dumps({"family": {}}))

    def test_unknown_field(self):
        # a field no check reads would carry a claim that nothing checks
        data = json.loads(counterexample(11).to_json())
        data["proved_value"] = 3
        with pytest.raises(ParseError, match="^certificate document unknown fields: \\['proved_value'\\]$"):
            Certificate.from_json(json.dumps(data))

    def test_not_json(self):
        with pytest.raises(ParseError):
            Certificate.from_json("p edge 3 3")

    def test_nesting_too_deep(self):
        with pytest.raises(ParseError):
            Certificate.from_json("[" * 100_000 + "]" * 100_000)

    @pytest.mark.parametrize("name,value", WRONG_TYPES.values(), ids=WRONG_TYPES)
    def test_wrong_field_type(self, name, value):
        data = json.loads(counterexample(11).to_json())
        data[name] = value
        with pytest.raises(ParseError, match=name):
            Certificate.from_json(json.dumps(data))

    def test_deterministic_bytes(self):
        assert counterexample(17).to_json() == counterexample(17).to_json()

    # the bytes are part of the certificate format: pin them for two sizes
    # (named by size, so a re-pinned digest keeps the test's name)
    @pytest.mark.parametrize("n,digest", [
        (11, "84fa5836eea48e190f7c3dc44e508e8f09cb51cb87a4c96b7fd20249aa49be15"),
        (101, "07d52e6cf417ae5e25e384c9a2a1ae7bbf319fe02842a485e60cf24aa6bfed15"),
    ], ids=["11", "101"])
    def test_pinned_bytes(self, n, digest):
        assert hashlib.sha256(counterexample(n).to_json().encode()).hexdigest() == digest

    @settings(max_examples=200, deadline=None)
    @given(certificates)
    @example(replace(counterexample(11), rotation=[], notes=[], checks=[]))
    @example(replace(counterexample(11), rotation=[[], [1], []], graph_dimacs='"\\é\n',
                     family={"b": 1, "a": [2]}))
    def test_to_json_writes_what_json_writes(self, cert):
        check_json_layout(cert)

    @pytest.mark.parametrize("n", [11, 13, 17, 101, 1003, 3995])
    def test_to_json_on_family_members(self, n):
        check_json_layout(counterexample(n))

    @pytest.mark.parametrize("m,n", sorted(strongodd.certificates.SPECIAL_PAIRS))
    def test_to_json_on_special_pairs(self, m, n):
        check_json_layout(counterexample_pair(m, n))

    def test_integer_past_the_digit_limit(self):
        # json.loads raises a plain ValueError, not JSONDecodeError, for it
        text = counterexample(11).to_json().replace('"claimed_value": 14', '"claimed_value": ' + "9" * 5000)
        with pytest.raises(ParseError):
            Certificate.from_json(text)


class TestReverify:
    def test_accepts_fresh_certificate(self):
        ok, results = reverify_certificate(counterexample(11).to_json())
        assert ok
        assert {name for name, _ in results} == {"proper", "strong_odd", "palette_count", "euler", "family", "record"}

    def test_coloring_is_self_contained(self):
        cert = counterexample_pair(8, 8)
        g = from_dimacs(cert.graph_dimacs)
        col = parse_coloring(cert.coloring, g.n)
        assert len(col.palette) == 17

    def test_detects_wrong_claimed_value(self):
        data = json.loads(counterexample(11).to_json())
        data["claimed_value"] = 13
        ok, results = reverify_certificate(json.dumps(data))
        assert not ok and dict(results)["palette_count"] is False

    def test_detects_tampered_coloring(self):
        data = json.loads(counterexample(11).to_json())
        # recolor vertex 1 with vertex 2's color: breaks properness on the cycle
        lines = data["coloring"].splitlines()
        lines[0] = "1 " + lines[1].split()[1]
        data["coloring"] = "\n".join(lines) + "\n"
        ok, results = reverify_certificate(json.dumps(data))
        assert not ok and dict(results)["proper"] is False

    @pytest.mark.parametrize("checks", [
        [{"name": "proper", "ok": 1}],
        [{"name": "proper"}],
        ["proper"],
        [{"name": "refutation", "ok": False}],
    ], ids=["ok-not-bool", "ok-missing", "not-a-dict", "failed-refutation"])
    def test_detects_check_log_not_all_ok(self, checks):
        data = json.loads(make_union_certificate(3, 3, try_exact_budget=Budget(max_nodes=2_000_000)).to_json())
        assert data["claim_kind"] == "exact"
        data["checks"] += checks
        ok, results = reverify_certificate(json.dumps(data))
        assert not ok and [name for name, good in results if not good] == ["record"]

    def test_detects_exact_claim_off_the_closed_form(self):
        # a fresh colour on the last vertex keeps the colouring strong odd, so
        # only the record can tell that 15 is not the value 14 of U(8, 11)
        ok, results = reverify_certificate(json.dumps(forged_exact_15()))
        assert not ok and [name for name, good in results if not good] == ["record"]

    @pytest.mark.parametrize("m,n", SPECIAL_PAIRS)
    def test_exact_special_pairs_pass(self, m, n):
        cert = make_union_certificate(m, n, try_exact_budget=Budget(max_nodes=100_000))
        assert cert.claim_kind == "exact" and cert.claimed_value == formula(BipyramidUnion(m, n)).value
        assert reverify_certificate(cert.to_json())[0]

    def test_exact_claim_with_its_refutation_passes(self):
        cert = make_union_certificate(3, 3, try_exact_budget=Budget(max_nodes=2_000_000))
        assert reverify_certificate(cert.to_json()) == (True, [
            ("proper", True), ("strong_odd", True), ("palette_count", True), ("euler", True),
            ("family", True), ("record", True),
        ])

    def test_detects_tampered_rotation(self):
        data = json.loads(counterexample(11).to_json())
        # swap two neighbors in the glued apex's rotation: still a permutation
        # of its neighbor set, but no longer a genus-0 embedding
        y = 9
        row = data["rotation"][y]
        data["rotation"][y] = [row[1], row[0]] + row[2:]
        ok, results = reverify_certificate(json.dumps(data))
        assert not ok and dict(results)["euler"] is False

    def test_detects_rotation_not_matching_adjacency(self):
        data = json.loads(counterexample(11).to_json())
        data["rotation"][0][0] = data["rotation"][0][1]
        ok, results = reverify_certificate(json.dumps(data))
        assert not ok and dict(results)["euler"] is False

    def test_detects_tampered_graph(self):
        data = json.loads(counterexample(11).to_json())
        # drop the last edge line (the label lines follow it) and fix the header count
        lines = data["graph_dimacs"].splitlines()
        last = max(i for i, line in enumerate(lines) if line.startswith("e "))
        head = lines[0].split()
        head[3] = str(int(head[3]) - 1)
        data["graph_dimacs"] = "\n".join([" ".join(head)] + lines[1:last] + lines[last + 1:]) + "\n"
        ok, _ = reverify_certificate(json.dumps(data))
        assert not ok  # rotation no longer matches adjacency, and parity checks shift

    @pytest.mark.parametrize("family", [
        {"kind": "bipyramid-union", "m": 8, "n": 13},
        {"kind": "bipyramid-union", "m": 11, "n": 8},
        {"kind": "wheel"},
        {"kind": "wheel", "m": 8, "n": 11},
        {"kind": "bipyramid-union", "m": "8", "n": 11},
        {"kind": "bipyramid-union", "m": 8.0, "n": 11},
        {"kind": "bipyramid-union", "m": True, "n": 18},
        {"kind": "bipyramid-union", "m": 2, "n": 17},
        {"kind": "bipyramid-union", "m": 8, "n": 10 ** 9},
        {},
    ], ids=["other-member", "swapped", "wheel", "wheel-sizes", "str-size", "float-size",
            "bool-size", "no-such-spec", "huge", "empty"])
    def test_detects_forged_family(self, family, monkeypatch):
        real_build = strongodd.certificates.build

        def build_only_the_bundled_size(spec):
            # a family of the wrong size must be rejected before anything is built
            assert spec.m + spec.n + 3 == 22, f"built {spec} for a 22-vertex graph"
            return real_build(spec)

        monkeypatch.setattr(strongodd.certificates, "build", build_only_the_bundled_size)
        data = json.loads(counterexample(11).to_json())
        data["family"] = family
        ok, results = reverify_certificate(json.dumps(data))
        assert not ok and dict(results)["family"] is False

    def test_family_bundle_is_judged_on_its_build(self, monkeypatch):
        # the graph text is the family's to_dimacs text, byte for byte, so
        # recheck never parses it
        def no_parse(text):
            raise AssertionError("recheck parsed the graph text of a family bundle")

        monkeypatch.setattr(strongodd.certificates, "from_dimacs", no_parse)
        ok, results = reverify_certificate(counterexample(11).to_json())
        assert ok and len(results) == 6

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("\n", "\nc a comment\n", 1),
        lambda text: text.replace("\n", "\r\n"),
    ], ids=["comment-line", "crlf"])
    def test_graph_text_off_the_writer_fails_family_only(self, edit, monkeypatch):
        parsed = []

        def parse(text):
            parsed.append(text)
            return from_dimacs(text)

        monkeypatch.setattr(strongodd.certificates, "from_dimacs", parse)
        data = json.loads(counterexample(11).to_json())
        data["graph_dimacs"] = edit(data["graph_dimacs"])
        ok, results = reverify_certificate(json.dumps(data))
        assert not ok and [name for name, good in results if not good] == ["family"]
        # the other rows judged the graph parsed from the edited text
        assert parsed == [data["graph_dimacs"]]

    def test_detects_family_below_the_least_sizes(self):
        # m = 2, n = 9 has the vertex count of the bundled (3, 8) member, so
        # only BipyramidUnion's own least sizes reject it
        data = json.loads(make_union_certificate(3, 8).to_json())
        data["family"] = {"kind": "bipyramid-union", "m": 2, "n": 9}
        ok, results = reverify_certificate(json.dumps(data))
        assert not ok and [name for name, good in results if not good] == ["family"]

    def test_forged_family_of_any_size_builds_nothing(self, tmp_path):
        """``certify --recheck`` of a bundle whose family names three million
        vertices and whose graph text is one 17-byte header: the text is
        too short for that family, so nothing is built, and the recheck
        ends in the coloring's parse error, not "out of memory".  Run under
        a 400 MB address-space limit, in a child process."""
        data = json.loads(counterexample(11).to_json())
        data["family"] = {"kind": "bipyramid-union", "m": 3_000_000, "n": 3}
        data["graph_dimacs"] = "p edge 3000006 0\n"
        bundle = tmp_path / "forged.json"
        bundle.write_text(json.dumps(data), encoding="utf-8")
        limit = 400 * 2 ** 20

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = str(Path(strongodd.certificates.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        with subprocess.Popen(
                [sys.executable, "-m", "strongodd", "certify", "--recheck", str(bundle)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, preexec_fn=limit_memory) as child:
            out, err = child.stdout.read(), child.stderr.read()
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
        assert (child.returncode, out) == (1, b"")
        assert err == b"error: vertex 23 has no color (2999984 of 3000006 uncolored)\n"
        assert usage.ru_maxrss < 100 * 1024  # KB

    @pytest.mark.parametrize("tamper,parses", [
        (lambda rows: [], True),
        (lambda rows: [["1", "junk"]], True),
        (lambda rows: [[v, role] for (v, _), (_, role) in zip(rows, rows[::-1])], True),
        # a vertex id is an int, so the graph text no longer parses
        (lambda rows: [[v + ".0", role] for v, role in rows], False),
    ], ids=["empty", "junk", "reversed-roles", "float-ids"])
    def test_detects_tampered_labels(self, tamper, parses):
        data = json.loads(counterexample(11).to_json())
        lines = data["graph_dimacs"].splitlines()
        rows = [line.split()[1:] for line in lines if line.startswith("l ")]
        data["graph_dimacs"] = "".join(
            [f"{line}\n" for line in lines if not line.startswith("l ")]
            + [f"l {v} {role}\n" for v, role in tamper(rows)])
        if not parses:
            with pytest.raises(ParseError, match="malformed label line"):
                reverify_certificate(json.dumps(data))
            return
        ok, results = reverify_certificate(json.dumps(data))
        assert not ok and dict(results) == {
            "proper": True, "strong_odd": True, "palette_count": True, "euler": True, "family": False,
            "record": True,
        }
