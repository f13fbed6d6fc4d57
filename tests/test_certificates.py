import hashlib
import json
from dataclasses import fields, replace

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
    formula,
    from_dimacs,
    make_union_certificate,
    parse_coloring,
    reverify_certificate,
)

# one wrong JSON type per certificate field; bools are not integers
WRONG_TYPES = [
    ("family", ["bipyramid-union", 8, 11]),
    ("graph_dimacs", 5),
    ("labels", {}),
    ("coloring", ["x"]),
    ("claimed_value", "14"),
    ("claimed_value", True),
    ("claim_kind", None),
    ("rotation", {"0": [1, 2]}),
    ("rotation", [5]),
    ("rotation", [[1, "2"]]),
    ("rotation", [[False, True]]),
    ("faces", 31.0),
    ("faces", False),
    ("euler_ok", 1),
    ("checks", {}),
    ("notes", "none"),
]


# strings that JSON must escape or that look like the row layout
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
    # rows as the library writes them, or whatever a document read back holds
    labels=st.lists(st.lists(st.integers() | texts, max_size=4), max_size=5) | st.lists(json_values, max_size=4),
    coloring=texts,
    claimed_value=st.integers(),
    claim_kind=texts,
    rotation=st.lists(st.lists(st.integers(0, 10 ** 4), max_size=5), max_size=5),
    faces=st.integers(),
    euler_ok=st.booleans(),
    checks=st.lists(st.fixed_dictionaries({"name": texts, "ok": st.booleans()}), max_size=3),
    notes=st.lists(texts, max_size=3),
)


def json_encoded(cert):
    """The certificate as json's own indenting encoder writes it: the oracle
    for Certificate.to_json."""
    return json.dumps({f.name: getattr(cert, f.name) for f in fields(cert)}, indent=2, sort_keys=True) + "\n"


def cert_note(cert, prefix):
    (note,) = [note for note in cert.notes if note.startswith(prefix)]
    return note


class TestGeneration:
    def test_family_member_11(self):
        cert = counterexample(11)
        assert cert.claimed_value == 14
        assert cert.claim_kind == "upper-bound"
        assert all(c["ok"] for c in cert.checks)
        assert cert.euler_ok
        g = from_dimacs(cert.graph_dimacs)
        assert g.n == 22 and g.edge_count == 57

    def test_family_rejects_off_family_n(self):
        with pytest.raises(InvalidParameterError):
            counterexample(12)
        with pytest.raises(InvalidParameterError):
            counterexample(9)  # value would be 12, not in the 14-family

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

    def test_missing_field(self):
        with pytest.raises(ParseError):
            Certificate.from_json(json.dumps({"family": {}}))

    def test_not_json(self):
        with pytest.raises(ParseError):
            Certificate.from_json("p edge 3 3")

    def test_nesting_too_deep(self):
        with pytest.raises(ParseError):
            Certificate.from_json("[" * 100_000 + "]" * 100_000)

    @pytest.mark.parametrize("name,value", WRONG_TYPES)
    def test_wrong_field_type(self, name, value):
        data = json.loads(counterexample(11).to_json())
        data[name] = value
        with pytest.raises(ParseError, match=name):
            Certificate.from_json(json.dumps(data))

    def test_deterministic_bytes(self):
        assert counterexample(17).to_json() == counterexample(17).to_json()

    # the bytes are part of the certificate format: pin them for two sizes
    @pytest.mark.parametrize("n,digest", [
        (11, "9e62724eb1fdbaa8add948a1a1910d235b241c312a86ea5f0b0e88118fa167b6"),
        (101, "f0f983b6fd1942afc632c3a221310af28ba8d83177681d2f70a196a1dfb3727f"),
    ])
    def test_pinned_bytes(self, n, digest):
        assert hashlib.sha256(counterexample(n).to_json().encode()).hexdigest() == digest

    @settings(max_examples=200, deadline=None)
    @given(certificates)
    @example(replace(counterexample(11), rotation=[], labels=[[]], notes=[], checks=[]))
    @example(replace(counterexample(11), rotation=[[], [1], []], labels=[[0, ""], [], [1, '"\\é']]))
    def test_to_json_writes_what_json_writes(self, cert):
        assert cert.to_json() == json_encoded(cert)

    @pytest.mark.parametrize("n", [11, 13, 17, 101, 1003, 3995])
    def test_to_json_on_family_members(self, n):
        cert = counterexample(n)
        assert cert.to_json() == json_encoded(cert)

    @pytest.mark.parametrize("m,n", sorted(strongodd.certificates.SPECIAL_PAIRS))
    def test_to_json_on_special_pairs(self, m, n):
        cert = counterexample_pair(m, n)
        assert cert.to_json() == json_encoded(cert)

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
        # drop the last edge line and fix the header count
        lines = data["graph_dimacs"].strip().splitlines()
        head = lines[0].split()
        head[3] = str(int(head[3]) - 1)
        data["graph_dimacs"] = "\n".join([" ".join(head)] + lines[1:-1]) + "\n"
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

    @pytest.mark.parametrize("tamper", [
        lambda rows: [],
        lambda rows: [[0, "junk"]],
        lambda rows: [[v, role] for (v, _), (_, role) in zip(rows, rows[::-1])],
        lambda rows: [[float(v), role] for v, role in rows],
    ], ids=["empty", "junk", "reversed-roles", "float-ids"])
    def test_detects_tampered_labels(self, tamper):
        data = json.loads(counterexample(11).to_json())
        data["labels"] = tamper(data["labels"])
        ok, results = reverify_certificate(json.dumps(data))
        assert not ok and dict(results) == {
            "proper": True, "strong_odd": True, "palette_count": True, "euler": True, "family": False,
            "record": True,
        }
