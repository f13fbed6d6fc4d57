"""Property-based fuzzing of the parsers that read outside input.

Every parser either returns a value or raises a StrongOddError (the CLI maps
those to exit 1); any other exception would reach the user as a traceback.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from strongodd import (
    Certificate,
    StrongOddError,
    counterexample,
    from_dimacs,
    parse_coloring,
    reverify_certificate,
)

small = st.integers(-3, 12)
token = st.one_of(small.map(str), st.text(max_size=4), st.sampled_from(["p", "e", "l", "c", "edge", "#"]))
# lines shaped like the formats' own, so the parsers get past their first checks
dimacs_line = st.one_of(
    st.builds("p edge {} {}".format, small, st.integers(-3, 30)),
    st.builds("e {} {}".format, small, small),
    st.builds("l {} {}".format, small, st.text(max_size=6)),
    st.lists(token, max_size=5).map(" ".join),
)
coloring_line = st.one_of(
    st.builds("{} {}".format, small, small),
    st.builds("{} {} # {}".format, small, small, st.text(max_size=4)),
    st.lists(token, max_size=4).map(" ".join),
)


def lines_of(line):
    return st.lists(line, max_size=12).map("\n".join)


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6), st.floats(allow_nan=False), st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda items: st.lists(items, max_size=4) | st.dictionaries(st.text(max_size=8), items, max_size=4),
    max_leaves=12,
)
CERT = json.loads(counterexample(11).to_json())


def returns_or_raises_own_error(parse, *args):
    try:
        parse(*args)
    except StrongOddError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(), lines_of(dimacs_line)))
def test_from_dimacs_total(text):
    returns_or_raises_own_error(from_dimacs, text)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(), lines_of(coloring_line)), st.integers(0, 12))
def test_parse_coloring_total(text, n):
    returns_or_raises_own_error(parse_coloring, text, n)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(), json_values.map(json.dumps)))
def test_certificate_from_json_total(text):
    returns_or_raises_own_error(Certificate.from_json, text)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(CERT)), json_values)
def test_reverify_with_one_field_replaced_total(name, value):
    # well-typed replacements reach the checks, the others the parser
    returns_or_raises_own_error(reverify_certificate, json.dumps({**CERT, name: value}))
