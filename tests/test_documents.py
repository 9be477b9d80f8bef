"""Tests for the strict JSON document format."""

import json

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import genutil
from spectramono.constructions import SignMatrix, hat, paley_tournament, skew_adjacency
from spectramono.core import (
    HermitianStructure,
    Selector,
    apply_selector,
    c_representation,
    i_representation,
)
from spectramono.documents import (
    FORMAT_VERSION,
    parse_document,
    render_json,
    serialize_document,
)
from spectramono.errors import InputError
from spectramono.scalars import APPROX, EXACT, GaussianScalar, parse_scalar


def valid_tournament_doc():
    return {
        "format_version": FORMAT_VERSION,
        "kind": "tournament",
        "n": 3,
        "mode": "exact",
        "entries": [["0", "1", "0"], ["0", "0", "1"], ["1", "0", "0"]],
    }


class TestRoundTrip:
    def test_hermitian(self):
        r = genutil.rng(51)
        for _ in range(10):
            g = genutil.random_hermitian(r, r.randrange(1, 6))
            loaded = parse_document(serialize_document(g))
            assert loaded.kind == "hermitian"
            assert loaded.mode == EXACT
            assert loaded.value == g

    def test_tournament(self):
        r = genutil.rng(52)
        t = genutil.random_tournament(r, 7)
        assert parse_document(serialize_document(t)).value == t

    def test_sign_matrix(self):
        r = genutil.rng(53)
        m = skew_adjacency(genutil.random_tournament(r, 5))
        loaded = parse_document(serialize_document(m))
        assert loaded.kind == "sign_matrix"
        assert loaded.value == m

    def test_serialization_is_byte_stable(self):
        r = genutil.rng(54)
        g = genutil.random_hermitian(r, 4)
        text = serialize_document(g)
        assert text == serialize_document(parse_document(text).value)

    def test_approx_round_trip(self):
        g = i_representation(
            genutil.random_tournament(genutil.rng(55), 4), mode=APPROX
        )
        loaded = parse_document(serialize_document(g))
        assert loaded.mode == APPROX
        assert loaded.value == g

    def test_bytes_accepted(self):
        r = genutil.rng(56)
        t = genutil.random_tournament(r, 4)
        assert parse_document(serialize_document(t).encode()).value == t


class TestRejection:
    def test_unknown_key(self):
        doc = valid_tournament_doc()
        doc["comment"] = "hello"
        with pytest.raises(InputError) as info:
            parse_document(json.dumps(doc))
        assert "comment" in str(info.value)

    def test_missing_key(self):
        doc = valid_tournament_doc()
        del doc["mode"]
        with pytest.raises(InputError) as info:
            parse_document(json.dumps(doc))
        assert "mode" in str(info.value)

    def test_bad_version(self):
        doc = valid_tournament_doc()
        doc["format_version"] = "2"
        with pytest.raises(InputError):
            parse_document(json.dumps(doc))

    def test_bad_kind(self):
        doc = valid_tournament_doc()
        doc["kind"] = "digraph"
        with pytest.raises(InputError):
            parse_document(json.dumps(doc))

    def test_tournament_must_be_exact(self):
        doc = valid_tournament_doc()
        doc["mode"] = "approx"
        with pytest.raises(InputError):
            parse_document(json.dumps(doc))

    def test_bad_cell_grammar(self):
        doc = valid_tournament_doc()
        doc["entries"][0][1] = "yes"
        with pytest.raises(InputError):
            parse_document(json.dumps(doc))

    def test_hermitian_rejects_approx_grammar_in_exact_mode(self):
        doc = {
            "format_version": FORMAT_VERSION,
            "kind": "hermitian",
            "n": 2,
            "mode": "exact",
            "entries": [["0", "1.5,0.0"], ["1.5,0.0", "0"]],
        }
        with pytest.raises(InputError):
            parse_document(json.dumps(doc))

    def test_wrong_row_count(self):
        doc = valid_tournament_doc()
        doc["entries"] = doc["entries"][:2]
        with pytest.raises(InputError):
            parse_document(json.dumps(doc))

    def test_non_string_cell(self):
        doc = valid_tournament_doc()
        doc["entries"][0][1] = 1
        with pytest.raises(InputError):
            parse_document(json.dumps(doc))

    def test_bad_n(self):
        doc = valid_tournament_doc()
        doc["n"] = 0
        with pytest.raises(InputError):
            parse_document(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(InputError):
            parse_document("{nope")

    def test_not_an_object(self):
        with pytest.raises(InputError):
            parse_document("[1, 2]")

    def test_invalid_utf8(self):
        with pytest.raises(InputError):
            parse_document(b"\xff\xfe")

    def test_hermitian_validation_still_applies(self):
        """Well-formed documents still go through structure validation."""
        doc = {
            "format_version": FORMAT_VERSION,
            "kind": "hermitian",
            "n": 2,
            "mode": "exact",
            "entries": [["0", "i"], ["i", "0"]],
        }
        from spectramono.errors import InvariantError

        with pytest.raises(InvariantError):
            parse_document(json.dumps(doc))

    def test_serialize_rejects_other_types(self):
        with pytest.raises(InputError):
            serialize_document({"not": "a structure"})


def test_exact_scalar_grammar_in_documents():
    g = HermitianStructure(
        [
            [GaussianScalar.zero(), GaussianScalar.exact("3/4", "-1/2")],
            [GaussianScalar.exact("3/4", "1/2"), GaussianScalar.zero()],
        ]
    )
    doc = json.loads(serialize_document(g))
    assert doc["entries"][0][1] == "3/4-1/2i"
    assert doc["entries"][1][0] == "3/4+1/2i"
    assert parse_document(json.dumps(doc)).value == g


class TestParseEachCellOnce:
    """parse_document parses each distinct cell text once and shares the
    scalar among the cells that repeat it."""

    def test_repeated_cells_parse_like_each_cell(self):
        g = i_representation(hat(paley_tournament(7)))
        twisted = apply_selector(
            c_representation(paley_tournament(7), GaussianScalar.exact("3/5", "4/5")),
            Selector([GaussianScalar.exact("5/13", "-12/13")] * 7),
        )
        for value in (g, twisted, genutil.approx_copy(twisted)):
            doc = json.loads(serialize_document(value))
            cells = [cell for row in doc["entries"] for cell in row]
            assert len(set(cells)) < len(cells)
            parsed = parse_document(json.dumps(doc)).value
            assert parsed == value
            for row, labels in zip(doc["entries"], parsed.labels):
                for cell, z in zip(row, labels):
                    want = parse_scalar(cell, doc["mode"])
                    assert (z.mode, repr(z.re), repr(z.im)) == (
                        want.mode,
                        repr(want.re),
                        repr(want.im),
                    )

    def test_repeated_bad_cell_reports_the_first(self):
        for mode, first, later in ((EXACT, "1/0", "2/0"), (APPROX, "1,x", "2,y")):
            zero = "0" if mode == EXACT else "0.0,0.0"
            doc = {
                "format_version": FORMAT_VERSION,
                "kind": "hermitian",
                "n": 3,
                "mode": mode,
                "entries": [[zero, first, later], [first, zero, first], [later, first, zero]],
            }
            with pytest.raises(InputError) as want:
                parse_scalar(first, mode)
            with pytest.raises(InputError) as got:
                parse_document(json.dumps(doc))
            assert str(got.value) == str(want.value)


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=10**30, max_value=10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, float("inf"), float("-inf"), float("nan")]),
    st.text(),
    st.sampled_from(["", "\x00\x1f\t\n\"\\", "é ∑ \U0001f600", "\ud800"]),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(st.text(max_size=3), max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=24,
)


@seed(20261018)
@settings(max_examples=200, deadline=None)
@given(value=json_values)
def test_render_json_matches_json_dumps(value):
    """The report renderer is json.dumps with indent 2 and sorted keys,
    byte for byte: empty containers, tuples, lists of strings, non-ASCII,
    control characters and lone surrogates, big ints, signed zeros, inf,
    nan, booleans and None."""
    assert render_json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_render_json_edge_values():
    value = {
        "empty": {"dict": {}, "list": [], "tuple": ()},
        "strings": ["", "é", "\x07", "\u2028"],
        "mixed": [1, -0.0, float("nan"), float("inf"), True, None, 10**40, ("a",)],
        "z": "last",
    }
    assert render_json(value) == json.dumps(value, indent=2, sort_keys=True)
    assert render_json({}) == "{}"
    assert render_json([]) == "[]"
