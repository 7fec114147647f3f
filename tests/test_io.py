from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from goodpairs import (
    Branching,
    CompositionSpec,
    DiGraph,
    GoodPair,
    cycle_through,
    ear_decompose,
    verify_good_pair,
)
from goodpairs.io import (
    FormatError,
    export_dot,
    parse_composition,
    parse_digraph,
    parse_good_pair,
    serialize_composition,
    serialize_digraph,
    serialize_ear_decomposition,
    serialize_good_pair,
)


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["n", "arcs", "T", "H", "root", "out_arcs", "in_arcs", "x"]),
        inner,
        max_size=4,
    ),
    max_leaves=20,
)
# Arbitrary text, and JSON built from the formats' own keys, which gets far
# past the syntax checks.
_documents = st.text() | _json_values.map(json.dumps)


class TestDigraphFormat:
    def test_round_trip(self, c3):
        assert parse_digraph(serialize_digraph(c3)) == c3

    def test_parse_example(self):
        d = parse_digraph('{"n":3,"arcs":[[0,1],[1,2],[2,0]]}')
        assert d == DiGraph(3, [(0, 1), (1, 2), (2, 0)])

    def test_arcs_serialized_sorted(self):
        d = DiGraph(3, [(2, 0), (0, 1), (1, 2)])
        assert serialize_digraph(d) == '{"n": 3, "arcs": [[0, 1], [1, 2], [2, 0]]}'

    def test_loop_rejected(self):
        with pytest.raises(FormatError, match=r"arcs\[0\]: loop"):
            parse_digraph('{"n":2,"arcs":[[0,0]]}')

    def test_duplicate_rejected(self):
        with pytest.raises(FormatError, match=r"arcs\[1\]: duplicate"):
            parse_digraph('{"n":2,"arcs":[[0,1],[0,1]]}')

    def test_out_of_range_rejected(self):
        with pytest.raises(FormatError, match=r"arcs\[0\].*out of range"):
            parse_digraph('{"n":2,"arcs":[[0,2]]}')

    def test_malformed_json_has_position(self):
        with pytest.raises(FormatError, match="line 1 column"):
            parse_digraph('{"n":2,')

    def test_unexpected_key(self):
        with pytest.raises(FormatError, match="unexpected key"):
            parse_digraph('{"n":2,"arcs":[],"weights":[]}')

    def test_non_integer_arc(self):
        with pytest.raises(FormatError, match="pair of integers"):
            parse_digraph('{"n":2,"arcs":[[0,"1"]]}')


class TestCompositionFormat:
    def test_round_trip(self, c3):
        spec = CompositionSpec(c3, [DiGraph(2), DiGraph(2), DiGraph(2)])
        parsed = parse_composition(serialize_composition(spec))
        assert parsed.outer == spec.outer and parsed.blobs == spec.blobs

    def test_blob_count_mismatch(self):
        text = '{"T":{"n":3,"arcs":[[0,1],[1,2],[2,0]]},"H":[{"n":1,"arcs":[]},{"n":1,"arcs":[]}]}'
        with pytest.raises(FormatError, match="expected 3 blob"):
            parse_composition(text)

    def test_single_blob_accepted_at_parse(self):
        spec = parse_composition('{"T":{"n":1,"arcs":[]},"H":[{"n":2,"arcs":[[0,1]]}]}')
        assert spec.blob_count == 1

    def test_nested_error_is_located(self):
        text = '{"T":{"n":2,"arcs":[[0,1],[1,0]]},"H":[{"n":1,"arcs":[]},{"n":1,"arcs":[[0,0]]}]}'
        with pytest.raises(FormatError, match=r"H\[1\]"):
            parse_composition(text)

    def test_empty_outer_named(self):
        with pytest.raises(FormatError, match=r"composition\.T\.n"):
            parse_composition('{"T":{"n":0,"arcs":[]},"H":[]}')

    def test_empty_blob_named(self):
        text = '{"T":{"n":2,"arcs":[[0,1],[1,0]]},"H":[{"n":0,"arcs":[]},{"n":1,"arcs":[]}]}'
        with pytest.raises(FormatError, match=r"composition\.H\[0\]\.n"):
            parse_composition(text)


class TestMalformedText:
    def test_deep_nesting(self):
        with pytest.raises(FormatError, match="nested too deeply"):
            parse_composition("[" * 100_000)

    def test_integer_over_digit_limit(self):
        with pytest.raises(FormatError, match="invalid JSON"):
            parse_digraph('{"n": ' + "1" * 5000 + ', "arcs": []}')

    @given(_documents)
    def test_parsers_return_or_raise_format_error(self, text):
        for parse in (parse_digraph, parse_composition, parse_good_pair):
            try:
                parse(text)
            except FormatError:
                pass


class TestGoodPairFormat:
    def pair(self):
        return GoodPair(
            0, Branching(0, "out", [(0, 1)]), Branching(0, "in", [(1, 0)])
        )

    def test_serialize_two_cycle_pair(self):
        assert (
            serialize_good_pair(self.pair())
            == '{"root": 0, "out_arcs": [[0, 1]], "in_arcs": [[1, 0]]}'
        )

    def test_round_trip_verifies_again(self):
        d = DiGraph(2, [(0, 1), (1, 0)])
        gp = parse_good_pair(serialize_good_pair(self.pair()))
        assert verify_good_pair(d, gp).ok

    def test_missing_key(self):
        with pytest.raises(FormatError, match="missing key"):
            parse_good_pair('{"root":0,"out_arcs":[]}')


class TestDot:
    def test_colored_line_counts(self, c3):
        spec_pair = GoodPair(
            0,
            Branching(0, "out", [(0, 1), (1, 2)]),
            Branching(0, "in", [(1, 2), (2, 0)]),
        )
        # intentionally overlapping pair: dot export is purely syntactic
        text = export_dot(pair=spec_pair)
        assert text.count("color=blue") == 2
        assert text.count("color=red") == 2

    def test_host_remainder_uncolored(self, bior_k3):
        gp = GoodPair(
            0,
            Branching(0, "out", [(0, 1), (0, 2)]),
            Branching(0, "in", [(1, 0), (2, 0)]),
        )
        text = export_dot(pair=gp, host=bior_k3)
        colored = text.count("color=")
        plain = sum(
            1 for line in text.splitlines() if "->" in line and "color" not in line
        )
        assert colored == 4
        assert plain == 2  # arcs (1,2) and (2,1)

    def test_needs_something(self):
        with pytest.raises(ValueError):
            export_dot()


def test_ear_decomposition_serialization(c3):
    ed = ear_decompose(c3, cycle_through(c3, 0))
    assert (
        serialize_ear_decomposition(ed)
        == '{"ears": [{"kind": "initial_cycle", "vertices": [0, 1, 2, 0]}]}'
    )
