from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from goodpairs import (
    BlobVertex,
    Branching,
    CompositionSpec,
    DiGraph,
    GoodPair,
    construct_good_pair,
    gen_composition,
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
    serialize_good_pair,
)

from bruteforce import reference_arc_list_error
from strategies import digraphs


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

    def test_arcless_blobs_shared_per_size(self):
        c4 = DiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        arc = DiGraph(2, [(0, 1)])
        spec = CompositionSpec(c4, [DiGraph(2), arc, DiGraph(2), DiGraph(2, [(0, 1)])])
        text = serialize_composition(spec)
        parsed = parse_composition(text)
        assert serialize_composition(parsed) == text
        empty_a, arc_a, empty_b, arc_b = parsed.blobs
        assert empty_a is empty_b and empty_a == DiGraph(2)
        assert arc_a is not arc_b and arc_a == arc_b == arc

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


BIG = 2**63 + 1


@st.composite
def _mutated_arc_lists(draw, n: int):
    """A valid arc list on n vertices with a few items replaced or inserted
    at random positions by malformed items, loops, ids out of range or
    beyond int64, and repeats of earlier arcs."""
    pairs = [[u, v] for u in range(n) for v in range(n) if u != v]
    raw = draw(st.lists(st.sampled_from(pairs), unique_by=tuple, max_size=8)) if pairs else []
    if draw(st.booleans()):
        raw.sort()
    for _ in range(draw(st.integers(0, 3))):
        position = draw(st.integers(0, len(raw)))
        earlier = raw[:position] or [[0, 1]]
        bad = draw(
            st.sampled_from(
                [
                    [True, 1], [0, False], [0, 1.0], ["0", 1], [[0], 1], [0, None],
                    [0, 1, 2], [0], 5, "01", {"0": 1},
                    [0, 0], [n - 1, n - 1], [-1, 0], [0, -1], [0, n], [n + 3, 1],
                    [BIG, 0], [0, 2**64], [-(2**63) - 1, 0], [BIG, BIG],
                    draw(st.sampled_from(earlier)),
                ]
            )
        )
        if draw(st.booleans()) and position < len(raw):
            raw[position] = bad
        else:
            raw.insert(position, bad)
    return raw


def _arc_list_error(parse, text):
    try:
        return parse(text), None
    except FormatError as exc:
        return None, str(exc)


class TestArcListChecks:
    """The parsers' array checks against the per-item reference loop."""

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), _mutated_arc_lists(n))))
    def test_digraph(self, case):
        n, raw = case
        d, error = _arc_list_error(parse_digraph, json.dumps({"n": n, "arcs": raw}))
        assert error == reference_arc_list_error(raw, n, "digraph.arcs")
        if error is None:
            assert d == DiGraph(n, map(tuple, raw))

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(st.just(n), _mutated_arc_lists(n), _mutated_arc_lists(n))
        )
    )
    def test_composition(self, case):
        n, first, second = case
        blobs = [{"n": 2, "arcs": [[0, 1]]}, {"n": n, "arcs": first}, {"n": 1, "arcs": []}]
        blobs.append({"n": n, "arcs": second})
        doc = {"T": {"n": 4, "arcs": [[0, 1], [1, 2], [2, 3], [3, 0]]}, "H": blobs}
        spec, error = _arc_list_error(parse_composition, json.dumps(doc))
        expected = reference_arc_list_error(
            first, n, "composition.H[1].arcs"
        ) or reference_arc_list_error(second, n, "composition.H[3].arcs")
        assert error == expected
        if error is None:
            assert spec.blobs[1] == DiGraph(n, map(tuple, first))
            assert spec.blobs[3] == DiGraph(n, map(tuple, second))
        outer = {"n": n, "arcs": first}
        doc = {"T": outer, "H": [{"n": 1, "arcs": []}] * n}
        spec, error = _arc_list_error(parse_composition, json.dumps(doc))
        assert error == reference_arc_list_error(first, n, "composition.T.arcs")

    @given(st.integers(1, 4).flatmap(_mutated_arc_lists), st.booleans())
    def test_good_pair(self, raw, as_out):
        key = "out_arcs" if as_out else "in_arcs"
        doc = {"root": 0, "out_arcs": [], "in_arcs": [], key: raw}
        gp, error = _arc_list_error(parse_good_pair, json.dumps(doc))
        assert error == reference_arc_list_error(raw, None, f"pair.{key}")
        if error is None:
            b = gp.out_branching if as_out else gp.in_branching
            assert b.arcs == set(map(tuple, raw))

    @pytest.mark.parametrize(
        "raw, message",
        [
            # the first repeat is of arc (1,2), though (0,1) repeats after it
            ([[0, 1], [1, 2], [1, 2], [0, 1]], "digraph.arcs[2]: duplicate arc (1,2)"),
            ([[2, 1], [0, 1], [2, 1], [0, 1]], "digraph.arcs[2]: duplicate arc (2,1)"),
            ([[0, 1], [1, 1], [0, 1]], "digraph.arcs[1]: loop (1,1) not allowed"),
            ([[0, 1], [0, 1], [True, 0]], "digraph.arcs[1]: duplicate arc (0,1)"),
            ([[0, 1], [BIG, 0]], f"digraph.arcs[1]: arc ({BIG},0) out of range for n=3"),
            ([[BIG, BIG]], f"digraph.arcs[0]: loop ({BIG},{BIG}) not allowed"),
        ],
    )
    def test_first_failing_index_is_named(self, raw, message):
        assert reference_arc_list_error(raw, 3, "digraph.arcs") == message
        with pytest.raises(FormatError) as exc:
            parse_digraph(json.dumps({"n": 3, "arcs": raw}))
        assert str(exc.value) == message


def _old_digraph_doc(d: DiGraph) -> dict:
    return {"n": d.vertex_count, "arcs": [list(a) for a in sorted(d.arcs)]}


def _old_pair_doc(gp: GoodPair) -> dict:
    return {
        "root": gp.root,
        "out_arcs": [list(a) for a in sorted(gp.out_branching.arcs)],
        "in_arcs": [list(a) for a in sorted(gp.in_branching.arcs)],
    }


class TestWritersMatchJsonDumps:
    """The writers' text, byte for byte, against json.dumps of the document."""

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_digraph_without_arcs(self, n):
        assert serialize_digraph(DiGraph(n)) == json.dumps(_old_digraph_doc(DiGraph(n)))

    @given(digraphs())
    def test_digraph(self, d):
        expected = json.dumps(_old_digraph_doc(d))
        assert serialize_digraph(d) == expected
        assert serialize_digraph(parse_digraph(expected)) == expected

    def test_ids_beyond_int64(self):
        d = DiGraph(2**63 + 5, [(BIG, 0), (0, BIG + 2), (3, 1)])
        expected = json.dumps(_old_digraph_doc(d))
        assert serialize_digraph(d) == expected
        parsed = parse_digraph(expected)
        assert parsed == d and serialize_digraph(parsed) == expected
        doc = {"T": _old_digraph_doc(DiGraph(2, [(0, 1)])), "H": [_old_digraph_doc(d)] * 2}
        spec = parse_composition(json.dumps(doc))
        assert spec.blobs == (d, d) and serialize_composition(spec) == json.dumps(doc)

    def test_composition_with_shared_blobs(self):
        c4 = DiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        shared, arc = DiGraph(2), DiGraph(3, [(2, 0), (0, 1)])
        spec = CompositionSpec(c4, [shared, arc, shared, DiGraph(2)])
        doc = {"T": _old_digraph_doc(c4), "H": [_old_digraph_doc(h) for h in spec.blobs]}
        assert serialize_composition(spec) == json.dumps(doc)
        assert serialize_composition(parse_composition(json.dumps(doc))) == json.dumps(doc)

    @pytest.mark.parametrize("seed", range(4))
    def test_constructed_pairs(self, seed):
        spec = gen_composition(12, (2, 4), 0.3, "strong", seed)
        for blob in (1, 7, 12):
            for layer in (1, 2):
                gp = construct_good_pair(spec, BlobVertex(blob, layer))
                assert serialize_good_pair(gp) == json.dumps(_old_pair_doc(gp))


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
