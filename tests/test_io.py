from __future__ import annotations

import json
import re
from contextlib import contextmanager

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
    gen_strong_digraph,
    verify_good_pair,
)
from goodpairs import io as gio
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

from bruteforce import (
    reference_arc_list_error,
    reference_composition_text,
    reference_digraph_text,
    reference_pair_text,
)
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
        message = r"^composition\.H\[0\]\.n: the composition order passes int64"
        with pytest.raises(FormatError, match=message):
            parse_composition(json.dumps(doc))

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


@st.composite
def _compositions(draw):
    """Compositions of up to 5 blobs drawn from a pool of up to 3 digraphs,
    so blobs are often one shared object."""
    t = draw(st.integers(1, 5))
    pool = draw(st.lists(digraphs(min_n=1, max_n=4), min_size=1, max_size=3))
    blobs = draw(st.lists(st.sampled_from(pool), min_size=t, max_size=t))
    return CompositionSpec(draw(digraphs(min_n=t, max_n=t)), blobs)


_ids = st.integers(0, 12) | st.integers(0, 2**64) | st.integers(-3, -1)


@st.composite
def _pairs(draw, ids=_ids):
    """Pairs of any arcs, valid or not: loops, shared arcs, negative ids
    and ids beyond int64 are all written as they are."""
    arcs = st.lists(st.tuples(ids, ids), max_size=6)
    root = draw(ids)
    return GoodPair(root, Branching(root, "out", draw(arcs)), Branching(root, "in", draw(arcs)))


_valid_pairs = _pairs(st.integers(0, 12)).filter(
    lambda gp: all(u != v for b in (gp.out_branching, gp.in_branching) for u, v in b.arcs)
)


@contextmanager
def _arrays_always():
    """The array writer and the canonical reader for texts of any size."""
    saved = gio.ARRAY_TEXT_MIN_INTS, gio.ARRAY_READ_MIN_BYTES
    gio.ARRAY_TEXT_MIN_INTS = gio.ARRAY_READ_MIN_BYTES = 0
    try:
        yield
    finally:
        gio.ARRAY_TEXT_MIN_INTS, gio.ARRAY_READ_MIN_BYTES = saved


def _texts(write, x) -> set[str]:
    """What ``write`` gives for ``x`` at the module's sizes, and with the
    arrays at any size."""
    default = write(x)
    with _arrays_always():
        return {default, write(x)}


class TestWritersMatchReference:
    """The writers, both ways, against the f-string writer in
    tests/bruteforce.py."""

    @given(digraphs())
    def test_digraph(self, d):
        assert _texts(serialize_digraph, d) == {reference_digraph_text(d)}

    @given(_compositions())
    def test_composition(self, spec):
        assert _texts(serialize_composition, spec) == {reference_composition_text(spec)}

    @given(_pairs())
    def test_pair(self, gp):
        assert _texts(serialize_good_pair, gp) == {reference_pair_text(gp)}

    @pytest.mark.parametrize("ids", [[0, 9, 10, 99, 100, 10**9 - 1, 10**9, 2**63 - 1]])
    def test_digit_counts(self, ids):
        arcs = [(u, v) for u in ids for v in ids if u != v]
        d = DiGraph(2**63, arcs)
        with pytest.raises(ValueError, match=r"^blob 1: the composition order passes int64"):
            CompositionSpec(DiGraph(2, [(0, 1)]), [d, DiGraph(10**12, arcs[:3])])
        below = DiGraph(2**62, [(u, v) for u, v in arcs if max(u, v) < 2**62])
        spec = CompositionSpec(DiGraph(2, [(0, 1)]), [below, DiGraph(10**12, arcs[:3])])
        gp = GoodPair(5, Branching(5, "out", arcs), Branching(5, "in", arcs[::-1]))
        assert _texts(serialize_digraph, d) == {reference_digraph_text(d)}
        assert _texts(serialize_composition, spec) == {reference_composition_text(spec)}
        assert _texts(serialize_good_pair, gp) == {reference_pair_text(gp)}

    def test_ids_beyond_int64(self):
        d = DiGraph(2**64, [(BIG, 0), (0, 2**64 - 1), (3, 1)])
        with pytest.raises(ValueError, match=r"^blob 1: the composition order passes int64"):
            CompositionSpec(DiGraph(2, [(0, 1)]), [d, DiGraph(3, [(2, 1)])])
        gp = GoodPair(BIG, Branching(BIG, "out", [(BIG, 0)]), Branching(BIG, "in", [(0, BIG)]))
        assert _texts(serialize_digraph, d) == {reference_digraph_text(d)}
        assert _texts(serialize_good_pair, gp) == {reference_pair_text(gp)}

    def test_large_documents(self):
        """Above the module's sizes, where the arrays write by default."""
        shared = DiGraph(3, [(0, 2)])
        blobs = [DiGraph(2, [(1, 0)]) if i % 3 else shared for i in range(1500)]
        spec = CompositionSpec(gen_strong_digraph(1500, 1500, 2), blobs)
        gp = construct_good_pair(spec, BlobVertex(4, 2))
        assert serialize_composition(spec) == reference_composition_text(spec)
        assert serialize_digraph(spec.outer) == reference_digraph_text(spec.outer)
        assert serialize_good_pair(gp) == reference_pair_text(gp)


def _key(x):
    """A comparable form of a parsed object: ids and dtypes."""
    if isinstance(x, (DiGraph, Branching)):
        head = (x.vertex_count,) if isinstance(x, DiGraph) else (x.root, x.kind)
        return (*head, x.tails.tolist(), x.heads.tolist(), x.tails.dtype.str, x.heads.dtype.str)
    if isinstance(x, CompositionSpec):
        return _key(x.outer), x.sizes.tolist(), x.sizes.dtype.str, _key(x.inner)
    return x.root, _key(x.out_branching), _key(x.in_branching)


def _outcome(parse, text):
    try:
        return _key(parse(text))
    except FormatError as exc:
        return str(exc)


_READERS = {
    "digraph": (parse_digraph, gio._digraph_from_json, gio._canonical_digraph),
    "composition": (parse_composition, gio._composition_from_json, gio._canonical_composition),
    "pair": (parse_good_pair, gio._pair_from_json, gio._canonical_pair),
}
_RUN = re.compile(r"\d+")
_ARC = re.compile(r"\[(\d+), (\d+)\]")


@st.composite
def _mutations(draw, text: str) -> str:
    """``text`` with one edit that the canonical reader must not take as
    canonical, or must read as ``json.loads`` does."""
    runs = list(_RUN.finditer(text))
    arcs = list(_ARC.finditer(text))
    kind = draw(
        st.sampled_from(
            ["space", "number", "shift", "keys", "duplicate key"]
            + ["swap", "arc", "non-ascii", "drop"]
        )
    )
    at = draw(st.integers(0, len(text) - 1))
    if kind == "space":
        return text[:at] + draw(st.sampled_from([" ", "\n", "\t", "\r"])) + text[at:]
    if kind == "number":
        m = draw(st.sampled_from(runs))
        new = draw(
            st.sampled_from(
                ["0{}", "-{}", "{}.0", "{}e0", "1e3", "-0", "00", ""]
                + ["1" + "0" * 18, str(BIG), "１"]
            )
        )
        return text[: m.start()] + new.format(m.group()) + text[m.end() :]
    if kind == "shift":  # a digit run moved across the byte before or after it
        m = draw(st.sampled_from(runs))
        a, b = m.span()
        if draw(st.booleans()):
            return text[: a - 1] + m.group() + text[a - 1] + text[b:]
        return text[:a] + text[b] + m.group() + text[b + 1 :]
    if kind == "keys":
        return json.dumps(dict(reversed(json.loads(text).items())))
    if kind == "duplicate key":
        first = text.index('"', 1)
        key = text[1 : text.index('"', first + 1) + 1]
        return "{" + key + ": " + draw(st.sampled_from(["7", "0", "[]"])) + ", " + text[1:]
    if kind == "swap" and len(arcs) > 1:
        k = draw(st.integers(0, len(arcs) - 2))
        x, y = arcs[k], arcs[k + 1]
        between = text[x.end() : y.start()]
        return text[: x.start()] + y.group() + between + x.group() + text[y.end() :]
    if kind == "arc" and arcs:
        k = draw(st.integers(0, len(arcs) - 1))
        m = arcs[k]
        u, v = m.groups()
        new = draw(
            st.sampled_from(
                [f"[{u}, {u}]", f"[{v}, {u}]", f"[{u}, 99]", f"[{u}, {v}, 1]", f"[{u}]", "[]"]
            )
        )
        if k and draw(st.booleans()):
            new = arcs[k - 1].group()  # a repeat of the arc before
        return text[: m.start()] + new + text[m.end() :]
    if kind == "non-ascii":
        return text[:at] + draw(st.sampled_from(["é", "\u00a0", "٣"])) + text[at:]
    return text[:at] + text[at + 1 :]


class TestCanonicalReader:
    """The canonical reader against the json.loads path: the same object or
    the same FormatError text, on the writers' output and on edits of it."""

    def check(self, kind, text, canonical):
        parse, by_json, fast = _READERS[kind]
        expected = _outcome(by_json, text)
        assert _outcome(parse, text) == expected
        with _arrays_always():
            assert _outcome(parse, text) == expected
        if canonical:
            assert fast(text) is not None

    @given(digraphs(), st.data())
    def test_digraph(self, d, data):
        text = serialize_digraph(d)
        self.check("digraph", text, True)
        self.check("digraph", data.draw(_mutations(text)), False)

    @given(_compositions(), st.data())
    def test_composition(self, spec, data):
        text = serialize_composition(spec)
        self.check("composition", text, True)
        self.check("composition", data.draw(_mutations(text)), False)

    @given(_valid_pairs, st.data())
    def test_pair(self, gp, data):
        text = serialize_good_pair(gp)
        self.check("pair", text, True)
        self.check("pair", data.draw(_mutations(text)), False)

    @given(_pairs())
    def test_any_pair(self, gp):
        self.check("pair", serialize_good_pair(gp), False)

    @pytest.mark.parametrize(
        "kind, text",
        [
            ("digraph", '{"n": 2, "arcs": [[, 1]]}'),
            ("digraph", '{"n": 7, "arcs": [5[, 1]]}'),
            ("digraph", '{"n": 7, "arcs": [[5, 1]], "n": 7}'),
            ("digraph", '{"n": 7, "arcs": [[5, 1], [5, 1]]}'),
            ("digraph", '{"n": 7, "arcs": [[5, 1], [0, 1]]}'),
            ("digraph", '{"n": 7, "arcs": [[05, 1]]}'),
            ("digraph", '{"n": 1000000000000000000, "arcs": [[5, 1]]}'),
            ("composition", '{"T": {"n": 1, "arcs": []}, "H": [{"n": 0, "arcs": []}]}'),
            ("composition", '{"T": {"n": 2, "arcs": [[0, 1]]}, "H": [{"n": 1, "arcs": []}]}'),
            ("composition", '{"T": {"n": 1, "arcs": []}, "H": [{"n": 2, "arcs": [[0, 2]]}]}'),
            ("pair", '{"root": 0, "out_arcs": [[-1, 0]], "in_arcs": []}'),
            ("pair", '{"root": 0, "in_arcs": [[1, 0]], "out_arcs": []}'),
        ],
    )
    def test_layout_traps(self, kind, text):
        self.check(kind, text, False)
        assert _READERS[kind][2](text) is None

    @pytest.mark.parametrize(
        "text",
        [
            '{"root": 0, "out_arcs": [], "in_arcs": [[1, 0]]}',
            '{"root": 0, "out_arcs": [[1, 0]], "in_arcs": []}',
            '{"root": 0, "out_arcs": [], "in_arcs": []}',
        ],
    )
    def test_pairs_with_an_empty_list(self, text):
        self.check("pair", text, True)

    def test_canonical_text_never_reaches_json_loads(self, monkeypatch):
        """Without this, a reader that always fell back would pass: the
        writers' output, with the newline the CLI adds, for a C1-sized spec
        read at any size, and for one above the module's sizes."""
        small = gen_composition(8, (2, 4), 0.3, "strong", seed=3)
        large = CompositionSpec(gen_strong_digraph(2000, 2000, 4), [DiGraph(2)] * 2000)
        cases = []
        for spec in (small, large):
            gp = construct_good_pair(spec, BlobVertex(8, 2))
            cases += [
                (parse_composition, serialize_composition(spec), _key(spec)),
                (parse_digraph, serialize_digraph(spec.outer), _key(spec.outer)),
                (parse_good_pair, serialize_good_pair(gp), _key(gp)),
            ]

        def refuse(*args, **kwargs):
            raise AssertionError("json.loads read a canonical text")

        monkeypatch.setattr(gio.json, "loads", refuse)
        for k, (parse, text, expected) in enumerate(cases):
            if k < 3:
                with _arrays_always():
                    assert _key(parse(text + "\n")) == expected
            else:
                assert len(text) >= gio.ARRAY_READ_MIN_BYTES
                assert _key(parse(text + "\n")) == expected
