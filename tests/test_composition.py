from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodpairs import (
    BlobVertex,
    Branching,
    CompositionSpec,
    DiGraph,
    GoodPair,
    construct_good_pair,
    decide_semicomplete,
    gen_composition,
    gen_strong_digraph,
    is_semicomplete,
    materialize,
    validate_for_construction,
    verify_branching,
    verify_good_pair,
)

from goodpairs import io as gio
from goodpairs.io import FormatError, parse_composition, serialize_composition, serialize_digraph

from bruteforce import (
    reference_branching_problems,
    reference_composition,
    reference_composition_text,
    reference_is_semicomplete,
    reference_materialize,
)
from strategies import digraphs


def spec_c3_k2bar():
    c3 = DiGraph(3, [(0, 1), (1, 2), (2, 0)])
    return CompositionSpec(c3, [DiGraph(2)] * 3)


class TestMaterialize:
    def test_cycle_of_empty_blobs(self):
        q = materialize(spec_c3_k2bar())
        assert q.vertex_count == 6
        assert len(q.arcs) == 12

    def test_mixed_sizes_with_blob_arc(self):
        two_cycle = DiGraph(2, [(0, 1), (1, 0)])
        h2 = DiGraph(2, [(0, 1)])
        spec = CompositionSpec(two_cycle, [DiGraph(1), h2])
        q = materialize(spec)
        assert q.vertex_count == 3
        assert len(q.arcs) == 5

    def test_single_blob_is_identity(self):
        h = DiGraph(3, [(0, 1), (2, 1)])
        spec = CompositionSpec(DiGraph(1), [h])
        assert materialize(spec) == h

    def test_arc_limit_reported(self):
        spec = spec_c3_k2bar()
        with pytest.raises(ValueError, match="12 arcs"):
            materialize(spec, max_arcs=10)

    def test_arc_count_formula(self):
        spec = spec_c3_k2bar()
        assert spec.arc_count() == len(materialize(spec).arcs)

    def test_only_arcs_are_limited(self):
        # Past a million vertices, with no arc to build.
        q = materialize(CompositionSpec(DiGraph(1), [DiGraph(1_000_001)]))
        assert (q.vertex_count, q.arc_count) == (1_000_001, 0)

    def test_matches_reference_on_c4_specs(self):
        """The specs of acceptance criterion C4: semicomplete outers, blobs
        of 1 or 2 vertices, blob arcs at probability 0, 0.3 and 0.6."""
        for seed in range(60):
            p = (0.0, 0.3, 0.6)[seed % 3]
            spec = gen_composition(2 + seed % 3, (1, 2), p, "semicomplete", seed=seed)
            q = materialize(spec)
            assert q == reference_materialize(spec)
            assert list(q.arcs_in_order()) == sorted(q.arcs)

    @given(digraphs(min_n=1, max_n=4), st.data())
    def test_matches_reference_with_blob_arcs(self, outer, data):
        blobs = [data.draw(digraphs(min_n=1, max_n=4)) for _ in range(outer.vertex_count)]
        spec = CompositionSpec(outer, blobs)
        q = materialize(spec)
        assert q == reference_materialize(spec)
        assert list(q.arcs_in_order()) == sorted(q.arcs)
        assert len(q.tails) == spec.arc_count()

    def test_large_composition_uses_arrays(self):
        spec = gen_composition(12, (6, 8), 0.3, "semicomplete", seed=3)
        q = materialize(spec)
        assert "arcs" not in q.__dict__
        assert q == reference_materialize(spec)


def has_arc(spec: CompositionSpec, a: BlobVertex, b: BlobVertex) -> bool:
    """``spec.has_arcs`` on the global ids of one pair of blob vertices."""
    tails, heads = np.array([spec.global_id(a)]), np.array([spec.global_id(b)])
    return bool(spec.has_arcs(tails, heads)[0])


class TestHasArc:
    def test_cross_blob_arc(self):
        spec = spec_c3_k2bar()
        assert has_arc(spec, BlobVertex(1, 1), BlobVertex(2, 2))

    def test_no_intra_blob_arc_in_k2bar(self):
        spec = spec_c3_k2bar()
        assert not has_arc(spec, BlobVertex(1, 1), BlobVertex(1, 2))

    def test_missing_outer_arc(self):
        spec = spec_c3_k2bar()
        assert not has_arc(spec, BlobVertex(2, 1), BlobVertex(1, 1))

    def test_out_of_range(self):
        spec = spec_c3_k2bar()
        with pytest.raises(ValueError, match="layer 3 out of range"):
            has_arc(spec, BlobVertex(1, 3), BlobVertex(2, 1))
        with pytest.raises(ValueError, match="blob index"):
            has_arc(spec, BlobVertex(0, 1), BlobVertex(2, 1))

    @given(digraphs(min_n=1, max_n=4), st.data())
    @settings(max_examples=60)
    def test_agrees_with_materialized_membership(self, outer, data):
        t = outer.vertex_count
        blobs = [
            data.draw(digraphs(min_n=1, max_n=3), label=f"blob {i}")
            for i in range(t)
        ]
        spec = CompositionSpec(outer, blobs)
        if spec.total_vertices > 30:
            return
        q = materialize(spec)
        # The vectorised query, loops included, over every ordered pair at once.
        tails, heads = (a.ravel() for a in np.indices((spec.total_vertices,) * 2))
        expected = [(int(u), int(v)) in q.arcs for u, v in zip(tails, heads)]
        assert spec.has_arcs(tails, heads).tolist() == expected


class TestGlobalIds:
    def test_bijection(self):
        spec = CompositionSpec(
            DiGraph(3, [(0, 1), (1, 2), (2, 0)]),
            [DiGraph(2), DiGraph(3), DiGraph(1)],
        )
        seen = set()
        for i in range(1, 4):
            for j in range(1, spec.blob_size(i) + 1):
                g = spec.global_id(BlobVertex(i, j))
                assert spec.blob_vertex(g) == BlobVertex(i, j)
                seen.add(g)
        assert seen == set(range(spec.total_vertices))

    def test_global_id_out_of_range(self):
        spec = spec_c3_k2bar()
        with pytest.raises(ValueError):
            spec.blob_vertex(6)


class TestIsSemicomplete:
    def test_c3_is_tournament(self, c3):
        assert is_semicomplete(c3)

    def test_c4_is_not(self):
        assert not is_semicomplete(DiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))

    def test_biorientation_of_k2(self):
        assert is_semicomplete(DiGraph(2, [(0, 1), (1, 0)]))

    def test_agrees_with_the_pair_loop_on_every_digraph_up_to_4_vertices(self):
        from goodpairs.io import parse_digraph, serialize_digraph

        for n in range(5):
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            for mask in range(1 << len(pairs)):
                d = DiGraph(n, [p for k, p in enumerate(pairs) if mask >> k & 1])
                expected = reference_is_semicomplete(d)
                assert is_semicomplete(d) == expected, d
                # the same digraph built from the parser's sorted arrays
                assert is_semicomplete(parse_digraph(serialize_digraph(d))) == expected

    @given(digraphs(max_n=9))
    def test_agrees_with_the_pair_loop(self, d):
        assert is_semicomplete(d) == reference_is_semicomplete(d)


class TestValidateForConstruction:
    def test_passes(self):
        assert validate_for_construction(spec_c3_k2bar()).ok

    def test_small_blob_named(self):
        c3 = DiGraph(3, [(0, 1), (1, 2), (2, 0)])
        spec = CompositionSpec(c3, [DiGraph(2), DiGraph(2), DiGraph(1)])
        rep = validate_for_construction(spec)
        assert not rep.ok
        assert rep.problems == ("blob 3 has fewer than 2 vertices",)

    def test_non_strong_outer_named(self):
        path = DiGraph(3, [(0, 1), (1, 2)])
        spec = CompositionSpec(path, [DiGraph(2)] * 3)
        rep = validate_for_construction(spec)
        assert not rep.ok
        assert "not strong" in rep.first_problem

    def test_single_blob_named(self):
        spec = CompositionSpec(DiGraph(1), [DiGraph(2)])
        rep = validate_for_construction(spec)
        assert not rep.ok
        assert "at least 2" in rep.first_problem


def test_blob_count_mismatch_rejected():
    with pytest.raises(ValueError, match="expected 3 blob"):
        CompositionSpec(DiGraph(3, [(0, 1), (1, 2), (2, 0)]), [DiGraph(2)] * 2)


def test_empty_blob_rejected():
    with pytest.raises(ValueError, match="blob 1"):
        CompositionSpec(DiGraph(1), [DiGraph(0)])


def test_implicit_view_matches_materialized():
    spec = spec_c3_k2bar()
    q = materialize(spec)
    view = spec.implicit_view()
    assert view.vertex_count == q.vertex_count
    # Every ordered pair, loops included.
    tails, heads = (a.ravel() for a in np.indices((q.vertex_count,) * 2))
    flat = q.has_arcs(tails, heads)
    assert view.has_arcs(tails, heads).tolist() == flat.tolist()
    assert flat.sum() == len(q.arcs)


def _parity_pairs():
    """(spec, good pair) on small compositions: the constructor's pairs with
    blobs of 2-4, and decide_semicomplete's pairs with singleton blobs; about
    half the specs have blob-internal arcs."""
    for seed in range(40):
        p = 0.5 if seed % 2 else 0.0
        if seed % 4 < 2:
            spec = gen_composition(2 + seed % 5, (2, 4), p, "strong", seed=seed)
            yield spec, construct_good_pair(spec, BlobVertex(1 + seed % 2, 2))
        else:
            spec = gen_composition(3 + seed % 3, (1, 3), p, "semicomplete", seed=seed)
            for blob in range(1, spec.blob_count + 1):
                decision = decide_semicomplete(spec, BlobVertex(blob, 1))
                if decision.found:
                    yield spec, decision.pair
                    break


def _out_replaced(gp: GoodPair, old, new) -> GoodPair:
    arcs = (gp.out_branching.arcs - {old}) | {new}
    return GoodPair(gp.root, Branching(gp.root, "out", arcs), gp.in_branching)


def _mutations(spec: CompositionSpec, q: DiGraph, gp: GoodPair):
    """(name, broken pair) for every way of breaking ``gp`` that applies."""
    r, out_b, in_b = gp.root, gp.out_branching, gp.in_branching
    n = q.vertex_count
    blob = [spec.blob_vertex(v).blob - 1 for v in range(n)]
    first = min(out_b.arcs)

    yield "drop", GoodPair(r, Branching(r, "out", out_b.arcs - {first}), in_b)
    for u, v in sorted(out_b.arcs):
        inside = [
            w
            for w in range(n)
            if blob[w] == blob[v] and w != v
            and not q.has_arcs(np.array([w]), np.array([v]))[0]
        ]
        if inside:
            yield "non-arc inside a blob", _out_replaced(gp, (u, v), (inside[0], v))
            break
    for u, v in sorted(out_b.arcs):
        far = [
            w
            for w in range(n)
            if blob[w] != blob[v]
            and not spec.outer.has_arcs(np.array([blob[w]]), np.array([blob[v]]))[0]
        ]
        if far:
            yield "non-arc between blobs", _out_replaced(gp, (u, v), (far[0], v))
            break
    parent = {v: u for u, v in out_b.arcs}
    extra = next((a for a in sorted(q.arcs - out_b.arcs) if a[1] != r), None)
    if extra is not None:
        dropped = next(a for a in sorted(out_b.arcs) if a[1] != extra[1])
        yield "in-degree", _out_replaced(gp, dropped, extra)

    def below(v: int, w: int) -> bool:  # is w a proper descendant of v?
        while w in parent:
            w = parent[w]
            if w == v:
                return True
        return False

    cycle = next(((w, v) for w, v in sorted(q.arcs) if v != r and below(v, w)), None)
    if cycle is not None:
        yield "cycle", _out_replaced(gp, (parent[cycle[1]], cycle[1]), cycle)
    other = (r + 1) % n
    yield "wrong root", GoodPair(
        other, Branching(other, "out", out_b.arcs), Branching(other, "in", in_b.arcs)
    )
    succ = {u: v for u, v in in_b.arcs}

    def drains_through(w: int, u: int) -> bool:  # does w's in-tree path meet u?
        while w != r:
            if w == u:
                return True
            w = succ[w]
        return False

    shared = next(
        ((u, w) for u, w in sorted(out_b.arcs) if u != r and not drains_through(w, u)),
        None,
    )
    if shared is not None:
        u = shared[0]
        in_arcs = (in_b.arcs - {(u, succ[u])}) | {shared}
        yield "shared arc", GoodPair(r, out_b, Branching(r, "in", in_arcs))
    in_cycle = next(
        ((u, w) for u, w in sorted(q.arcs) if u != r and drains_through(w, u)),
        None,
    )
    if in_cycle is not None:
        u = in_cycle[0]
        in_arcs = (in_b.arcs - {(u, succ[u])}) | {in_cycle}
        yield "in-tree cycle", GoodPair(r, out_b, Branching(r, "in", in_arcs))
    for bad in (n, -1, 2**70):
        yield "out of range", _out_replaced(gp, first, (first[0], bad))
    # Several bad arcs: both hosts must name the smallest in (tail, head) order.
    u, v = max(out_b.arcs)
    arcs = (out_b.arcs - {first, (u, v)}) | {(first[0], n), (v, u + n)}
    yield "two bad arcs", GoodPair(r, Branching(r, "out", arcs), in_b)
    loops = {(w, w) for w in range(n) if w != r}
    yield "many bad arcs", GoodPair(r, Branching(r, "out", loops), in_b)
    yield "wrong kind", GoodPair(r, Branching(r, "in", out_b.arcs), in_b)


def _assert_hosts_agree(spec: CompositionSpec, q: DiGraph, gp: GoodPair, name: str):
    """The implicit view, the materialized DiGraph and the per-arc reference
    name the same problems, branching by branching and for the pair."""
    view = spec.implicit_view()
    for b in (gp.out_branching, gp.in_branching):
        expected = reference_branching_problems(q, b)
        assert verify_branching(q, b).problems == expected, name
        assert verify_branching(view, b).problems == expected, name
    assert verify_good_pair(view, gp).problems == verify_good_pair(q, gp).problems, name


def test_implicit_view_and_materialized_host_agree_on_broken_pairs():
    """The verifier on the implicit view and on the materialized DiGraph
    accepts the same pairs as the per-arc reference and names the same
    problems."""
    seen = Counter()
    for spec, gp in _parity_pairs():
        q = materialize(spec)
        assert verify_good_pair(spec.implicit_view(), gp).ok
        _assert_hosts_agree(spec, q, gp, "unbroken")
        for name, broken in _mutations(spec, q, gp):
            assert not verify_good_pair(q, broken).ok, name
            _assert_hosts_agree(spec, q, broken, name)
            seen[name] += 1
    assert set(seen) == {
        "drop",
        "non-arc inside a blob",
        "non-arc between blobs",
        "cycle",
        "in-tree cycle",
        "in-degree",
        "wrong root",
        "shared arc",
        "out of range",
        "two bad arcs",
        "many bad arcs",
        "wrong kind",
    }, seen
    assert min(seen.values()) >= 5, seen


def test_verifiers_agree_deep_in_the_arc_arrays():
    """Arcs broken far into a 6000-vertex out-tree's sorted arrays are named
    alike by the implicit view, the flat host and the per-arc reference."""
    t = 3000
    spec = CompositionSpec(gen_strong_digraph(t, t, seed=5), [DiGraph(2)] * t)
    q = materialize(spec)
    gp = construct_good_pair(spec, BlobVertex(1, 1))
    out_b = gp.out_branching
    for u, v in sorted(out_b.arcs)[4096::400]:
        for bad in ((u, u ^ 1), (u, 2 * t)):  # inside u's empty blob; out of range
            b = Branching(gp.root, "out", (out_b.arcs - {(u, v)}) | {bad})
            at = np.flatnonzero((b.tails == bad[0]) & (b.heads == bad[1]))
            assert at[0] >= 4096
            broken = GoodPair(gp.root, b, gp.in_branching)
            problem = verify_good_pair(spec.implicit_view(), broken).first_problem
            assert problem.startswith(f"out-branching invalid: arc ({bad[0]},{bad[1]})")
            _assert_hosts_agree(spec, q, broken, str(bad))


INT64_MAX = 2**63 - 1


@st.composite
def _blob_lists(draw):
    """An outer digraph and its blobs: small ones, some with arcs, and
    sometimes one whose order takes the composition order to within 3 of
    int64's maximum, with arcs at both ends of its ids."""
    t = draw(st.integers(1, 5))
    blobs = draw(st.lists(digraphs(min_n=1, max_n=4), min_size=t, max_size=t))
    if draw(st.booleans()):
        i = draw(st.integers(0, t - 1))
        others = sum(h.vertex_count for j, h in enumerate(blobs) if j != i)
        n = INT64_MAX - draw(st.integers(0, 3)) - others
        ends = [0, 1, n - 2, n - 1]
        pairs = [(u, v) for u in ends for v in ends if u != v]
        blobs[i] = DiGraph(n, draw(st.sets(st.sampled_from(pairs))))
    return draw(digraphs(min_n=t, max_n=t)), blobs


def _reference_layout(blobs):
    """Blob orders and blob arcs in global ids, by a loop over the blobs."""
    sizes, tails, heads, base = [], [], [], 0
    for h in blobs:
        for u, v in sorted(h.arcs):
            tails.append(base + u)
            heads.append(base + v)
        sizes.append(h.vertex_count)
        base += h.vertex_count
    return sizes, tails, heads


def _layout(spec):
    return (
        spec.sizes.tolist(),
        spec.inner.tails.tolist(),
        spec.inner.heads.tolist(),
        (spec.sizes.dtype, spec.inner.tails.dtype, spec.inner.heads.dtype),
        spec.total_vertices,
    )


class TestBlobLayout:
    """Every way of building a spec gives the same blob orders, blob arcs
    and blob digraphs."""

    @given(_blob_lists())
    def test_constructor_arrays_and_parsers_agree(self, case):
        outer, blobs = case
        sizes, tails, heads = _reference_layout(blobs)
        inner = DiGraph.from_sorted_arrays(
            sum(sizes), np.array(tails, np.int64), np.array(heads, np.int64)
        )
        built = CompositionSpec(outer, blobs)
        text = serialize_composition(built)
        assert text == reference_composition_text(CompositionSpec(outer, blobs))
        specs = [
            built,
            CompositionSpec.from_arrays(outer, np.array(sizes, np.int64), inner),
            parse_composition(text),
            gio._composition_from_json(text),
        ]
        if sum(sizes) < 10**18:  # the canonical reader takes ints of up to 18 digits
            specs.append(gio._canonical_composition(text))
        expected = (sizes, tails, heads, (np.dtype(np.int64),) * 3, sum(sizes))
        for spec in specs:
            assert _layout(spec) == expected
            assert spec.blobs == tuple(blobs)
            assert not spec.sizes.flags.writeable

    @given(
        t=st.integers(2, 8),
        sizes=st.tuples(st.integers(1, 4), st.integers(0, 2)),
        p=st.floats(0, 1),
        outer=st.sampled_from(["strong", "semicomplete"]),
        seed=st.integers(0, 2**32),
    )
    def test_generator_agrees_with_the_constructor(self, t, sizes, p, outer, seed):
        lo, hi = sizes[0], sum(sizes)
        spec = gen_composition(t, (lo, hi), p, outer, seed)
        ref, _, _ = reference_composition(t, (lo, hi), p, outer, seed)
        assert _layout(spec) == _layout(ref)
        assert spec.blobs == ref.blobs
        assert _layout(parse_composition(serialize_composition(spec))) == _layout(ref)

    def test_composition_order_beyond_int64_is_named(self):
        half = DiGraph(2**62)
        message = r"^blob 2: the composition order passes int64 \(9223372036854775808 "
        with pytest.raises(ValueError, match=message):
            CompositionSpec(DiGraph(3, [(0, 1), (1, 2), (2, 0)]), [half, half, DiGraph(1)])
        with pytest.raises(ValueError, match=r"^blob 1: the composition order passes int64"):
            CompositionSpec(DiGraph(2, [(0, 1), (1, 0)]), [DiGraph(2**64), DiGraph(0)])
        with pytest.raises(ValueError, match=r"^blob 1 must have at least one vertex"):
            CompositionSpec(DiGraph(2, [(0, 1), (1, 0)]), [DiGraph(0), DiGraph(2**64)])
        edge = CompositionSpec(DiGraph(2, [(0, 1), (1, 0)]), [half, DiGraph(2**62 - 1)])
        assert edge.total_vertices == INT64_MAX

    def test_parsers_name_the_blob_where_the_order_passes_int64(self):
        """A text above the canonical reader's size whose orders, of 18
        digits each, fit int64 but whose sum does not: the canonical reader
        leaves it to json.loads, and the error names the blob."""
        outer = json.loads(serialize_digraph(gen_strong_digraph(2000, 2000, 1)))
        orders = [10**18 - 1] * 10 + [1] * 1990
        doc = {"T": outer, "H": [{"n": n, "arcs": []} for n in orders]}
        text = json.dumps(doc)
        assert len(text) >= gio.ARRAY_READ_MIN_BYTES
        assert gio._canonical_composition(text) is None
        message = r"^composition\.H\[9\]\.n: the composition order passes int64 \(9{18}0 "
        with pytest.raises(FormatError, match=message):
            parse_composition(text)
        doc["H"][9]["n"] = 1  # nine of them fit
        assert gio._canonical_composition(json.dumps(doc)).total_vertices == 9 * orders[0] + 1991


def test_blob_digraphs_are_built_only_on_request():
    """No step of the package reads ``spec.blobs``: parsing, writing,
    construction, materialization and both paths of the semicomplete
    decision leave it unbuilt."""
    def generated():
        return [
            gen_composition(6, (2, 3), 0.3, "semicomplete", 1),  # the constructor's path
            gen_composition(4, (1, 3), 0.3, "semicomplete", 2),  # the restriction's path
        ]

    specs = generated()
    assert [spec.sizes.min() for spec in specs] == [2, 1]
    specs += [parse_composition(serialize_composition(spec)) for spec in generated()]
    specs.append(CompositionSpec(specs[0].outer, generated()[0].blobs))
    for spec in specs:
        serialize_composition(spec)
        materialize(spec)
        root = BlobVertex(int(np.argmin(spec.sizes)) + 1, 1)
        assert decide_semicomplete(spec, root).status in ("found", "absent")
        if spec.sizes.min() >= 2:
            construct_good_pair(spec, BlobVertex(2, 2))
        assert "blobs" not in spec.__dict__
