from __future__ import annotations

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
    verify_good_pair,
)

from goodpairs.digraph import _ARC_CHUNK

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


class TestHasArc:
    def test_cross_blob_arc(self):
        spec = spec_c3_k2bar()
        assert spec.has_arc(BlobVertex(1, 1), BlobVertex(2, 2))

    def test_no_intra_blob_arc_in_k2bar(self):
        spec = spec_c3_k2bar()
        assert not spec.has_arc(BlobVertex(1, 1), BlobVertex(1, 2))

    def test_missing_outer_arc(self):
        spec = spec_c3_k2bar()
        assert not spec.has_arc(BlobVertex(2, 1), BlobVertex(1, 1))

    def test_out_of_range(self):
        spec = spec_c3_k2bar()
        with pytest.raises(ValueError, match="layer 3 out of range"):
            spec.has_arc(BlobVertex(1, 3), BlobVertex(2, 1))
        with pytest.raises(ValueError, match="blob index"):
            spec.has_arc(BlobVertex(0, 1), BlobVertex(2, 1))

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
        for u in range(spec.total_vertices):
            for v in range(spec.total_vertices):
                if u == v:
                    continue
                assert spec.has_arc_ids(u, v) == q.has_arc(u, v)
        # The vectorised query, loops included, over every ordered pair at once.
        tails, heads = (a.ravel() for a in np.indices((spec.total_vertices,) * 2))
        expected = [q.has_arc(int(u), int(v)) for u, v in zip(tails, heads)]
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
    assert all(
        view.has_arc(u, v) == q.has_arc(u, v)
        for u in range(6)
        for v in range(6)
        if u != v
    )


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
            w for w in range(n) if blob[w] == blob[v] and w != v and not q.has_arc(w, v)
        ]
        if inside:
            yield "non-arc inside a blob", _out_replaced(gp, (u, v), (inside[0], v))
            break
    for u, v in sorted(out_b.arcs):
        far = [
            w
            for w in range(n)
            if blob[w] != blob[v] and not spec.outer.has_arc(blob[w], blob[v])
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
    # Several bad arcs: both hosts must name the first in iteration order.
    u, v = max(out_b.arcs)
    arcs = (out_b.arcs - {first, (u, v)}) | {(first[0], n), (v, u + n)}
    yield "two bad arcs", GoodPair(r, Branching(r, "out", arcs), in_b)
    loops = {(w, w) for w in range(n) if w != r}
    yield "many bad arcs", GoodPair(r, Branching(r, "out", loops), in_b)
    yield "wrong kind", GoodPair(r, Branching(r, "in", out_b.arcs), in_b)


def test_implicit_view_and_materialized_host_agree_on_broken_pairs():
    """The vectorised verifier (implicit view) and the per-arc loop
    (materialized DiGraph) accept the same pairs and name the same problems."""
    seen = Counter()
    for spec, gp in _parity_pairs():
        q = materialize(spec)
        view = spec.implicit_view()
        assert verify_good_pair(view, gp).ok and verify_good_pair(q, gp).ok
        for name, broken in _mutations(spec, q, gp):
            flat = verify_good_pair(q, broken)
            implicit = verify_good_pair(view, broken)
            assert not flat.ok, name
            assert implicit.problems == flat.problems, name
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


def test_verifiers_agree_beyond_the_first_arc_chunk():
    t = 3000
    spec = CompositionSpec(gen_strong_digraph(t, t, seed=5), [DiGraph(2)] * t)
    q = materialize(spec)
    view = spec.implicit_view()
    gp = construct_good_pair(spec, BlobVertex(1, 1))
    out_b = gp.out_branching
    late = 0
    for u, v in sorted(out_b.arcs)[::500]:
        for bad in ((u, u ^ 1), (u, 2 * t)):  # inside u's empty blob; out of range
            arcs = (out_b.arcs - {(u, v)}) | {bad}
            broken = GoodPair(gp.root, Branching(gp.root, "out", arcs), gp.in_branching)
            implicit = verify_good_pair(view, broken)
            assert not implicit.ok
            assert implicit.problems == verify_good_pair(q, broken).problems
            late += list(arcs).index(bad) >= _ARC_CHUNK
    assert late
