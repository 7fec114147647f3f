from __future__ import annotations

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
    closed_neighborhood_restriction,
    construct_good_pair,
    decide_good_pair_exact,
    decide_root_adjacent,
    decide_semicomplete,
    gen_composition,
    lift_good_pair,
    materialize,
    shrink_good_pair,
    verify_good_pair,
)
from goodpairs import digraph as digraph_module
from goodpairs.semicomplete import _requirements

from bruteforce import (
    ARRAY_FORMS,
    _reference_reach,
    adjacency_lists,
    reference_decide_root_adjacent,
    reference_source_components,
)
from strategies import digraphs, root_adjacent


def spec_c3_k2bar():
    c3 = DiGraph(3, [(0, 1), (1, 2), (2, 0)])
    return CompositionSpec(c3, [DiGraph(2)] * 3)


class TestRestriction:
    def test_root_adjacent_to_all_keeps_everything(self, bior_k3):
        nr = closed_neighborhood_restriction(bior_k3, 0)
        assert nr.removed.tolist() == []
        assert nr.restricted == bior_k3
        assert nr.root_in_restricted == 0

    def test_blob_mate_is_removed(self):
        q = materialize(spec_c3_k2bar())
        nr = closed_neighborhood_restriction(q, 0)
        assert nr.removed.tolist() == [1]
        assert nr.kept.tolist() == [0, 2, 3, 4, 5]
        assert nr.restricted.vertex_count == 5

    def test_star_center(self):
        star = DiGraph(4, [(0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 0)])
        nr = closed_neighborhood_restriction(star, 0)
        assert nr.removed.tolist() == []

    def test_partition(self):
        q = materialize(spec_c3_k2bar())
        for r in range(q.vertex_count):
            nr = closed_neighborhood_restriction(q, r)
            kept, removed = nr.kept.tolist(), nr.removed.tolist()
            assert set(kept) | set(removed) == set(range(q.vertex_count))
            assert not set(kept) & set(removed)
            for u in removed:
                assert not q.has_arc(r, u) and not q.has_arc(u, r)


    def test_kept_and_removed_are_read_only_int64_arrays(self):
        for spec in (spec_c3_k2bar(), gen_composition(6, (1, 3), 0.3, "semicomplete", 5)):
            q = materialize(spec)
            for r in range(q.vertex_count):
                nr = closed_neighborhood_restriction(q, r)
                for ids in (nr.kept, nr.removed):
                    assert ids.dtype == np.int64 and not ids.flags.writeable
                    assert (np.diff(ids) > 0).all()
                merged = np.concatenate((nr.kept, nr.removed))
                assert sorted(merged.tolist()) == list(range(q.vertex_count))
                assert nr.kept[nr.root_in_restricted] == r
                assert nr.restricted.vertex_count == len(nr.kept)

    @given(digraphs(min_n=1, max_n=7), st.data())
    def test_matches_the_neighbourhood_read_arc_by_arc(self, d, data):
        r = data.draw(st.integers(0, d.vertex_count - 1), label="root")
        nr = closed_neighborhood_restriction(d, r)
        kept = sorted({r} | {v for u, v in d.arcs if u == r} | {u for u, v in d.arcs if v == r})
        assert nr.kept.tolist() == kept
        assert nr.root_in_restricted == kept.index(r)
        inside = [(kept.index(u), kept.index(v)) for u, v in d.arcs if u in kept and v in kept]
        assert nr.restricted == DiGraph(len(kept), inside)

    def test_checks_only_the_root(self, monkeypatch):
        q = materialize(gen_composition(5, (1, 3), 0.0, "semicomplete", 2))
        checked = []
        check_vertex = DiGraph.check_vertex

        def counting(d, v, what="vertex"):
            checked.append((v, what))
            return check_vertex(d, v, what)

        monkeypatch.setattr(DiGraph, "check_vertex", counting)
        closed_neighborhood_restriction(q, 3)
        assert checked == [(3, "root")]


class TestLift:
    def test_empty_removed_is_reindexing(self, bior_k3):
        nr = closed_neighborhood_restriction(bior_k3, 0)
        inner = decide_good_pair_exact(nr.restricted, 0)
        lifted = lift_good_pair(bior_k3, nr, inner.pair)
        assert lifted.out_branching.arcs == inner.pair.out_branching.arcs
        assert lifted.in_branching.arcs == inner.pair.in_branching.arcs

    def test_lift_over_removed_blob_mate(self):
        spec = spec_c3_k2bar()
        q = materialize(spec)
        nr = closed_neighborhood_restriction(q, 0)
        inner = decide_good_pair_exact(nr.restricted, nr.root_in_restricted)
        assert inner.found
        lifted = lift_good_pair(q, nr, inner.pair)
        assert verify_good_pair(q, lifted).ok
        # the removed vertex is attached by one arc on each side
        (added_out,) = [a for a in lifted.out_branching.arcs if a[1] == 1]
        (added_in,) = [a for a in lifted.in_branching.arcs if a[0] == 1]
        assert q.has_arc(*added_out) and q.has_arc(*added_in)

    def test_adjacency_inside_root_blob_changes_partition(self):
        c3 = DiGraph(3, [(0, 1), (1, 2), (2, 0)])
        h1 = DiGraph(2, [(0, 1)])  # root's blob has the arc root -> mate
        spec = CompositionSpec(c3, [h1, DiGraph(2), DiGraph(2)])
        q = materialize(spec)
        nr = closed_neighborhood_restriction(q, 0)
        assert nr.removed.tolist() == []

    def test_invalid_restricted_pair_rejected(self):
        spec = spec_c3_k2bar()
        q = materialize(spec)
        nr = closed_neighborhood_restriction(q, 0)
        inner = decide_good_pair_exact(nr.restricted, nr.root_in_restricted)
        from goodpairs import Branching, GoodPair

        broken = GoodPair(
            0,
            Branching(0, "out", set(list(inner.pair.out_branching.arcs)[:-1])),
            inner.pair.in_branching,
        )
        with pytest.raises(ValueError, match="does not verify"):
            lift_good_pair(q, nr, broken)


class TestShrink:
    def test_empty_removed_is_reindexing(self, bior_k3):
        nr = closed_neighborhood_restriction(bior_k3, 0)
        gp = decide_good_pair_exact(bior_k3, 0).pair
        result = shrink_good_pair(bior_k3, nr, gp)
        assert result.ok
        assert result.pair.out_branching.arcs == gp.out_branching.arcs

    def test_round_trip_through_lift(self):
        spec = spec_c3_k2bar()
        q = materialize(spec)
        nr = closed_neighborhood_restriction(q, 0)
        inner = decide_good_pair_exact(nr.restricted, nr.root_in_restricted)
        lifted = lift_good_pair(q, nr, inner.pair)
        result = shrink_good_pair(q, nr, lifted)
        assert result.ok
        assert verify_good_pair(nr.restricted, result.pair).ok

    def test_shrink_oracle_pair_on_q(self):
        spec = spec_c3_k2bar()
        q = materialize(spec)
        for r in range(q.vertex_count):
            gp = decide_good_pair_exact(q, r).pair
            nr = closed_neighborhood_restriction(q, r)
            result = shrink_good_pair(q, nr, gp)
            assert result.ok, result.message
            assert verify_good_pair(nr.restricted, result.pair).ok

    def test_invalid_input_pair_rejected(self, bior_k3):
        from goodpairs import Branching, GoodPair

        nr = closed_neighborhood_restriction(bior_k3, 0)
        bad = GoodPair(0, Branching(0, "out", []), Branching(0, "in", []))
        with pytest.raises(ValueError, match="does not verify"):
            shrink_good_pair(bior_k3, nr, bad)

    def test_stuck_when_rewire_arc_missing_inside_root_blob(self):
        # A root blob of size 3 can defeat the pruning: here the out-tree
        # hangs kept vertex 3 under removed vertex 4, both blob-mates of the
        # root, and the arc root->3 does not exist, so no rewiring incident
        # to the root can save the subtree.  The procedure must report the
        # stuck vertex rather than emit anything unverified.
        from goodpairs import Branching, GoodPair

        outer = DiGraph(3, [(0, 2), (1, 0), (1, 2), (2, 1)])
        blob = DiGraph(3, [(1, 0), (1, 2), (2, 1)])
        spec = CompositionSpec(outer, [DiGraph(2), blob, DiGraph(1)])
        q = materialize(spec)
        r = spec.global_id(BlobVertex(2, 1))
        pair = GoodPair(
            r,
            Branching(r, "out", [(2, 0), (2, 1), (2, 5), (4, 3), (5, 4)]),
            Branching(r, "in", [(0, 5), (1, 5), (3, 2), (4, 5), (5, 2)]),
        )
        assert verify_good_pair(q, pair).ok
        nr = closed_neighborhood_restriction(q, r)
        assert nr.removed.tolist() == [4]
        result = shrink_good_pair(q, nr, pair)
        assert not result.ok
        assert result.stuck_vertex == 4
        assert result.message == (
            "out-branching: vertex 3 under removed vertex 4 has no arc from the root"
        )

    def test_two_faults_report_the_first_kept_vertex(self):
        # Removed vertex 0 is the out-parent of kept vertices 2, 3, 4, 5, 7
        # and 8; the root has no arc to any of them.
        from goodpairs import Branching, GoodPair

        spec = gen_composition(3, (1, 4), 0.4, "semicomplete", 141)
        q = materialize(spec)
        r = spec.global_id(BlobVertex(1, 2))
        assert r == 1
        pair = GoodPair(
            r,
            Branching(r, "out", [(0, 2), (0, 3), (0, 4), (0, 5), (0, 7), (0, 8), (1, 6), (6, 0)]),
            Branching(r, "in", [(0, 6), (2, 1), (3, 1), (4, 6), (5, 6), (6, 1), (7, 1), (8, 1)]),
        )
        nr = closed_neighborhood_restriction(q, r)
        result = shrink_good_pair(q, nr, pair)
        assert not result.ok
        assert result.stuck_vertex == 0
        assert result.message == (
            "out-branching: vertex 2 under removed vertex 0 has no arc from the root"
        )

    def test_linear_at_scale(self):
        # Outer 0->1->2->0 plus 1->0, blobs of (2000, 3, 3), root at 1.1:
        # 1999 removed vertices, each rewired in one pass.
        outer = DiGraph(3, [(0, 1), (1, 2), (2, 0), (1, 0)])
        spec = CompositionSpec(outer, [DiGraph(2000), DiGraph(3), DiGraph(3)])
        q = materialize(spec)
        root = BlobVertex(1, 1)
        nr = closed_neighborhood_restriction(q, spec.global_id(root))
        assert len(nr.removed) == 1999
        result = shrink_good_pair(q, nr, construct_good_pair(spec, root))
        assert result.ok, result.message
        assert verify_good_pair(nr.restricted, result.pair).ok


class TestDecideSemicomplete:
    def test_tightness_of_singleton_blobs(self, c3):
        spec = CompositionSpec(c3, [DiGraph(1)] * 3)
        for blob in (1, 2, 3):
            decision = decide_semicomplete(spec, BlobVertex(blob, 1))
            assert decision.absent

    def test_fast_path(self):
        spec = spec_c3_k2bar()
        q = materialize(spec)
        for blob in (1, 2, 3):
            for layer in (1, 2):
                decision = decide_semicomplete(spec, BlobVertex(blob, layer))
                assert decision.found
                assert verify_good_pair(q, decision.pair).ok

    def test_star_pair_on_biorientation(self, bior_k3):
        spec = CompositionSpec(bior_k3, [DiGraph(1)] * 3)
        decision = decide_semicomplete(spec, BlobVertex(1, 1))
        assert decision.found
        assert decision.pair.out_branching.arcs == frozenset({(0, 1), (0, 2)})
        assert decision.pair.in_branching.arcs == frozenset({(1, 0), (2, 0)})

    def test_mixed_blob_sizes_found_and_lifted(self, bior_k3):
        spec = CompositionSpec(bior_k3, [DiGraph(2), DiGraph(1), DiGraph(3)])
        q = materialize(spec)
        for r in range(q.vertex_count):
            decision = decide_semicomplete(spec, spec.blob_vertex(r))
            exact = decide_good_pair_exact(q, r)
            assert decision.status == exact.status
            if decision.found:
                assert verify_good_pair(q, decision.pair).ok

    def test_non_semicomplete_outer_rejected(self):
        c4 = DiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        spec = CompositionSpec(c4, [DiGraph(1)] * 4)
        with pytest.raises(ValueError, match="not semicomplete"):
            decide_semicomplete(spec, BlobVertex(1, 1))

    def test_non_strong_rejected(self):
        outer = DiGraph(2, [(0, 1)])  # semicomplete but not strong
        spec = CompositionSpec(outer, [DiGraph(1), DiGraph(1)])
        with pytest.raises(ValueError, match="not strong"):
            decide_semicomplete(spec, BlobVertex(1, 1))

    def test_singleton_root_blob_decided_and_verified(self, c3):
        spec = CompositionSpec(c3, [DiGraph(1), DiGraph(2), DiGraph(2)])
        decision = decide_semicomplete(spec, BlobVertex(1, 1))
        assert decision.found
        assert verify_good_pair(materialize(spec), decision.pair).ok

    def test_absence_certificate_on_tightness_example(self, c3):
        # Q is the 3-cycle 1.1 -> 2.1 -> 3.1 -> 1.1: at root 1.1, O = {2.1}
        # and I = {3.1}, and their two requirements share the one arc.
        spec = CompositionSpec(c3, [DiGraph(1)] * 3)
        decision = decide_semicomplete(spec, BlobVertex(1, 1))
        assert decision.absent
        assert decision.reason == (
            "deficient requirement component: 2 requirements, "
            "1 serving O->I arcs (2.1->3.1); out-branching must enter {3.1}; "
            "in-branching must leave {2.1}"
        )

    @pytest.mark.parametrize(
        "root, reason",
        [
            (
                BlobVertex(1, 1),
                "deficient requirement component: 4 requirements, 3 serving O->I "
                "arcs (2.1->3.1, 2.1->3.2, 2.1->3.3); out-branching must enter "
                "{3.1}, {3.2}, {3.3}; in-branching must leave {2.1}",
            ),
            (
                BlobVertex(2, 1),
                "deficient requirement component: 4 requirements, 3 serving O->I "
                "arcs (3.1->1.1, 3.2->1.1, 3.3->1.1); out-branching must enter "
                "{1.1}; in-branching must leave {3.1}, {3.2}, {3.3}",
            ),
        ],
        ids=["1.1", "2.1"],
    )
    def test_absent_reason_names_as_blob_vertex_does(self, c3, root, reason):
        """The names of an absent answer, built all at once, are the ones
        `spec.blob_vertex` gives one vertex at a time."""
        spec = CompositionSpec(c3, [DiGraph(1), DiGraph(1), DiGraph(3)])
        nr = closed_neighborhood_restriction(materialize(spec), spec.global_id(root))
        one_by_one = decide_root_adjacent(
            nr.restricted,
            nr.root_in_restricted,
            name=lambda v: str(spec.blob_vertex(int(nr.kept[v]))),
        )
        assert decide_semicomplete(spec, root).reason == one_by_one.reason == reason

    def test_single_blob_rejected(self):
        spec = CompositionSpec(DiGraph(1), [DiGraph(3, [(0, 1), (1, 0), (1, 2), (2, 1)])])
        with pytest.raises(ValueError, match="at least 2 blobs"):
            decide_semicomplete(spec, BlobVertex(1, 1))


class TestNumpyEngine:
    """Decisions on restrictions of 5,002 vertices, which `bfs_pointers`
    searches with its numpy engine, give what the FIFO engine gives with
    the engine constant raised above their order."""

    @pytest.mark.parametrize(
        "outer, sizes, root, status",
        [
            pytest.param("c3", (1, 1, 5000), BlobVertex(1, 1), "absent", id="c3-1.1"),
            pytest.param("c3", (1, 1, 5000), BlobVertex(2, 1), "absent", id="c3-2.1"),
            pytest.param("bior_k3", (5000, 1, 1), BlobVertex(2, 1), "found", id="bior_k3-2.1"),
        ],
    )
    def test_matches_the_fifo_engine(self, request, monkeypatch, outer, sizes, root, status):
        outer = request.getfixturevalue(outer)
        spec = CompositionSpec(outer, [DiGraph(k) for k in sizes])
        nr = closed_neighborhood_restriction(materialize(spec), spec.global_id(root))
        order = nr.restricted.vertex_count
        assert order == 5002 >= digraph_module.CSR_SEARCH_MIN_VERTICES
        numpy_calls = []
        engine = digraph_module._csr_pointers

        def counting_engine(*args):
            numpy_calls.append(1)
            return engine(*args)

        monkeypatch.setattr(digraph_module, "_csr_pointers", counting_engine)
        on_numpy = decide_semicomplete(spec, root)
        assert numpy_calls
        numpy_calls.clear()
        monkeypatch.setattr(digraph_module, "CSR_SEARCH_MIN_VERTICES", order + 1)
        on_fifo = decide_semicomplete(spec, root)
        assert not numpy_calls
        assert on_numpy.status == on_fifo.status == status
        assert on_numpy.reason == on_fifo.reason
        if status == "found":
            for b, c in (
                (on_numpy.pair.out_branching, on_fifo.pair.out_branching),
                (on_numpy.pair.in_branching, on_fifo.pair.in_branching),
            ):
                assert np.array_equal(b.tails, c.tails) and np.array_equal(b.heads, c.heads)


class TestRestrictionEquivalenceSmall:
    def test_oracle_on_q_agrees_with_oracle_on_restriction(self):
        failures = []
        for seed in range(40):
            spec = gen_composition(
                2 + seed % 3, (1, 2), 0.3 if seed % 2 else 0.0, "semicomplete", seed
            )
            if spec.total_vertices > 8:
                continue
            q = materialize(spec)
            for r in range(q.vertex_count):
                nr = closed_neighborhood_restriction(q, r)
                on_q = decide_good_pair_exact(q, r).found
                on_restriction = decide_good_pair_exact(
                    nr.restricted, nr.root_in_restricted
                ).found
                if on_q != on_restriction:
                    failures.append((seed, r))
        assert not failures


class TestDecideRootAdjacent:
    def test_loop_requirement_needs_its_own_arc(self):
        # O = {1}, I = {2, 3}, B = {}.  Requirement {2} is entered only by
        # 1 -> 2 and {1} is left by 1 -> 2 and 1 -> 3: two arcs, two needs.
        d = DiGraph(4, [(0, 1), (2, 0), (3, 0), (1, 2), (1, 3), (2, 3)])
        decision = decide_root_adjacent(d, 0)
        assert decision.found
        assert verify_good_pair(d, decision.pair).ok
        assert (1, 2) in decision.pair.out_branching.arcs
        assert (1, 3) in decision.pair.in_branching.arcs

    def test_non_adjacent_vertex_rejected(self):
        d = DiGraph(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
        with pytest.raises(ValueError, match="vertex 2 is not adjacent"):
            decide_root_adjacent(d, 0)


class TestSourceComponents:
    @given(digraphs(min_n=1, max_n=7), st.data(), st.booleans())
    def test_matches_the_condensation_of_the_induced_subgraph(self, d, data, reverse):
        vertices = data.draw(st.sets(st.integers(0, d.vertex_count - 1)))
        expected = reference_source_components(d, vertices, reverse)
        mask = np.zeros(d.vertex_count, dtype=bool)
        mask[list(vertices)] = True
        every_arc = np.ones(d.arc_count, dtype=bool)
        got = _requirements(d, mask, every_arc, [], reverse)
        assert got == [sorted(c) for c in expected]

    @given(digraphs(min_n=1, max_n=7), st.data(), st.booleans())
    def test_matches_the_reference_with_sources_and_an_arc_mask(self, d, data, reverse):
        """The vertices of the side that the search from the sources along
        the masked arcs misses, and their source components in the digraph
        of the masked arcs."""
        n = d.vertex_count
        side = data.draw(st.sets(st.integers(0, n - 1)), label="side")
        sources = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, unique=True), label="sources"
        )
        m = d.arc_count
        arcs = data.draw(st.lists(st.booleans(), min_size=m, max_size=m), label="arcs")
        masked = DiGraph(n, [a for a, keep in zip(d.arcs_in_order(), arcs) if keep])
        adj = adjacency_lists(masked, reverse)
        reached = _reference_reach(set(sources), adj, set(range(n)))
        unreached = side - reached - set(sources)
        expected = reference_source_components(masked, unreached, reverse)
        mask = np.zeros(n, dtype=bool)
        mask[list(side)] = True
        got = _requirements(d, mask, np.array(arcs, dtype=bool), sources, reverse)
        assert got == [sorted(c) for c in expected]


def assert_matches_reference(d, r, name=str):
    """The array decision gives the set reference's status, reason and pair,
    and a found pair verifies."""
    got = decide_root_adjacent(d, r, name)
    expected = reference_decide_root_adjacent(d, r, name)
    assert (got.status, got.reason) == (expected.status, expected.reason)
    if got.found:
        assert verify_good_pair(d, got.pair).ok
        for kind in ("out_branching", "in_branching"):
            assert getattr(got.pair, kind).arcs == getattr(expected.pair, kind).arcs


class TestAgainstSetReference:
    @settings(max_examples=150)
    @given(
        st.integers(2, 7),
        st.integers(1, 3),
        st.sampled_from([0.0, 0.3, 0.6]),
        st.integers(0, 10**6),
        st.data(),
    )
    def test_restrictions_of_seeded_specs(self, t, hi, p, seed, data):
        spec = gen_composition(t, (1, hi), p, "semicomplete", seed)
        q = materialize(spec)
        r = data.draw(st.integers(0, q.vertex_count - 1), label="root")
        nr = closed_neighborhood_restriction(q, r)
        assert_matches_reference(
            nr.restricted,
            nr.root_in_restricted,
            name=lambda v: str(spec.blob_vertex(nr.kept[v])),
        )

    @settings(max_examples=300)
    @given(root_adjacent(max_n=8))
    def test_random_root_adjacent_digraphs(self, d):
        assert_matches_reference(d, 0)

    def test_the_tuple_lists_of_the_input_are_not_built(self):
        # One found and one absent answer, both on restrictions.
        for spec, status in (
            (CompositionSpec(DiGraph(3, [(0, 1), (1, 2), (2, 0)]), [DiGraph(1)] * 3), "absent"),
            (gen_composition(5, (1, 2), 0.3, "semicomplete", 4), "found"),
        ):
            q = materialize(spec)
            nr = closed_neighborhood_restriction(q, 0)
            d = nr.restricted
            assert decide_root_adjacent(d, nr.root_in_restricted).status == status
            assert set(d.__dict__) <= ARRAY_FORMS - {"out_csr", "in_csr"}


def reversed_digraph(d: DiGraph) -> DiGraph:
    return DiGraph(d.vertex_count, [(v, u) for u, v in d.arcs_in_order()])


def permuted_digraph(d: DiGraph, perm: list[int]) -> DiGraph:
    return DiGraph(d.vertex_count, [(perm[u], perm[v]) for u, v in d.arcs_in_order()])


@st.composite
def seeded_roots(draw):
    """A seeded semicomplete spec of 3 to 12 blobs of 1 to 3 vertices, too
    large for the oracle, and a root in it."""
    t, hi = draw(st.integers(3, 12)), draw(st.integers(1, 3))
    p, seed = draw(st.sampled_from([0.0, 0.3, 0.6])), draw(st.integers(0, 10**6))
    spec = gen_composition(t, (1, hi), p, "semicomplete", seed)
    return spec, spec.blob_vertex(draw(st.integers(0, spec.total_vertices - 1)))


@st.composite
def constructible_roots(draw):
    """A seeded spec of 2 to 12 blobs of 2 to 4 vertices over a strong or a
    semicomplete outer, which the constructor takes, and a root in it."""
    t, hi = draw(st.integers(2, 12)), draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["strong", "semicomplete"]))
    p, seed = draw(st.sampled_from([0.0, 0.3, 0.6])), draw(st.integers(0, 10**6))
    spec = gen_composition(t, (2, hi), p, kind, seed)
    return spec, spec.blob_vertex(draw(st.integers(0, spec.total_vertices - 1)))


def image_tree(b: Branching, r: int, kind: str, arc) -> Branching:
    """The branching of ``kind`` at ``r`` whose arcs are the images
    ``arc(u, v)`` of the arcs of ``b``."""
    return Branching(r, kind, [arc(u, v) for u, v in b.arcs_in_order()])


def reversed_spec(spec: CompositionSpec) -> CompositionSpec:
    return CompositionSpec(
        reversed_digraph(spec.outer), [reversed_digraph(h) for h in spec.blobs]
    )


def relabelled_spec(spec: CompositionSpec, root: BlobVertex, data):
    """The spec with its blobs and each blob's vertices permuted as drawn
    from ``data``, the image of ``root``, and the image of every global id."""
    t = spec.blob_count
    outer_perm = data.draw(st.permutations(range(t)), label="outer")
    inner_perms = [
        data.draw(st.permutations(range(spec.blob_size(i + 1))), label=f"blob {i + 1}")
        for i in range(t)
    ]
    blobs = [None] * t
    for i, h in enumerate(spec.blobs):
        blobs[outer_perm[i]] = permuted_digraph(h, inner_perms[i])
    image = CompositionSpec(permuted_digraph(spec.outer, outer_perm), blobs)

    def moved(v: BlobVertex) -> BlobVertex:
        i, j = v.blob - 1, v.layer - 1
        return BlobVertex(outer_perm[i] + 1, inner_perms[i][j] + 1)

    ids = [image.global_id(moved(spec.blob_vertex(g))) for g in range(spec.total_vertices)]
    return image, moved(root), ids


class TestRelations:
    """Reversal and relabelling keep the status and map a constructed pair
    to a good pair, at sizes past the oracle."""

    @settings(max_examples=40)
    @given(seeded_roots())
    def test_reversal_keeps_the_status(self, spec_root):
        spec, root = spec_root
        rev = reversed_spec(spec)
        assert decide_semicomplete(rev, root).status == decide_semicomplete(spec, root).status
        # On the restriction, reversal swaps O and I.
        nr = closed_neighborhood_restriction(materialize(spec), spec.global_id(root))
        d, r = nr.restricted, nr.root_in_restricted
        assert decide_root_adjacent(reversed_digraph(d), r).status == (
            decide_root_adjacent(d, r).status
        )

    @settings(max_examples=40)
    @given(seeded_roots(), st.data())
    def test_relabelling_keeps_the_status(self, spec_root, data):
        spec, root = spec_root
        image, moved, _ = relabelled_spec(spec, root, data)
        assert decide_semicomplete(image, moved).status == decide_semicomplete(spec, root).status

    @settings(max_examples=40)
    @given(constructible_roots())
    def test_reversal_keeps_a_constructed_pair(self, spec_root):
        """The constructor's pair on the reversed spec verifies there, and
        so does its pair on the spec with both trees reversed and swapped."""
        spec, root = spec_root
        rev, r = reversed_spec(spec), spec.global_id(root)
        assert verify_good_pair(rev.implicit_view(), construct_good_pair(rev, root)).ok
        pair = construct_good_pair(spec, root)
        image = GoodPair(
            r,
            image_tree(pair.in_branching, r, "out", lambda u, v: (v, u)),
            image_tree(pair.out_branching, r, "in", lambda u, v: (v, u)),
        )
        assert verify_good_pair(rev.implicit_view(), image).ok

    @settings(max_examples=40)
    @given(constructible_roots(), st.data())
    def test_relabelling_keeps_a_constructed_pair(self, spec_root, data):
        """The constructor's pair on the relabelled spec verifies there, and
        so does the image of its pair on the spec."""
        spec, root = spec_root
        image, moved, ids = relabelled_spec(spec, root, data)
        view, r = image.implicit_view(), image.global_id(moved)
        assert verify_good_pair(view, construct_good_pair(image, moved)).ok
        pair = construct_good_pair(spec, root)
        mapped = GoodPair(
            r,
            image_tree(pair.out_branching, r, "out", lambda u, v: (ids[u], ids[v])),
            image_tree(pair.in_branching, r, "in", lambda u, v: (ids[u], ids[v])),
        )
        assert verify_good_pair(view, mapped).ok

    @pytest.mark.parametrize("m", [1, 2, 10, 500])
    def test_three_cycle_with_arcless_blobs(self, c3, m):
        """Orders (1, 1, M) and (1, M, 1) have no good pair at 1.1; (1, M, M)
        has one from M = 2 on."""
        def decide(*sizes):
            spec = CompositionSpec(c3, [DiGraph(k) for k in sizes])
            return spec, decide_semicomplete(spec, BlobVertex(1, 1))

        assert decide(1, 1, m)[1].absent
        assert decide(1, m, 1)[1].absent
        if m >= 2:
            spec, found = decide(1, m, m)
            assert found.found
            assert verify_good_pair(materialize(spec), found.pair).ok
