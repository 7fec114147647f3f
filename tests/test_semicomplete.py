from __future__ import annotations

import pytest

from goodpairs import (
    BlobVertex,
    CompositionSpec,
    DiGraph,
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


def spec_c3_k2bar():
    c3 = DiGraph(3, [(0, 1), (1, 2), (2, 0)])
    return CompositionSpec(c3, [DiGraph(2)] * 3)


class TestRestriction:
    def test_root_adjacent_to_all_keeps_everything(self, bior_k3):
        nr = closed_neighborhood_restriction(bior_k3, 0)
        assert nr.removed == frozenset()
        assert nr.restricted == bior_k3
        assert nr.root_in_restricted == 0

    def test_blob_mate_is_removed(self):
        q = materialize(spec_c3_k2bar())
        nr = closed_neighborhood_restriction(q, 0)
        assert nr.removed == frozenset({1})
        assert nr.kept == (0, 2, 3, 4, 5)
        assert nr.restricted.vertex_count == 5

    def test_star_center(self):
        star = DiGraph(4, [(0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 0)])
        nr = closed_neighborhood_restriction(star, 0)
        assert nr.removed == frozenset()

    def test_partition(self):
        q = materialize(spec_c3_k2bar())
        for r in range(q.vertex_count):
            nr = closed_neighborhood_restriction(q, r)
            assert set(nr.kept) | nr.removed == set(range(q.vertex_count))
            assert not set(nr.kept) & nr.removed
            for u in nr.removed:
                assert not q.has_arc(r, u) and not q.has_arc(u, r)


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
        assert nr.removed == frozenset()

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
        assert nr.removed == frozenset({4})
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

    def test_single_blob_rejected(self):
        spec = CompositionSpec(DiGraph(1), [DiGraph(3, [(0, 1), (1, 0), (1, 2), (2, 1)])])
        with pytest.raises(ValueError, match="at least 2 blobs"):
            decide_semicomplete(spec, BlobVertex(1, 1))


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
