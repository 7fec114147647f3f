from __future__ import annotations

import pytest
from hypothesis import given, settings

from goodpairs import (
    Branching,
    DiGraph,
    GoodPair,
    find_in_branching,
    find_out_branching,
    induced_subgraph,
    is_strong,
    strong_components,
    verify_branching,
    verify_good_pair,
)

from bruteforce import mutually_reachable, reachable_from
from strategies import digraphs


class TestDiGraph:
    def test_rejects_loops(self):
        with pytest.raises(ValueError, match="loop"):
            DiGraph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            DiGraph(2, [(0, 2)])

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError):
            DiGraph(-1)

    def test_adjacency_sorted(self):
        d = DiGraph(4, [(0, 3), (0, 1), (0, 2), (3, 0)])
        assert d.out_adj[0] == (1, 2, 3)
        assert d.in_adj[0] == (3,)

    def test_empty_graph(self):
        d = DiGraph(0)
        assert strong_components(d) == ([], DiGraph(0))
        assert is_strong(d)


class TestStrongComponents:
    def test_cycle_is_one_component(self, c3):
        comps, cond = strong_components(c3)
        assert comps == [frozenset({0, 1, 2})]
        assert cond.arcs == frozenset()

    def test_path_gives_singletons_in_topological_order(self):
        path = DiGraph(3, [(0, 1), (1, 2)])
        comps, cond = strong_components(path)
        assert comps == [frozenset({0}), frozenset({1}), frozenset({2})]
        assert sorted(cond.arcs) == [(0, 1), (1, 2)]

    def test_two_disjoint_two_cycles(self):
        d = DiGraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        comps, _ = strong_components(d)
        assert sorted(comps, key=min) == [frozenset({0, 1}), frozenset({2, 3})]

    def test_condensation_is_topologically_ordered(self):
        d = DiGraph(5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (4, 0)])
        comps, cond = strong_components(d)
        for u, v in cond.arcs:
            assert u < v

    @given(digraphs(max_n=8))
    @settings(max_examples=150)
    def test_partition_matches_brute_mutual_reachability(self, d):
        comps, _ = strong_components(d)
        covered = [v for comp in comps for v in comp]
        assert sorted(covered) == list(range(d.vertex_count))
        index = {v: i for i, comp in enumerate(comps) for v in comp}
        for x in range(d.vertex_count):
            for y in range(x + 1, d.vertex_count):
                assert (index[x] == index[y]) == mutually_reachable(d, x, y)


class TestIsStrong:
    def test_cycle(self, c3):
        assert is_strong(c3)

    def test_path(self):
        assert not is_strong(DiGraph(3, [(0, 1), (1, 2)]))

    def test_single_vertex(self):
        assert is_strong(DiGraph(1))

    @given(digraphs(max_n=7))
    def test_agrees_with_component_count(self, d):
        comps, _ = strong_components(d)
        assert is_strong(d) == (len(comps) <= 1)


class TestFindBranchings:
    def test_out_on_cycle(self, c3):
        b = find_out_branching(c3, 0)
        assert b.arcs == frozenset({(0, 1), (1, 2)})

    def test_out_absent_when_unreachable(self):
        assert find_out_branching(DiGraph(3, [(0, 1), (1, 2)]), 1) is None

    def test_out_on_complete_biorientation(self, bior_k3):
        b = find_out_branching(bior_k3, 0)
        assert b.arcs == frozenset({(0, 1), (0, 2)})
        assert verify_branching(bior_k3, b).ok

    def test_in_on_cycle(self, c3):
        b = find_in_branching(c3, 0)
        assert b.arcs == frozenset({(1, 2), (2, 0)})

    def test_in_on_path(self):
        b = find_in_branching(DiGraph(3, [(0, 1), (1, 2)]), 2)
        assert b.arcs == frozenset({(0, 1), (1, 2)})

    def test_in_on_star(self):
        star = DiGraph(4, [(1, 0), (2, 0), (3, 0)])
        b = find_in_branching(star, 0)
        assert b.arcs == frozenset({(1, 0), (2, 0), (3, 0)})

    def test_out_of_range_root(self, c3):
        with pytest.raises(ValueError, match="root"):
            find_out_branching(c3, 3)

    @given(digraphs(min_n=1))
    def test_existence_iff_reachability(self, d):
        for r in range(d.vertex_count):
            reach = reachable_from(d.arcs, d.vertex_count, r)
            assert (find_out_branching(d, r) is not None) == (
                len(reach) == d.vertex_count
            )
            back = reachable_from([(v, u) for u, v in d.arcs], d.vertex_count, r)
            assert (find_in_branching(d, r) is not None) == (
                len(back) == d.vertex_count
            )

    @given(digraphs(min_n=1))
    def test_outputs_verify(self, d):
        for r in range(d.vertex_count):
            for finder in (find_out_branching, find_in_branching):
                b = finder(d, r)
                if b is not None:
                    assert verify_branching(d, b).ok


class TestVerifyBranching:
    def test_valid_out(self, c3):
        assert verify_branching(c3, Branching(0, "out", [(0, 1), (1, 2)])).ok

    def test_not_spanning(self, c3):
        rep = verify_branching(c3, Branching(0, "out", [(0, 1)]))
        assert not rep.ok
        assert "spanning" in rep.first_problem

    def test_arc_not_in_host(self, c3):
        rep = verify_branching(c3, Branching(0, "out", [(0, 1), (0, 2)]))
        assert not rep.ok
        assert "not an arc" in rep.first_problem

    def test_degree_violation(self):
        d = DiGraph(3, [(0, 1), (0, 2), (2, 1)])
        rep = verify_branching(d, Branching(0, "out", [(0, 1), (2, 1)]))
        assert not rep.ok
        assert "in-degree" in rep.first_problem

    def test_unreachable_cycle_off_root(self):
        d = DiGraph(3, [(0, 1), (1, 2), (2, 1)])
        # 1 and 2 point at each other: arc counts pass, reachability must fail
        rep = verify_branching(d, Branching(0, "out", [(1, 2), (2, 1)]))
        assert not rep.ok

    def test_single_vertex_branching(self):
        assert verify_branching(DiGraph(1), Branching(0, "out", [])).ok
        assert verify_branching(DiGraph(1), Branching(0, "in", [])).ok

    def test_ids_beyond_int64(self):
        big = 2**63 + 1
        d = DiGraph(2**63 + 5, [(big, 0)])
        rep = verify_branching(d, Branching(0, "in", [(big, 0)]))
        assert rep.problems == (
            "not spanning: 1 arcs for 9223372036854775813 vertices",
        )
        rep = verify_branching(d, Branching(0, "out", [(0, big)]))
        assert rep.problems == (
            "arc (0,9223372036854775809) is not an arc of the host digraph",
        )


class TestVerifyGoodPair:
    def test_two_cycle_pair(self):
        d = DiGraph(2, [(0, 1), (1, 0)])
        gp = GoodPair(0, Branching(0, "out", [(0, 1)]), Branching(0, "in", [(1, 0)]))
        assert verify_good_pair(d, gp).ok

    def test_shared_arc_rejected(self, c3):
        gp = GoodPair(
            0,
            Branching(0, "out", [(0, 1), (1, 2)]),
            Branching(0, "in", [(1, 2), (2, 0)]),
        )
        rep = verify_good_pair(c3, gp)
        assert not rep.ok
        assert any("share arc (1,2)" in p for p in rep.problems)

    def test_root_mismatch(self):
        d = DiGraph(2, [(0, 1), (1, 0)])
        gp = GoodPair(1, Branching(0, "out", [(0, 1)]), Branching(0, "in", [(1, 0)]))
        rep = verify_good_pair(d, gp)
        assert not rep.ok
        assert any("root mismatch" in p for p in rep.problems)

    @given(digraphs(min_n=1, max_n=6))
    @settings(max_examples=60)
    def test_valid_pair_union_is_strong_spanning(self, d):
        from goodpairs import decide_good_pair_exact

        for r in range(d.vertex_count):
            decision = decide_good_pair_exact(d, r)
            if decision.found:
                gp = decision.pair
                assert verify_good_pair(d, gp).ok
                union = DiGraph(
                    d.vertex_count, gp.out_branching.arcs | gp.in_branching.arcs
                )
                assert is_strong(union)


def test_induced_subgraph_reindexes():
    d = DiGraph(4, [(0, 2), (2, 3), (3, 0)])
    sub = induced_subgraph(d, [0, 2, 3])
    assert sub.vertex_count == 3
    assert sub.arcs == frozenset({(0, 1), (1, 2), (2, 0)})
