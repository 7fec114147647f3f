from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from goodpairs import (
    Branching,
    DiGraph,
    GoodPair,
    cycle_through,
    find_in_branching,
    find_out_branching,
    gen_composition,
    gen_semicomplete,
    gen_strong_digraph,
    induced_subgraph,
    is_strong,
    strong_components,
    verify_branching,
    verify_good_pair,
)
from goodpairs.digraph import (
    CSR_SEARCH_MIN_VERTICES,
    _fifo_pointers,
    _csr_pointers,
    bfs_pointers,
)

from bruteforce import (
    labeled_digraphs,
    mutually_reachable,
    reachable_from,
    shortest_cycle_through,
)
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


def engine_pointers(d: DiGraph, sources, reverse: bool = False, target: int = -1):
    """The pointers of both `bfs_pointers` engines, as two lists."""
    adj, csr = (d.in_adj, d.in_csr) if reverse else (d.out_adj, d.out_csr)
    return (
        _fifo_pointers(adj, sources, target),
        _csr_pointers(csr, sources, target).tolist(),
    )


def seeded_outers():
    for seed in range(12):
        n = 20 + 25 * seed
        yield gen_strong_digraph(n, (seed % 4) * n, seed)
        yield gen_semicomplete(n, 0.25 * (seed % 3), seed)


class TestBfsPointers:
    def test_csr_holds_the_sorted_lists(self):
        d = DiGraph(4, [(0, 3), (0, 1), (0, 2), (3, 0), (2, 1)])
        for csr, adj in ((d.out_csr, d.out_adj), (d.in_csr, d.in_adj)):
            indptr, neighbours = csr
            assert neighbours.dtype == indptr.dtype == np.int64
            lists = [neighbours[indptr[v] : indptr[v + 1]].tolist() for v in range(4)]
            assert lists == [list(a) for a in adj]

    @pytest.mark.parametrize("n", range(1, 5))
    def test_engines_agree_on_every_small_digraph(self, n):
        """Strong or not, so that unreached vertices hold -1."""
        for d in labeled_digraphs(n):
            for s in range(n):
                for reverse in (False, True):
                    fifo, csr = engine_pointers(d, (s,), reverse)
                    assert fifo == csr, (d, s, reverse)

    def test_engines_agree_on_seeded_outers(self):
        rng = np.random.default_rng(5)
        for d in seeded_outers():
            n = d.vertex_count
            for size in (1, 3, 8):
                sources = rng.integers(0, n, size).tolist()  # repeats included
                for reverse in (False, True):
                    fifo, csr = engine_pointers(d, sources, reverse)
                    assert fifo == csr, (d.vertex_count, sources, reverse)

    def test_repeated_sources_count_once_in_first_order(self):
        d = DiGraph(5, [(0, 2), (1, 2), (2, 3), (1, 4)])
        for pointers in engine_pointers(d, (1, 0, 1, 0)):
            assert pointers == [0, 1, 1, 2, 1]
        for pointers in engine_pointers(d, (0, 1, 0)):
            assert pointers == [0, 1, 0, 2, 1]

    def test_target_stops_both_engines_at_the_same_pointers(self):
        def path(pointer, target):
            walk = [target]
            while pointer[walk[-1]] != walk[-1]:
                walk.append(pointer[walk[-1]])
            return walk

        cases = [
            (d, s, v)
            for n in range(1, 4)
            for d in labeled_digraphs(n)
            for s in range(n)
            for v in range(n)
        ]
        rng = np.random.default_rng(6)
        for d in seeded_outers():
            n = d.vertex_count
            cases += [(d, int(s), int(v)) for s, v in rng.integers(0, n, (4, 2))]
        for d, s, v in cases:
            fifo, csr = engine_pointers(d, (s,), target=v)
            assert fifo == csr, (d.vertex_count, s, v)
            if fifo[v] != -1:
                assert path(fifo, v) == path(csr, v)
                assert path(fifo, v)[-1] == s

    def test_engine_is_chosen_by_vertex_count(self):
        n = CSR_SEARCH_MIN_VERTICES
        for size, small in ((n - 1, True), (n, False)):
            d = gen_strong_digraph(size, 0, 1)  # the cycle 0 -> 1 -> ... -> 0
            pointer = bfs_pointers(d, (0,), reverse=True)
            assert list(pointer) == [0, *range(2, size), 0]
            assert isinstance(pointer, list) == small
            assert ("in_adj" in d.__dict__) == small
            assert ("in_csr" in d.__dict__) != small

    def test_large_strong_check_builds_no_tuples(self):
        n = CSR_SEARCH_MIN_VERTICES + 7
        d = gen_strong_digraph(n, 50, 2)
        cycle = gen_strong_digraph(n, 0, 2)
        path = DiGraph.from_sorted_arrays(n, cycle.tails[:-1], cycle.heads[:-1])
        assert is_strong(d) and is_strong(cycle)
        assert not is_strong(path)  # the arc (n - 1, 0) is gone: 0 is a source
        for g in (d, cycle, path):
            assert "out_adj" not in g.__dict__ and "in_adj" not in g.__dict__


class TestCycleThrough:
    def test_unique_cycle(self, c3):
        assert cycle_through(c3, 1) == (1, 2, 0, 1)

    def test_two_cycle(self):
        d = DiGraph(2, [(0, 1), (1, 0)])
        assert cycle_through(d, 0) == (0, 1, 0)

    def test_chord_gives_shorter_cycle(self):
        d = DiGraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
        walk = cycle_through(d, 0)
        assert walk == (0, 2, 0)
        for a in zip(walk, walk[1:]):
            assert a in d.arcs

    def test_not_strong_raises(self):
        with pytest.raises(ValueError, match="not strong"):
            cycle_through(DiGraph(3, [(0, 1), (1, 2)]), 0)

    def test_too_small(self):
        with pytest.raises(ValueError, match="two vertices"):
            cycle_through(DiGraph(1), 0)

    def test_small_digraphs_match_reference(self):
        digraphs = [gen_strong_digraph(3 + s, s * (s % 4), seed=s) for s in range(40)]
        digraphs += [gen_composition(8, (1, 1), 0.0, "semicomplete", s).outer for s in range(10)]
        for d in digraphs:
            for v in range(d.vertex_count):
                assert cycle_through(d, v) == shortest_cycle_through(d, v)

    def test_large_digraphs_match_reference(self):
        """Above the constant, searched over the CSR with no tuples built."""
        n = CSR_SEARCH_MIN_VERTICES
        for seed, extra in ((1, 0), (2, 40), (3, n)):
            d = gen_strong_digraph(n + 50 * seed, extra, seed)
            for v in (0, 7 * seed, d.vertex_count - 1):
                assert cycle_through(d, v) == shortest_cycle_through(d, v)
            assert "out_adj" not in d.__dict__ and "in_adj" not in d.__dict__


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
