from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodpairs import (
    Branching,
    DiGraph,
    GoodPair,
    cycle_through,
    gen_composition,
    gen_semicomplete,
    gen_strong_digraph,
    is_strong,
    verify_branching,
    verify_good_pair,
)
from goodpairs import digraph as digraph_module
from goodpairs.digraph import (
    CSR_SEARCH_MIN_VERTICES,
    _bfs_tree,
    _component_labels,
    _csr_pointers,
    _fifo_pointers,
    _tarjan,
    bfs_pointers,
)

import bruteforce
from bruteforce import (
    ARRAY_FORMS,
    adjacency_lists,
    labeled_digraphs,
    mutually_reachable,
    reachable_from,
    reference_bfs_tree,
    reference_components,
    shortest_cycle_through,
    strong_labeled_digraphs,
)
from strategies import digraphs


class TestDiGraph:
    def test_rejects_loops(self):
        with pytest.raises(ValueError, match="loop"):
            DiGraph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            DiGraph(2, [(0, 2)])

    def test_errors_name_the_smallest_bad_arc(self):
        with pytest.raises(ValueError, match=r"^loop arc \(0,0\) not allowed$"):
            DiGraph(3, [(2, 5), (0, 0)])
        with pytest.raises(ValueError, match=r"^arc \(0,4\) out of range for 3 vertices$"):
            DiGraph(3, [(5, 1), (3, 9), (0, 4)])

    def test_ids_beyond_int64_are_held_exactly(self):
        big = 2**69
        d = DiGraph(2**70, [(big, 1)])
        assert d.tails.dtype == object and d.heads.dtype == object
        assert d.arcs == {(big, 1)}
        tails = np.array([big, 1, big, 0], dtype=object)
        heads = np.array([1, big, 2, 1], dtype=object)
        expected = [(u, v) in d.arcs for u, v in zip(tails, heads)]
        assert d.has_arcs(tails, heads).tolist() == expected == [True, False, False, False]

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError):
            DiGraph(-1)

    def test_adjacency_sorted(self):
        d = DiGraph(4, [(0, 3), (0, 1), (0, 2), (3, 0)])
        (out_ptr, out_nbrs), (in_ptr, in_nbrs) = d.out_csr, d.in_csr
        assert out_nbrs[out_ptr[0] : out_ptr[1]].tolist() == [1, 2, 3]
        assert in_nbrs[in_ptr[0] : in_ptr[1]].tolist() == [3]

    def test_empty_graph(self):
        d = DiGraph(0)
        assert _tarjan(d.out_csr, range(0)) == ([], [])
        assert is_strong(d)

    @given(digraphs(max_n=6), st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8))))
    def test_has_arcs_matches_the_arc_set(self, d, queries):
        """Sorted-key lookups, ids out of range included, against the set;
        a digraph built from arrays has no set, so its queries take keys."""
        tails = np.array([u for u, _ in queries], dtype=np.int64)
        heads = np.array([v for _, v in queries], dtype=np.int64)
        expected = [a in d.arcs for a in queries]
        keyed = DiGraph.from_sorted_arrays(d.vertex_count, d.tails.copy(), d.heads.copy())
        assert keyed.has_arcs(tails, heads).tolist() == expected
        assert "arcs" not in keyed.__dict__
        assert d.has_arcs(tails, heads).tolist() == expected

    @given(digraphs(max_n=6))
    def test_equal_digraphs_hash_equal_without_an_arc_set(self, d):
        keyed = DiGraph.from_sorted_arrays(d.vertex_count, d.tails.copy(), d.heads.copy())
        assert keyed == d and hash(keyed) == hash(d)
        assert "arcs" not in keyed.__dict__

    def test_has_arcs_ids_out_of_range_whose_keys_collide(self):
        """(1, -1) and (0, 3) have the keys 1 * 3 - 1 and 0 * 3 + 3 of the
        arcs (0, 2) and (1, 0)."""
        d = DiGraph.from_sorted_arrays(3, np.array([0, 1]), np.array([2, 0]))
        tails, heads = np.array([1, 0, 2, 0, 1]), np.array([-1, 3, -3, 2, 0])
        assert d.has_arcs(tails, heads).tolist() == [False, False, False, True, True]

    def test_has_arc_reads_the_keys_and_checks_the_range(self):
        """One pair at a time through `has_arcs`: no arc set is built for ids
        within int64, and pairs out of range whose keys collide with arcs are
        not arcs.  Ids beyond int64, in object arrays, take the set."""
        d = DiGraph.from_sorted_arrays(3, np.array([0, 1]), np.array([2, 0]))

        def has_arc(u, v, dtype=np.int64):
            return bool(d.has_arcs(np.array([u], dtype), np.array([v], dtype))[0])

        assert has_arc(0, 2) and has_arc(1, 0)
        assert not has_arc(1, -1) and not has_arc(0, 3) and not has_arc(2, -3)
        assert "arcs" not in d.__dict__
        assert not has_arc(2**70, 0, object)

    def test_has_arcs_keys_by_the_largest_arc_id(self):
        """Keys stay in int64 on a host of any vertex count whose arc ids
        are small, so no arc set is built."""
        d = DiGraph.from_sorted_arrays(2**40, np.array([0, 5]), np.array([7, 1]))
        tails = np.array([0, 5, 7, 0, 2**39, 0])
        heads = np.array([7, 1, 0, 8, 1, 2**39 + 7])
        assert d.has_arcs(tails, heads).tolist() == [True, True, False, False, False, False]
        assert "arcs" not in d.__dict__

    def test_has_arcs_beyond_int64_keys(self):
        big = 2**62
        d = DiGraph(big, [(0, big - 1), (big - 1, 0)])
        tails = np.array([0, big - 1, 0, 2**63 + 1], dtype=object)
        heads = np.array([big - 1, 0, 1, 0], dtype=object)
        assert d.has_arcs(tails, heads).tolist() == [True, True, False, False]
        found = d.has_arcs(tails[:3].astype(np.int64), heads[:3].astype(np.int64))
        assert found.tolist() == [True, True, False]


def components(d: DiGraph) -> list[set[int]]:
    """The strong components `_tarjan` lists over every vertex of ``d``."""
    comps, _ = _tarjan(d.out_csr, range(d.vertex_count))
    return [set(comp) for comp in comps]


class TestStrongComponents:
    def test_cycle_is_one_component(self, c3):
        assert components(c3) == [{0, 1, 2}]

    def test_path_gives_singletons_in_topological_order(self):
        """Each component is listed after every one it reaches, so the
        reversed list is in topological order."""
        path = DiGraph(3, [(0, 1), (1, 2)])
        assert components(path)[::-1] == [{0}, {1}, {2}]

    def test_two_disjoint_two_cycles(self):
        d = DiGraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert sorted(components(d), key=min) == [{0, 1}, {2, 3}]

    def test_condensation_is_topologically_ordered(self):
        d = DiGraph(5, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (4, 0)])
        label = _component_labels(5, components(d)[::-1])
        for u, v in d.arcs:
            assert label[u] <= label[v]

    @given(digraphs(max_n=8))
    @settings(max_examples=150)
    def test_partition_matches_brute_mutual_reachability(self, d):
        comps = components(d)
        covered = [v for comp in comps for v in comp]
        assert sorted(covered) == list(range(d.vertex_count))
        index = {v: i for i, comp in enumerate(comps) for v in comp}
        for x in range(d.vertex_count):
            for y in range(x + 1, d.vertex_count):
                assert (index[x] == index[y]) == mutually_reachable(d, x, y)


class TestTarjan:
    @given(digraphs(min_n=1, max_n=8), st.data())
    @settings(max_examples=150)
    def test_matches_the_reference_on_vertex_subsets(self, d, data):
        """On the subgraph a vertex subset induces, taken in any order: the
        classes of mutual reachability, each after every class it reaches,
        and entered exactly when another class reaches it."""
        vertices = data.draw(st.lists(st.integers(0, d.vertex_count - 1), unique=True))
        expected = reference_components(d, set(vertices))
        found, entered = _tarjan(d.out_csr, vertices)
        comps = [frozenset(comp) for comp in found]
        assert sorted(map(sorted, comps)) == sorted(map(sorted, expected))
        assert len(entered) == len(comps)
        for i, comp in enumerate(comps):
            for later in comps[i + 1 :]:
                assert not expected[comp] & later
            reached = any(comp & r for c, r in expected.items() if c != comp)
            assert entered[i] == reached, (comp, expected)


def engine_pointers(d: DiGraph, sources, reverse: bool = False, target: int = -1):
    """The pointers of both `bfs_pointers` engines over the same CSR, as two lists."""
    csr = d.in_csr if reverse else d.out_csr
    return (
        _fifo_pointers(csr, sources, target),
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
        for csr, reverse in ((d.out_csr, False), (d.in_csr, True)):
            indptr, neighbours = csr
            assert neighbours.dtype == indptr.dtype == np.int64
            lists = [neighbours[indptr[v] : indptr[v + 1]].tolist() for v in range(4)]
            assert lists == adjacency_lists(d, reverse)

    def test_in_csr_holds_the_in_lists(self):
        """On both sides of 2^16 vertices, where `in_csr` stops sorting the
        heads as uint16."""
        bound = [gen_strong_digraph(n, n, n) for n in (1 << 16, (1 << 16) + 1)]
        for d in [*seeded_outers(), *bound]:
            indptr, neighbours = d.in_csr
            lists = np.split(neighbours, indptr[1:-1])
            assert [a.tolist() for a in lists] == adjacency_lists(d, reverse=True)

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
            pointer = bfs_pointers(d.in_csr, (0,))
            assert list(pointer) == [0, *range(2, size), 0]
            assert isinstance(pointer, list) == small
            assert "in_csr" in d.__dict__ and set(d.__dict__) <= ARRAY_FORMS

    def test_large_strong_check_builds_no_tuples(self):
        n = CSR_SEARCH_MIN_VERTICES + 7
        d = gen_strong_digraph(n, 50, 2)
        cycle = gen_strong_digraph(n, 0, 2)
        path = DiGraph.from_sorted_arrays(n, cycle.tails[:-1], cycle.heads[:-1])
        assert is_strong(d) and is_strong(cycle)
        assert not is_strong(path)  # the arc (n - 1, 0) is gone: 0 is a source
        for g in (d, cycle, path):
            assert set(g.__dict__) <= ARRAY_FORMS


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

    def test_small_digraphs_match_reference(self, monkeypatch):
        """Every strong labeled digraph on 2-4 vertices and seeded ones, at
        every vertex, searched by each engine."""
        digraphs = [d for n in range(2, 5) for d in strong_labeled_digraphs(n)]
        digraphs += [gen_strong_digraph(3 + s, s * (s % 4), seed=s) for s in range(40)]
        digraphs += [gen_composition(8, (1, 1), 0.0, "semicomplete", s).outer for s in range(10)]
        for threshold in (CSR_SEARCH_MIN_VERTICES, 0):
            monkeypatch.setattr(digraph_module, "CSR_SEARCH_MIN_VERTICES", threshold)
            for d in digraphs:
                for v in range(d.vertex_count):
                    assert cycle_through(d, v) == shortest_cycle_through(d, v), (d, v)

    def test_one_search_per_call(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return bfs_pointers(*args, **kwargs)

        monkeypatch.setattr(digraph_module, "bfs_pointers", counted)
        for d in (gen_strong_digraph(30, 40, 3), gen_semicomplete(30, 0.1, 3)):
            for v in range(d.vertex_count):
                calls.clear()
                cycle_through(d, v)
                assert len(calls) == 1

    def test_large_digraphs_match_reference(self):
        """Above the constant, searched over the CSR with no tuples built."""
        n = CSR_SEARCH_MIN_VERTICES
        for seed, extra in ((1, 0), (2, 40), (3, n)):
            d = gen_strong_digraph(n + 50 * seed, extra, seed)
            for v in (0, 7 * seed, d.vertex_count - 1):
                assert cycle_through(d, v) == shortest_cycle_through(d, v)
            assert set(d.__dict__) <= ARRAY_FORMS

    @pytest.mark.parametrize("n", [149, 150])
    def test_semicomplete_digraphs_match_reference(self, n, monkeypatch):
        """Tournaments and near-tournaments, where v has about n/2
        out-neighbours, on both sides of the CSR constant, lowered to 150
        so that the reference's arc set stays small."""
        monkeypatch.setattr(digraph_module, "CSR_SEARCH_MIN_VERTICES", 150)
        for seed, bidir in ((1, 0.0), (2, 0.0), (3, 0.05)):
            d = gen_semicomplete(n, bidir, seed)
            for v in range(0, n, 7):
                expected = shortest_cycle_through(d, v)
                if expected is None:
                    with pytest.raises(ValueError, match="not strong"):
                        cycle_through(d, v)
                else:
                    assert cycle_through(d, v) == expected
            assert isinstance(bfs_pointers(d.out_csr, (0,)), list) == (n < 150)
            assert set(d.__dict__) <= ARRAY_FORMS


class TestIsStrong:
    def test_cycle(self, c3):
        assert is_strong(c3)

    def test_path(self):
        assert not is_strong(DiGraph(3, [(0, 1), (1, 2)]))

    def test_single_vertex(self):
        assert is_strong(DiGraph(1))

    @given(digraphs(max_n=7))
    def test_agrees_with_component_count(self, d):
        strong = all(mutually_reachable(d, 0, v) for v in range(1, d.vertex_count))
        assert is_strong(d) == strong


def bfs_tree(d: DiGraph, r: int, kind: str) -> Branching | None:
    """`_bfs_tree` of ``kind`` at r over the lists of ``d`` it reads."""
    return _bfs_tree(d.out_csr if kind == "out" else d.in_csr, r, kind)


class TestFindBranchings:
    def test_out_on_cycle(self, c3):
        b = bfs_tree(c3, 0, "out")
        assert b.arcs == frozenset({(0, 1), (1, 2)})

    def test_out_absent_when_unreachable(self):
        assert bfs_tree(DiGraph(3, [(0, 1), (1, 2)]), 1, "out") is None

    def test_out_on_complete_biorientation(self, bior_k3):
        b = bfs_tree(bior_k3, 0, "out")
        assert b.arcs == frozenset({(0, 1), (0, 2)})
        assert verify_branching(bior_k3, b).ok

    def test_in_on_cycle(self, c3):
        b = bfs_tree(c3, 0, "in")
        assert b.arcs == frozenset({(1, 2), (2, 0)})

    def test_in_on_path(self):
        b = bfs_tree(DiGraph(3, [(0, 1), (1, 2)]), 2, "in")
        assert b.arcs == frozenset({(0, 1), (1, 2)})

    def test_in_on_star(self):
        star = DiGraph(4, [(1, 0), (2, 0), (3, 0)])
        b = bfs_tree(star, 0, "in")
        assert b.arcs == frozenset({(1, 0), (2, 0), (3, 0)})

    @given(digraphs(min_n=1))
    def test_existence_iff_reachability(self, d):
        for r in range(d.vertex_count):
            reach = reachable_from(d.arcs, d.vertex_count, r)
            assert (bfs_tree(d, r, "out") is not None) == (len(reach) == d.vertex_count)
            back = reachable_from([(v, u) for u, v in d.arcs], d.vertex_count, r)
            assert (bfs_tree(d, r, "in") is not None) == (len(back) == d.vertex_count)

    @given(digraphs(min_n=1))
    def test_outputs_verify(self, d):
        for r in range(d.vertex_count):
            for kind in ("out", "in"):
                b = bfs_tree(d, r, kind)
                if b is not None:
                    assert verify_branching(d, b).ok

    @given(digraphs(min_n=1, max_n=8))
    @settings(max_examples=150)
    def test_matches_the_reference_at_every_root(self, d):
        for r in range(d.vertex_count):
            for kind in ("out", "in"):
                b = bfs_tree(d, r, kind)
                expected = reference_bfs_tree(d.vertex_count, d.arcs, r, kind)
                assert (b is None) == (expected is None)
                if b is not None:
                    assert (b.kind, b.arcs) == (kind, expected.arcs)


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


def test_bruteforce_imports_only_data_types_from_goodpairs():
    """The references share no search logic with the code they check."""
    tree = ast.parse(Path(bruteforce.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names if a.name.split(".")[0] == "goodpairs"}
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "goodpairs":
            imported |= {a.name for a in node.names}
    assert imported <= {"Branching", "CompositionSpec", "Decision", "DiGraph", "GoodPair"}
