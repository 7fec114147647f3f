from __future__ import annotations

import pytest

from goodpairs import (
    DiGraph,
    Ear,
    EarDecomposition,
    cycle_through,
    ear_decompose,
    gen_composition,
    gen_strong_digraph,
    verify_ear_decomposition,
)
from goodpairs.digraph import CSR_SEARCH_MIN_VERTICES
from goodpairs.ears import ear_walks

from bruteforce import shortest_cycle_through


class TestCycleThrough:
    def test_unique_cycle(self, c3):
        assert cycle_through(c3, 1).vertices == (1, 2, 0, 1)

    def test_two_cycle(self):
        d = DiGraph(2, [(0, 1), (1, 0)])
        assert cycle_through(d, 0).vertices == (0, 1, 0)

    def test_chord_gives_shorter_cycle(self):
        d = DiGraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
        ear = cycle_through(d, 0)
        assert ear.vertices == (0, 2, 0)
        for a in ear.arcs:
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
                assert cycle_through(d, v).vertices == shortest_cycle_through(d, v)

    def test_large_digraphs_match_reference(self):
        """Above the constant, searched over the CSR with no tuples built."""
        n = CSR_SEARCH_MIN_VERTICES
        for seed, extra in ((1, 0), (2, 40), (3, n)):
            d = gen_strong_digraph(n + 50 * seed, extra, seed)
            for v in (0, 7 * seed, d.vertex_count - 1):
                assert cycle_through(d, v).vertices == shortest_cycle_through(d, v)
            assert "out_adj" not in d.__dict__ and "in_adj" not in d.__dict__


class TestEarDecompose:
    def test_cycle_alone(self, c3):
        ed = ear_decompose(c3, cycle_through(c3, 0))
        assert len(ed.ears) == 1
        assert verify_ear_decomposition(c3, ed).ok

    def test_single_path_ear(self):
        d = DiGraph(4, [(0, 1), (1, 2), (2, 0), (1, 3), (3, 0)])
        ed = ear_decompose(d, Ear([0, 1, 2, 0], "initial_cycle"))
        assert [e.vertices for e in ed.ears] == [(0, 1, 2, 0), (1, 3, 0)]
        assert ed.ears[1].kind == "path_ear"
        assert verify_ear_decomposition(d, ed).ok

    def test_complete_biorientation_greedy(self, bior_k3):
        ed = ear_decompose(bior_k3, Ear([0, 1, 0], "initial_cycle"))
        assert [(e.kind, e.vertices) for e in ed.ears] == [
            ("initial_cycle", (0, 1, 0)),
            ("cycle_ear", (0, 2, 0)),
            ("path_ear", (1, 2)),
            ("path_ear", (2, 1)),
        ]
        assert verify_ear_decomposition(bior_k3, ed).ok

    def test_start_not_a_cycle_of_d(self, c3):
        with pytest.raises(ValueError, match="not an arc"):
            ear_decompose(c3, Ear([0, 2, 0], "initial_cycle"))

    def test_not_strong_raises(self):
        d = DiGraph(4, [(0, 1), (1, 0), (0, 2), (2, 3)])
        with pytest.raises(ValueError, match="not strong"):
            ear_decompose(d, Ear([0, 1, 0], "initial_cycle"))

    def test_total_ear_arcs_equal_arc_count(self):
        d = gen_strong_digraph(7, 8, seed=3)
        ed = ear_decompose(d, cycle_through(d, 0))
        assert sum(len(e.arcs) for e in ed.ears) == len(d.arcs)
        assert len(ed.ears) <= len(d.arcs)


class TestVerifyEarDecomposition:
    def test_missing_arc_detected(self, bior_k3):
        ed = ear_decompose(bior_k3, Ear([0, 1, 0], "initial_cycle"))
        broken = EarDecomposition(ed.ears[:-1])
        rep = verify_ear_decomposition(bior_k3, broken)
        assert not rep.ok
        assert any("not covered" in p for p in rep.problems)

    def test_old_internal_vertex_detected(self):
        d = DiGraph(3, [(0, 1), (1, 2), (2, 0), (0, 2), (2, 1)])
        bad = EarDecomposition(
            [Ear([0, 1, 2, 0], "initial_cycle"), Ear([0, 2, 1], "path_ear")]
        )
        rep = verify_ear_decomposition(d, bad)
        assert not rep.ok
        assert any("already built" in p for p in rep.problems)

    def test_duplicate_arc_detected(self, c3):
        bad = EarDecomposition(
            [Ear([0, 1, 2, 0], "initial_cycle"), Ear([0, 1], "path_ear")]
        )
        rep = verify_ear_decomposition(c3, bad)
        assert not rep.ok
        assert any("arc-disjoint" in p for p in rep.problems)

    def test_wrong_first_kind(self, c3):
        bad = EarDecomposition([Ear([0, 1], "path_ear")])
        assert not verify_ear_decomposition(c3, bad).ok


def test_every_root_of_seeded_strong_digraphs_decomposes():
    for seed in range(25):
        t = 2 + seed % 7
        cap = t * (t - 1) - t
        d = gen_strong_digraph(t, min(seed, cap), seed=seed)
        for v in range(t):
            ed = ear_decompose(d, cycle_through(d, v))
            rep = verify_ear_decomposition(d, ed)
            assert rep.ok, (seed, v, rep.problems)


def test_walks_are_the_decomposition_ears_with_internal_vertices():
    """`ear_walks` yields exactly the ears of `ear_decompose` that cover a
    vertex, in order, and nothing once every vertex is covered."""
    # The outers of acceptance C1's specs, then larger seeded ones.
    outers = [
        gen_composition(2 + s % 7, (2, 4), 0.3 if s % 2 else 0.0, "strong", seed=s).outer
        for s in range(500)
    ]
    outers += [gen_strong_digraph(8 + s, 3 * s, seed=s) for s in range(30)]
    for d in outers:
        for v in range(d.vertex_count):
            start = cycle_through(d, v)
            walks = [tuple(w) for w in ear_walks(d, start)]
            ears = ear_decompose(d, start).ears[1:]
            assert walks == [e.vertices for e in ears if e.internal_vertices]
            covered = len(start.vertices) - 1 + sum(len(w) - 2 for w in walks)
            assert covered == d.vertex_count
