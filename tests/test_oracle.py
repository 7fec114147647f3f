from __future__ import annotations

import numpy as np
import pytest

import goodpairs.oracle as oracle_module
from goodpairs import (
    Branching,
    DiGraph,
    decide_good_pair_exact,
    enumerate_out_branchings,
    verify_good_pair,
)

from bruteforce import subset_good_pair_exists, subset_out_branchings


def random_digraph(rng: np.random.Generator, n: int, p: float) -> DiGraph:
    arcs = [
        (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p
    ]
    return DiGraph(n, arcs)


class TestEnumerate:
    def test_cycle_has_one(self, c3):
        assert len(list(enumerate_out_branchings(c3, 0))) == 1

    def test_complete_biorientation_count_and_order(self, bior_k3):
        got = [b.arcs for b in enumerate_out_branchings(bior_k3, 0)]
        assert got == [
            frozenset({(0, 1), (0, 2)}),
            frozenset({(0, 1), (1, 2)}),
            frozenset({(0, 2), (2, 1)}),
        ]

    def test_unreachable_root_gives_empty_stream(self):
        assert list(enumerate_out_branchings(DiGraph(3, [(0, 1), (1, 2)]), 2)) == []

    def test_limit(self, bior_k3):
        assert len(list(enumerate_out_branchings(bior_k3, 0, limit=2))) == 2

    def test_limit_zero_gives_empty_stream(self, bior_k3):
        assert list(enumerate_out_branchings(bior_k3, 0, limit=0)) == []

    def test_single_vertex(self):
        bs = list(enumerate_out_branchings(DiGraph(1), 0))
        assert len(bs) == 1 and bs[0].arcs == frozenset()

    def test_completeness_against_subset_filter(self):
        rng = np.random.Generator(np.random.PCG64(17))
        for _ in range(40):
            n = int(rng.integers(1, 7))
            d = random_digraph(rng, n, float(rng.uniform(0.2, 0.9)))
            for r in range(n):
                enumerated = {b.arcs for b in enumerate_out_branchings(d, r)}
                assert enumerated == subset_out_branchings(d, r)


class TestDecide:
    def test_two_cycle(self):
        d = DiGraph(2, [(0, 1), (1, 0)])
        decision = decide_good_pair_exact(d, 0)
        assert decision.found
        assert decision.pair.out_branching.arcs == frozenset({(0, 1)})
        assert decision.pair.in_branching.arcs == frozenset({(1, 0)})

    def test_c3_absent(self, c3):
        # 4 distinct arcs would be needed; only 3 exist
        assert decide_good_pair_exact(c3, 0).absent

    def test_every_strong_tournament_on_4_matches_subset_brute(self):
        from bruteforce import labeled_tournaments

        from goodpairs import is_strong

        for d in labeled_tournaments(4):
            if not is_strong(d):
                continue
            for r in range(4):
                decision = decide_good_pair_exact(d, r)
                assert decision.status in ("found", "absent")
                assert decision.found == subset_good_pair_exists(d, r)

    def test_returned_pairs_verify(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(30):
            n = int(rng.integers(2, 7))
            d = random_digraph(rng, n, 0.5)
            for r in range(n):
                decision = decide_good_pair_exact(d, r)
                if decision.found:
                    assert verify_good_pair(d, decision.pair).ok

    def test_monotone_under_arc_addition(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for chain in range(10):
            n = int(rng.integers(3, 6))
            d = random_digraph(rng, n, 0.3)
            had = {r for r in range(n) if decide_good_pair_exact(d, r).found}
            missing = [
                (u, v)
                for u in range(n)
                for v in range(n)
                if u != v and (u, v) not in d.arcs
            ]
            rng.shuffle(missing)
            for u, v in missing[:4]:
                d = DiGraph(n, d.arcs | {(u, v)})
                now = {r for r in range(n) if decide_good_pair_exact(d, r).found}
                assert had <= now
                had = now

    def test_cap_gives_undecided(self):
        d = DiGraph(15, [(i, (i + 1) % 15) for i in range(15)])
        decision = decide_good_pair_exact(d, 0)
        assert decision.status == "undecided"
        assert "cap" in decision.reason

    def test_found_pair_is_verified_before_it_is_returned(self, monkeypatch):
        """An in-tree that is no in-branching (it is the out-tree's own arc)
        raises rather than coming back as found."""
        monkeypatch.setattr(
            oracle_module, "_bfs_tree", lambda csr, r, kind: Branching(r, "in", [(0, 1)])
        )
        with pytest.raises(ValueError, match="oracle pair does not verify"):
            decide_good_pair_exact(DiGraph(2, [(0, 1), (1, 0)]), 0)

    def test_root_out_of_range(self, c3):
        with pytest.raises(ValueError):
            decide_good_pair_exact(c3, 5)
