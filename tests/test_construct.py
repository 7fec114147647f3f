from __future__ import annotations

import pytest

from goodpairs import (
    BlobVertex,
    Branching,
    CompositionSpec,
    DiGraph,
    GoodPair,
    construct_good_pair,
    decide_good_pair_exact,
    extend_layers,
    is_strong,
    materialize,
    skeleton_good_pair,
    verify_good_pair,
)

from bruteforce import labeled_tournaments


def bv(b: int, l: int) -> BlobVertex:
    return BlobVertex(b, l)


def skeleton_arcs(outer: DiGraph, root_blob: int):
    """The skeleton pair's out- and in-arcs as sets of BlobVertex pairs."""

    def sv(s: int) -> BlobVertex:
        return bv(s // 2 + 1, s % 2 + 1)

    out_parent, in_next = skeleton_good_pair(outer, root_blob)
    out_arcs = {(sv(p), sv(s)) for s, p in enumerate(out_parent) if p >= 0}
    in_arcs = {(sv(s), sv(n)) for s, n in enumerate(in_next) if n >= 0}
    return out_arcs, in_arcs


def verify_skeleton_as_pair(outer: DiGraph, root_blob: int) -> None:
    """Materialize the all-K2bar composition and check the skeleton pair as a
    good pair there."""
    spec = CompositionSpec(outer, [DiGraph(2)] * outer.vertex_count)
    skeleton = skeleton_good_pair(outer, root_blob)
    pair = extend_layers(skeleton, spec, bv(root_blob, 1))
    rep = verify_good_pair(materialize(spec), pair)
    assert rep.ok, rep.problems


def cycle(m: int) -> DiGraph:
    return DiGraph(m, [(i, (i + 1) % m) for i in range(m)])


class TestCycleSkeletonPair:
    def test_three_blob_cycle_exact_arcs(self, c3):
        out_arcs, in_arcs = skeleton_arcs(c3, 1)
        assert out_arcs == {
            (bv(1, 1), bv(2, 1)),
            (bv(2, 1), bv(3, 1)),
            (bv(3, 1), bv(1, 2)),
            (bv(1, 2), bv(2, 2)),
            (bv(2, 2), bv(3, 2)),
        }
        assert in_arcs == {
            (bv(1, 2), bv(2, 1)),
            (bv(2, 2), bv(3, 1)),
            (bv(2, 1), bv(3, 2)),
            (bv(3, 1), bv(1, 1)),
            (bv(3, 2), bv(1, 1)),
        }

    def test_two_blob_cycle_exact_arcs(self):
        two_cycle = cycle(2)
        out_arcs, in_arcs = skeleton_arcs(two_cycle, 1)
        assert out_arcs == {
            (bv(1, 1), bv(2, 1)),
            (bv(2, 1), bv(1, 2)),
            (bv(1, 2), bv(2, 2)),
        }
        assert in_arcs == {
            (bv(1, 2), bv(2, 1)),
            (bv(2, 1), bv(1, 1)),
            (bv(2, 2), bv(1, 1)),
        }
        verify_skeleton_as_pair(two_cycle, 1)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_every_length_verifies(self, m):
        out_arcs, in_arcs = skeleton_arcs(cycle(m), 1)
        assert len(out_arcs) == 2 * m - 1
        assert len(in_arcs) == 2 * m - 1
        assert not out_arcs & in_arcs
        verify_skeleton_as_pair(cycle(m), 1)

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            skeleton_good_pair(DiGraph(1), 1)


class TestAttachEarGadget:
    """Each outer digraph below is a 3-cycle on blobs 1, 2, 3 plus one ear;
    the skeleton minus the 3-cycle's seed pair is that ear's gadget."""

    def gadget(self, outer: DiGraph, root_blob: int, c3: DiGraph):
        out_arcs, in_arcs = skeleton_arcs(outer, root_blob)
        seed_out, seed_in = skeleton_arcs(c3, root_blob)
        assert seed_out <= out_arcs and seed_in <= in_arcs
        return out_arcs - seed_out, in_arcs - seed_in

    def test_path_ear_with_one_internal_blob(self, c3):
        # ear (0, 3, 1): blob 4 on a detour from blob 1 to blob 2
        outer = DiGraph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 1)])
        out_new, in_new = self.gadget(outer, 1, c3)
        assert out_new == {
            (bv(1, 1), bv(4, 1)),
            (bv(1, 2), bv(4, 2)),
        }
        assert in_new == {
            (bv(4, 1), bv(2, 2)),
            (bv(4, 2), bv(2, 1)),
        }
        verify_skeleton_as_pair(outer, 1)

    def test_cycle_ear(self, c3):
        # ear (0, 3, 0); at root blob 1 the 2-cycle would seed instead
        outer = DiGraph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 0)])
        out_new, in_new = self.gadget(outer, 2, c3)
        assert out_new == {
            (bv(1, 1), bv(4, 1)),
            (bv(1, 2), bv(4, 2)),
        }
        assert in_new == {
            (bv(4, 1), bv(1, 2)),
            (bv(4, 2), bv(1, 1)),
        }
        verify_skeleton_as_pair(outer, 2)

    def test_length_one_ear_is_noop(self, c3):
        # the chord (2, 1) is a single-arc ear; the cycle through blob 1
        # is still the 3-cycle
        outer = DiGraph(3, [(0, 1), (1, 2), (2, 0), (2, 1)])
        assert skeleton_good_pair(outer, 1) == skeleton_good_pair(c3, 1)

    def test_longer_ear_verifies(self, c3):
        # ear (0, 3, 4, 1) with two internal blobs
        outer = DiGraph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 1)])
        out_new, in_new = self.gadget(outer, 1, c3)
        assert out_new == {
            (bv(1, 1), bv(4, 1)),
            (bv(4, 1), bv(5, 1)),
            (bv(1, 2), bv(4, 2)),
            (bv(4, 2), bv(5, 2)),
        }
        assert in_new == {
            (bv(4, 1), bv(5, 2)),
            (bv(4, 2), bv(5, 1)),
            (bv(5, 1), bv(2, 2)),
            (bv(5, 2), bv(2, 1)),
        }
        verify_skeleton_as_pair(outer, 1)


class TestSkeletonGoodPair:
    def test_plain_cycle_equals_seed_pair(self, c3):
        out_parent, in_next = skeleton_good_pair(c3, 1)
        # layer-1 vertices in cycle order, then layer-2 vertices
        assert out_parent == [-1, 4, 0, 1, 2, 3]
        assert in_next == [-1, 2, 5, 4, 0, 0]

    def test_cycle_plus_detour(self):
        outer = DiGraph(4, [(0, 1), (1, 2), (2, 0), (1, 3), (3, 0)])
        out_parent, in_next = skeleton_good_pair(outer, 1)
        assert len(out_parent) == len(in_next) == 8
        verify_skeleton_as_pair(outer, 1)

    def test_complete_biorientation_every_root(self, bior_k3):
        for root_blob in (1, 2, 3):
            out_parent, in_next = skeleton_good_pair(bior_k3, root_blob)
            root = 2 * (root_blob - 1)
            assert out_parent[root] == in_next[root] == -1
            assert out_parent.count(-1) == in_next.count(-1) == 1
            verify_skeleton_as_pair(bior_k3, root_blob)

    def test_not_strong_rejected(self):
        with pytest.raises(ValueError, match="not strong"):
            skeleton_good_pair(DiGraph(3, [(0, 1), (1, 2)]), 1)


class TestExtendLayers:
    def test_extra_layer_attachments(self, c3):
        spec = CompositionSpec(c3, [DiGraph(2), DiGraph(3), DiGraph(2)])
        sp = skeleton_good_pair(c3, 1)
        pair = extend_layers(sp, spec, bv(1, 1))
        # the third vertex of blob 2 hangs off the attachments of (2,2)
        extra = spec.global_id(bv(2, 3))
        feeder = spec.global_id(bv(1, 2))
        drain = spec.global_id(bv(3, 1))
        assert (feeder, extra) in pair.out_branching.arcs
        assert (extra, drain) in pair.in_branching.arcs
        assert verify_good_pair(materialize(spec), pair).ok

    def test_all_two_blobs_reinterprets_skeleton(self, c3):
        spec = CompositionSpec(c3, [DiGraph(2)] * 3)
        pair = extend_layers(skeleton_good_pair(c3, 1), spec, bv(1, 1))
        out_arcs, in_arcs = skeleton_arcs(c3, 1)
        gid = spec.global_id
        assert pair.out_branching.arcs == {(gid(a), gid(b)) for a, b in out_arcs}
        assert pair.in_branching.arcs == {(gid(a), gid(b)) for a, b in in_arcs}

    def test_skeleton_rooted_elsewhere_rejected(self, c3):
        spec = CompositionSpec(c3, [DiGraph(2)] * 3)
        with pytest.raises(ValueError, match="not rooted at blob 2"):
            extend_layers(skeleton_good_pair(c3, 1), spec, bv(2, 1))

    def test_two_extra_arcs_per_branching(self):
        two_cycle = DiGraph(2, [(0, 1), (1, 0)])
        spec = CompositionSpec(two_cycle, [DiGraph(4), DiGraph(2)])
        sp = skeleton_good_pair(two_cycle, 1)
        pair = extend_layers(sp, spec, bv(1, 1))
        gid = spec.global_id
        assert {(gid(bv(2, 1)), gid(bv(1, 3))), (gid(bv(2, 1)), gid(bv(1, 4)))} <= (
            pair.out_branching.arcs
        )
        assert {(gid(bv(1, 3)), gid(bv(2, 1))), (gid(bv(1, 4)), gid(bv(2, 1)))} <= (
            pair.in_branching.arcs
        )
        assert verify_good_pair(materialize(spec), pair).ok

    def test_undersized_blob_rejected(self, c3):
        spec = CompositionSpec(c3, [DiGraph(2), DiGraph(2), DiGraph(1)])
        sp = skeleton_good_pair(c3, 1)
        with pytest.raises(ValueError, match="blob 3"):
            extend_layers(sp, spec, bv(1, 1))


class TestConstructGoodPair:
    def test_c3_k2bar_root_one(self, c3):
        spec = CompositionSpec(c3, [DiGraph(2)] * 3)
        pair = construct_good_pair(spec, bv(1, 1))
        assert len(pair.out_branching.arcs) == 5
        assert len(pair.in_branching.arcs) == 5
        q = materialize(spec)
        assert verify_good_pair(q, pair).ok
        assert decide_good_pair_exact(q, pair.root).found

    def test_undersized_blob_message(self, c3):
        spec = CompositionSpec(c3, [DiGraph(2), DiGraph(2), DiGraph(1)])
        with pytest.raises(ValueError, match="blob 3 has fewer than 2 vertices"):
            construct_good_pair(spec, bv(1, 1))

    def test_layer_two_root_round_trip(self, c3):
        spec = CompositionSpec(c3, [DiGraph(2)] * 3)
        pair = construct_good_pair(spec, bv(2, 2))
        assert pair.root == spec.global_id(bv(2, 2))
        assert verify_good_pair(materialize(spec), pair).ok

    def test_high_layer_root(self):
        c3 = DiGraph(3, [(0, 1), (1, 2), (2, 0)])
        spec = CompositionSpec(c3, [DiGraph(4), DiGraph(2), DiGraph(3)])
        for layer in (1, 2, 3, 4):
            pair = construct_good_pair(spec, bv(1, layer))
            assert pair.root == spec.global_id(bv(1, layer))
            assert verify_good_pair(materialize(spec), pair).ok

    @pytest.mark.parametrize(
        "sizes, root",
        [
            ([4, 2, 3], bv(1, 2)),
            ([4, 2, 3], bv(1, 3)),
            ([4, 2, 3], bv(1, 4)),
            ([2, 2, 3], bv(1, 2)),
        ],
        ids=["size4-layer2", "size4-layer3", "size4-layer4", "size2-layer2"],
    )
    def test_root_takes_layer_one_place(self, c3, sizes, root):
        """A root at layer j is the layer-1 pair with (blob, 1) and (blob, j)
        swapped."""
        spec = CompositionSpec(c3, [DiGraph(k) for k in sizes])
        a = spec.global_id(bv(root.blob, 1))
        b = spec.global_id(root)

        def sw(v: int) -> int:
            return b if v == a else a if v == b else v

        base = construct_good_pair(spec, bv(root.blob, 1))
        pair = construct_good_pair(spec, root)
        assert pair.root == b == sw(base.root)
        assert pair.out_branching.arcs == {
            (sw(u), sw(v)) for u, v in base.out_branching.arcs
        }
        assert pair.in_branching.arcs == {
            (sw(u), sw(v)) for u, v in base.in_branching.arcs
        }
        assert verify_good_pair(spec.implicit_view(), pair).ok

    def test_blob_arcs_are_ignored_but_allowed(self):
        c3 = DiGraph(3, [(0, 1), (1, 2), (2, 0)])
        dense_blob = DiGraph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)])
        spec = CompositionSpec(c3, [dense_blob, DiGraph(2), dense_blob])
        pair = construct_good_pair(spec, bv(3, 2))
        q = materialize(spec)
        assert verify_good_pair(q, pair).ok
        for u, v in pair.out_branching.arcs | pair.in_branching.arcs:
            assert spec.blob_vertex(u).blob != spec.blob_vertex(v).blob

    def test_every_root_of_strong_tournaments(self):
        # t = 3, 4 with two blob-size patterns; all of t = 5 with size-2 blobs
        patterns = {3: ([2] * 3, [2, 3, 2]), 4: ([2] * 4, [2, 3, 2, 3]), 5: ([2] * 5,)}
        checked = 0
        for t, pats in patterns.items():
            for outer in labeled_tournaments(t):
                if not is_strong(outer):
                    continue
                for pattern in pats:
                    spec = CompositionSpec(outer, [DiGraph(k) for k in pattern])
                    view = spec.implicit_view()
                    for blob in range(1, t + 1):
                        for layer in range(1, spec.blob_size(blob) + 1):
                            pair = construct_good_pair(spec, bv(blob, layer))
                            assert verify_good_pair(view, pair).ok
                            checked += 1
        assert checked > 5000

    def test_unverified_pair_raises(self, c3, monkeypatch):
        import goodpairs.construct as construct_module

        def dropping_extend(skeleton, spec, root):
            pair = extend_layers(skeleton, spec, root)
            out = pair.out_branching
            broken = Branching(out.root, "out", out.arcs - {min(out.arcs)})
            return GoodPair(pair.root, broken, pair.in_branching)

        monkeypatch.setattr(construct_module, "extend_layers", dropping_extend)
        spec = CompositionSpec(c3, [DiGraph(2)] * 3)
        with pytest.raises(
            ValueError, match="constructed pair does not verify: out-branching invalid"
        ):
            construct_good_pair(spec, bv(1, 1))

    def test_root_out_of_range(self, c3):
        spec = CompositionSpec(c3, [DiGraph(2)] * 3)
        with pytest.raises(ValueError, match="out of range"):
            construct_good_pair(spec, bv(4, 1))
