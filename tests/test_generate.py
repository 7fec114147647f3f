from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bruteforce as bf

from goodpairs import (
    CompositionSpec,
    DiGraph,
    gen_composition,
    gen_semicomplete,
    gen_strong_digraph,
    is_semicomplete,
    is_strong,
    validate_for_construction,
)
from goodpairs.cli import main
from goodpairs.generate import (
    _draw_inner,
    _semicomplete_arcs,
    _strong_arcs,
)
from goodpairs.io import serialize_composition, serialize_digraph


class TestGenStrong:
    def test_no_extras_is_plain_cycle(self):
        assert gen_strong_digraph(3, 0, seed=42) == DiGraph(
            3, [(0, 1), (1, 2), (2, 0)]
        )

    def test_arc_count_and_strongness(self):
        d = gen_strong_digraph(5, 4, seed=7)
        assert len(d.arcs) == 9
        assert is_strong(d)

    def test_capacity_exceeded(self):
        with pytest.raises(ValueError, match="at most 8"):
            gen_strong_digraph(4, 12, seed=0)

    def test_deterministic(self):
        assert gen_strong_digraph(8, 10, seed=123) == gen_strong_digraph(
            8, 10, seed=123
        )

    def test_always_strong(self):
        for seed in range(20):
            t = 2 + seed % 6
            cap = t * (t - 1) - t
            assert is_strong(gen_strong_digraph(t, min(2 * seed, cap), seed=seed))


class TestGenSemicomplete:
    def test_probability_one_is_complete_biorientation(self):
        d = gen_semicomplete(4, 1.0, seed=1)
        assert len(d.arcs) == 12

    def test_probability_zero_is_tournament(self):
        d = gen_semicomplete(4, 0.0, seed=1)
        assert len(d.arcs) == 6
        assert is_semicomplete(d)

    def test_intermediate_probability_bounds(self):
        d = gen_semicomplete(4, 0.5, seed=1)
        assert 6 <= len(d.arcs) <= 12
        assert is_semicomplete(d)

    def test_deterministic(self):
        assert gen_semicomplete(6, 0.3, seed=9) == gen_semicomplete(6, 0.3, seed=9)

    def test_always_semicomplete(self):
        for seed in range(20):
            assert is_semicomplete(gen_semicomplete(2 + seed % 5, 0.25, seed=seed))


class TestGenComposition:
    def test_strong_outer_with_k2bar_blobs(self):
        spec = gen_composition(3, (2, 2), 0.0, "strong", seed=4)
        assert validate_for_construction(spec).ok
        assert all(h.arcs == frozenset() for h in spec.blobs)

    def test_smallest_semicomplete_case(self):
        spec = gen_composition(2, (1, 1), 0.0, "semicomplete", seed=5)
        assert spec.blob_count == 2
        assert all(h.vertex_count == 1 for h in spec.blobs)
        assert is_semicomplete(spec.outer)
        assert is_strong(spec.outer)

    def test_blob_sizes_in_range(self):
        spec = gen_composition(5, (2, 4), 0.3, "strong", seed=6)
        assert all(2 <= h.vertex_count <= 4 for h in spec.blobs)

    def test_deterministic(self):
        a = gen_composition(4, (1, 3), 0.5, "semicomplete", seed=77)
        b = gen_composition(4, (1, 3), 0.5, "semicomplete", seed=77)
        assert a.outer == b.outer and a.blobs == b.blobs

    def test_semicomplete_outer_always_strong(self):
        for seed in range(15):
            spec = gen_composition(2 + seed % 4, (1, 2), 0.2, "semicomplete", seed)
            assert is_strong(spec.outer)
            assert is_semicomplete(spec.outer)

    def test_invalid_range(self):
        with pytest.raises(ValueError, match="blob size range"):
            gen_composition(3, (0, 2), 0.0, "strong", seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="outer_kind"):
            gen_composition(3, (1, 2), 0.0, "weird", seed=0)


def _pinned_grid():
    """(``gen`` argv, library call) for every output the digest pins: small
    compositions over seeds, sizes, both outer kinds and blob-arc
    probabilities; semicomplete and strong digraphs from empty to full; one
    large composition of each outer kind."""
    for seed in range(60):
        for t in (2, 3, 4, 5, 9):
            for outer in ("strong", "semicomplete"):
                for p in (0.0, 0.3):
                    argv = ["composition", "--t", str(t), "--blob-min", "1"]
                    argv += ["--blob-max", "4", "--blob-arc-prob", str(p)]
                    argv += ["--outer", outer, "--seed", str(seed)]
                    yield argv, lambda t=t, p=p, outer=outer, seed=seed: (
                        serialize_composition(gen_composition(t, (1, 4), p, outer, seed))
                    )
    for seed in range(20):
        for t in (1, 2, 3, 5, 8):
            for p in (0.0, 0.25, 1.0):
                argv = ["semicomplete", "--t", str(t), "--bidir-prob", str(p)]
                yield argv + ["--seed", str(seed)], lambda t=t, p=p, seed=seed: (
                    serialize_digraph(gen_semicomplete(t, p, seed))
                )
        for t in (2, 3, 4, 5, 7):
            cap = t * (t - 1) - t
            for extra in (0, cap // 2, cap):
                argv = ["strong", "--t", str(t), "--extra-arcs", str(extra)]
                yield argv + ["--seed", str(seed)], lambda t=t, extra=extra, seed=seed: (
                    serialize_digraph(gen_strong_digraph(t, extra, seed))
                )
    big = [("250", "1", "3", "0.0", "semicomplete", "7"), ("300", "2", "3", "0.2", "strong", "8")]
    for t, lo, hi, p, outer, seed in big:
        argv = ["composition", "--t", t, "--blob-min", lo, "--blob-max", hi]
        argv += ["--blob-arc-prob", p, "--outer", outer, "--seed", seed]
        yield argv, lambda t=t, lo=lo, hi=hi, p=p, outer=outer, seed=seed: (
            serialize_composition(
                gen_composition(int(t), (int(lo), int(hi)), float(p), outer, int(seed))
            )
        )


# sha256 over the grid's outputs, each followed by a newline as `gen`
# prints it.  Any change to what the generators draw changes it.
PINNED_GRID_DIGEST = (
    "72114900c6b413d594d8c9d0f4b756550e524c95a5b9d90d53782091eeb372b9"
)


def test_generator_outputs_are_pinned():
    digest = hashlib.sha256()
    for _, make in _pinned_grid():
        digest.update((make() + "\n").encode())
    assert digest.hexdigest() == PINNED_GRID_DIGEST


def test_gen_cli_outputs_are_pinned(capsys):
    digest = hashlib.sha256()
    for argv, _ in _pinned_grid():
        assert main(["gen", *argv]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == PINNED_GRID_DIGEST


def _pcg(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _assert_same_state(ours: np.random.Generator, ref: np.random.Generator) -> None:
    """Both generators would draw the same numbers next: the same PCG64
    state and the same 32-bit half waiting for `integers`, if any."""
    a, b = ours.bit_generator.state, ref.bit_generator.state
    assert a["state"] == b["state"]
    assert a["has_uint32"] == b["has_uint32"]
    if a["has_uint32"]:
        assert a["uinteger"] == b["uinteger"]


def _pair_set(t: int, keys: np.ndarray) -> set[tuple[int, int]]:
    assert keys.dtype == np.int64 and np.all(keys[1:] > keys[:-1])
    return {(k // t, k % t) for k in keys.tolist()}


def _blobs(sizes: np.ndarray, inner: DiGraph) -> list[DiGraph]:
    """The blob digraphs that a spec with these blob orders and blob arcs
    reads out of them."""
    outer = DiGraph(len(sizes))
    return list(CompositionSpec.from_arrays(outer, sizes, inner).blobs)


def _twins(seed: int, waiting: bool) -> tuple[np.random.Generator, np.random.Generator]:
    """Two generators in the same state; with ``waiting``, a 32-bit half is
    cached by an `integers` call, then a `random` call passes over it."""
    pair = _pcg(seed), _pcg(seed)
    if waiting:
        for rng in pair:
            rng.integers(7)
            rng.random()
    return pair


class TestBulkDrawsMatchScalarCalls:
    """The generators against the scalar loops in tests/bruteforce.py: the
    same arcs, and the bit generator left in the same state."""

    @pytest.mark.parametrize("waiting", [False, True])
    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_strong_every_chord_count(self, t, waiting):
        for extra in range(t * (t - 1) - t + 1):
            for seed in range(8):
                ours, ref = _twins(seed, waiting)
                arcs = _strong_arcs(ours, t, extra)
                assert _pair_set(t, arcs) == bf.reference_strong_arcs(ref, t, extra)
                _assert_same_state(ours, ref)

    def test_strong_large(self):
        for seed in range(3):
            ours, ref = _twins(seed, seed == 1)
            arcs = _strong_arcs(ours, 300, 3000)
            assert _pair_set(300, arcs) == bf.reference_strong_arcs(ref, 300, 3000)
            _assert_same_state(ours, ref)

    @pytest.mark.parametrize("waiting", [False, True])
    @pytest.mark.parametrize("p", [0.0, 0.25, 1.0])
    def test_semicomplete(self, p, waiting):
        for t in (1, 2, 3, 4, 5, 9, 40):
            for seed in range(10):
                ours, ref = _twins(seed, waiting)
                arcs = _semicomplete_arcs(ours, t, p)
                assert _pair_set(t, arcs) == bf.reference_semicomplete_arcs(ref, t, p)
                _assert_same_state(ours, ref)

    @pytest.mark.parametrize("p", [0.0, 0.25, 1.0])
    def test_blobs_and_their_sizes(self, p):
        for lo, hi in ((1, 1), (1, 4), (3, 3), (2, 6)):
            for seed in range(10):
                ours, ref = _twins(seed, seed % 2 == 1)
                sizes = ours.integers(lo, hi + 1, size=7)
                blobs = _blobs(sizes, _draw_inner(ours, sizes, p))
                assert blobs == bf.reference_blobs(ref, 7, lo, hi, p)
                _assert_same_state(ours, ref)

    @pytest.mark.parametrize("seed, draws", [(4, 2), (16, 2), (17, 2), (32, 3), (31, 4)])
    def test_semicomplete_outer_drawn_again(self, seed, draws):
        spec = gen_composition(4, (1, 3), 0.5, "semicomplete", seed)
        ref, ref_draws, _ = bf.reference_composition(4, (1, 3), 0.5, "semicomplete", seed)
        assert ref_draws == draws
        assert (spec.outer, spec.blobs) == (ref.outer, ref.blobs)

    @given(
        kind=st.sampled_from(["strong", "semicomplete", "blobs"]),
        t=st.integers(2, 12),
        fraction=st.floats(0, 1),
        calls_before=st.lists(st.sampled_from(["random", "integers"]), max_size=3),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_any_state(self, kind, t, fraction, calls_before, seed):
        ours, ref = _pcg(seed), _pcg(seed)
        for rng in (ours, ref):
            for call in calls_before:
                rng.random() if call == "random" else rng.integers(1000)
        if kind == "strong":
            extra = round(fraction * (t * (t - 1) - t))
            arcs = _strong_arcs(ours, t, extra)
            assert _pair_set(t, arcs) == bf.reference_strong_arcs(ref, t, extra)
        elif kind == "semicomplete":
            arcs = _semicomplete_arcs(ours, t, fraction)
            assert _pair_set(t, arcs) == bf.reference_semicomplete_arcs(ref, t, fraction)
        else:
            sizes = ours.integers(1, 5, size=t)
            blobs = _blobs(sizes, _draw_inner(ours, sizes, fraction))
            assert blobs == bf.reference_blobs(ref, t, 1, 4, fraction)
        _assert_same_state(ours, ref)

    @pytest.mark.parametrize("waiting", [False, True])
    @pytest.mark.parametrize("p", [0.0, 0.001])
    def test_blob_over_two_chunks_matches_one_call(self, p, waiting):
        """A blob of 1100 vertices takes 1,208,900 draws, over two chunks;
        at p = 0 they are skipped.  Both give the arcs and the state of one
        ``random`` call over every draw."""
        sizes = np.array([1100])
        ours, ref = _twins(3, waiting)
        inner = _draw_inner(ours, sizes, p)
        hits = np.flatnonzero(ref.random(1100 * 1099) < p)
        u, w = np.divmod(hits, 1099)
        assert (inner.tails.tolist(), inner.heads.tolist()) == (
            u.tolist(), (w + (w >= u)).tolist()
        )
        assert (p == 0) == (inner.arc_count == 0)
        _assert_same_state(ours, ref)

    def test_compositions_match_the_reference(self):
        for seed in range(30):
            for outer in ("strong", "semicomplete"):
                spec = gen_composition(6, (1, 3), 0.4, outer, seed)
                ref, _, _ = bf.reference_composition(6, (1, 3), 0.4, outer, seed)
                assert (spec.outer, spec.blobs) == (ref.outer, ref.blobs)


_HALF_MASK = (1 << 32) - 1


def _scalar_integers(words: list[int], k: int, count: int) -> list[int]:
    """``integers(k)`` as the generators decode it: 32-bit halves, low half
    of each word first, each mapped by Lemire's method with rejection."""
    threshold = ((1 << 32) - k) % k
    out = []
    for w in words:
        for x in (w & _HALF_MASK, w >> 32):
            m = x * k
            if m & _HALF_MASK >= threshold:
                out.append(m >> 32)
                if len(out) == count:
                    return out
    raise AssertionError("too few words")


def test_pcg64_stream_decodes_as_the_generators_assume():
    """The installed numpy's PCG64 stream obeys each rule the bulk draws
    rely on; a failure names the rule that broke."""
    for seed in (0, 1, 2**40 + 3):
        words = np.random.PCG64(seed).random_raw(400).tolist()
        rng = _pcg(seed)
        got = [rng.random() for _ in range(20)]
        assert got == [(w >> 11) * 2.0**-53 for w in words[:20]], (
            "rule broken: random() is (w >> 11) * 2**-53 of one raw word"
        )
        for k in (2, 3, 7, 1000, 2**16, 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 5, 2**32):
            rng = _pcg(seed)
            got = [int(rng.integers(k)) for _ in range(100)]
            assert got == _scalar_integers(words, k, 100), (
                f"rule broken: integers({k}) reads 32-bit halves, low half first, "
                "and maps them by Lemire's method with rejection"
            )
        rng = _pcg(seed)
        first = int(rng.integers(2**32))
        between = rng.random()
        second = int(rng.integers(2**32))
        assert (first, between, second) == (
            words[0] & _HALF_MASK,
            (words[1] >> 11) * 2.0**-53,
            words[0] >> 32,
        ), "rule broken: the high half waits for the next integers() across random()"
        state = rng.bit_generator.state
        assert state["has_uint32"] == 0, "rule broken: has_uint32 marks the waiting half"
        rng.integers(2**32)
        state = rng.bit_generator.state
        assert (state["has_uint32"], state["uinteger"]) == (1, words[2] >> 32), (
            "rule broken: the waiting half is kept in state['uinteger']"
        )
        bulk, scalar = _pcg(seed), _pcg(seed)
        scalar_sizes = [int(scalar.integers(2, 6)) for _ in range(9)]
        scalar_values = [scalar.random() for _ in range(9)]
        assert bulk.integers(2, 6, size=9).tolist() == scalar_sizes
        assert bulk.random(9).tolist() == scalar_values
        assert bulk.bit_generator.state == scalar.bit_generator.state, (
            "rule broken: integers(lo, hi, size=n) and random(n) equal n scalar calls"
        )


@pytest.mark.parametrize("k", [2, 3, 50_000, 2**31 + 1, 3 * 2**30, 2**32 - 5, 2**32])
def test_bounded_integers_match_numpy(k):
    """The chord draw's rule at every range: ``integers(k, size=n)`` returns
    what n scalar ``integers(k)`` calls return and leaves the state where
    they leave it, with and without a half waiting, also where Lemire's
    method rejects many halves: (2**32 - k) mod k is about 2**31 at
    k = 2**31 + 1."""
    for seed in range(4):
        bulk, scalar = _twins(seed, seed % 2 == 1)
        expected = [int(scalar.integers(k)) for _ in range(301)]
        assert bulk.integers(k, size=301).tolist() == expected
        _assert_same_state(bulk, scalar)


def test_blob_draws_are_made_in_bounded_memory():
    """Two blobs of 1500 vertices at blob-arc probability 0 take 4,497,000
    draws, 36 MB of doubles in one call; none is made."""
    gen_composition(2, (2, 2), 0.0, "strong", 0)
    tracemalloc.start()
    try:
        spec = gen_composition(2, (1500, 1500), 0.0, "strong", 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.sizes.tolist() == [1500, 1500] and spec.inner.arc_count == 0
    assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"


def test_blob_draws_above_a_chunk_hold_one_chunk_at_a_time():
    """At blob-arc probability 0.001 the 4,497,000 draws of two blobs of 1500
    vertices are made a chunk (8 MB of doubles) at a time, not 36 MB at once."""
    gen_composition(2, (2, 2), 0.001, "strong", 0)
    tracemalloc.start()
    try:
        spec = gen_composition(2, (1500, 1500), 0.001, "strong", 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.sizes.tolist() == [1500, 1500] and spec.inner.arc_count > 0
    assert peak < 12e6, f"peak {peak / 1e6:.1f} MB"


def test_large_generated_digraphs_build_no_arc_set():
    for d in (gen_strong_digraph(5000, 5000, 1), gen_semicomplete(300, 0.25, 1)):
        assert "arcs" not in d.__dict__
        assert is_strong(d)
