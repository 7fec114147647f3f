"""Seeded instance generators for tests and benchmarks.

All randomness comes from numpy's PCG64 with an explicit integer seed, so
the same seed yields the same instance on every platform.  Strong digraphs
are cycle-seeded (a Hamiltonian cycle plus random chords), which is biased
but guarantees strongness without rejection.

Each instance is defined by scalar draws: ``rng.integers(t)`` for each end
of a chord, ``rng.random()`` and, unless the pair is bidirectional,
``rng.integers(2)`` for each semicomplete pair, and ``rng.random()`` for
each ordered pair of a blob.  The generators draw in bulk and leave the
bit generator where the calls leave it: chords and blob arcs by numpy's own
bulk calls, which return what as many scalar calls would, and semicomplete
pairs by decoding PCG64's raw 64-bit words as numpy decodes those calls.
``tests/bruteforce.py`` keeps the scalar loops as the references.
"""

from __future__ import annotations

import math

import numpy as np

from .composition import CompositionSpec, inner_digraph, is_semicomplete
from .digraph import DiGraph, is_strong

_LOW_HALF = np.uint64(0xFFFFFFFF)


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def _digraph(n: int, keys: np.ndarray) -> DiGraph:
    """The digraph whose arcs are the sorted int64 keys ``tail * n + head``."""
    tails, heads = np.divmod(keys, n)
    return DiGraph.from_sorted_arrays(n, tails, heads)


def _waiting_half(state: dict) -> int | None:
    """The 32-bit half that the next ``integers`` call reads first, if any."""
    return state["uinteger"] if state["has_uint32"] else None


def _hand_off(bg: np.random.BitGenerator, state: dict, words: int, half: int | None) -> None:
    """Leave ``bg`` where the scalar calls leave it: ``words`` raw words past
    ``state``, with ``half`` (or none) waiting for the next ``integers``."""
    bg.state = state
    bg.advance(words)
    after = bg.state
    after["has_uint32"], after["uinteger"] = (0, 0) if half is None else (1, half)
    bg.state = after


def _halves(raw: np.ndarray, waiting: int | None) -> np.ndarray:
    """The 32-bit halves that successive ``integers`` calls read: the one
    waiting, if any, then the low and the high half of each raw word."""
    halves = np.column_stack((raw & _LOW_HALF, raw >> np.uint64(32))).ravel()
    if waiting is None:
        return halves
    return np.concatenate((np.array([waiting], np.uint64), halves))


def gen_strong_digraph(t: int, extra_arcs: int, seed: int) -> DiGraph:
    """Hamiltonian cycle on t vertices plus ``extra_arcs`` random chords."""
    rng = _rng(seed)
    return _digraph(t, _strong_arcs(rng, t, extra_arcs))


def _strong_arcs(rng: np.random.Generator, t: int, extra_arcs: int) -> np.ndarray:
    """Sorted arc keys of the cycle 0 -> 1 -> ... -> 0 plus ``extra_arcs``
    chords: pairs (u, v) of ``rng.integers(t)`` draws, skipping loops, cycle
    arcs and repeats, until that many are found."""
    if t < 2:
        raise ValueError(f"need at least 2 vertices, got {t}")
    capacity = t * (t - 1) - t
    if not (0 <= extra_arcs <= capacity):
        raise ValueError(
            f"extra_arcs={extra_arcs} out of range: at most {capacity} non-cycle "
            f"arcs exist on {t} vertices"
        )
    vertices = np.arange(t, dtype=np.int64)
    cycle = vertices * t + (vertices + 1) % t
    if extra_arcs == 0:
        return cycle
    bg = rng.bit_generator
    state = bg.state
    # Pairs expected until extra_arcs distinct chords are found, with room
    # for the spread.  A bulk ``integers(t, size=n)`` returns what n scalar
    # calls would, and leaves the state where they leave it.
    valid_pairs = capacity * math.log((capacity + 0.5) / (capacity - extra_arcs + 0.5))
    pairs = int(valid_pairs * t / (t - 2) * 1.02 + 4 * math.sqrt(valid_pairs)) + 16
    while True:
        bg.state = state
        ends = rng.integers(t, size=2 * pairs)
        u, v = ends[0::2], ends[1::2]
        valid = np.flatnonzero((u != v) & (v != (u + 1) % t))
        chords = u[valid] * t + v[valid]
        _, first = np.unique(chords, return_index=True)
        if len(first) >= extra_arcs:
            break
        pairs *= 2
    kept = np.sort(first)[:extra_arcs]
    # Draw again, up to the pair that ended the last chord, to hand off the state.
    bg.state = state
    rng.integers(t, size=2 * (int(valid[kept[-1]]) + 1))
    return np.sort(np.concatenate((cycle, chords[kept])))


def gen_semicomplete(t: int, bidirectional_probability: float, seed: int) -> DiGraph:
    """Random semicomplete digraph: each pair gets both arcs with the given
    probability, otherwise a single uniformly random direction."""
    rng = _rng(seed)
    return _digraph(t, _semicomplete_arcs(rng, t, bidirectional_probability))


def _semicomplete_arcs(rng: np.random.Generator, t: int, p_bidir: float) -> np.ndarray:
    """Sorted arc keys of a semicomplete digraph on t vertices.  Each pair
    x < y, in ascending order, takes ``rng.random() < p_bidir`` for both
    arcs, and otherwise ``rng.integers(2)``: 1 for (x, y), 0 for (y, x)."""
    if t < 1:
        raise ValueError(f"need at least 1 vertex, got {t}")
    if not (0.0 <= p_bidir <= 1.0):
        raise ValueError(f"probability {p_bidir} not in [0, 1]")
    pairs = t * (t - 1) // 2
    if pairs == 0:
        return np.empty(0, np.int64)
    bg = rng.bit_generator
    state = bg.state
    waiting = _waiting_half(state)
    # random() is a word's top 53 bits times 2**-53, so it is below p iff
    # those bits are below ceil(p * 2**53).
    below = np.uint64(math.ceil(p_bidir * 2.0**53))
    # A pair takes one word, plus one every other non-bidirectional pair.
    mean = pairs * (1.5 - p_bidir / 2)
    raw = bg.random_raw(int(mean + 6 * math.sqrt(mean)) + 16)
    while (decoded := _decode_pairs(raw, pairs, below, waiting)) is None:
        raw = np.concatenate((raw, bg.random_raw(len(raw))))
    both, forward, used, half = decoded
    _hand_off(bg, state, used, half)
    arcs = np.zeros((t, t), dtype=bool)
    upper = np.triu(np.ones((t, t), dtype=bool), 1)
    arcs[upper] = both | forward
    arcs.T[upper] = both | ~forward
    return np.flatnonzero(arcs)


def _decode_pairs(
    raw: np.ndarray, pairs: int, below: np.uint64, waiting: int | None
) -> tuple[np.ndarray, np.ndarray, int, int | None] | None:
    """Decode the semicomplete pairs from the raw words: per pair whether it
    is bidirectional, and if not whether it points forward; then the words
    used and the half left waiting.  None when ``raw`` runs out first.

    A word is a pair's `random` word unless it is an `integers(2)` word: the
    word after a single-direction pair that found no half waiting.  The
    single-direction pairs alternate between drawing that word and taking
    the half it left, so the drawing ones are a chain over the words whose
    `random` value would be single: from the i-th such word, the next
    drawing one is the (i + 2)-th, or the (i + 3)-th when the word it drew
    would itself be single.  One Python pass follows the chain."""
    single = (raw >> np.uint64(11)) >= below
    candidates = np.flatnonzero(single)
    step = np.append(single[candidates[:-1] + 1], False).view(np.uint8) + 2
    step = step.tobytes()
    drawing = bytearray(len(candidates))
    i, n = int(waiting is not None), len(candidates)
    while i < n:
        drawing[i] = 1
        i += step[i]
    random_word = np.ones(len(raw) + 1, dtype=bool)
    random_word[candidates[np.frombuffer(drawing, dtype=bool)] + 1] = False
    pair_words = np.flatnonzero(random_word[:-1])[:pairs]
    if len(pair_words) < pairs:
        return None
    directed = single[pair_words]
    at = pair_words[directed]
    # The single-direction pairs read, in order, the half waiting and then
    # both halves of each word drawn; integers(2) is a half's top bit.
    draws = np.arange(waiting is not None, len(at), 2)
    used = max(int(pair_words[-1]) + 1, int(at[draws[-1]]) + 2 if len(draws) else 0)
    if used > len(raw):
        return None
    halves = _halves(raw[at[draws] + 1], waiting)
    forward = np.zeros(pairs, dtype=bool)
    forward[directed] = (halves[: len(at)] >> np.uint64(31)).astype(bool)
    half = int(halves[len(at)]) if len(halves) > len(at) else None
    return ~directed, forward, used, half


# Internal knobs of gen_composition's outer draw, documented in the README:
# a strong outer gets between 0 and 2t random chords; a semicomplete outer
# uses bidirectional probability 0.25 and is resampled until strong.
SEMICOMPLETE_OUTER_BIDIR = 0.25


def gen_composition(
    t: int,
    blob_size_range: tuple[int, int],
    blob_arc_probability: float,
    outer_kind: str,
    seed: int,
) -> CompositionSpec:
    """Random composition with a strong outer digraph of the requested kind."""
    lo, hi = blob_size_range
    if t < 2:
        raise ValueError(f"need at least 2 blobs, got {t}")
    if not (1 <= lo <= hi):
        raise ValueError(f"invalid blob size range [{lo},{hi}]")
    if not (0.0 <= blob_arc_probability <= 1.0):
        raise ValueError(f"probability {blob_arc_probability} not in [0, 1]")
    rng = _rng(seed)
    if outer_kind == "strong":
        capacity = t * (t - 1) - t
        extra = int(rng.integers(0, min(capacity, 2 * t) + 1))
        outer = _digraph(t, _strong_arcs(rng, t, extra))
    elif outer_kind == "semicomplete":
        while True:
            outer = _digraph(t, _semicomplete_arcs(rng, t, SEMICOMPLETE_OUTER_BIDIR))
            if is_strong(outer):
                break
    else:
        raise ValueError(f"outer_kind must be 'strong' or 'semicomplete', got {outer_kind!r}")
    sizes = rng.integers(lo, hi + 1, size=t)
    inner = _draw_inner(rng, sizes, blob_arc_probability)
    if outer_kind == "semicomplete" and not is_semicomplete(outer):
        raise RuntimeError(f"generated outer digraph for seed {seed} is not semicomplete")
    return CompositionSpec.from_arrays(outer, sizes, inner)


# `_draw_inner` draws at most this many doubles in one call.
_DRAW_CHUNK = 1 << 20


def _draw_inner(rng: np.random.Generator, sizes: np.ndarray, p: float) -> DiGraph:
    """The blob arcs of blobs of orders ``sizes``: blob by blob, each arc
    (u, v), u != v in ascending order, kept when its ``rng.random()`` draw
    is below p.  Draw j of a blob of order n is for the pair
    (u, w + (w >= u)) with u, w = divmod(j, n - 1).  The draws come a chunk
    at a time, which gives one call's values (each is one raw word); at p = 0
    no draw keeps an arc, so none is made."""
    pairs = sizes * (sizes - 1)
    ends = np.cumsum(pairs)
    total = int(ends[-1])
    hits = [np.empty(0, np.int64)]
    if p == 0:
        state = rng.bit_generator.state
        _hand_off(rng.bit_generator, state, total, _waiting_half(state))
    else:
        hits += [
            np.flatnonzero(rng.random(min(_DRAW_CHUNK, total - at)) < p) + at
            for at in range(0, total, _DRAW_CHUNK)
        ]
    hits = np.concatenate(hits)
    blob = np.searchsorted(ends, hits, side="right")
    u, w = np.divmod(hits - (ends - pairs)[blob], sizes[blob] - 1)
    return inner_digraph(sizes, np.bincount(blob, minlength=len(sizes)), u, w + (w >= u))
