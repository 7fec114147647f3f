"""Seeded instance generators for tests and benchmarks.

All randomness comes from numpy's PCG64 with an explicit integer seed, so
the same seed yields the same instance on every platform.  Strong digraphs
are cycle-seeded (a Hamiltonian cycle plus random chords), which is biased
but guarantees strongness without rejection.
"""

from __future__ import annotations

import numpy as np

from .composition import CompositionSpec, is_semicomplete
from .digraph import DiGraph, is_strong


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def gen_strong_digraph(t: int, extra_arcs: int, seed: int) -> DiGraph:
    """Hamiltonian cycle on t vertices plus ``extra_arcs`` random chords."""
    rng = _rng(seed)
    return DiGraph(t, _strong_arcs(rng, t, extra_arcs))


def _strong_arcs(rng: np.random.Generator, t: int, extra_arcs: int) -> set[tuple[int, int]]:
    if t < 2:
        raise ValueError(f"need at least 2 vertices, got {t}")
    capacity = t * (t - 1) - t
    if not (0 <= extra_arcs <= capacity):
        raise ValueError(
            f"extra_arcs={extra_arcs} out of range: at most {capacity} non-cycle "
            f"arcs exist on {t} vertices"
        )
    arcs = {(v, (v + 1) % t) for v in range(t)}
    chords: set[tuple[int, int]] = set()
    while len(chords) < extra_arcs:
        u = int(rng.integers(t))
        v = int(rng.integers(t))
        if u == v or v == (u + 1) % t or (u, v) in chords:
            continue
        chords.add((u, v))
    return arcs | chords


def gen_semicomplete(t: int, bidirectional_probability: float, seed: int) -> DiGraph:
    """Random semicomplete digraph: each pair gets both arcs with the given
    probability, otherwise a single uniformly random direction."""
    rng = _rng(seed)
    return DiGraph(t, _semicomplete_arcs(rng, t, bidirectional_probability))


def _semicomplete_arcs(
    rng: np.random.Generator, t: int, p_bidir: float
) -> set[tuple[int, int]]:
    if t < 1:
        raise ValueError(f"need at least 1 vertex, got {t}")
    if not (0.0 <= p_bidir <= 1.0):
        raise ValueError(f"probability {p_bidir} not in [0, 1]")
    arcs: set[tuple[int, int]] = set()
    for x in range(t):
        for y in range(x + 1, t):
            if rng.random() < p_bidir:
                arcs.add((x, y))
                arcs.add((y, x))
            elif int(rng.integers(2)):
                arcs.add((x, y))
            else:
                arcs.add((y, x))
    return arcs


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
        outer = DiGraph(t, _strong_arcs(rng, t, extra))
    elif outer_kind == "semicomplete":
        while True:
            outer = DiGraph(t, _semicomplete_arcs(rng, t, SEMICOMPLETE_OUTER_BIDIR))
            if is_strong(outer):
                break
    else:
        raise ValueError(f"outer_kind must be 'strong' or 'semicomplete', got {outer_kind!r}")
    sizes = [int(rng.integers(lo, hi + 1)) for _ in range(t)]
    blobs = []
    for n in sizes:
        arcs = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < blob_arc_probability
        ]
        blobs.append(DiGraph(n, arcs))
    if outer_kind == "semicomplete" and not is_semicomplete(outer):
        raise RuntimeError(f"generated outer digraph for seed {seed} is not semicomplete")
    return CompositionSpec(outer, blobs)
