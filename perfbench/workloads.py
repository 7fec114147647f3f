"""Seeded inputs of the workloads.

Each builder generates its compositions with goodpairs' generators (inside a
``generate.instances`` span), writes every composition as a JSON file for the
CLI, and returns the instances with the roots to answer at.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, ContextManager

import numpy as np

from goodpairs import BlobVertex, CompositionSpec, DiGraph
from goodpairs import io as gio
from goodpairs.generate import gen_composition, gen_strong_digraph

OpenSpan = Callable[[str], ContextManager]


@dataclass
class Instance:
    name: str
    spec: CompositionSpec
    path: Path
    roots: list[BlobVertex]
    # True when the paper's theorem guarantees a good pair at every root:
    # strong outer and every blob of size at least two.
    must_exist: bool


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _write(instances: list[Instance]) -> None:
    for inst in instances:
        inst.path.write_text(gio.serialize_composition(inst.spec))


def _distinct_blobs(rng: np.random.Generator, t: int, k: int) -> list[int]:
    return [int(b) + 1 for b in rng.choice(t, size=k, replace=False)]


def solve_sparse(seed: int, workdir: Path, span: OpenSpan) -> list[Instance]:
    """C7's shape: strong outer, t = 5*10^4 with 2t arcs, blobs of 2 (N = 10^5);
    one root at layer 2 and one at layer 1, in distinct blobs.  The layer-2
    root comes first: it is the one whose answer is taken under tracemalloc,
    and its label swap makes it the costlier of the two."""
    t = 50_000
    with span("generate.instances"):
        outer = gen_strong_digraph(t, t, seed)
        spec = CompositionSpec(outer, (DiGraph(2),) * t)
    a, b = _distinct_blobs(_rng(seed), t, 2)
    roots = [BlobVertex(a, 2), BlobVertex(b, 1)]
    instances = [Instance("sparse", spec, workdir / "sparse.json", roots, True)]
    _write(instances)
    return instances


SMALL_BATCH = 100
DENSE_COUNT = 3


def decide_sc(seed: int, workdir: Path, span: OpenSpan) -> list[Instance]:
    """Strong semicomplete compositions, in three kinds.

    Small: the first 100 seeds s = 0, 1, ... for which
    gen_composition(5, (1, 3), 0.0, "semicomplete", s) has a single-vertex
    blob, rooted on the first such blob; the restriction goes to the exact
    oracle.  This batch is the same for every --seed: its cost is heavy-tailed
    (two instances take most of the time), so a seeded draw would change
    answer_s by several times from one seed to the next.

    Dense: three seeded semicomplete outers on t = 250 with blobs of 2-200
    vertices and no internal arcs (N ~ 2.5*10^4 each), which take the
    constructor's fast path; roots at layer 2 and layer 1, as in solve_sparse.
    They are spread through the list, so their calls sample the whole round.
    At this size the label swap, not the ear decomposition, sets the peak
    memory of a layer-2 answer; near N = 2*10^4 the two trade places, which
    made answer_peak_mb jump between 8.7 and 14.2 MB from seed to seed.

    Last, the paper's tightness example: a 3-cycle of single-vertex blobs
    has no good pair at any root.
    """
    small: list[Instance] = []
    dense: list[Instance] = []
    rng = _rng(seed)
    with span("generate.instances"):
        s = 0
        while len(small) < SMALL_BATCH:
            spec = gen_composition(5, (1, 3), 0.0, "semicomplete", s)
            singles = [i for i, h in enumerate(spec.blobs, 1) if h.vertex_count == 1]
            if singles:
                path = workdir / f"small{s}.json"
                root = BlobVertex(singles[0], 1)
                small.append(Instance(f"small{s}", spec, path, [root], False))
            s += 1
        for k in range(DENSE_COUNT):
            outer = gen_composition(250, (1, 1), 0.0, "semicomplete", seed * DENSE_COUNT + k).outer
            sizes = rng.integers(2, 201, size=outer.vertex_count)
            spec = CompositionSpec(outer, [DiGraph(int(n)) for n in sizes])
            a, b = _distinct_blobs(rng, outer.vertex_count, 2)
            roots = [BlobVertex(a, 2), BlobVertex(b, 1)]
            dense.append(Instance(f"dense{k}", spec, workdir / f"dense{k}.json", roots, True))
    tight = CompositionSpec(DiGraph(3, [(0, 1), (1, 2), (2, 0)]), [DiGraph(1)] * 3)
    instances = []
    chunk = -(-SMALL_BATCH // DENSE_COUNT)
    for k, inst in enumerate(dense):
        instances += [inst] + small[k * chunk : (k + 1) * chunk]
    instances.append(Instance("tight", tight, workdir / "tight.json", [BlobVertex(1, 1)], False))
    _write(instances)
    return instances


WORKLOADS = {
    "solve-sparse": (solve_sparse, "solve"),
    "decide-sc": (decide_sc, "decide-sc"),
}
