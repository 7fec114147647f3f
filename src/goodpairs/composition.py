"""Compositions Q = T[H1, ..., Ht]: explicit materialization and implicit arc
queries.

Blob and layer indices are 1-based on every human-facing surface (blob i is
carried by outer vertex i-1); global vertex ids are 0-based and dense, with
blob i occupying the contiguous range ``offset(i) .. offset(i) + n_i - 1``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .digraph import CheckReport, DiGraph, _members, is_strong


class BlobVertex(NamedTuple):
    """A composition vertex addressed as (blob index, layer index), 1-based."""

    blob: int
    layer: int

    def __str__(self) -> str:
        return f"{self.blob}.{self.layer}"


@dataclass(frozen=True)
class CompositionSpec:
    """An outer digraph plus one blob digraph per outer vertex.

    Arcs of the composition are all blob-internal arcs plus, for every outer
    arc (i, p), every arc from a vertex of blob i to a vertex of blob p.
    """

    outer: DiGraph
    blobs: tuple[DiGraph, ...]

    def __init__(self, outer: DiGraph, blobs: Iterable[DiGraph]) -> None:
        blobs = tuple(blobs)
        if outer.vertex_count < 1:
            raise ValueError("outer digraph must have at least one vertex")
        if len(blobs) != outer.vertex_count:
            raise ValueError(
                f"expected {outer.vertex_count} blob digraphs, got {len(blobs)}"
            )
        if min(map(attrgetter("vertex_count"), blobs)) < 1:
            i = next(i for i, h in enumerate(blobs, start=1) if h.vertex_count < 1)
            raise ValueError(f"blob {i} must have at least one vertex")
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "blobs", blobs)

    @property
    def blob_count(self) -> int:
        return self.outer.vertex_count

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """offsets[i-1] is the global id of (i, 1); a trailing total is kept."""
        return (0, *accumulate(h.vertex_count for h in self.blobs))

    @property
    def total_vertices(self) -> int:
        return self.offsets[-1]

    def blob_size(self, blob: int) -> int:
        return self.blobs[blob - 1].vertex_count

    def check_blob_vertex(self, bv: BlobVertex) -> None:
        if not (1 <= bv.blob <= self.blob_count):
            raise ValueError(f"blob index {bv.blob} out of range 1..{self.blob_count}")
        n = self.blob_size(bv.blob)
        if not (1 <= bv.layer <= n):
            raise ValueError(
                f"layer {bv.layer} out of range 1..{n} for blob {bv.blob}"
            )

    def global_id(self, bv: BlobVertex) -> int:
        self.check_blob_vertex(bv)
        return self.offsets[bv.blob - 1] + bv.layer - 1

    def blob_vertex(self, global_id: int) -> BlobVertex:
        if not (0 <= global_id < self.total_vertices):
            raise ValueError(
                f"global id {global_id} out of range 0..{self.total_vertices - 1}"
            )
        blob = bisect_right(self.offsets, global_id)
        return BlobVertex(blob, global_id - self.offsets[blob - 1] + 1)

    def has_arc(self, a: BlobVertex, b: BlobVertex) -> bool:
        """Implicit arc query; never materializes the composition."""
        self.check_blob_vertex(a)
        self.check_blob_vertex(b)
        if a.blob != b.blob:
            return self.outer.has_arc(a.blob - 1, b.blob - 1)
        return self.blobs[a.blob - 1].has_arc(a.layer - 1, b.layer - 1)

    @cached_property
    def blob_of(self) -> np.ndarray:
        """blob_of[v] is the outer vertex (0-based) whose blob holds global id v."""
        sizes = [h.vertex_count for h in self.blobs]
        return np.repeat(np.arange(self.blob_count, dtype=np.int64), sizes)

    @cached_property
    def _outer_keys(self) -> np.ndarray:
        """Sorted ``i * t + p`` over the outer arcs (i, p): the arcs are
        sorted by (i, p) and p < t, so the keys come out sorted."""
        return self.outer.tails * self.blob_count + self.outer.heads

    @cached_property
    def _blob_keys(self) -> np.ndarray:
        """Sorted ``u * N + v`` over the blob-internal arcs (u, v), in global
        ids, N being the composition order; blob by blob they come out
        sorted."""
        n = self.total_vertices
        return np.fromiter(
            (
                (base + u) * n + base + v
                for base, h in zip(self.offsets, self.blobs)
                for u, v in h.arcs_in_order()
            ),
            np.int64,
        )

    def has_arcs(self, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
        """Implicit arc query on global ids: a mask over the pairs
        (tails[k], heads[k]), which must lie in range."""
        tails = tails.astype(np.int64, copy=False)  # in range, so int64 holds them
        heads = heads.astype(np.int64, copy=False)
        keys = self.blob_of[tails]
        head_blobs = self.blob_of[heads]
        same = keys == head_blobs
        keys *= self.blob_count
        keys += head_blobs  # outer key i * t + p; a loop key where same
        del head_blobs
        found = _members(self._outer_keys, keys)
        del keys
        if same.any():
            inner = tails[same] * self.total_vertices + heads[same]
            found[same] = _members(self._blob_keys, inner)
        return found

    def arc_count(self) -> int:
        """Arc count of the materialized composition, from the size formula."""
        sizes = [h.vertex_count for h in self.blobs]
        internal = sum(h.arc_count for h in self.blobs)
        outer = zip(self.outer.tails.tolist(), self.outer.heads.tolist())
        cross = sum(sizes[i] * sizes[p] for i, p in outer)
        return internal + cross

    def implicit_view(self) -> ImplicitCompositionView:
        return ImplicitCompositionView(self)


@dataclass(frozen=True)
class ImplicitCompositionView:
    """A verifier host (``vertex_count`` and ``has_arcs``) for a composition,
    so branchings are checked without materializing it.  The arrays behind
    ``has_arcs`` are cached on the spec, so fresh views stay cheap."""

    spec: CompositionSpec

    @property
    def vertex_count(self) -> int:
        return self.spec.total_vertices

    def has_arcs(self, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
        return self.spec.has_arcs(tails, heads)


DEFAULT_MATERIALIZE_ARC_LIMIT = 2_000_000
DEFAULT_MATERIALIZE_VERTEX_LIMIT = 1_000_000
# Arc count below which `materialize` builds the arc set tuple by tuple:
# there the fixed cost of its dozen numpy calls, each run with cold caches
# in a long process, outweighs the per-arc loop (the crossover, near 450
# arcs, is measured in CHANGES.md).
_TUPLE_MATERIALIZE_MAX_ARCS = 512


def _block_arcs(spec: CompositionSpec) -> Iterator[tuple[int, int]]:
    """The composition's arcs as global ``(tail, head)`` pairs, unordered:
    each blob's arcs shifted to its ids, then one block per outer arc."""
    offsets = spec.offsets
    for base, h in zip(offsets, spec.blobs):
        for u, v in h.arcs:
            yield base + u, base + v
    sizes = [h.vertex_count for h in spec.blobs]
    for i, p in spec.outer.arcs:
        bi, bp = offsets[i], offsets[p]
        for a in range(bi, bi + sizes[i]):
            for b in range(bp, bp + sizes[p]):
                yield a, b


def materialize(
    spec: CompositionSpec,
    max_arcs: int = DEFAULT_MATERIALIZE_ARC_LIMIT,
    max_vertices: int = DEFAULT_MATERIALIZE_VERTEX_LIMIT,
) -> DiGraph:
    """Build the composition explicitly.

    Refuses (with the offending counts in the message) rather than silently
    building something enormous; the implicit query interface covers the
    large cases.  Below `_TUPLE_MATERIALIZE_MAX_ARCS` arcs the digraph
    starts from its arc set, and from there up from sorted arrays built as
    one numpy block product.
    """
    if spec.total_vertices > max_vertices:
        raise ValueError(
            f"materialized composition would have {spec.total_vertices} "
            f"vertices, over the limit of {max_vertices}"
        )
    expected = spec.arc_count()
    if expected > max_arcs:
        raise ValueError(
            f"materialized composition would have {expected} arcs, "
            f"over the limit of {max_arcs}"
        )
    if expected < _TUPLE_MATERIALIZE_MAX_ARCS:
        return DiGraph(spec.total_vertices, _block_arcs(spec))
    sizes = np.array([h.vertex_count for h in spec.blobs], dtype=np.int64)
    offsets = np.array(spec.offsets[:-1], dtype=np.int64)
    # Outer arc e = (i, p) gives the block of sizes[i] * sizes[p] arcs
    # (offsets[i] + a, offsets[p] + b), numbered a * sizes[p] + b.
    outer_tails, outer_heads = spec.outer.tails, spec.outer.heads
    block = sizes[outer_tails] * sizes[outer_heads]
    arc = np.arange(int(block.sum())) - np.repeat(np.cumsum(block) - block, block)
    edge = np.repeat(np.arange(len(block)), block)
    a, b = np.divmod(arc, sizes[outer_heads][edge])
    tails = [offsets[outer_tails][edge] + a]
    heads = [offsets[outer_heads][edge] + b]
    for base, h in zip(spec.offsets, spec.blobs):
        if h.arc_count:
            tails.append(h.tails + base)
            heads.append(h.heads + base)
    tails, heads = np.concatenate(tails), np.concatenate(heads)
    order = np.lexsort((heads, tails))
    return DiGraph.from_sorted_arrays(spec.total_vertices, tails[order], heads[order])


def is_semicomplete(d: DiGraph) -> bool:
    """True iff every pair of distinct vertices is adjacent in some direction:
    the arcs, taken as unordered pairs, give all n(n-1)/2 of them."""
    n = d.vertex_count
    pairs = n * (n - 1) // 2
    if len(d.tails) < pairs:
        return False
    keys = np.sort(np.minimum(d.tails, d.heads) * n + np.maximum(d.tails, d.heads))
    distinct = np.count_nonzero(keys[1:] != keys[:-1]) + (len(keys) > 0)
    return distinct == pairs


def validate_for_construction(spec: CompositionSpec) -> CheckReport:
    """Preconditions of the good-pair constructor: t >= 2, strong outer, and
    every blob of size at least 2.  All failures are named, not just the first.
    """
    problems: list[str] = []
    if spec.blob_count < 2:
        problems.append(
            f"outer digraph has {spec.blob_count} vertex; at least 2 required"
        )
    if not is_strong(spec.outer):
        problems.append("outer digraph is not strong")
    for i, h in enumerate(spec.blobs, start=1):
        if h.vertex_count < 2:
            problems.append(f"blob {i} has fewer than 2 vertices")
    return CheckReport(not problems, tuple(problems))
