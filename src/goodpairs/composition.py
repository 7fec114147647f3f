"""Compositions Q = T[H1, ..., Ht]: explicit materialization and implicit arc
queries.

Blob and layer indices are 1-based on every human-facing surface (blob i is
carried by outer vertex i-1); global vertex ids are 0-based and dense, with
blob i occupying the contiguous range ``offset(i) .. offset(i) + n_i - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .digraph import _KEYED_VERTICES_MAX, CheckReport, DiGraph, _members, is_strong

INT64_MAX = int(np.iinfo(np.int64).max)


class BlobVertex(NamedTuple):
    """A composition vertex addressed as (blob index, layer index), 1-based."""

    blob: int
    layer: int

    def __str__(self) -> str:
        return f"{self.blob}.{self.layer}"


@dataclass(frozen=True, eq=False)
class CompositionSpec:
    """An outer digraph on t vertices plus one blob per outer vertex, held as
    ``sizes``, a read-only int64 array with the order of blob i at
    ``sizes[i-1]``, and ``inner``, one digraph on all N global ids, N within
    int64, whose arcs are exactly the blob-internal arcs.  Arcs of the
    composition are those plus, for every outer arc (i, p), every arc from a
    vertex of blob i to a vertex of blob p.  ``blobs``, one digraph per blob
    in its own ids, is derived on first use.
    """

    outer: DiGraph
    sizes: np.ndarray
    inner: DiGraph

    def __init__(self, outer: DiGraph, blobs: Iterable[DiGraph]) -> None:
        blobs = tuple(blobs)
        if outer.vertex_count < 1:
            raise ValueError("outer digraph must have at least one vertex")
        if len(blobs) != outer.vertex_count:
            raise ValueError(
                f"expected {outer.vertex_count} blob digraphs, got {len(blobs)}"
            )
        try:
            sizes = np.fromiter(map(attrgetter("vertex_count"), blobs), np.int64, len(blobs))
            # Orders of at least 1 that pass int64 wrap their running total below 0.
            fits = sizes.min() >= 1 and np.cumsum(sizes).min() >= 0
        except OverflowError:  # an order beyond int64
            fits = False
        if not fits:
            raise ValueError(_order_problem(blobs))
        counts = np.fromiter(map(attrgetter("arc_count"), blobs), np.int64, len(blobs))
        with_arcs = [blobs[i] for i in np.flatnonzero(counts).tolist()]
        tails = np.concatenate([np.empty(0, np.int64), *map(attrgetter("tails"), with_arcs)])
        heads = np.concatenate([np.empty(0, np.int64), *map(attrgetter("heads"), with_arcs)])
        inner = inner_digraph(sizes, counts, tails, heads)
        self.__dict__.update(outer=outer, sizes=sizes, inner=inner)
        sizes.flags.writeable = False

    @classmethod
    def from_arrays(cls, outer: DiGraph, sizes: np.ndarray, inner: DiGraph) -> CompositionSpec:
        """The spec with these fields, taken as given: t int64 orders of at
        least 1 that sum within int64, and int64 arcs inside the blobs."""
        spec = object.__new__(cls)
        spec.__dict__.update(outer=outer, sizes=sizes, inner=inner)
        sizes.flags.writeable = False
        return spec

    @property
    def blob_count(self) -> int:
        return self.outer.vertex_count

    @cached_property
    def offsets(self) -> np.ndarray:
        """offsets[i-1] is the global id of (i, 1); a trailing total is kept."""
        offsets = np.concatenate(([0], np.cumsum(self.sizes)))
        offsets.flags.writeable = False
        return offsets

    @property
    def total_vertices(self) -> int:
        return self.inner.vertex_count

    vertex_count = total_vertices

    @cached_property
    def blobs(self) -> tuple[DiGraph, ...]:
        """One digraph per blob, in its own ids, cut out of ``inner``."""
        counts, tails, heads = self.local_arcs()
        ends = np.cumsum(counts).tolist()
        pieces = zip(self.sizes.tolist(), [0, *ends], ends)
        return tuple(DiGraph.from_sorted_arrays(n, tails[a:b], heads[a:b]) for n, a, b in pieces)

    def local_arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The blob arcs as `inner_digraph` takes them: per blob its arc count,
        and the arcs, blob by blob, in their blob's own ids."""
        counts = np.diff(np.searchsorted(self.inner.tails, self.offsets))
        base = np.repeat(self.offsets[:-1], counts)
        return counts, self.inner.tails - base, self.inner.heads - base

    def blob_size(self, blob: int) -> int:
        return int(self.sizes[blob - 1])

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
        return int(self.offsets[bv.blob - 1]) + bv.layer - 1

    def blob_vertex(self, global_id: int) -> BlobVertex:
        if not (0 <= global_id < self.total_vertices):
            raise ValueError(
                f"global id {global_id} out of range 0..{self.total_vertices - 1}"
            )
        blob = int(np.searchsorted(self.offsets, global_id, side="right"))
        return BlobVertex(blob, global_id - int(self.offsets[blob - 1]) + 1)

    @cached_property
    def blob_of(self) -> np.ndarray:
        """blob_of[v] is the outer vertex (0-based) whose blob holds global id v."""
        return np.repeat(np.arange(self.blob_count, dtype=np.int64), self.sizes)

    @cached_property
    def _outer_keys(self) -> np.ndarray:
        """Sorted ``i * t + p`` over the outer arcs (i, p): the arcs are
        sorted by (i, p) and p < t, so the keys come out sorted."""
        return self.outer.tails * self.blob_count + self.outer.heads

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
            found[same] = self.inner.has_arcs(tails[same], heads[same])
        return found

    def arc_count(self) -> int:
        """Arc count of the materialized composition, from the size formula;
        at most N^2, so exact in int64 up to `_KEYED_VERTICES_MAX` vertices."""
        sizes = self.sizes
        if self.total_vertices > _KEYED_VERTICES_MAX:
            sizes = sizes.astype(object)
        cross = sizes[self.outer.tails] * sizes[self.outer.heads]
        return self.inner.arc_count + int(cross.sum())

    def implicit_view(self) -> CompositionSpec:
        """The spec itself: with ``vertex_count`` and ``has_arcs`` it is a
        verifier host, so branchings are checked without materializing it."""
        return self


def inner_digraph(
    sizes: np.ndarray, counts: np.ndarray, tails: np.ndarray, heads: np.ndarray
) -> DiGraph:
    """The digraph on the global ids of blobs of orders ``sizes`` whose blob
    i has the next ``counts[i]`` arcs ``(tails[k], heads[k])``, sorted, in
    its own ids."""
    ends = np.cumsum(sizes)
    base = np.repeat(ends - sizes, counts)
    return DiGraph.from_sorted_arrays(int(ends[-1]), tails + base, heads + base)


def _order_problem(blobs: Sequence[DiGraph]) -> str:
    """The first blob without a vertex, or at which the composition order
    passes int64, and what is wrong with it."""
    total = 0
    for i, h in enumerate(blobs, start=1):
        total += h.vertex_count
        if h.vertex_count < 1:
            return f"blob {i} must have at least one vertex"
        if total > INT64_MAX:
            return f"blob {i}: the composition order passes int64 ({total} vertices so far)"


DEFAULT_MATERIALIZE_ARC_LIMIT = 2_000_000


def materialize(spec: CompositionSpec, max_arcs: int = DEFAULT_MATERIALIZE_ARC_LIMIT) -> DiGraph:
    """Build the composition explicitly.

    Refuses (with the offending count in the message) rather than silently
    building something enormous; the implicit query interface covers the
    large cases.  The one limit is on arcs, which bounds the memory: no
    array here has an entry per vertex, so any vertex count goes.  The arcs
    are built as one numpy block product, sorted once, and the digraph is
    made from the sorted arrays.
    """
    expected = spec.arc_count()
    if expected > max_arcs:
        raise ValueError(
            f"materialized composition would have {expected} arcs, "
            f"over the limit of {max_arcs}"
        )
    sizes, offsets = spec.sizes, spec.offsets
    # Outer arc e = (i, p) gives the block of sizes[i] * sizes[p] arcs
    # (offsets[i] + a, offsets[p] + b), numbered a * sizes[p] + b.
    outer_tails, outer_heads = spec.outer.tails, spec.outer.heads
    block = sizes[outer_tails] * sizes[outer_heads]
    arc = np.arange(int(block.sum())) - np.repeat(np.cumsum(block) - block, block)
    edge = np.repeat(np.arange(len(block)), block)
    a, b = np.divmod(arc, sizes[outer_heads][edge])
    tails = np.concatenate((offsets[outer_tails][edge] + a, spec.inner.tails))
    heads = np.concatenate((offsets[outer_heads][edge] + b, spec.inner.heads))
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
    small = (np.flatnonzero(spec.sizes < 2) + 1).tolist()
    problems += [f"blob {i} has fewer than 2 vertices" for i in small]
    return CheckReport(not problems, tuple(problems))
