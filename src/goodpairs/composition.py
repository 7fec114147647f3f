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
from typing import Iterable, NamedTuple

import numpy as np

from .digraph import CheckReport, DiGraph, is_strong


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
        for i, h in enumerate(blobs, start=1):
            if h.vertex_count < 1:
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

    def has_arc_ids(self, u: int, v: int) -> bool:
        return self.has_arc(self.blob_vertex(u), self.blob_vertex(v))

    @cached_property
    def blob_of(self) -> np.ndarray:
        """blob_of[v] is the outer vertex (0-based) whose blob holds global id v."""
        sizes = [h.vertex_count for h in self.blobs]
        return np.repeat(np.arange(self.blob_count, dtype=np.int64), sizes)

    @cached_property
    def _outer_keys(self) -> np.ndarray:
        """Sorted ``i * t + p`` over the outer arcs (i, p)."""
        t = self.blob_count
        arcs = self.outer.arcs
        keys = np.fromiter((i * t + p for i, p in arcs), np.int64, len(arcs))
        keys.sort()
        return keys

    @cached_property
    def _blob_keys(self) -> np.ndarray:
        """Sorted ``u * N + v`` over the blob-internal arcs (u, v), in global
        ids, N being the composition order."""
        n = self.total_vertices
        keys = np.fromiter(
            (
                (base + u) * n + base + v
                for base, h in zip(self.offsets, self.blobs)
                for u, v in h.arcs
            ),
            np.int64,
        )
        keys.sort()
        return keys

    def has_arcs(self, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
        """Vectorised `has_arc_ids`: a mask over the pairs (tails[k], heads[k])
        of global ids, which must lie in range."""
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
        internal = sum(len(h.arcs) for h in self.blobs)
        cross = sum(sizes[i] * sizes[p] for i, p in self.outer.arcs)
        return internal + cross

    def implicit_view(self) -> ImplicitCompositionView:
        return ImplicitCompositionView(self)


def _members(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Mask of which ``keys`` occur in the sorted array ``sorted_keys``."""
    if not len(sorted_keys):
        return np.zeros(len(keys), dtype=bool)
    pos = np.searchsorted(sorted_keys, keys)
    return np.take(sorted_keys, pos, mode="clip", out=pos) == keys


@dataclass(frozen=True)
class ImplicitCompositionView:
    """Duck-typed stand-in for a materialized DiGraph (vertex_count/has_arc),
    used to verify branchings on compositions too large to materialize.  Its
    ``has_arcs`` sends `verify_branching` down the vectorised path; the
    arrays behind it are cached on the spec, so fresh views stay cheap."""

    spec: CompositionSpec

    @property
    def vertex_count(self) -> int:
        return self.spec.total_vertices

    def has_arc(self, u: int, v: int) -> bool:
        return self.spec.has_arc_ids(u, v)

    def has_arcs(self, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
        return self.spec.has_arcs(tails, heads)


DEFAULT_MATERIALIZE_ARC_LIMIT = 2_000_000
DEFAULT_MATERIALIZE_VERTEX_LIMIT = 1_000_000


def materialize(
    spec: CompositionSpec,
    max_arcs: int = DEFAULT_MATERIALIZE_ARC_LIMIT,
    max_vertices: int = DEFAULT_MATERIALIZE_VERTEX_LIMIT,
) -> DiGraph:
    """Build the composition explicitly.

    Refuses (with the offending counts in the message) rather than silently
    building something enormous; the implicit query interface covers the
    large cases.
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
    offsets = spec.offsets
    arcs: list[tuple[int, int]] = []
    for i, h in enumerate(spec.blobs):
        base = offsets[i]
        arcs.extend((base + u, base + v) for u, v in h.arcs)
    sizes = [h.vertex_count for h in spec.blobs]
    for i, p in spec.outer.arcs:
        bi, bp = offsets[i], offsets[p]
        arcs.extend(
            (bi + a, bp + b) for a in range(sizes[i]) for b in range(sizes[p])
        )
    return DiGraph(spec.total_vertices, arcs)


def is_semicomplete(d: DiGraph) -> bool:
    """True iff every pair of distinct vertices is adjacent in some direction."""
    for x in range(d.vertex_count):
        for y in range(x + 1, d.vertex_count):
            if (x, y) not in d.arcs and (y, x) not in d.arcs:
                return False
    return True


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
