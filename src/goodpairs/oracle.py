"""Exact good-pair decision by exhaustive out-branching enumeration.

Exponential-time ground truth for small digraphs; every constructive path in
the package is cross-checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Literal

import numpy as np

from .digraph import (
    Branching,
    DiGraph,
    GoodPair,
    _bfs_tree,
    _csr,
    _members,
    bfs_pointers,
    require_good_pair,
)

DEFAULT_VERTEX_CAP = 14


@dataclass(frozen=True)
class Decision:
    """Outcome of a decision procedure: found / absent / undecided."""

    status: Literal["found", "absent", "undecided"]
    pair: GoodPair | None = None
    reason: str | None = None

    @property
    def found(self) -> bool:
        return self.status == "found"

    @property
    def absent(self) -> bool:
        return self.status == "absent"


def enumerate_out_branchings(
    d: DiGraph, r: int, limit: int | None = None
) -> Iterator[Branching]:
    """Yield every spanning out-branching rooted at ``r`` exactly once.

    Each non-root vertex, in ascending order, picks its unique in-arc from
    its in-neighbours in ascending order; assignments that close a cycle are
    pruned as soon as the cycle's last vertex is assigned.  Enumeration
    order is therefore deterministic.  Stops after ``limit`` branchings; a
    negative ``limit`` raises ValueError.
    """
    d.check_vertex(r, "root")
    if limit is not None and limit < 0:
        raise ValueError(f"branching limit {limit} is negative")
    if limit == 0:
        return
    n = d.vertex_count
    if -1 in bfs_pointers(d.out_csr, (r,)):
        return  # some vertex unreachable: no spanning out-branching exists
    vertices = [v for v in range(n) if v != r]
    start, neighbours = (a.tolist() for a in d.in_csr)
    in_lists = [neighbours[a:b] for a, b in zip(start, start[1:])]
    parent = [-1] * n
    emitted = 0

    def closes_cycle(v: int, p: int) -> bool:
        # Walk assigned parents upward from p; hitting v closes a cycle.
        while p != -1:
            if p == v:
                return True
            p = parent[p]
        return False

    # Depth-first over per-vertex in-arc choices.
    stack: list[tuple[int, int]] = [(0, 0)]  # (vertex position, candidate index)
    while stack:
        pos, idx = stack.pop()
        if pos == len(vertices):
            yield Branching.from_pointers(r, "out", np.array(parent, dtype=np.int64))
            emitted += 1
            if limit is not None and emitted >= limit:
                return
            continue
        v = vertices[pos]
        candidates = in_lists[v]
        while idx < len(candidates):
            p = candidates[idx]
            idx += 1
            if not closes_cycle(v, p):
                parent[v] = p
                stack += ((pos, idx), (pos + 1, 0))
                break
        else:  # no candidate left for v: back up
            parent[v] = -1


def decide_good_pair_exact(
    d: DiGraph, r: int, vertex_cap: int = DEFAULT_VERTEX_CAP
) -> Decision:
    """Decide whether a good pair at ``r`` exists, exactly.

    Fixes the out-branching first: for each enumerated candidate, the rest
    of the digraph must still let every vertex reach ``r``, which is a
    linear check and immediately yields the in-branching.  Exhaustion of
    the enumeration certifies absence.  Graphs above ``vertex_cap`` come
    back undecided rather than running forever; a negative ``vertex_cap``
    raises ValueError.  A found pair is verified before it is returned.
    """
    d.check_vertex(r, "root")
    if vertex_cap < 0:
        raise ValueError(f"exact-search cap {vertex_cap} is negative")
    if d.vertex_count > vertex_cap:
        return Decision(
            "undecided",
            reason=f"{d.vertex_count} vertices exceed the exact-search cap "
            f"of {vertex_cap}",
        )
    n = d.vertex_count
    for out_b in enumerate_out_branchings(d, r):
        # The in-lists of the arcs of d outside out_b, cut from d's arrays.
        outside = ~_members(out_b.tails * n + out_b.heads, d._arc_keys)
        rest = _csr(n, d.tails[outside], d.heads[outside], reverse=True)
        in_b = _bfs_tree(rest, r, "in")
        if in_b is not None:
            pair = require_good_pair(d, GoodPair(r, out_b, in_b), "oracle pair")
            return Decision("found", pair=pair)
    return Decision("absent")
