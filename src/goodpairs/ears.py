"""Ear decompositions of strong digraphs from a chosen starting cycle.

An ear decomposition is a starting cycle followed by path/cycle ears, each
arc-disjoint from the rest, each attaching to the already-built subgraph:
a path ear has two distinct built endpoints and only new vertices inside,
a cycle ear meets the built subgraph in exactly its (repeated) endpoint.
Together the ears use every arc exactly once.  `ear_walks` yields only the
ears that cover new vertices, and stops once every vertex is covered.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal

from .digraph import Arc, CheckReport, DiGraph

EarKind = Literal["initial_cycle", "path_ear", "cycle_ear"]


@dataclass(frozen=True)
class Ear:
    """A vertex walk; cycles repeat their first vertex at the end."""

    vertices: tuple[int, ...]
    kind: EarKind

    def __init__(self, vertices: Iterable[int], kind: EarKind) -> None:
        vertices = tuple(int(v) for v in vertices)
        if kind not in ("initial_cycle", "path_ear", "cycle_ear"):
            raise ValueError(f"unknown ear kind {kind!r}")
        if len(vertices) < 2:
            raise ValueError("an ear needs at least two vertices")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "kind", kind)

    @property
    def arcs(self) -> tuple[Arc, ...]:
        vs = self.vertices
        return tuple((vs[i], vs[i + 1]) for i in range(len(vs) - 1))

    @property
    def is_cycle(self) -> bool:
        return self.vertices[0] == self.vertices[-1]

    @property
    def internal_vertices(self) -> tuple[int, ...]:
        return self.vertices[1:-1]


@dataclass(frozen=True)
class EarDecomposition:
    ears: tuple[Ear, ...]

    def __init__(self, ears: Iterable[Ear]) -> None:
        object.__setattr__(self, "ears", tuple(ears))


def cycle_through(d: DiGraph, v: int) -> Ear:
    """Shortest cycle through ``v`` in a strong digraph, as the initial ear.

    Runs a BFS from each out-neighbour of ``v`` back to ``v``, keeping the
    first shortest cycle found with out-neighbours tried in ascending order.
    """
    d.check_vertex(v)
    if d.vertex_count < 2:
        raise ValueError("need at least two vertices to have a cycle")
    best: list[int] | None = None
    for w in d.out_adj[v]:
        if best is not None and len(best) <= 3:
            break  # a 2-cycle cannot be beaten
        path = _bfs_path(d, w, v)
        if path is not None and (best is None or len(path) + 1 < len(best)):
            best = [v, *path]
    if best is None:
        raise ValueError(f"no cycle through vertex {v}: digraph is not strong")
    return Ear(best, "initial_cycle")


def _bfs_path(d: DiGraph, source: int, target: int) -> list[int] | None:
    """Shortest source -> target path (vertex list), neighbours ascending."""
    if source == target:
        return [source]
    parent = {source: -1}
    queue = deque([source])
    adj = d.out_adj
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                if w == target:
                    path = [w]
                    while u != -1:
                        path.append(u)
                        u = parent[u]
                    path.reverse()
                    return path
                queue.append(w)
    return None


def ear_walks(d: DiGraph, start: Ear) -> Iterator[list[int]]:
    """Vertex walks x, y, ..., z of the greedy ears that follow ``start``,
    in order, until every vertex of ``d`` is covered.

    While uncovered vertices remain, take the smallest arc (x, y) leaving the
    built vertex set and extend it from y by a shortest return path through
    new vertices back to the built set (first hit in BFS scan order), giving
    a path ear, or a cycle ear when the return lands on x (z == x).  Every
    walk has at least one internal, newly covered vertex.  The arcs are
    merged lazily from each built vertex's sorted out-list, so arcs left
    over once every vertex is covered are never touched.
    """
    n = d.vertex_count
    if start.kind != "initial_cycle" or not start.is_cycle:
        raise ValueError("starting ear must be an initial cycle")
    seen: set[Arc] = set()
    for a in start.arcs:
        if a not in d.arcs:
            raise ValueError(f"starting cycle uses ({a[0]},{a[1]}), not an arc of d")
        if a in seen:
            raise ValueError("starting cycle repeats an arc")
        seen.add(a)
    cycle_vertices = set(start.vertices)
    if len(cycle_vertices) != len(start.vertices) - 1:
        raise ValueError("starting cycle revisits a vertex")

    out_adj = d.out_adj
    built = bytearray(n)
    # One entry (x, y, i) per built x with arcs left: y = out_adj[x][i] is
    # x's smallest arc not yet taken, so pops come in ascending arc order.
    heap: list[tuple[int, int, int]] = []

    def mark_built(v: int) -> None:
        built[v] = 1
        if out_adj[v]:
            heapq.heappush(heap, (v, out_adj[v][0], 0))

    for v in cycle_vertices:
        d.check_vertex(v)
        mark_built(v)

    remaining = n - len(cycle_vertices)
    stamp = [0] * n
    run = 0
    while remaining:
        if not heap:
            raise ValueError("digraph is not strong: unreachable vertices remain")
        x, y, i = heap[0]
        nbrs = out_adj[x]
        if i + 1 < len(nbrs):
            heapq.heapreplace(heap, (x, nbrs[i + 1], i + 1))
        else:
            heapq.heappop(heap)
        if built[y]:
            continue
        run += 1
        stamp[y] = run
        parent = {y: -1}
        queue = deque([y])
        end: Arc | None = None
        while queue and end is None:
            u = queue.popleft()
            for w in out_adj[u]:
                if built[w]:
                    end = (u, w)
                    break
                if stamp[w] != run:
                    stamp[w] = run
                    parent[w] = u
                    queue.append(w)
        if end is None:
            raise ValueError("digraph is not strong: no return path to built set")
        u, z = end
        walk = [z]
        while u != -1:
            walk.append(u)
            u = parent[u]
        walk.append(x)
        walk.reverse()  # x, y, ..., z
        for v in walk[1:-1]:
            mark_built(v)
        remaining -= len(walk) - 2
        yield walk


def ear_decompose(d: DiGraph, start: Ear) -> EarDecomposition:
    """Greedy ear decomposition of a strong digraph with ``start`` as the
    initial cycle: the ears of `ear_walks`, then every arc with both
    endpoints already built as a length-1 path ear, in ascending order.
    Worst case O(|V| * |A|); far cheaper on typical inputs.
    """
    ears = [start]
    used = set(start.arcs)
    for walk in ear_walks(d, start):
        ear = Ear(walk, "cycle_ear" if walk[0] == walk[-1] else "path_ear")
        used.update(ear.arcs)
        ears.append(ear)
    ears.extend(Ear(a, "path_ear") for a in sorted(d.arcs - used))
    return EarDecomposition(ears)


def verify_ear_decomposition(d: DiGraph, ed: EarDecomposition) -> CheckReport:
    """Check the three defining properties: pairwise arc-disjoint ears, each
    ear attached correctly to the prefix subgraph, and full arc coverage."""
    problems: list[str] = []
    if not ed.ears:
        return CheckReport(False, ("decomposition has no ears",))
    first = ed.ears[0]
    if first.kind != "initial_cycle" or not first.is_cycle:
        problems.append("ear 0 is not an initial cycle")
    seen_arcs: set[Arc] = set()
    built: set[int] = set()
    for idx, ear in enumerate(ed.ears):
        vs = ear.vertices
        for a in ear.arcs:
            if a not in d.arcs:
                problems.append(f"ear {idx} uses ({a[0]},{a[1]}), not an arc of d")
            if a in seen_arcs:
                problems.append(
                    f"ear {idx} reuses arc ({a[0]},{a[1]}): ears not arc-disjoint"
                )
            seen_arcs.add(a)
        interior = vs[1:-1]
        if len(set(interior)) != len(interior) or vs[0] in interior or (
            not ear.is_cycle and vs[-1] in interior
        ):
            problems.append(f"ear {idx} revisits a vertex")
        if idx == 0:
            built.update(vs)
            continue
        if ear.is_cycle:
            if ear.kind != "cycle_ear":
                problems.append(f"ear {idx} closes a cycle but is marked {ear.kind}")
            if vs[0] not in built:
                problems.append(f"ear {idx}: cycle endpoint {vs[0]} not built yet")
        else:
            if ear.kind != "path_ear":
                problems.append(f"ear {idx} is open but marked {ear.kind}")
            if vs[0] not in built or vs[-1] not in built:
                problems.append(
                    f"ear {idx}: path endpoints {vs[0]},{vs[-1]} must both be built"
                )
        for v in interior:
            if v in built:
                problems.append(f"ear {idx}: internal vertex {v} already built")
        built.update(vs)
    if seen_arcs != d.arcs:
        missing = sorted(d.arcs - seen_arcs)
        if missing:
            u, v = missing[0]
            problems.append(f"arc ({u},{v}) of d is not covered by any ear")
    if built != set(range(d.vertex_count)) and d.vertex_count > 0:
        problems.append("ears do not cover every vertex")
    return CheckReport(not problems, tuple(problems))
