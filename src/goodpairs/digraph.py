"""Simple digraphs with connectivity primitives, branchings, and verification.

Vertices are the integers ``0 .. vertex_count - 1``.  Arcs are ordered pairs
``(tail, head)``; loops and parallel arcs are not representable.  Everything
here is immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from typing import Iterable, Literal

import numpy as np

Arc = tuple[int, int]

BranchingKind = Literal["out", "in"]

# Arcs read at a time by the vectorised `verify_branching`; bounds its
# temporaries well below the size of the branching it checks.
_ARC_CHUNK = 4096


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a verification: a flag plus the named violations found."""

    ok: bool
    problems: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok

    @property
    def first_problem(self) -> str | None:
        return self.problems[0] if self.problems else None


def _ok() -> CheckReport:
    return CheckReport(True)


def _fail(*problems: str) -> CheckReport:
    return CheckReport(False, tuple(problems))


@dataclass(frozen=True)
class DiGraph:
    """A simple directed graph on vertices ``0 .. vertex_count - 1``."""

    vertex_count: int
    arcs: frozenset[Arc]

    def __init__(self, vertex_count: int, arcs: Iterable[Arc] = ()) -> None:
        if vertex_count < 0:
            raise ValueError(f"vertex_count must be non-negative, got {vertex_count}")
        arc_set = frozenset((int(u), int(v)) for u, v in arcs)
        for u, v in arc_set:
            if u == v:
                raise ValueError(f"loop arc ({u},{v}) not allowed")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(
                    f"arc ({u},{v}) out of range for {vertex_count} vertices"
                )
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "arcs", arc_set)

    @cached_property
    def out_adj(self) -> tuple[tuple[int, ...], ...]:
        """Out-neighbour lists, each sorted ascending."""
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.arcs:
            adj[u].append(v)
        return tuple(tuple(sorted(nbrs)) for nbrs in adj)

    @cached_property
    def in_adj(self) -> tuple[tuple[int, ...], ...]:
        """In-neighbour lists, each sorted ascending."""
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.arcs:
            adj[v].append(u)
        return tuple(tuple(sorted(nbrs)) for nbrs in adj)

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs

    def reverse(self) -> DiGraph:
        return DiGraph(self.vertex_count, ((v, u) for u, v in self.arcs))

    def check_vertex(self, v: int, what: str = "vertex") -> None:
        if not (0 <= v < self.vertex_count):
            raise ValueError(
                f"{what} {v} out of range for {self.vertex_count} vertices"
            )


def induced_subgraph(d: DiGraph, kept: Iterable[int]) -> DiGraph:
    """Subgraph induced by ``kept``, re-indexed by position in sorted order."""
    kept_sorted = sorted(set(kept))
    for v in kept_sorted:
        d.check_vertex(v)
    index = {v: i for i, v in enumerate(kept_sorted)}
    arcs = ((index[u], index[v]) for u, v in d.arcs if u in index and v in index)
    return DiGraph(len(kept_sorted), arcs)


def _reachable_count(adj: tuple[tuple[int, ...], ...], start: int) -> int:
    """Number of vertices reachable from ``start`` over ``adj``."""
    seen = bytearray(len(adj))
    seen[start] = 1
    stack = [start]
    count = 1
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = 1
                count += 1
                stack.append(w)
    return count


def strong_components(d: DiGraph) -> tuple[list[frozenset[int]], DiGraph]:
    """Partition into strong components plus the condensation digraph.

    Components are returned in a topological order of the condensation
    (arcs of the condensation go from lower to higher component index).
    Iterative Tarjan, so large graphs do not hit the recursion limit.
    """
    n = d.vertex_count
    adj = d.out_adj
    index = [-1] * n
    lowlink = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    counter = 0
    components_rev: list[frozenset[int]] = []

    for root in range(n):
        if index[root] != -1:
            continue
        # Explicit DFS stack of (vertex, next-neighbour position).
        work = [(root, 0)]
        while work:
            v, pos = work.pop()
            if pos == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = 1
            recurse = False
            neighbours = adj[v]
            while pos < len(neighbours):
                w = neighbours[pos]
                pos += 1
                if index[w] == -1:
                    work.append((v, pos))
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    if index[w] < lowlink[v]:
                        lowlink[v] = index[w]
            if recurse:
                continue
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp.append(w)
                    if w == v:
                        break
                components_rev.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                if lowlink[v] < lowlink[parent]:
                    lowlink[parent] = lowlink[v]

    components = components_rev[::-1]
    comp_of = [0] * n
    for i, comp in enumerate(components):
        for v in comp:
            comp_of[v] = i
    cond_arcs = {
        (comp_of[u], comp_of[v]) for u, v in d.arcs if comp_of[u] != comp_of[v]
    }
    return components, DiGraph(len(components), cond_arcs)


def is_strong(d: DiGraph) -> bool:
    """True iff the digraph has at most one strong component."""
    if d.vertex_count <= 1:
        return True
    # Cheaper than full Tarjan: mutual reachability from vertex 0.
    if _reachable_count(d.out_adj, 0) != d.vertex_count:
        return False
    return _reachable_count(d.in_adj, 0) == d.vertex_count


@dataclass(frozen=True)
class Branching:
    """A rooted spanning out-tree or in-tree, stored as root plus arc set."""

    root: int
    kind: BranchingKind
    arcs: frozenset[Arc]

    def __init__(self, root: int, kind: BranchingKind, arcs: Iterable[Arc] = ()) -> None:
        if kind not in ("out", "in"):
            raise ValueError(f"branching kind must be 'out' or 'in', got {kind!r}")
        object.__setattr__(self, "root", int(root))
        object.__setattr__(self, "kind", kind)
        # Frozensets are trusted as already canonical (int pairs).
        if not isinstance(arcs, frozenset):
            arcs = frozenset((int(u), int(v)) for u, v in arcs)
        object.__setattr__(self, "arcs", arcs)


@dataclass(frozen=True)
class GoodPair:
    """An out-branching and an in-branching at the same root, arc-disjoint."""

    root: int
    out_branching: Branching
    in_branching: Branching


def find_out_branching(d: DiGraph, r: int) -> Branching | None:
    """Spanning out-branching rooted at ``r``, or None if some vertex is
    unreachable from ``r``.

    Deterministic: vertices are discovered breadth-first with neighbours
    taken in ascending id order, and each vertex keeps the first arc that
    reached it.
    """
    d.check_vertex(r, "root")
    arcs = _bfs_tree_arcs(d.out_adj, r)
    if len(arcs) != d.vertex_count - 1:
        return None
    return Branching(r, "out", arcs)


def find_in_branching(d: DiGraph, r: int) -> Branching | None:
    """Spanning in-branching rooted at ``r``; mirror of `find_out_branching`
    run over reversed arcs."""
    d.check_vertex(r, "root")
    rev_arcs = _bfs_tree_arcs(d.in_adj, r)
    if len(rev_arcs) != d.vertex_count - 1:
        return None
    return Branching(r, "in", ((v, u) for u, v in rev_arcs))


def _bfs_tree_arcs(adj: tuple[tuple[int, ...], ...], r: int) -> list[Arc]:
    seen = bytearray(len(adj))
    seen[r] = 1
    queue = deque([r])
    arcs: list[Arc] = []
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = 1
                arcs.append((u, w))
                queue.append(w)
    return arcs


def verify_branching(d, b: Branching) -> CheckReport:
    """Check the branching invariants of ``b`` against a host graph.

    ``d`` only needs ``vertex_count`` and ``has_arc``, so a composition's
    implicit view works as well as a materialized DiGraph.  A host that also
    has the vectorised ``has_arcs`` (the implicit view does) is checked with
    numpy; a DiGraph, small in practice, keeps the per-arc loop, which is
    cheaper there.  Both report the same first problem.  Violations are
    reported, never raised.
    """
    n = d.vertex_count
    if not (0 <= b.root < n):
        return _fail(f"root {b.root} out of range for {n} vertices")
    if hasattr(d, "has_arcs"):
        try:
            return _verify_branching_arrays(d, b)
        except OverflowError:
            pass  # an id beyond int64: the loop below names the first bad arc
    for u, v in b.arcs:
        if not (0 <= u < n and 0 <= v < n):
            return _fail(f"arc ({u},{v}) out of range")
        if not d.has_arc(u, v):
            return _fail(f"arc ({u},{v}) is not an arc of the host digraph")
    if len(b.arcs) != n - 1:
        return _fail(f"not spanning: {len(b.arcs)} arcs for {n} vertices")

    forward = b.kind == "out"
    # In an out-tree every non-root vertex has in-degree 1; in an in-tree,
    # out-degree 1.  Either way the root's degree on that side is 0.
    degree = [0] * n
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in b.arcs:
        if forward:
            degree[v] += 1
            adj[u].append(v)
        else:
            degree[u] += 1
            adj[v].append(u)
    side = "in" if forward else "out"
    if degree[b.root] != 0:
        return _fail(f"root {b.root} has nonzero {side}-degree in the branching")
    for v in range(n):
        if v != b.root and degree[v] != 1:
            return _fail(f"vertex {v} has {side}-degree {degree[v]}, expected 1")
    seen = {b.root}
    queue = deque([b.root])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if len(seen) != n:
        missing = min(set(range(n)) - seen)
        if forward:
            return _fail(f"vertex {missing} unreachable from root {b.root}")
        return _fail(f"root {b.root} not reachable from vertex {missing}")
    return _ok()


def _verify_branching_arrays(d, b: Branching) -> CheckReport:
    """`verify_branching` with numpy, against a host with ``has_arcs``.

    Arcs are read in chunks, in the arc set's iteration order as the loop
    reads them, so the first bad arc is the same one; reachability is
    checked by pointer doubling.  Temporaries stay small next to the
    branching itself.
    """
    n = d.vertex_count
    m = len(b.arcs)
    tails = np.empty(m, dtype=np.int64)
    heads = np.empty(m, dtype=np.int64)
    arcs = iter(b.arcs)
    for start in range(0, m, _ARC_CHUNK):
        chunk = np.fromiter(
            chain.from_iterable(islice(arcs, _ARC_CHUNK)), dtype=np.int64
        )
        tail, head = chunk[0::2], chunk[1::2]
        in_range = (tail >= 0) & (tail < n) & (head >= 0) & (head < n)
        found = in_range.copy()
        found[in_range] = d.has_arcs(tail[in_range], head[in_range])
        if not found.all():
            k = int(np.argmin(found))
            u, v = int(tail[k]), int(head[k])
            if not in_range[k]:
                return _fail(f"arc ({u},{v}) out of range")
            return _fail(f"arc ({u},{v}) is not an arc of the host digraph")
        tails[start : start + len(tail)] = tail
        heads[start : start + len(head)] = head
    if m != n - 1:
        return _fail(f"not spanning: {m} arcs for {n} vertices")

    forward = b.kind == "out"
    # Each non-root vertex points to its neighbour towards the root.
    child, toward_root = (heads, tails) if forward else (tails, heads)
    side = "in" if forward else "out"
    degree = np.bincount(child, minlength=n)
    if degree[b.root] != 0:
        return _fail(f"root {b.root} has nonzero {side}-degree in the branching")
    degree[b.root] = 1
    wrong = np.flatnonzero(degree != 1)
    if len(wrong):
        v = int(wrong[0])
        return _fail(f"vertex {v} has {side}-degree {degree[v]}, expected 1")
    # Every degree is 1 now, so each entry of the buffer gets a pointer.
    step = degree
    step[child] = toward_root
    step[b.root] = b.root
    del tails, heads, child, toward_root  # free them before doubling
    # After k squarings, step[v] is 2^k pointer steps from v (the root stays
    # put); 2^k >= n steps reach the root from every vertex not on a cycle.
    for _ in range(n.bit_length()):
        step = step[step]
    unreached = np.flatnonzero(step != b.root)
    if len(unreached):
        missing = int(unreached[0])
        if forward:
            return _fail(f"vertex {missing} unreachable from root {b.root}")
        return _fail(f"root {b.root} not reachable from vertex {missing}")
    return _ok()


def verify_good_pair(d, gp: GoodPair) -> CheckReport:
    """Check both branchings, matching roots, and arc-disjointness."""
    problems: list[str] = []
    if gp.out_branching.kind != "out":
        problems.append("first branching is not of kind 'out'")
    if gp.in_branching.kind != "in":
        problems.append("second branching is not of kind 'in'")
    if not problems:
        rep_out = verify_branching(d, gp.out_branching)
        if not rep_out.ok:
            problems.append(f"out-branching invalid: {rep_out.first_problem}")
        rep_in = verify_branching(d, gp.in_branching)
        if not rep_in.ok:
            problems.append(f"in-branching invalid: {rep_in.first_problem}")
    if gp.root != gp.out_branching.root or gp.root != gp.in_branching.root:
        problems.append(
            f"root mismatch: pair root {gp.root}, branching roots "
            f"{gp.out_branching.root} and {gp.in_branching.root}"
        )
    shared = gp.out_branching.arcs & gp.in_branching.arcs
    if shared:
        u, v = min(shared)
        problems.append(f"branchings share arc ({u},{v})")
    if problems:
        return _fail(*problems)
    return _ok()


def require_good_pair(d, gp: GoodPair, what: str) -> GoodPair:
    """Return ``gp`` if `verify_good_pair` accepts it on ``d``; otherwise
    raise ValueError("<what> does not verify: <first problem>")."""
    report = verify_good_pair(d, gp)
    if not report.ok:
        raise ValueError(f"{what} does not verify: {report.first_problem}")
    return gp
