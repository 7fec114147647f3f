"""Simple digraphs with connectivity primitives, branchings, and verification.

Vertices are the integers ``0 .. vertex_count - 1``.  Arcs are ordered pairs
``(tail, head)``; loops and parallel arcs are not representable.  Everything
here is immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Collection, Iterable, Literal, Sequence

import numpy as np

Arc = tuple[int, int]

BranchingKind = Literal["out", "in"]


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


def _sorted_arc_arrays(arcs: Collection[Arc]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct int pairs ``arcs`` as ``(tails, heads)`` arrays sorted by
    (tail, head): int64, or dtype object (exact) when some id does not fit."""
    try:
        ids = np.fromiter(chain.from_iterable(arcs), np.int64, 2 * len(arcs))
    except OverflowError:
        ids = np.array(list(chain.from_iterable(arcs)), dtype=object)
    tails, heads = ids.reshape(-1, 2).T
    order = np.lexsort((heads, tails))
    return tails[order], heads[order]


def _csr(n: int, keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, values)`` for arcs grouped by ascending ``keys``."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=indptr[1:])
    values = np.asarray(values, dtype=np.int64)
    indptr.flags.writeable = values.flags.writeable = False
    return indptr, values


@dataclass(frozen=True, eq=False, repr=False)
class DiGraph:
    """A simple directed graph on vertices ``0 .. vertex_count - 1``.

    The arcs are held two ways, each derived from the other on first use:
    ``arcs``, a frozenset of ``(tail, head)`` int pairs, and ``tails`` and
    ``heads``, read-only int arrays sorted by (tail, head), int64 unless some
    id does not fit (then dtype object, exact).  ``DiGraph(n, arcs)`` starts
    from the set; `from_sorted_arrays` starts from the arrays, which is how
    the parsers build digraphs.  The neighbour lists are derived on first
    use too, as tuples (`out_adj`, `in_adj`) for the Python loops and as
    CSR arrays (`out_csr`, `in_csr`) for searches of large digraphs.
    Digraphs compare by vertex count and arcs.
    """

    vertex_count: int

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

    @classmethod
    def from_sorted_arrays(
        cls, vertex_count: int, tails: np.ndarray, heads: np.ndarray
    ) -> DiGraph:
        """Digraph with the arcs ``(tails[k], heads[k])``, taken as given:
        sorted by (tail, head), without repeats or loops, and in range, as
        the parsers leave them."""
        d = object.__new__(cls)
        tails.flags.writeable = heads.flags.writeable = False
        object.__setattr__(d, "vertex_count", vertex_count)
        object.__setattr__(d, "_arc_arrays", (tails, heads))
        return d

    @cached_property
    def arcs(self) -> frozenset[Arc]:
        return frozenset(zip(self.tails.tolist(), self.heads.tolist()))

    @cached_property
    def _arc_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        tails, heads = _sorted_arc_arrays(self.arcs)
        tails.flags.writeable = heads.flags.writeable = False
        return tails, heads

    @property
    def tails(self) -> np.ndarray:
        return self._arc_arrays[0]

    @property
    def heads(self) -> np.ndarray:
        return self._arc_arrays[1]

    def arcs_in_order(self) -> Iterable[Arc]:
        """The arcs as ``(tail, head)`` int pairs in ascending order, read
        from whichever of the arrays and the set is built already."""
        if "_arc_arrays" in self.__dict__:
            return zip(self.tails.tolist(), self.heads.tolist())
        return sorted(self.arcs)

    @cached_property
    def out_adj(self) -> tuple[tuple[int, ...], ...]:
        """Out-neighbour lists, each sorted ascending."""
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.arcs_in_order():
            adj[u].append(v)
        return tuple(map(tuple, adj))

    @cached_property
    def in_adj(self) -> tuple[tuple[int, ...], ...]:
        """In-neighbour lists, each sorted ascending: `out_adj` read in
        order of tail."""
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, nbrs in enumerate(self.out_adj):
            for v in nbrs:
                adj[v].append(u)
        return tuple(map(tuple, adj))

    @cached_property
    def out_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Out-neighbour lists as read-only int64 ``(indptr, neighbours)``:
        v's out-neighbours, ascending, are ``neighbours[indptr[v]:indptr[v+1]]``."""
        return _csr(self.vertex_count, self.tails, self.heads)

    @cached_property
    def in_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """In-neighbour lists in the form of `out_csr`: the arcs in order of
        head by one stable argsort, so each list keeps its tails ascending."""
        order = np.argsort(self.heads, kind="stable")
        return _csr(self.vertex_count, self.heads[order], self.tails[order])

    def out_neighbours(self, v: int) -> Sequence[int]:
        """v's out-neighbours, ascending, read from the lists that
        `bfs_pointers` searches at this vertex count."""
        if self.vertex_count < CSR_SEARCH_MIN_VERTICES:
            return self.out_adj[v]
        indptr, neighbours = self.out_csr
        return neighbours[indptr[v] : indptr[v + 1]].tolist()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.arcs == other.arcs

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.arcs))

    def __repr__(self) -> str:
        return f"DiGraph({self.vertex_count}, {sorted(self.arcs)})"

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs

    def has_arcs(self, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
        """Mask over the pairs (tails[k], heads[k]); exact for ids of any size."""
        pairs = zip(tails.tolist(), heads.tolist())
        return np.fromiter(((u, v) in self.arcs for u, v in pairs), bool, len(tails))

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


# Vertex count from which `bfs_pointers` runs its numpy engine over the
# CSR; below it, the FIFO loop over the tuple adjacency.  Chosen from the
# measured crossover of the two engines on sparse and semicomplete digraphs
# (CHANGES.md), not from any workload's size.
CSR_SEARCH_MIN_VERTICES = 4096


def bfs_pointers(
    d: DiGraph, sources: Iterable[int], reverse: bool = False, target: int = -1
) -> Sequence[int]:
    """Breadth-first search of ``d`` from ``sources``, taken in order, along
    out-arcs, or along in-arcs with ``reverse``.

    Returns one pointer per vertex: a source points at itself, any other
    reached vertex at the vertex it was first reached from, and a vertex
    never reached holds -1.  Neighbours are read in ascending order, and the
    search stops as soon as every vertex is reached, or ``target`` (when not
    -1) is.

    Two engines give the same pointers.  Below `CSR_SEARCH_MIN_VERTICES`
    vertices, a FIFO loop reads the tuple lists `out_adj`/`in_adj` and
    returns a list.  A small search then costs a few microseconds, less than
    numpy's fixed cost per call, and on a dense digraph it stops after a few
    lists.  From there up, `_csr_pointers` reads `out_csr`/`in_csr` with
    whole-array steps and returns an int64 array, so a large digraph never
    builds its tuples.
    """
    if d.vertex_count < CSR_SEARCH_MIN_VERTICES:
        return _fifo_pointers(d.in_adj if reverse else d.out_adj, sources, target)
    return _csr_pointers(d.in_csr if reverse else d.out_csr, sources, target)


def _fifo_pointers(
    adj: Sequence[Sequence[int]], sources: Iterable[int], target: int = -1
) -> list[int]:
    """`bfs_pointers` by a FIFO queue over the neighbour lists ``adj``."""
    pointer = [-1] * len(adj)
    queue = []
    for s in sources:
        if pointer[s] == -1:
            pointer[s] = s
            queue.append(s)
    if target >= 0 and pointer[target] != -1:
        return pointer
    left = len(adj) - len(queue)
    for u in queue:  # the loop also reads what it appends: a FIFO queue
        if not left:
            break
        for w in adj[u]:
            if pointer[w] == -1:
                pointer[w] = u
                if w == target:
                    return pointer
                queue.append(w)
                left -= 1
    return pointer


def _csr_pointers(
    csr: tuple[np.ndarray, np.ndarray], sources: Iterable[int], target: int = -1
) -> np.ndarray:
    """`bfs_pointers` over the CSR ``(indptr, neighbours)``: the same FIFO
    queue, served a run of vertices per whole-array step.

    A step gathers the arcs of the queue's first vertices in queue order,
    drops heads already reached, and keeps each new head's first occurrence,
    found by ``minimum.at`` over positions (a stable sort took ten times as
    long).  The new heads join the queue's end in the order the FIFO loop
    would append them.  A step takes at most n arcs, about a level of a
    sparse digraph; so on a dense one the search stops after a few lists,
    as the loop does, instead of gathering a level of about n^2 / 4 arcs.
    """
    indptr, neighbours = csr
    n = len(indptr) - 1
    pointer = np.full(n, -1, dtype=np.int64)
    first_at = np.empty(n, dtype=np.int64)
    queue = np.fromiter(sources, dtype=np.int64)
    _, first = np.unique(queue, return_index=True)
    queue = queue[np.sort(first)]
    pointer[queue] = queue
    if target >= 0 and pointer[target] != -1:
        return pointer
    left = n - len(queue)
    while left and len(queue):
        start = indptr[queue]
        count = indptr[queue + 1] - start
        ends = np.cumsum(count)
        k = max(int(np.searchsorted(ends, n, side="right")), 1)
        count, ends = count[:k], ends[:k]
        # Arc j of the i-th vertex taken sits at start[i] + j.
        arcs = np.repeat(start[:k] - (ends - count), count) + np.arange(ends[-1])
        heads = neighbours[arcs]
        tails = np.repeat(queue[:k], count)
        fresh = pointer[heads] == -1
        heads, tails = heads[fresh], tails[fresh]
        position = np.arange(len(heads))
        first_at[heads] = len(heads)
        np.minimum.at(first_at, heads, position)
        first = np.flatnonzero(first_at[heads] == position)
        new, tails = heads[first], tails[first]
        hit = np.flatnonzero(new == target)  # none when target is -1
        if len(hit):
            stop = hit[0] + 1
            pointer[new[:stop]] = tails[:stop]
            return pointer
        pointer[new] = tails
        left -= len(new)
        queue = np.concatenate((queue[k:], new))
    return pointer


def cycle_through(d: DiGraph, v: int) -> tuple[int, ...]:
    """Shortest cycle through ``v`` in a strong digraph, as the closed walk
    ``(v, ..., v)``.

    Runs `bfs_pointers` from each out-neighbour of ``v``, in ascending
    order, until it reaches ``v``, and keeps the first shortest cycle found.
    A large digraph is searched over its CSR, and its tuple adjacency is
    never built.
    """
    d.check_vertex(v)
    if d.vertex_count < 2:
        raise ValueError("need at least two vertices to have a cycle")
    best: list[int] | None = None
    for w in d.out_neighbours(v):
        if best is not None and len(best) <= 3:
            break  # a 2-cycle cannot be beaten
        pointer = bfs_pointers(d, (w,), target=v)
        if pointer[v] == -1:
            continue
        path = [v]  # v back to w along the pointers, then reversed
        while path[-1] != w:
            path.append(int(pointer[path[-1]]))
        if best is None or len(path) + 1 < len(best):
            best = [v, *reversed(path)]
    if best is None:
        raise ValueError(f"no cycle through vertex {v}: digraph is not strong")
    return tuple(best)


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
    """True iff the digraph has at most one strong component.

    Cheaper than Tarjan: two `bfs_pointers` searches check that vertex 0
    reaches every vertex and every vertex reaches it, over the CSR on a
    large digraph, so no tuple adjacency is built there.
    """
    if d.vertex_count <= 1:
        return True
    if -1 in bfs_pointers(d, (0,)):
        return False
    return -1 not in bfs_pointers(d, (0,), reverse=True)


@dataclass(frozen=True, eq=False)
class Branching:
    """A rooted spanning out-tree or in-tree, stored as root plus arc arrays.

    ``tails`` and ``heads`` are read-only int arrays holding the arcs
    ``(tails[k], heads[k])`` sorted by (tail, head), without repeats.  They
    are int64 unless some id does not fit, in which case both hold exact
    Python ints (dtype object); that is the one place ids beyond int64 are
    kept exact.  ``arcs`` is the same set as ``(tail, head)`` int pairs,
    derived on first use.  Branchings compare by identity.
    """

    root: int
    kind: BranchingKind
    tails: np.ndarray
    heads: np.ndarray

    def __init__(self, root: int, kind: BranchingKind, arcs: Iterable[Arc] = ()) -> None:
        pairs = {(int(u), int(v)) for u, v in arcs}
        self._store(root, kind, *_sorted_arc_arrays(pairs))

    @classmethod
    def from_sorted_arrays(
        cls, root: int, kind: BranchingKind, tails: np.ndarray, heads: np.ndarray
    ) -> Branching:
        """Branching with the arcs ``(tails[k], heads[k])``, taken as given:
        sorted by (tail, head), without repeats."""
        b = object.__new__(cls)
        b._store(root, kind, tails, heads)
        return b

    @classmethod
    def from_pointers(
        cls, root: int, kind: BranchingKind, pointer: np.ndarray
    ) -> Branching:
        """Branching whose vertex v has the tree arc between v and
        ``pointer[v]``, its neighbour toward the root (the tail of v's in-arc
        in an out-tree, the head of v's out-arc in an in-tree); -1 marks a
        vertex without one, the root among them."""
        kids = np.flatnonzero(pointer >= 0)
        others = pointer[kids]
        if kind == "out":
            order = np.argsort(others, kind="stable")  # kids stay ascending
            return cls.from_sorted_arrays(root, kind, others[order], kids[order])
        return cls.from_sorted_arrays(root, kind, kids, others)

    def _store(
        self, root: int, kind: BranchingKind, tails: np.ndarray, heads: np.ndarray
    ) -> None:
        if kind not in ("out", "in"):
            raise ValueError(f"branching kind must be 'out' or 'in', got {kind!r}")
        tails.flags.writeable = heads.flags.writeable = False
        object.__setattr__(self, "root", int(root))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "tails", tails)
        object.__setattr__(self, "heads", heads)

    def arcs_in_order(self) -> Iterable[Arc]:
        """The arcs as ``(tail, head)`` int pairs in their sorted order."""
        return zip(self.tails.tolist(), self.heads.tolist())

    @cached_property
    def arcs(self) -> frozenset[Arc]:
        return frozenset(self.arcs_in_order())


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
    return _bfs_tree(d, r, "out")


def find_in_branching(d: DiGraph, r: int) -> Branching | None:
    """Spanning in-branching rooted at ``r``; mirror of `find_out_branching`
    run over reversed arcs."""
    d.check_vertex(r, "root")
    return _bfs_tree(d, r, "in")


def _bfs_tree(d: DiGraph, r: int, kind: BranchingKind) -> Branching | None:
    """Breadth-first tree from ``r`` along the arcs of ``kind``, or None if
    it does not span; each vertex points at the vertex it was first reached
    from."""
    pointer = bfs_pointers(d, (r,), reverse=kind == "in")
    if -1 in pointer:
        return None
    pointer = np.array(pointer, dtype=np.int64)
    pointer[r] = -1
    return Branching.from_pointers(r, kind, pointer)


def verify_branching(d, b: Branching) -> CheckReport:
    """Check the branching invariants of ``b`` against a host graph.

    ``d`` only needs ``vertex_count`` and ``has_arcs(tails, heads)``, so a
    composition's implicit view works as well as a DiGraph.  The checks run
    over the branching's arc arrays in order: ids in range and membership in
    the host, naming the smallest bad arc in (tail, head) order; then the
    count, degrees by ``bincount`` and reachability by pointer doubling.
    Violations are reported, never raised.
    """
    n = d.vertex_count
    if not (0 <= b.root < n):
        return _fail(f"root {b.root} out of range for {n} vertices")
    tails, heads = b.tails, b.heads
    m = len(tails)
    in_range = None  # all in range; tails are sorted, so their ends bound them
    if m and (tails[0] < 0 or tails[-1] >= n or heads.min() < 0 or heads.max() >= n):
        in_range = (tails >= 0) & (tails < n) & (heads >= 0) & (heads < n)
        found = in_range.copy()
        found[in_range] = d.has_arcs(tails[in_range], heads[in_range])
    else:
        found = d.has_arcs(tails, heads)
    if not found.all():
        k = int(np.argmin(found))
        u, v = int(tails[k]), int(heads[k])
        if in_range is not None and not in_range[k]:
            return _fail(f"arc ({u},{v}) out of range")
        return _fail(f"arc ({u},{v}) is not an arc of the host digraph")
    if m != n - 1:
        return _fail(f"not spanning: {m} arcs for {n} vertices")

    # Every id is below n = m + 1 now, so int64 holds it.
    tails = tails.astype(np.int64, copy=False)
    heads = heads.astype(np.int64, copy=False)
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
    out_b, in_b = gp.out_branching, gp.in_branching
    problems: list[str] = []
    if out_b.kind != "out":
        problems.append("first branching is not of kind 'out'")
    if in_b.kind != "in":
        problems.append("second branching is not of kind 'in'")
    trees_ok = False
    if not problems:
        rep_out = verify_branching(d, out_b)
        if not rep_out.ok:
            problems.append(f"out-branching invalid: {rep_out.first_problem}")
        rep_in = verify_branching(d, in_b)
        if not rep_in.ok:
            problems.append(f"in-branching invalid: {rep_in.first_problem}")
        trees_ok = rep_out.ok and rep_in.ok
    if gp.root != out_b.root or gp.root != in_b.root:
        problems.append(
            f"root mismatch: pair root {gp.root}, branching roots "
            f"{out_b.root} and {in_b.root}"
        )
    if trees_ok:
        # Both trees span d, so their ids fit int64 and the in-tree gives
        # each vertex one successor: the out-arc (u, v) is shared iff
        # in_next[u] == v.  Out-arcs are sorted, so the first is the smallest.
        in_next = np.full(d.vertex_count, -1, dtype=np.int64)
        in_next[in_b.tails] = in_b.heads
        shared = np.flatnonzero(in_next[out_b.tails] == out_b.heads)
        k = shared[0] if len(shared) else None
        first = None if k is None else (int(out_b.tails[k]), int(out_b.heads[k]))
    else:
        first = min(out_b.arcs & in_b.arcs, default=None)
    if first is not None:
        problems.append(f"branchings share arc ({first[0]},{first[1]})")
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
