"""Simple digraphs with connectivity primitives, branchings, and verification.

Vertices are the integers ``0 .. vertex_count - 1``.  Arcs are ordered pairs
``(tail, head)``; loops and parallel arcs are not representable.  A digraph
holds its arcs as sorted arrays and its neighbour lists in one form, CSR
arrays, which every search, Tarjan pass and the oracle read.  Everything
here is immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Literal, Sequence

import numpy as np

Arc = tuple[int, int]

# Neighbour lists as two read-only int64 arrays ``(indptr, neighbours)``: v's
# list is ``neighbours[indptr[v]:indptr[v+1]]``.  `_csr` builds them.
CSR = tuple[np.ndarray, np.ndarray]

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


def _exact_ids(ids: Sequence[int]) -> np.ndarray:
    """``ids`` as an int64 array, or as dtype object when some id does not fit."""
    try:
        return np.array(ids, dtype=np.int64)
    except OverflowError:
        return np.array(ids, dtype=object)


def _sorted_arcs(arcs: Iterable[Arc]) -> tuple[list[Arc], np.ndarray, np.ndarray]:
    """The distinct int pairs ``arcs`` in ascending order, and as read-only
    ``(tails, heads)`` arrays: int64, or dtype object (exact) when some id
    does not fit."""
    pairs = sorted({(int(u), int(v)) for u, v in arcs})
    ids = _exact_ids(list(chain.from_iterable(pairs)))
    ids.flags.writeable = False  # and so are its two views
    return pairs, ids[0::2], ids[1::2]


def _members(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Mask of which ``keys`` occur in the sorted array ``sorted_keys``."""
    if not len(sorted_keys):
        return np.zeros(len(keys), dtype=bool)
    pos = np.searchsorted(sorted_keys, keys)
    return np.take(sorted_keys, pos, mode="clip", out=pos) == keys


def _csr(n: int, tails: np.ndarray, heads: np.ndarray, reverse: bool = False) -> CSR:
    """The out-neighbour lists (in-neighbour lists with ``reverse``),
    ascending, of the arcs ``(tails[k], heads[k])`` sorted by (tail, head),
    placed by ``bincount``.  In-lists sort the arcs by head stably, as
    uint16 (radix) up to 2^16 vertices."""
    if reverse:
        order = np.argsort(heads.astype(np.uint16) if n <= 1 << 16 else heads, kind="stable")
        tails, heads = heads[order], tails[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    neighbours = np.asarray(heads, dtype=np.int64)
    indptr.flags.writeable = neighbours.flags.writeable = False
    return indptr, neighbours


# The largest vertex count n for which ``n * n`` fits int64.
_KEYED_VERTICES_MAX = 3_037_000_499


@dataclass(frozen=True, eq=False, repr=False)
class DiGraph:
    """A simple directed graph on vertices ``0 .. vertex_count - 1``.

    The arcs are held as ``tails`` and ``heads``, read-only int arrays sorted
    by (tail, head), int64 unless some id does not fit (then dtype object,
    exact).  ``DiGraph(n, arcs)`` sorts the distinct pairs once and checks
    them in that order, so an error names the smallest bad arc;
    `from_sorted_arrays` takes the arrays as given.  Derived on first use:
    ``arcs``, a frozenset of ``(tail, head)`` int pairs, and the neighbour
    lists in one form, the CSR arrays `out_csr` and `in_csr`, which every
    search and Tarjan pass reads.  Digraphs compare by vertex count and arcs.
    """

    vertex_count: int
    arc_count: int
    tails: np.ndarray
    heads: np.ndarray

    def __init__(self, vertex_count: int, arcs: Iterable[Arc] = ()) -> None:
        if vertex_count < 0:
            raise ValueError(f"vertex_count must be non-negative, got {vertex_count}")
        pairs, tails, heads = _sorted_arcs(arcs)
        for u, v in pairs:
            if u == v:
                raise ValueError(f"loop arc ({u},{v}) not allowed")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(
                    f"arc ({u},{v}) out of range for {vertex_count} vertices"
                )
        self._store(vertex_count, tails, heads)

    @classmethod
    def from_sorted_arrays(
        cls, vertex_count: int, tails: np.ndarray, heads: np.ndarray
    ) -> DiGraph:
        """Digraph with the arcs ``(tails[k], heads[k])``, taken as given:
        sorted by (tail, head), without repeats or loops, and in range, as
        the parsers and the generators leave them."""
        d = object.__new__(cls)
        tails.flags.writeable = heads.flags.writeable = False
        d._store(vertex_count, tails, heads)
        return d

    def _store(self, vertex_count: int, tails: np.ndarray, heads: np.ndarray) -> None:
        self.__dict__.update(
            vertex_count=vertex_count, arc_count=len(tails), tails=tails, heads=heads
        )

    @cached_property
    def arcs(self) -> frozenset[Arc]:
        return frozenset(self.arcs_in_order())

    def arcs_in_order(self) -> Iterable[Arc]:
        """The arcs as ``(tail, head)`` int pairs in ascending order."""
        return zip(self.tails.tolist(), self.heads.tolist())

    @cached_property
    def out_csr(self) -> CSR:
        """Out-neighbour lists, ascending."""
        return _csr(self.vertex_count, self.tails, self.heads)

    @cached_property
    def in_csr(self) -> CSR:
        """In-neighbour lists, ascending."""
        return _csr(self.vertex_count, self.tails, self.heads, reverse=True)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count
            and np.array_equal(self.tails, other.tails)
            and np.array_equal(self.heads, other.heads)
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.arcs))

    def __repr__(self) -> str:
        return f"DiGraph({self.vertex_count}, {list(self.arcs_in_order())})"

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.has_arcs(_exact_ids([u]), _exact_ids([v]))[0])

    @cached_property
    def _arc_keys(self) -> np.ndarray:
        """Sorted ``tail * n + head`` over the arcs, n being the vertex count;
        int64 holds them up to `_KEYED_VERTICES_MAX` vertices."""
        return self.tails * self.vertex_count + self.heads

    def has_arcs(self, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
        """Mask over the pairs (tails[k], heads[k]); exact for ids of any size.

        Looked up among the sorted `_arc_keys`, which ids out of range never
        match; in ``arcs`` when ids or keys do not fit int64."""
        n = self.vertex_count
        if n > _KEYED_VERTICES_MAX or tails.dtype == object or heads.dtype == object:
            pairs = zip(tails.tolist(), heads.tolist())
            return np.fromiter(((u, v) in self.arcs for u, v in pairs), bool, len(tails))
        found = (tails >= 0) & (tails < n) & (heads >= 0) & (heads < n)
        found &= _members(self._arc_keys, tails.astype(np.int64) * n + heads)
        return found

    def check_vertex(self, v: int, what: str = "vertex") -> None:
        if not (0 <= v < self.vertex_count):
            raise ValueError(
                f"{what} {v} out of range for {self.vertex_count} vertices"
            )


# Vertex count from which `bfs_pointers` runs its numpy engine; below it,
# the FIFO loop.  Both read the same CSR, so this picks an algorithm, not a
# form.  Chosen from the measured crossover of the two engines on sparse and
# semicomplete digraphs (CHANGES.md), not from any workload's size.
CSR_SEARCH_MIN_VERTICES = 4096


def bfs_pointers(csr: CSR, sources: Iterable[int], target: int = -1) -> Sequence[int]:
    """Breadth-first search of the neighbour lists ``csr`` from ``sources``,
    taken in order: pass a digraph's ``out_csr`` to follow its arcs, its
    ``in_csr`` to follow them backwards.

    Returns one pointer per vertex: a source points at itself, any other
    reached vertex at the vertex it was first reached from, and a vertex
    never reached holds -1.  Neighbours are read in ascending order, and the
    search stops as soon as every vertex is reached, or ``target`` (when not
    -1) is.

    Two engines read the lists and give the same pointers; the vertex count
    picks one.  Below `CSR_SEARCH_MIN_VERTICES`, `_fifo_pointers` pops one
    vertex at a time and returns a list: a small search costs a few
    microseconds, less than numpy's fixed cost per call, and on a dense
    digraph it stops after a few lists.  From there up, `_csr_pointers`
    serves the queue in whole-array steps and returns an int64 array.
    """
    if len(csr[0]) - 1 < CSR_SEARCH_MIN_VERTICES:
        return _fifo_pointers(csr, sources, target)
    return _csr_pointers(csr, sources, target)


def _fifo_pointers(csr: CSR, sources: Iterable[int], target: int = -1) -> list[int]:
    """`bfs_pointers` by a FIFO queue over the lists ``csr``, converting to
    Python ints only the list of each vertex it pops."""
    start, neighbours = csr[0].tolist(), csr[1]
    n = len(start) - 1
    pointer = [-1] * n
    queue = []
    for s in sources:
        if pointer[s] == -1:
            pointer[s] = s
            queue.append(s)
    if target >= 0 and pointer[target] != -1:
        return pointer
    left = n - len(queue)
    for u in queue:  # the loop also reads what it appends: a FIFO queue
        if not left:
            break
        for w in neighbours[start[u] : start[u + 1]].tolist():
            if pointer[w] == -1:
                pointer[w] = u
                if w == target:
                    return pointer
                queue.append(w)
                left -= 1
    return pointer


def _csr_pointers(csr: CSR, sources: Iterable[int], target: int = -1) -> np.ndarray:
    """`bfs_pointers` over the lists ``csr``: the same FIFO queue, served a
    run of vertices per whole-array step.

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
    ``(v, ..., v)``: of the shortest, the one through the smallest
    out-neighbour w of ``v``, along the path `bfs_pointers` finds from w.

    Two searches find it.  The first starts from all out-neighbours at once,
    in ascending order, and stops at ``v``.  In it, the pointers of each
    vertex lead back to the smallest source at the vertex's distance from
    the sources: by induction on the level, the FIFO queue holds every level
    in order of those sources, and a vertex points at the first vertex of
    the level before it that has an arc to it.  So from ``v`` they lead back
    to w.  The second search runs from w alone.  Both read ``out_csr``, the
    first its slice of v's out-neighbours.
    """
    d.check_vertex(v)
    if d.vertex_count < 2:
        raise ValueError("need at least two vertices to have a cycle")
    indptr, neighbours = csr = d.out_csr
    pointer = bfs_pointers(csr, neighbours[indptr[v] : indptr[v + 1]].tolist(), target=v)
    if pointer[v] == -1:
        raise ValueError(f"no cycle through vertex {v}: digraph is not strong")
    w = int(pointer[v])
    while pointer[w] != w:
        w = int(pointer[w])
    pointer = bfs_pointers(csr, (w,), target=v)
    path = [v]  # v back to w along the pointers, then reversed
    while path[-1] != w:
        path.append(int(pointer[path[-1]]))
    return (v, *reversed(path))


def _component_labels(n: int, components: Sequence[Sequence[int]]) -> np.ndarray:
    """int64 array of n labels: k at the vertices of ``components[k]``, -1
    at any vertex in none."""
    label = [-1] * n
    for k, comp in enumerate(components):
        for v in comp:
            label[v] = k
    return np.array(label, dtype=np.int64)


def _tarjan(csr: CSR, vertices: Sequence[int]) -> list[list[int]]:
    """Strong components of the subgraph that ``vertices`` induce in the
    digraph of the neighbour lists ``csr``, each listed after every
    component it reaches.  Iterative Tarjan, so large graphs do not hit the
    recursion limit.
    """
    start, neighbours = (a.tolist() for a in csr)
    n = len(start) - 1
    # A vertex outside the subgraph looks finished and off the stack, as a
    # vertex of an earlier component does, so the search never enters it.
    index = [-2] * n
    for v in vertices:
        index[v] = -1
    lowlink = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    counter = 0
    components: list[list[int]] = []

    for root in vertices:
        if index[root] != -1:
            continue
        # Explicit DFS stack of (vertex, position of its next arc).
        work = [(root, start[root])]
        while work:
            v, pos = work.pop()
            if pos == start[v]:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = 1
            end = start[v + 1]
            while pos < end:
                w = neighbours[pos]
                pos += 1
                if index[w] == -1:  # descend; v resumes at its next arc
                    work += ((v, pos), (w, start[w]))
                    break
                if on_stack[w] and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            else:  # every arc of v is read: v is finished
                if lowlink[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = 0
                        comp.append(w)
                        if w == v:
                            break
                    components.append(comp)
                if work and lowlink[v] < lowlink[work[-1][0]]:
                    lowlink[work[-1][0]] = lowlink[v]
    return components


def is_strong(d: DiGraph) -> bool:
    """True iff the digraph has at most one strong component.

    Cheaper than Tarjan: two `bfs_pointers` searches, over ``out_csr`` and
    ``in_csr``, check that vertex 0 reaches every vertex and every vertex
    reaches it.
    """
    if d.vertex_count <= 1:
        return True
    if -1 in bfs_pointers(d.out_csr, (0,)):
        return False
    return -1 not in bfs_pointers(d.in_csr, (0,))


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
        self._store(root, kind, *_sorted_arcs(arcs)[1:])

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


def _bfs_tree(csr: CSR, r: int, kind: BranchingKind) -> Branching | None:
    """Breadth-first tree of ``kind`` from ``r`` over the neighbour lists
    ``csr`` (out-lists for an out-tree, in-lists for an in-tree), or None if
    it does not span; each vertex points at the vertex it was first reached
    from."""
    pointer = bfs_pointers(csr, (r,))
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
