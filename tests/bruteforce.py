"""Independent brute-force oracles used to anchor the library's answers.

Everything here is deliberately naive and self-contained: reachability by
hand-rolled BFS over arc sets, branching candidates by iterating raw arc
subsets, and per-item loops as the references for the branching verifier,
the parsers' arc-list checks, the writers, `materialize`, the
semicomplete test, strong components (classes of mutual reachability),
breadth-first trees (a deque over sorted neighbour lists), the
root-adjacent decision over vertex sets and the seeded generators' draws.
Keep it that way; these functions must not share search logic with the
code they check, so they import only data types from goodpairs.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, product

import numpy as np

from goodpairs import Branching, CompositionSpec, Decision, DiGraph, GoodPair


def reachable_from(arcs, n: int, start: int) -> set[int]:
    adj: dict[int, list[int]] = {}
    for u, v in arcs:
        adj.setdefault(u, []).append(v)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj.get(u, ()):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def all_reach(arcs, n: int, target: int) -> bool:
    reversed_arcs = [(v, u) for u, v in arcs]
    return len(reachable_from(reversed_arcs, n, target)) == n


def subset_out_branchings(d: DiGraph, r: int) -> set[frozenset]:
    """Every (n-1)-arc subset that is an out-branching at r: n - 1 arcs of
    the host that reach all n vertices from r."""
    n = d.vertex_count
    found = set()
    for subset in combinations(sorted(d.arcs), max(n - 1, 0)):
        if len(reachable_from(subset, n, r)) == n:
            found.add(frozenset(subset))
    return found


def subset_good_pair_exists(d: DiGraph, r: int) -> bool:
    """Good-pair decision by iterating all arc subsets as the out-branching."""
    n = d.vertex_count
    if n == 0:
        return False
    arcs = sorted(d.arcs)
    for subset in combinations(arcs, n - 1):
        if len(reachable_from(subset, n, r)) != n:
            continue
        rest = set(d.arcs) - set(subset)
        if all_reach(rest, n, r):
            return True
    return n == 1


def reference_branching_problems(d: DiGraph, b) -> tuple[str, ...]:
    """The problems `goodpairs.verify_branching` should report for ``b`` on
    the flat host ``d``, found by a per-arc loop: at most one, the first
    violation in the order range, membership, count, degree, reachability,
    reading the arcs in ascending (tail, head) order."""
    n = d.vertex_count
    if not (0 <= b.root < n):
        return (f"root {b.root} out of range for {n} vertices",)
    for u, v in sorted(b.arcs):
        if not (0 <= u < n and 0 <= v < n):
            return (f"arc ({u},{v}) out of range",)
        if (u, v) not in d.arcs:
            return (f"arc ({u},{v}) is not an arc of the host digraph",)
    if len(b.arcs) != n - 1:
        return (f"not spanning: {len(b.arcs)} arcs for {n} vertices",)
    forward = b.kind == "out"
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
        return (f"root {b.root} has nonzero {side}-degree in the branching",)
    for v in range(n):
        if v != b.root and degree[v] != 1:
            return (f"vertex {v} has {side}-degree {degree[v]}, expected 1",)
    seen = {b.root}
    queue = deque([b.root])
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    if len(seen) != n:
        missing = min(set(range(n)) - seen)
        if forward:
            return (f"vertex {missing} unreachable from root {b.root}",)
        return (f"root {b.root} not reachable from vertex {missing}",)
    return ()


def reference_arc_list_error(raw, n: int | None, field: str) -> str | None:
    """The error text the parsers should give for the arc list ``raw`` under
    ``field``, or None when it is valid, found by a per-item loop: the first
    bad item, and at it the first failing check in the order pair of
    integers, loop, range (when ``n`` is given), duplicate."""
    if not isinstance(raw, list):
        return f"{field}: expected a list of arcs"
    seen = set()
    for i, item in enumerate(raw):
        where = f"{field}[{i}]"
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)
        ):
            return f"{where}: an arc must be a pair of integers"
        u, v = item
        if u == v:
            return f"{where}: loop ({u},{v}) not allowed"
        if n is not None and not (0 <= u < n and 0 <= v < n):
            return f"{where}: arc ({u},{v}) out of range for n={n}"
        if (u, v) in seen:
            return f"{where}: duplicate arc ({u},{v})"
        seen.add((u, v))
    return None


def reference_arc_list_text(arcs) -> str:
    """The arcs, (tail, head) int pairs in order, as ``json.dumps`` writes a
    list of ``[tail, head]`` lists, by one f-string per arc."""
    return "[" + ", ".join([f"[{u}, {v}]" for u, v in arcs]) + "]"


def reference_digraph_text(d: DiGraph) -> str:
    return f'{{"n": {d.vertex_count}, "arcs": {reference_arc_list_text(sorted(d.arcs))}}}'


def reference_composition_text(spec: CompositionSpec) -> str:
    blobs = ", ".join(map(reference_digraph_text, spec.blobs))
    return f'{{"T": {reference_digraph_text(spec.outer)}, "H": [{blobs}]}}'


def reference_pair_text(gp: GoodPair) -> str:
    out_arcs = reference_arc_list_text(sorted(gp.out_branching.arcs))
    in_arcs = reference_arc_list_text(sorted(gp.in_branching.arcs))
    return f'{{"root": {gp.root}, "out_arcs": {out_arcs}, "in_arcs": {in_arcs}}}'


def reference_materialize(spec: CompositionSpec) -> DiGraph:
    """The composition built arc by arc as tuples: each blob's arcs shifted
    to its global ids, and every pair of vertices of blobs i and p for each
    outer arc (i, p)."""
    offsets = [0]
    for h in spec.blobs:
        offsets.append(offsets[-1] + h.vertex_count)
    arcs = []
    for i, h in enumerate(spec.blobs):
        arcs.extend((offsets[i] + u, offsets[i] + v) for u, v in h.arcs)
    for i, p in spec.outer.arcs:
        for a in range(spec.blobs[i].vertex_count):
            for b in range(spec.blobs[p].vertex_count):
                arcs.append((offsets[i] + a, offsets[p] + b))
    return DiGraph(offsets[-1], arcs)


def reference_is_semicomplete(d: DiGraph) -> bool:
    """Every pair of distinct vertices looked up in the arc set."""
    for x in range(d.vertex_count):
        for y in range(x + 1, d.vertex_count):
            if (x, y) not in d.arcs and (y, x) not in d.arcs:
                return False
    return True



# The seeded generators' draws as one scalar numpy call per draw; the
# generators decode the same draws from raw words in bulk.


def reference_strong_arcs(rng, t: int, extra_arcs: int) -> set[tuple[int, int]]:
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


def reference_semicomplete_arcs(rng, t: int, p_bidir: float) -> set[tuple[int, int]]:
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


def reference_blobs(rng, t: int, lo: int, hi: int, blob_arc_probability: float) -> list[DiGraph]:
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
    return blobs


def reference_composition(t, blob_size_range, blob_arc_probability, outer_kind, seed):
    """`gen_composition` over the scalar references: the spec, the number of
    semicomplete outers drawn, and the generator after the last draw."""
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = 0
    if outer_kind == "strong":
        capacity = t * (t - 1) - t
        extra = int(rng.integers(0, min(capacity, 2 * t) + 1))
        outer = DiGraph(t, reference_strong_arcs(rng, t, extra))
    else:
        while True:
            draws += 1
            arcs = reference_semicomplete_arcs(rng, t, 0.25)
            if len(reachable_from(arcs, t, 0)) == t and all_reach(arcs, t, 0):
                break
        outer = DiGraph(t, arcs)
    blobs = reference_blobs(rng, t, *blob_size_range, blob_arc_probability)
    return CompositionSpec(outer, blobs), draws, rng

def mutually_reachable(d: DiGraph, x: int, y: int) -> bool:
    return y in reachable_from(d.arcs, d.vertex_count, x) and x in reachable_from(
        d.arcs, d.vertex_count, y
    )


def adjacency_lists(d: DiGraph, reverse: bool = False) -> list[list[int]]:
    """The out-neighbour lists of ``d``, or its in-neighbour lists with
    ``reverse``, each ascending, appended to arc by arc in sorted order."""
    adj: list[list[int]] = [[] for _ in range(d.vertex_count)]
    for u, v in d.arcs_in_order():
        if reverse:
            adj[v].append(u)
        else:
            adj[u].append(v)
    return adj


# What a DiGraph may hold: its fields and the array forms derived from
# them, besides the arc set; no neighbour lists of Python ints.
ARRAY_FORMS = {
    "vertex_count",
    "arc_count",
    "tails",
    "heads",
    "out_csr",
    "in_csr",
    "_arc_keys",
    "arcs",
}


def shortest_cycle_through(d: DiGraph, v: int) -> tuple[int, ...] | None:
    """The cycle `goodpairs.cycle_through` should return, as its vertex walk
    v, ..., v, or None when v is on no cycle: a dict-based BFS from each
    out-neighbour of v in ascending order back to v, over lists read from
    the sorted arc set, keeping the first shortest."""
    adj: dict[int, list[int]] = {}
    for x, y in sorted(d.arcs):
        adj.setdefault(x, []).append(y)
    best = None
    for w in adj.get(v, ()):
        if best is not None and len(best) <= 3:
            break  # a 2-cycle cannot be beaten
        parent = {w: -1}
        queue = deque([w])
        path = None
        while queue and path is None:
            u = queue.popleft()
            for x in adj.get(u, ()):
                if x not in parent:
                    parent[x] = u
                    if x == v:
                        path = [x]
                        while u != -1:
                            path.append(u)
                            u = parent[u]
                        path.reverse()
                        break
                    queue.append(x)
        if path is not None and (best is None or len(path) + 1 < len(best)):
            best = (v, *path)
    return best


def reference_components(d: DiGraph, vertices: set[int]) -> dict[frozenset[int], set[int]]:
    """The strong components of d[vertices], each with the set its vertices
    reach there: the classes of mutual reachability, by `reachable_from`
    over the arcs with both ends in ``vertices``."""
    arcs = [(u, v) for u, v in d.arcs if u in vertices and v in vertices]
    reach = {x: reachable_from(arcs, d.vertex_count, x) for x in vertices}
    return {frozenset(y for y in reach[x] if x in reach[y]): reach[x] for x in vertices}


def reference_source_components(
    d: DiGraph, vertices: set[int], reverse: bool
) -> list[frozenset[int]]:
    """The initial strong components of d[vertices], by min: those no other
    component reaches; or with ``reverse`` the terminal ones, those that
    reach no other."""
    comps = reference_components(d, vertices)
    if reverse:
        sources = [c for c, reached in comps.items() if reached == c]
    else:
        sources = [c for c in comps if not any(c & r for k, r in comps.items() if k != c)]
    return sorted(sources, key=min)


def reference_bfs_tree(n: int, arcs, r: int, kind: str) -> Branching | None:
    """The breadth-first branching of ``kind`` at r over ``arcs`` on n
    vertices, or None when it does not span: a deque BFS over the sorted
    out-lists (in-lists for an in-tree), each vertex keeping the arc that
    first reached it."""
    adj = adjacency_lists(DiGraph(n, arcs), reverse=kind == "in")
    tree = []
    seen = {r}
    queue = deque([r])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                tree.append((u, w) if kind == "out" else (w, u))
                queue.append(w)
    return Branching(r, kind, tree) if len(seen) == n else None


def _reference_reach(start: set[int], adj, allowed: set[int]) -> set[int]:
    """Vertices of ``allowed`` reachable from ``start`` along ``adj`` through
    vertices of ``allowed`` only, by a depth-first stack."""
    seen: set[int] = set()
    stack = list(start)
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w in allowed and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def reference_decide_root_adjacent(d: DiGraph, r: int, name=str) -> Decision:
    """`goodpairs.decide_root_adjacent` over Python vertex sets and arc
    tuples: the same B/O/I split, requirements, union-find pass over the
    O->I arcs in (tail, head) order, assignment and search hosts, so its
    status, ``reason`` and pair are the ones the array version must give.
    The requirements come from `reference_source_components`, the trees
    from `reference_bfs_tree`."""
    d.check_vertex(r, "root")
    out_adj, in_adj = adjacency_lists(d), adjacency_lists(d, reverse=True)
    out_r = set(out_adj[r])
    in_r = set(in_adj[r])
    for v in range(d.vertex_count):
        if v != r and v not in out_r and v not in in_r:
            raise ValueError(f"vertex {name(v)} is not adjacent to the root")
    both = out_r & in_r
    o_side = out_r - in_r
    i_side = in_r - out_r
    r_i = i_side - _reference_reach(both, out_adj, i_side)
    r_o = o_side - _reference_reach(both, in_adj, o_side)
    in_reqs = reference_source_components(d, r_i, reverse=False)
    out_reqs = reference_source_components(d, r_o, reverse=True)
    requirements = in_reqs + out_reqs
    req_of_head = {v: k for k, comp in enumerate(in_reqs) for v in comp}
    req_of_tail = {
        v: k for k, comp in enumerate(out_reqs, start=len(in_reqs)) for v in comp
    }
    o_to_i = [(o, i) for o in sorted(o_side) for i in out_adj[o] if i in i_side]
    parent = list(range(len(requirements)))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    size = [1] * len(requirements)
    arc_count = [0] * len(requirements)
    serving = []  # (arc, one requirement it serves)
    tree_edges = [[] for _ in requirements]
    spare = []  # arcs closing a cycle, loops included
    for arc in o_to_i:
        a = req_of_tail.get(arc[0])
        b = req_of_head.get(arc[1])
        if a is None and b is None:
            continue
        a = b if a is None else a
        b = a if b is None else b
        serving.append((arc, a))
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            size[rb] += size[ra]
            arc_count[rb] += arc_count[ra] + 1
            tree_edges[a].append((b, arc))
            tree_edges[b].append((a, arc))
        else:
            arc_count[ra] += 1
            spare.append((arc, a))
    for k in range(len(requirements)):
        if find(k) == k and arc_count[k] < size[k]:
            members = [j for j in range(len(requirements)) if find(j) == k]
            enter = [_group(requirements[j], name) for j in members if j < len(in_reqs)]
            leave = [_group(requirements[j], name) for j in members if j >= len(in_reqs)]
            arcs = [f"{name(u)}->{name(v)}" for (u, v), a in serving if find(a) == k]
            parts = [
                f"deficient requirement component: {len(members)} requirements, "
                f"{len(arcs)} serving O->I arcs ({', '.join(arcs) or 'none'})"
            ]
            if enter:
                parts.append("out-branching must enter " + ", ".join(enter))
            if leave:
                parts.append("in-branching must leave " + ", ".join(leave))
            return Decision("absent", reason="; ".join(parts))

    assigned = {}
    served_components = set()
    for arc, a in spare:
        if find(a) in served_components:
            continue
        served_components.add(find(a))
        assigned[a] = arc
        stack = [a]
        while stack:
            x = stack.pop()
            for y, tree_arc in tree_edges[x]:
                if y not in assigned:
                    assigned[y] = tree_arc
                    stack.append(y)
    entering = {assigned[k] for k in range(len(in_reqs))}
    out_arcs = [(r, v) for v in out_r]
    out_arcs += [(u, i) for i in i_side for u in in_adj[i] if u in both or u in i_side]
    out_arcs += entering
    in_arcs = [(v, r) for v in in_r]
    in_arcs += [(o, w) for o in o_side for w in out_adj[o] if w not in i_side]
    in_arcs += [arc for arc in o_to_i if arc not in entering]
    out_b = reference_bfs_tree(d.vertex_count, out_arcs, r, "out")
    in_b = reference_bfs_tree(d.vertex_count, in_arcs, r, "in")
    if out_b is None or in_b is None:
        raise RuntimeError("requirement assignment left a vertex unspanned")
    return Decision("found", pair=GoodPair(r, out_b, in_b))


def _group(comp, name) -> str:
    return "{" + ", ".join(name(v) for v in sorted(comp)) + "}"


def labeled_digraphs(n: int):
    """Yield every labeled digraph on n vertices, strong or not."""
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    for mask in range(1 << len(pairs)):
        yield DiGraph(n, [a for i, a in enumerate(pairs) if mask >> i & 1])


def labeled_tournaments(n: int):
    """Yield every labeled tournament on n vertices."""
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    for mask in range(1 << len(pairs)):
        arcs = []
        for i, (x, y) in enumerate(pairs):
            arcs.append((x, y) if mask & (1 << i) else (y, x))
        yield DiGraph(n, arcs)


def strong_labeled_digraphs(n: int):
    """Yield every labeled strong digraph on n vertices: every arc subset in
    which vertex 0 reaches every vertex and every vertex reaches 0."""
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    for mask in range(1 << len(pairs)):
        arcs = [a for i, a in enumerate(pairs) if mask >> i & 1]
        if len(reachable_from(arcs, n, 0)) == n and all_reach(arcs, n, 0):
            yield DiGraph(n, arcs)


def root_adjacent_digraphs(n: int):
    """Yield every labeled digraph on n vertices in which every vertex is
    adjacent to vertex 0: 3^(n-1) root patterns times 4^C(n-1, 2) others."""
    others = range(1, n)
    pairs = [(x, y) for x in others for y in others if x < y]
    for root_pattern in product(range(3), repeat=n - 1):
        base = []
        for v, kind in zip(others, root_pattern):
            if kind != 1:
                base.append((0, v))
            if kind != 0:
                base.append((v, 0))
        for pattern in product(range(4), repeat=len(pairs)):
            arcs = list(base)
            for (x, y), kind in zip(pairs, pattern):
                if kind & 1:
                    arcs.append((x, y))
                if kind & 2:
                    arcs.append((y, x))
            yield DiGraph(n, arcs)
