"""Good-pair decision for semicomplete compositions.

A strong semicomplete composition has a good pair at r exactly when the
subgraph induced by r and its neighbourhood does, so the decision reduces to
the closed-neighbourhood restriction.  The reduction is constructive both
ways: `lift_good_pair` grows a pair of the restriction into one of the full
graph, `shrink_good_pair` prunes a pair of the full graph down to the
restriction.  On the restriction every vertex is adjacent to r, and
`decide_root_adjacent` settles it in linear time by Hall's condition on a
small requirement graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .composition import (
    BlobVertex,
    CompositionSpec,
    is_semicomplete,
    materialize,
)
from .construct import construct_good_pair
from .digraph import (
    Arc,
    Branching,
    DiGraph,
    GoodPair,
    find_in_branching,
    find_out_branching,
    induced_subgraph,
    is_strong,
    require_good_pair,
    strong_components,
    verify_good_pair,
)

# decide_good_pair_exact is not called here; it stays importable from this
# module only because perfbench/spans.py patches it here by name.
from .oracle import Decision, decide_good_pair_exact  # noqa: F401


@dataclass(frozen=True)
class NeighborhoodRestriction:
    """The subgraph induced by a root and all its in-/out-neighbours.

    ``kept`` lists the original ids of the restriction's vertices in
    ascending order (position = new id); ``removed`` holds the original ids
    of the vertices non-adjacent to the root.
    """

    restricted: DiGraph
    kept: tuple[int, ...]
    removed: frozenset[int]
    root_in_restricted: int


def closed_neighborhood_restriction(q: DiGraph, r: int) -> NeighborhoodRestriction:
    """Restrict ``q`` to the root plus everything adjacent to it."""
    q.check_vertex(r, "root")
    keep = {r}
    keep.update(q.out_adj[r])
    keep.update(q.in_adj[r])
    kept = tuple(sorted(keep))
    removed = frozenset(range(q.vertex_count)) - keep
    return NeighborhoodRestriction(
        restricted=induced_subgraph(q, kept),
        kept=kept,
        removed=removed,
        root_in_restricted=kept.index(r),
    )


def _relabel_pair(gp: GoodPair, mapping: dict[int, int]) -> GoodPair:
    def relabel(b: Branching) -> Branching:
        return Branching(
            mapping[b.root], b.kind, ((mapping[u], mapping[v]) for u, v in b.arcs)
        )

    return GoodPair(
        mapping[gp.root], relabel(gp.out_branching), relabel(gp.in_branching)
    )


def lift_good_pair(
    q: DiGraph, nr: NeighborhoodRestriction, restricted_pair: GoodPair
) -> GoodPair:
    """Extend a good pair of the restriction to one of the full digraph.

    Every removed vertex u is hung off the existing trees with one arc in
    each direction: an arc x -> u into the out-branching and an arc u -> y
    into the in-branching.  The preferred x is a vertex whose arc enters the
    root in the restricted in-branching, and the preferred y one the root
    feeds in the restricted out-branching; when the preferred vertex lacks
    the needed arc, the smallest kept vertex that has it is used instead.
    Heads of added out-arcs and tails of added in-arcs are removed vertices,
    so the result stays arc-disjoint by construction.
    """
    require_good_pair(nr.restricted, restricted_pair, "restricted pair")
    to_original = dict(enumerate(nr.kept))
    pair = _relabel_pair(restricted_pair, to_original)
    r = pair.root
    root_feeders = sorted(u for u, v in pair.in_branching.arcs if v == r)
    root_fed = sorted(v for u, v in pair.out_branching.arcs if u == r)
    others = [v for v in nr.kept if v != r]
    out_arcs = set(pair.out_branching.arcs)
    in_arcs = set(pair.in_branching.arcs)
    for u in sorted(nr.removed):
        x = _first_with_arc(q, root_feeders, others, tail=None, head=u)
        if x is None:
            raise ValueError(
                f"no kept vertex has an arc to removed vertex {u}; "
                "is the host digraph strong?"
            )
        y = _first_with_arc(q, root_fed, others, tail=u, head=None)
        if y is None:
            raise ValueError(
                f"removed vertex {u} has no arc back to a kept vertex; "
                "is the host digraph strong?"
            )
        out_arcs.add((x, u))
        in_arcs.add((u, y))
    return GoodPair(r, Branching(r, "out", out_arcs), Branching(r, "in", in_arcs))


def _first_with_arc(
    q: DiGraph,
    preferred: list[int],
    fallback: list[int],
    tail: int | None,
    head: int | None,
) -> int | None:
    """First vertex v (preferred first, then fallback) with the arc v->head
    or tail->v present in q."""
    for pool in (preferred, fallback):
        for v in pool:
            if head is not None and q.has_arc(v, head):
                return v
            if tail is not None and q.has_arc(tail, v):
                return v
    return None


@dataclass(frozen=True)
class ShrinkResult:
    """Either the shrunken pair (in restricted ids) or the removed vertex it
    got stuck on, with a message naming the kept vertex under it."""

    pair: GoodPair | None
    stuck_vertex: int | None = None
    message: str | None = None

    @property
    def ok(self) -> bool:
        return self.pair is not None


def shrink_good_pair(
    q: DiGraph, nr: NeighborhoodRestriction, gp: GoodPair
) -> ShrinkResult:
    """Prune a good pair of ``q`` rooted at the restriction's root down to
    the closed-neighbourhood restriction, in one linear pass per tree.

    Both trees are read in toward-root pointer form.  Removed vertices leave
    the trees, every kept vertex that points at a removed vertex w is
    rewired to point straight at the root, and every other pointer stays.
    A rewire needs the arc v->r (in-tree) or r->v (out-tree) of ``q``; when
    it is missing, no rewiring incident to the root can save w's subtree,
    and the result reports w.  Every added arc is incident to the root, so
    disjointness of the two trees survives.
    """
    require_good_pair(q, gp, "input pair")
    r = gp.root
    root = nr.root_in_restricted
    if r != nr.kept[root]:
        raise ValueError(f"pair root {r} is not the restriction's root {nr.kept[root]}")
    to_restricted = {v: i for i, v in enumerate(nr.kept)}
    in_next = {u: v for u, v in gp.in_branching.arcs}
    out_parent = {v: u for u, v in gp.out_branching.arcs}
    trees = []
    for kind, pointers, has_root_arc, side in (
        ("in", in_next, lambda v: q.has_arc(v, r), "to"),
        ("out", out_parent, lambda v: q.has_arc(r, v), "from"),
    ):
        pruned = []  # (vertex, its pointer) in restricted ids
        for v in nr.kept:
            if v == r:
                continue
            w = pointers[v]
            if w in nr.removed:
                if not has_root_arc(v):
                    return ShrinkResult(
                        None,
                        stuck_vertex=w,
                        message=f"{kind}-branching: vertex {v} under removed "
                        f"vertex {w} has no arc {side} the root",
                    )
                w = r
            pruned.append((to_restricted[v], to_restricted[w]))
        trees.append(pruned)
    in_pointers, out_pointers = trees
    pair = GoodPair(
        root,
        Branching(root, "out", ((p, v) for v, p in out_pointers)),
        Branching(root, "in", in_pointers),
    )
    final = verify_good_pair(nr.restricted, pair)
    if not final.ok:
        return ShrinkResult(
            None, message=f"shrunken pair failed verification: {final.first_problem}"
        )
    return ShrinkResult(pair)


def decide_root_adjacent(
    d: DiGraph, r: int, name: Callable[[int], str] = str
) -> Decision:
    """Decide the good pair at ``r`` on a digraph where every vertex is
    adjacent to ``r``, in linear time.

    Split the other vertices into B = N+(r) & N-(r), O = N+(r) - N-(r) and
    I = N-(r) - N+(r).  Some good pair, if any exists, has the out-branching
    take every arc r->v and the in-branching every arc v->r; then the out-
    branching needs only arcs into I, the in-branching only arcs out of O,
    and the two compete for the O->I arcs alone.  Each initial strong
    component of the I-vertices that B cannot reach through arcs into I must
    be entered by an O->I arc of the out-branching; each terminal strong
    component of the O-vertices that cannot reach B through arcs out of O
    must be left by an O->I arc of the in-branching.  These requirements
    each need an arc of their own, and an O->I arc serves at most one of
    each kind, so a good pair exists iff every connected component of the
    requirement graph (requirements as nodes, serving arcs as edges or
    loops) has at least as many arcs as requirements.

    On "absent" the reason names a deficient component, writing vertices
    with ``name``.  A "found" pair is not verified here: `decide_semicomplete`
    verifies it in `lift_good_pair`.
    """
    d.check_vertex(r, "root")
    out_r = set(d.out_adj[r])
    in_r = set(d.in_adj[r])
    for v in range(d.vertex_count):
        if v != r and v not in out_r and v not in in_r:
            raise ValueError(f"vertex {name(v)} is not adjacent to the root")
    both = out_r & in_r
    o_side = out_r - in_r
    i_side = in_r - out_r

    # I-vertices B cannot reach through B->I and I->I arcs, and O-vertices
    # that cannot reach B through O->O and O->B arcs.
    r_i = i_side - _reach(both, d.out_adj, i_side)
    r_o = o_side - _reach(both, d.in_adj, o_side)
    in_reqs = _source_components(d, r_i, reverse=False)
    out_reqs = _source_components(d, r_o, reverse=True)
    requirements = in_reqs + out_reqs
    req_of_head = {v: k for k, comp in enumerate(in_reqs) for v in comp}
    req_of_tail = {
        v: k for k, comp in enumerate(out_reqs, start=len(in_reqs)) for v in comp
    }

    # One union-find pass over the O->I arcs that serve a requirement.
    o_to_i = [(o, i) for o in sorted(o_side) for i in d.out_adj[o] if i in i_side]
    parent = list(range(len(requirements)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # Per union-find root: requirements in the component, and arcs serving them.
    size = [1] * len(requirements)
    arc_count = [0] * len(requirements)
    serving: list[tuple[Arc, int]] = []  # (arc, one requirement it serves)
    tree_edges: list[list[tuple[int, Arc]]] = [[] for _ in requirements]
    spare: list[tuple[Arc, int]] = []  # arcs closing a cycle, loops included
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
            return Decision(
                "absent",
                reason=_deficiency(k, find, requirements, len(in_reqs), serving, name),
            )

    # Each component has a spare arc: give it to one endpoint, and give
    # every other requirement the tree arc toward that endpoint.
    assigned: dict[int, Arc] = {}
    served_components: set[int] = set()
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
    out_arcs += [(u, i) for i in i_side for u in d.in_adj[i] if u in both or u in i_side]
    out_arcs += entering
    in_arcs = [(v, r) for v in in_r]
    in_arcs += [(o, w) for o in o_side for w in d.out_adj[o] if w not in i_side]
    in_arcs += [arc for arc in o_to_i if arc not in entering]
    out_b = find_out_branching(DiGraph(d.vertex_count, out_arcs), r)
    in_b = find_in_branching(DiGraph(d.vertex_count, in_arcs), r)
    if out_b is None or in_b is None:
        raise RuntimeError("requirement assignment left a vertex unspanned")
    return Decision("found", pair=GoodPair(r, out_b, in_b))


def _reach(start: set[int], adj: tuple[tuple[int, ...], ...], allowed: set[int]) -> set[int]:
    """Vertices of ``allowed`` reachable from ``start`` along ``adj`` through
    vertices of ``allowed`` only."""
    seen: set[int] = set()
    stack = list(start)
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w in allowed and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _source_components(
    d: DiGraph, vertices: set[int], reverse: bool
) -> list[frozenset[int]]:
    """Initial strong components of d[vertices], or terminal ones with
    ``reverse``, in original ids."""
    kept = sorted(vertices)
    sub = induced_subgraph(d, kept)
    components, condensation = strong_components(sub.reverse() if reverse else sub)
    sources = [
        frozenset(kept[v] for v in comp)
        for k, comp in enumerate(components)
        if not condensation.in_adj[k]
    ]
    return sorted(sources, key=min)


def _deficiency(
    root: int,
    find: Callable[[int], int],
    requirements: list[frozenset[int]],
    in_count: int,
    serving: list[tuple[Arc, int]],
    name: Callable[[int], str],
) -> str:
    """Name the requirements of one deficient component and its arcs."""

    def group(comp: frozenset[int]) -> str:
        return "{" + ", ".join(name(v) for v in sorted(comp)) + "}"

    members = [k for k in range(len(requirements)) if find(k) == root]
    enter = [group(requirements[k]) for k in members if k < in_count]
    leave = [group(requirements[k]) for k in members if k >= in_count]
    arcs = [f"{name(u)}->{name(v)}" for (u, v), a in serving if find(a) == root]
    parts = [
        f"deficient requirement component: {len(members)} requirements, "
        f"{len(arcs)} serving O->I arcs ({', '.join(arcs) or 'none'})"
    ]
    if enter:
        parts.append("out-branching must enter " + ", ".join(enter))
    if leave:
        parts.append("in-branching must leave " + ", ".join(leave))
    return "; ".join(parts)


def decide_semicomplete(spec: CompositionSpec, root: BlobVertex) -> Decision:
    """Decide the good pair at ``root`` for a strong semicomplete composition.

    Fast path: when every blob has at least two vertices the constructor
    answers directly.  Otherwise the question is settled on the restriction
    to the root's closed neighbourhood by `decide_root_adjacent`, in time
    linear in the restriction, and a pair found there is verified, lifted
    back and verified again on Q.  Either way a returned pair has passed
    `verify_good_pair`.  The answer is always "found" or "absent".
    """
    if spec.blob_count < 2:
        raise ValueError("composition-level decision requires at least 2 blobs")
    if not is_semicomplete(spec.outer):
        raise ValueError("outer digraph is not semicomplete")
    if not is_strong(spec.outer):
        # With t >= 2 the composition is strong exactly when the outer is.
        raise ValueError("composition is not strong")
    spec.check_blob_vertex(root)
    if all(h.vertex_count >= 2 for h in spec.blobs):
        return Decision("found", pair=construct_good_pair(spec, root))
    q = materialize(spec)
    nr = closed_neighborhood_restriction(q, spec.global_id(root))
    inner = decide_root_adjacent(
        nr.restricted,
        nr.root_in_restricted,
        name=lambda v: str(spec.blob_vertex(nr.kept[v])),
    )
    if inner.pair is None:
        return inner
    pair = lift_good_pair(q, nr, inner.pair)
    return Decision("found", pair=require_good_pair(q, pair, "lifted pair"))
