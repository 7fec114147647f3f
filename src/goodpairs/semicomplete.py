"""Good-pair decision for semicomplete compositions.

A strong semicomplete composition has a good pair at r exactly when the
subgraph induced by r and its neighbourhood does, so the decision reduces to
the closed-neighbourhood restriction, cut from Q by one vertex mask and
held with ascending int64 arrays of the kept and the removed ids.  The
reduction is constructive both ways: `lift_good_pair` grows a pair of the
restriction into one of the full graph, `shrink_good_pair` prunes a pair of
the full graph down to the restriction.  On the restriction every vertex is
adjacent to r, and `decide_root_adjacent` settles it in linear time by
Hall's condition on a small requirement graph, searching neighbour lists
cut from the restriction's sorted arc arrays by vertex and arc masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain
from typing import Callable, Iterable

import numpy as np

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
    _bfs_tree,
    _component_labels,
    _csr,
    _tarjan,
    bfs_pointers,
    is_strong,
    require_good_pair,
    verify_good_pair,
)

# decide_good_pair_exact is not called here; it stays importable from this
# module only because perfbench/spans.py patches it here by name.
from .oracle import Decision, decide_good_pair_exact  # noqa: F401


@dataclass(frozen=True)
class NeighborhoodRestriction:
    """The subgraph induced by a root and all its in-/out-neighbours.

    ``kept`` and ``removed`` are ascending, read-only int64 arrays that
    partition the original ids: ``kept`` holds the restriction's vertices
    (position = new id), ``removed`` the vertices non-adjacent to the root.
    """

    restricted: DiGraph
    kept: np.ndarray
    removed: np.ndarray
    root_in_restricted: int


def closed_neighborhood_restriction(q: DiGraph, r: int) -> NeighborhoodRestriction:
    """Restrict ``q`` to the root plus everything adjacent to it: one vertex
    mask marked from ``q``'s arc arrays splits the ids and keeps the arcs
    with both ends inside.  The kept ids are renumbered in ascending order,
    so the arcs cut from ``q``'s sorted arrays stay sorted."""
    q.check_vertex(r, "root")
    mask = np.zeros(q.vertex_count, dtype=bool)
    mask[q.heads[q.tails == r]] = True
    mask[q.tails[q.heads == r]] = True
    mask[r] = True
    kept, removed = np.flatnonzero(mask), np.flatnonzero(~mask)
    kept.flags.writeable = removed.flags.writeable = False
    new_id = np.cumsum(mask) - 1
    inside = mask[q.tails] & mask[q.heads]
    tails, heads = new_id[q.tails[inside]], new_id[q.heads[inside]]
    restricted = DiGraph.from_sorted_arrays(len(kept), tails, heads)
    return NeighborhoodRestriction(restricted, kept, removed, int(new_id[r]))


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
    so the result stays arc-disjoint by construction.  The lifted pair is
    verified on ``q`` before it is returned; the input is not verified
    separately.
    """
    # Restricted ids map to original ids in ascending order, and the arc
    # arrays are sorted, so the root's feeders and fed vertices come out sorted.
    kept = nr.kept
    out_b, in_b = restricted_pair.out_branching, restricted_pair.in_branching
    root = restricted_pair.root
    r = int(kept[root])
    root_feeders = kept[in_b.tails[in_b.heads == root]].tolist()
    root_fed = kept[out_b.heads[out_b.tails == root]].tolist()
    others = kept[kept != r].tolist()
    out_parent = np.full(q.vertex_count, -1, dtype=np.int64)
    out_parent[kept[out_b.heads]] = kept[out_b.tails]
    in_next = np.full(q.vertex_count, -1, dtype=np.int64)
    in_next[kept[in_b.tails]] = kept[in_b.heads]
    # One has_arcs query per candidate, over the removed vertices still
    # without their arc; the smallest vertex left without one is reported.
    kinds = (
        (out_parent, root_feeders, "no kept vertex has an arc to removed vertex {}"),
        (in_next, root_fed, "removed vertex {} has no arc back to a kept vertex"),
    )
    stuck = []
    for k, (pointer, preferred, problem) in enumerate(kinds):
        left = nr.removed
        for v in chain(preferred, others):
            if not len(left):
                break
            ends = np.full(len(left), v)
            found = q.has_arcs(ends, left) if k == 0 else q.has_arcs(left, ends)
            pointer[left[found]] = v
            left = left[~found]
        if len(left):
            stuck.append((int(left[0]), k, problem))
    if stuck:
        u, _, problem = min(stuck)
        raise ValueError(problem.format(u) + "; is the host digraph strong?")
    pair = GoodPair(
        r,
        Branching.from_pointers(r, "out", out_parent),
        Branching.from_pointers(r, "in", in_next),
    )
    return require_good_pair(q, pair, "lifted pair")


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
    r, root, kept = gp.root, nr.root_in_restricted, nr.kept
    if r != kept[root]:
        raise ValueError(f"pair root {r} is not the restriction's root {kept[root]}")
    to_restricted = np.full(q.vertex_count, -1, dtype=np.int64)
    to_restricted[kept] = np.arange(len(kept))
    others = kept[kept != r]
    trees = {}
    for kind, b, side in (("in", gp.in_branching, "to"), ("out", gp.out_branching, "from")):
        child, toward_root = (b.tails, b.heads) if kind == "in" else (b.heads, b.tails)
        pointer = np.empty(q.vertex_count, dtype=np.int64)
        pointer[child] = toward_root  # every vertex but r has its entry
        w = pointer[others]
        cut = np.flatnonzero(to_restricted[w] < 0)  # pointers at removed vertices
        v, ends = others[cut], np.full(len(cut), r)
        rewirable = q.has_arcs(v, ends) if kind == "in" else q.has_arcs(ends, v)
        if not rewirable.all():
            k = cut[np.argmin(rewirable)]
            return ShrinkResult(
                None,
                stuck_vertex=int(w[k]),
                message=f"{kind}-branching: vertex {others[k]} under removed "
                f"vertex {w[k]} has no arc {side} the root",
            )
        w[cut] = r
        pruned = np.full(len(kept), -1, dtype=np.int64)
        pruned[to_restricted[others]] = to_restricted[w]
        trees[kind] = Branching.from_pointers(root, kind, pruned)
    pair = GoodPair(root, trees["out"], trees["in"])
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

    The sides are vertex masks and each group of arcs a mask over ``d``'s
    sorted arc arrays.  One CSR of a side's arcs serves its search and its
    Tarjan pass, each tree is searched on the CSR of its host's arcs, and
    no digraph is built, nor ``d``'s own CSR.

    On "absent" the reason names a deficient component, writing vertices
    with ``name``.  A "found" pair is not verified here: `decide_semicomplete`
    verifies it in `lift_good_pair`.
    """
    d.check_vertex(r, "root")
    n, tails, heads = d.vertex_count, d.tails, d.heads
    from_root, to_root = tails == r, heads == r
    fed = np.bincount(heads[from_root], minlength=n) > 0
    feeding = np.bincount(tails[to_root], minlength=n) > 0
    alone = ~(fed | feeding)
    alone[r] = False
    if alone.any():
        raise ValueError(f"vertex {name(int(alone.argmax()))} is not adjacent to the root")
    both, o_side, i_side = fed & feeding, fed & ~feeding, feeding & ~fed

    # Initial components of the I-vertices B cannot reach through B->I and
    # I->I arcs, terminal ones of the O-vertices that cannot reach B through
    # O->O and O->B arcs; the masks hold every arc among either group.
    sources = np.flatnonzero(both).tolist()
    o_tail, i_head = o_side[tails], i_side[heads]
    # B | I is N-(r), the vertices feeding r, and B | O is N+(r), those r feeds.
    into_i, out_of_o = i_head & feeding[tails], o_tail & fed[heads]
    in_reqs = _requirements(d, i_side, into_i, sources, reverse=False)
    requirements = in_reqs + _requirements(d, o_side, out_of_o, sources, reverse=True)
    # O and I are disjoint, so one lookup holds both kinds; -1 for none.
    req = _component_labels(n, requirements)

    # One union-find pass over the O->I arcs that serve a requirement, in
    # array order: by tail, then head.
    o_to_i = o_tail & i_head
    at = np.flatnonzero(o_to_i & ((req[tails] >= 0) | (req[heads] >= 0)))
    a, b = req[tails[at]], req[heads[at]]
    a = np.where(a < 0, b, a)  # one requirement each arc serves
    b = np.where(b < 0, a, b)
    parent = list(range(len(requirements)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # Per union-find root: serving arcs less requirements.  Arcs are positions.
    slack = [-1] * len(requirements)
    tree_edges: list[list[tuple[int, int]]] = [[] for _ in requirements]
    spare: list[tuple[int, int]] = []  # arcs closing a cycle, loops included
    for p, x, y in zip(at.tolist(), a.tolist(), b.tolist()):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry
            slack[ry] += slack[rx] + 1
            tree_edges[x].append((y, p))
            tree_edges[y].append((x, p))
        else:
            slack[rx] += 1
            spare.append((p, x))
    for k in range(len(requirements)):
        if find(k) == k and slack[k] < 0:
            serving = zip(zip(tails[at].tolist(), heads[at].tolist()), a.tolist())
            reason = _deficiency(k, find, requirements, len(in_reqs), serving, name)
            return Decision("absent", reason=reason)

    # Each component has a spare arc: give it to one endpoint, and give
    # every other requirement the tree arc toward that endpoint.
    assigned: dict[int, int] = {}
    for p, x in spare:
        if x in assigned:  # its component is served
            continue
        assigned[x] = p
        stack = [x]
        while stack:
            z = stack.pop()
            for y, tree_p in tree_edges[z]:
                if y not in assigned:
                    assigned[y] = tree_p
                    stack.append(y)
    entering = np.zeros(len(tails), dtype=bool)
    entering[[assigned[k] for k in range(len(in_reqs))]] = True
    out_host = from_root | into_i | entering
    in_host = to_root | (o_tail & ~entering)  # entering arcs are O->I arcs
    out_b = _bfs_tree(_csr(n, tails[out_host], heads[out_host]), r, "out")
    in_b = _bfs_tree(_csr(n, tails[in_host], heads[in_host], reverse=True), r, "in")
    if out_b is None or in_b is None:
        raise RuntimeError("requirement assignment left a vertex unspanned")
    return Decision("found", pair=GoodPair(r, out_b, in_b))


def _requirements(
    d: DiGraph, side: np.ndarray, arcs: np.ndarray, sources: list[int], reverse: bool
) -> list[list[int]]:
    """Initial strong components (terminal ones with ``reverse``), each
    ascending, by min, in the digraph of the arcs of ``d`` under the mask
    ``arcs``, of the vertices of the mask ``side`` that a search from
    ``sources`` along those arcs (backwards with ``reverse``) misses.  One
    CSR serves the search and the Tarjan pass over the missed vertices,
    which flags the components entered (left, in the reversed CSR)."""
    if not side.any():
        return []
    csr = _csr(d.vertex_count, d.tails[arcs], d.heads[arcs], reverse)
    unreached = np.flatnonzero(side & (np.asarray(bfs_pointers(csr, sources)) < 0))
    if not len(unreached):
        return []
    components, entered = _tarjan(csr, unreached.tolist())
    initial = [sorted(c) for c, e in zip(components, entered) if not e]
    return sorted(initial, key=min)


def _deficiency(
    root: int,
    find: Callable[[int], int],
    requirements: list[list[int]],
    in_count: int,
    serving: Iterable[tuple[Arc, int]],
    name: Callable[[int], str],
) -> str:
    """Name the requirements of one deficient component and its arcs."""

    def group(comp: list[int]) -> str:
        return "{" + ", ".join(map(name, comp)) + "}"

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
    linear in the restriction, and a pair found there is lifted back and
    verified on Q, once.  Either way a returned pair has passed
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
    if spec.sizes.min() >= 2:
        return Decision("found", pair=construct_good_pair(spec, root))
    q = materialize(spec)
    nr = closed_neighborhood_restriction(q, spec.global_id(root))

    @cache  # the names, all at once, for an absent answer only
    def names() -> list[str]:
        blobs = np.searchsorted(spec.offsets, nr.kept, side="right")
        layers = nr.kept - spec.offsets[blobs - 1] + 1
        return [f"{b}.{k}" for b, k in zip(blobs.tolist(), layers.tolist())]

    inner = decide_root_adjacent(
        nr.restricted, nr.root_in_restricted, name=lambda v: names()[v]
    )
    if inner.pair is None:
        return inner
    return Decision("found", pair=lift_good_pair(q, nr, inner.pair))
