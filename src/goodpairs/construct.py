"""Good pairs in compositions with a strong outer digraph and all blobs of
size at least two.

The pipeline works entirely on the two-layer skeleton (layers 1 and 2 of
every blob, intra-blob arcs ignored): seed a pair on the blobs of a cycle
through the root blob, hang every other blob off the cycle by a breadth-
first out-forest and in-forest, then hang layers 3.. of each blob off the
arcs already incident to its layer-2 vertex.  The composition is never
materialized; every arc used crosses between blobs whose outer vertices are
adjacent, so existence is implied.  The finished pair is still verified on
the implicit view before it is returned.

Skeleton vertices are ints: ``2 * b + k`` is layer ``k + 1`` of the blob
carried by outer vertex ``b`` (0-based).  A skeleton pair is two int64
arrays over these ids, ``out_parent`` (the tail of each vertex's in-arc in
the out-tree) and ``in_next`` (the head of each vertex's out-arc in the
in-tree), with -1 at the root, which is always layer 1 of the root blob.
`extend_layers` turns them into the same two pointer arrays over all global
ids, with numpy, and the finished `Branching`s hold their arcs as sorted int
arrays from there through verification to the printed pair.
"""

from __future__ import annotations

import numpy as np

from .composition import BlobVertex, CompositionSpec, validate_for_construction
from .digraph import (
    Branching,
    DiGraph,
    GoodPair,
    bfs_pointers,
    cycle_through,
    require_good_pair,
)

# A placeholder that only perfbench/spans.py (--trace 1) looks up here, for
# its ears.decompose span; it goes when the benchmark retires that span.
ear_decompose = None

Skeleton = tuple[np.ndarray, np.ndarray]


def skeleton_good_pair(outer: DiGraph, root_blob: int) -> Skeleton:
    """Skeleton pair ``(out_parent, in_next)``, two int64 arrays covering
    every blob of a strong outer digraph, rooted at layer 1 of ``root_blob``
    (1-based).

    Seed: on the shortest cycle c0 .. c(m-1) through the root blob, the
    out-tree is the single path through all layer-1 vertices in cycle order
    and then all layer-2 vertices:

        (c0,1) (c1,1) ... (cm-1,1) (c0,2) (c1,2) ... (cm-1,2)

    and the in-tree is two chains that alternate layers while following the
    cycle, entering the root on the wrap-around arc:

        (ci,2) -> (ci+1,1)   for 0 <= i <= m-2
        (ci,1) -> (ci+1,2)   for 1 <= i <= m-2
        (cm-1,1) -> (c0,1)  and  (cm-1,2) -> (c0,1)

    The chains occupy complementary layers at every blob, so this is an
    in-branching for every m >= 2, and no arc appears in both trees.

    Forests: two breadth-first searches (`bfs_pointers`, over the outer's
    CSR when it is large) start at the cycle's blobs in cycle order, one
    over out-arcs and one over in-arcs.  For a blob b off the cycle, let
    p(b) be the blob from which the first search reaches b and s(b) the
    blob from which the second does, so p(b) -> b and b -> s(b) are outer
    arcs.  The out-tree gains

        (p(b), k) -> (b, k)                           k in {1, 2}

    and the in-tree gains

        (b, 1) -> (s(b), 2)  and  (b, 2) -> (s(b), 1).

    Each search tree leads every blob back to the cycle, so both trees stay
    spanning trees at the root.  No arc is shared: a forest out-arc has its
    head off the cycle and keeps its layer; a forest in-arc has its tail off
    the cycle and swaps the layer; every seed arc has both ends on the
    cycle.  So no forest arc equals a seed arc or a forest arc of the other
    tree, and the seed is disjoint by itself.  A blob that either search
    misses shows that the outer is not strong, and raises ValueError.
    """
    t = outer.vertex_count
    if not (1 <= root_blob <= t):
        raise ValueError(f"root blob {root_blob} out of range 1..{t}")
    if t < 2:
        raise ValueError("outer digraph must have at least 2 vertices")
    cycle = cycle_through(outer, root_blob - 1)[:-1]
    p = np.asarray(bfs_pointers(outer, cycle), dtype=np.int64)
    s = np.asarray(bfs_pointers(outer, cycle, reverse=True), dtype=np.int64)
    if p.min() < 0 or s.min() < 0:
        raise ValueError("outer digraph is not strong")

    # The forests at every blob; on the cycle (p(b) = s(b) = b) the seed
    # then takes each slot's place.
    out_parent = np.repeat(2 * p, 2)
    out_parent[1::2] += 1
    in_next = np.repeat(2 * s, 2)
    in_next[::2] += 1
    c = 2 * np.array(cycle, dtype=np.int64)
    path = np.concatenate([c, c + 1])
    out_parent[path[1:]] = path[:-1]
    in_next[c[:-1] + 1] = c[1:]
    in_next[c[1:-1]] = c[2:] + 1
    in_next[c[-1]] = in_next[c[-1] + 1] = c[0]
    out_parent[c[0]] = in_next[c[0]] = -1
    return out_parent, in_next


def extend_layers(
    skeleton: Skeleton, spec: CompositionSpec, root: BlobVertex
) -> GoodPair:
    """Grow a full-blob good pair at ``root`` from a skeleton pair rooted at
    layer 1 of ``root``'s blob.

    Skeleton vertex ``2 * b + k`` becomes global vertex ``offset + k`` of
    its blob, except in the root's blob: there skeleton layer 1 goes to
    ``root``, and ``root``'s own layer takes layer 1's place.  Each extra
    layer j >= 3 of a blob copies the attachment of the blob's skeleton
    layer 2: it receives an out-tree arc from that vertex's out-tree parent
    and sends an in-tree arc to its in-tree successor.  Added arcs touch the
    extra layers only on one side, so disjointness with the skeleton is
    automatic.

    Both trees are built as int64 pointer arrays over the global ids (out-
    tree parent, in-tree successor, -1 at the root), a few whole-array numpy
    operations with no per-vertex Python work, and become branchings through
    `Branching.from_pointers`.
    """
    out_parent, in_next = (np.asarray(s, dtype=np.int64) for s in skeleton)
    t = spec.blob_count
    if len(out_parent) != 2 * t or len(in_next) != 2 * t:
        raise ValueError("skeleton pair does not cover every blob")
    spec.check_blob_vertex(root)
    rb = root.blob - 1
    if out_parent[2 * rb] != -1:
        raise ValueError(f"skeleton pair is not rooted at blob {root.blob}")
    offs = np.asarray(spec.offsets, dtype=np.int64)
    small = np.flatnonzero(np.diff(offs) < 2)
    if len(small):
        raise ValueError(f"blob {small[0] + 1} has fewer than 2 vertices")

    gid = np.repeat(offs[:-1], 2)
    gid[1::2] += 1
    first = int(offs[rb])
    r = first + root.layer - 1
    gid[2 * rb] = r
    if root.layer == 2:
        gid[2 * rb + 1] = first
    # Every vertex off the skeleton is an extra layer of its blob; it takes
    # the pointers of its blob's skeleton layer 2.  Then the skeleton's own.
    out_tree = gid[out_parent[1::2]][spec.blob_of]
    in_tree = gid[in_next[1::2]][spec.blob_of]
    out_tree[gid] = np.where(out_parent >= 0, gid[out_parent], -1)
    in_tree[gid] = np.where(in_next >= 0, gid[in_next], -1)
    return GoodPair(
        r,
        Branching.from_pointers(r, "out", out_tree),
        Branching.from_pointers(r, "in", in_tree),
    )


def construct_good_pair(spec: CompositionSpec, root: BlobVertex) -> GoodPair:
    """Good pair at ``root`` for a composition with strong outer and all
    blobs of size >= 2.

    Runs on the implicit arc interface only, in time linear in the
    composition order plus a few breadth-first searches of the outer
    digraph, and never materializes the composition.  The pair is checked
    by `verify_good_pair` on ``spec.implicit_view()`` before it is returned;
    a pair that fails raises ValueError naming the first problem.
    """
    try:
        spec.check_blob_vertex(root)
        pair = extend_layers(skeleton_good_pair(spec.outer, root.blob), spec, root)
    except ValueError:
        # The skeleton raises on an outer that is not strong, so the
        # preconditions are only gathered, all of them named, on failure.
        report = validate_for_construction(spec)
        if not report.ok:
            raise ValueError("; ".join(report.problems)) from None
        raise
    return require_good_pair(spec.implicit_view(), pair, "constructed pair")
