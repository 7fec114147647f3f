"""Good pairs in compositions with a strong outer digraph and all blobs of
size at least two.

The pipeline works entirely on the two-layer skeleton (layers 1 and 2 of
every blob, intra-blob arcs ignored): seed a pair on the blobs of a cycle
through the root blob, absorb the remaining outer structure ear by ear, then
hang layers 3.. of each blob off the arcs already incident to its layer-2
vertex.  The composition is never materialized; every arc used crosses
between blobs whose outer vertices are adjacent, so existence is implied.
The finished pair is still verified on the implicit view before it is
returned.

Skeleton vertices are ints: ``2 * b + k`` is layer ``k + 1`` of the blob
carried by outer vertex ``b`` (0-based).  A skeleton pair is two lists over
these ids, ``out_parent`` (the tail of each vertex's in-arc in the out-tree)
and ``in_next`` (the head of each vertex's out-arc in the in-tree), with -1
at the root, which is always layer 1 of the root blob.
"""

from __future__ import annotations

from .composition import BlobVertex, CompositionSpec, validate_for_construction
from .digraph import Branching, DiGraph, GoodPair, require_good_pair
from .ears import cycle_through, ear_walks

# ear_decompose is not called here; it stays importable from this module
# only because perfbench/spans.py looks it up here by name (--trace 1).
from .ears import ear_decompose  # noqa: F401

Skeleton = tuple[list[int], list[int]]


def skeleton_good_pair(outer: DiGraph, root_blob: int) -> Skeleton:
    """Skeleton pair ``(out_parent, in_next)`` covering every blob of a
    strong outer digraph, rooted at layer 1 of ``root_blob`` (1-based).

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

    Ears: for each walk w0 .. wL of `ear_walks`, the greedy ears that cover
    the remaining blobs (w0, wL covered; w1 .. w(L-1) new), the out-tree
    gains the two layer-preserving paths

        (wk, j) -> (wk+1, j)      k = 0 .. L-2,  j in {1, 2}

    and the in-tree gains the two layer-alternating paths

        (wk, 1) -> (wk+1, 2)      k = 1 .. L-1
        (wk, 2) -> (wk+1, 1)      k = 1 .. L-1.

    Out-arcs start at the covered end, so every new vertex gets in-degree
    one and stays reachable; in-arcs start at the first new blob, so every
    new vertex gets out-degree one and drains into the covered end.  Covered
    vertices gain no in-arc in the out-tree and no out-arc in the in-tree,
    which keeps both trees intact.  A cycle ear is the same rule with
    wL = w0.
    """
    t = outer.vertex_count
    if not (1 <= root_blob <= t):
        raise ValueError(f"root blob {root_blob} out of range 1..{t}")
    if t < 2:
        raise ValueError("outer digraph must have at least 2 vertices")
    start = cycle_through(outer, root_blob - 1)

    out_parent = [-1] * (2 * t)
    in_next = [-1] * (2 * t)
    cycle = start.vertices[:-1]
    path = [2 * c for c in cycle] + [2 * c + 1 for c in cycle]
    for prev, cur in zip(path, path[1:]):
        out_parent[cur] = prev
    for a, b in zip(cycle, cycle[1:]):
        in_next[2 * a + 1] = 2 * b
    for a, b in zip(cycle[1:], cycle[2:]):
        in_next[2 * a] = 2 * b + 1
    last = cycle[-1]
    in_next[2 * last] = in_next[2 * last + 1] = 2 * cycle[0]

    for walk in ear_walks(outer, start):
        inner = walk[1:-1]
        for a, b in zip(walk, inner):
            out_parent[2 * b] = 2 * a
            out_parent[2 * b + 1] = 2 * a + 1
        for a, b in zip(inner, walk[2:]):
            in_next[2 * a] = 2 * b + 1
            in_next[2 * a + 1] = 2 * b
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
    """
    out_parent, in_next = skeleton
    t = spec.blob_count
    if len(out_parent) != 2 * t or len(in_next) != 2 * t:
        raise ValueError("skeleton pair does not cover every blob")
    spec.check_blob_vertex(root)
    rb = root.blob - 1
    if out_parent[2 * rb] != -1:
        raise ValueError(f"skeleton pair is not rooted at blob {root.blob}")
    sizes = [h.vertex_count for h in spec.blobs]
    for i, size in enumerate(sizes, start=1):
        if size < 2:
            raise ValueError(f"blob {i} has fewer than 2 vertices")

    offs = spec.offsets
    gid = [offs[s >> 1] + (s & 1) for s in range(2 * t)]
    first = offs[rb]
    r = first + root.layer - 1
    gid[2 * rb] = r
    if root.layer == 2:
        gid[2 * rb + 1] = first
    out_arcs = [(gid[p], gid[s]) for s, p in enumerate(out_parent) if p >= 0]
    in_arcs = [(gid[s], gid[n]) for s, n in enumerate(in_next) if n >= 0]
    for b, size in enumerate(sizes):
        if size == 2:
            continue
        feeder = gid[out_parent[2 * b + 1]]
        drain = gid[in_next[2 * b + 1]]
        extras = range(offs[b] + 2, offs[b] + size)
        if b == rb and root.layer >= 3:
            extras = [first if v == r else v for v in extras]
        out_arcs.extend((feeder, v) for v in extras)
        in_arcs.extend((v, drain) for v in extras)
    return GoodPair(
        r,
        Branching(r, "out", frozenset(out_arcs)),
        Branching(r, "in", frozenset(in_arcs)),
    )


def construct_good_pair(spec: CompositionSpec, root: BlobVertex) -> GoodPair:
    """Good pair at ``root`` for a composition with strong outer and all
    blobs of size >= 2.

    Runs on the implicit arc interface only, in time roughly linear in the
    composition order plus the ear walk of the outer digraph, and never
    materializes the composition.  The pair is checked by `verify_good_pair`
    on ``spec.implicit_view()`` before it is returned; a pair that fails
    raises ValueError naming the first problem.
    """
    report = validate_for_construction(spec)
    if not report.ok:
        raise ValueError("; ".join(report.problems))
    spec.check_blob_vertex(root)
    pair = extend_layers(skeleton_good_pair(spec.outer, root.blob), spec, root)
    return require_good_pair(spec.implicit_view(), pair, "constructed pair")
