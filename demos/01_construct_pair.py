#!/usr/bin/env python3
"""Build a good pair on a composition and inspect every stage.

A composition replaces each vertex of an outer digraph T by a blob of
vertices; every arc of T fans out to all arcs between the two blobs.  When
T is strong and every blob has at least two vertices, a pair of arc-disjoint
out- and in-branchings exists at every vertex, and this script walks through
the construction that finds one.
"""

from goodpairs import (
    BlobVertex,
    CompositionSpec,
    DiGraph,
    construct_good_pair,
    cycle_through,
    decide_good_pair_exact,
    materialize,
    skeleton_good_pair,
    verify_good_pair,
)
from goodpairs.io import export_dot

# The outer digraph: a 4-cycle with one chord, strong but not semicomplete.
outer = DiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])

# Blobs of mixed sizes, one with internal arcs (they are never used by the
# construction, but they are legal).
blobs = [DiGraph(2), DiGraph(3, [(0, 1), (1, 2)]), DiGraph(2), DiGraph(2)]
spec = CompositionSpec(outer, blobs)
print(f"composition: t={spec.blob_count}, N={spec.total_vertices}, "
      f"{spec.arc_count()} arcs when materialized")

# Stage 1: a cycle through the root's blob seeds the construction.
root = BlobVertex(2, 3)  # layer 3 of blob 2: an "extra" layer, why not
start = cycle_through(outer, root.blob - 1)  # over 0-based outer vertices
print(f"starting cycle through blob {root.blob}: "
      f"{tuple(b + 1 for b in start.vertices)}")

# Stage 2: the skeleton pair spans layers 1-2 of every blob.
# Skeleton vertex 2*b + k is layer k+1 of outer vertex b; each tree is one
# int array (out-tree parent, in-tree successor), with -1 at the root.
out_parent, in_next = skeleton_good_pair(outer, root.blob)
print(f"skeleton: {sum(p >= 0 for p in out_parent)} out-arcs, "
      f"{sum(n >= 0 for n in in_next)} in-arcs, "
      f"over {len(out_parent)} skeleton vertices")

# Every blob off the cycle hangs off it by two breadth-first forests: the
# out-tree enters its layers from its forest parent, layer for layer, and
# the in-tree leaves them for its forest successor, swapping layers.
on_cycle = set(start.vertices)
for b in range(outer.vertex_count):
    if b not in on_cycle:
        parent, successor = out_parent[2 * b] // 2, in_next[2 * b] // 2
        print(f"  blob {b + 1}: forest parent blob {parent + 1}, "
              f"successor blob {successor + 1}")

# The full pipeline: extra layers, with the root in layer 1's place.
pair = construct_good_pair(spec, root)
print(f"good pair at global vertex {pair.root} "
      f"({root.blob}.{root.layer}): "
      f"{len(pair.out_branching.arcs)} + {len(pair.in_branching.arcs)} arcs")

report = verify_good_pair(spec.implicit_view(), pair)
print(f"verifies: {report.ok}")

# Cross-check against the exact oracle on the materialized composition.
q = materialize(spec)
oracle = decide_good_pair_exact(q, pair.root)
print(f"oracle agrees a pair exists: {oracle.found}")

print("\nDOT rendering (out-branching blue, in-branching red):\n")
print(export_dot(pair=pair, host=q))
