#!/usr/bin/env python3
"""Decide good pairs on semicomplete compositions, including the cases the
constructor cannot touch.

With singleton blobs present the blanket existence result no longer holds;
the decision reduces to the subgraph induced by the root and its neighbours
(everything non-adjacent to the root lives in the root's own blob), where it
is settled in linear time; an absent answer names the deficient requirement
component.
"""

from goodpairs import (
    BlobVertex,
    CompositionSpec,
    DiGraph,
    closed_neighborhood_restriction,
    decide_good_pair_exact,
    decide_semicomplete,
    lift_good_pair,
    materialize,
    shrink_good_pair,
    verify_good_pair,
)

c3 = DiGraph(3, [(0, 1), (1, 2), (2, 0)])

# The tightness witness: all blobs singletons makes Q the 3-cycle itself,
# which has too few arcs for two disjoint spanning trees.
singletons = CompositionSpec(c3, [DiGraph(1)] * 3)
for blob in (1, 2, 3):
    decision = decide_semicomplete(singletons, BlobVertex(blob, 1))
    print(f"C3[K1,K1,K1] at blob {blob}: {decision.status} ({decision.reason})")

# Mixed sizes: blob 1 is a singleton, so the fast path is off, but pairs
# can still exist at some roots.
mixed = CompositionSpec(c3, [DiGraph(1), DiGraph(2), DiGraph(2)])
q = materialize(mixed)
print(f"\nmixed sizes, N={q.vertex_count}:")
for r in range(q.vertex_count):
    decision = decide_semicomplete(mixed, mixed.blob_vertex(r))
    suffix = ""
    if decision.found:
        ok = verify_good_pair(q, decision.pair).ok
        suffix = f" (pair verifies: {ok})"
    print(f"  root {mixed.blob_vertex(r)}: {decision.status}{suffix}")

# The reduction in both constructive directions.  Root 1.1 here has a
# non-adjacent blob mate, so the restriction genuinely drops a vertex.
bior = DiGraph(3, [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])
spec = CompositionSpec(bior, [DiGraph(2), DiGraph(1), DiGraph(1)])
q = materialize(spec)
r = 0
nr = closed_neighborhood_restriction(q, r)
print(f"\nbiorientation outer, root {r}: kept {list(nr.kept)}, "
      f"removed {sorted(nr.removed)}")
inner = decide_good_pair_exact(nr.restricted, nr.root_in_restricted)
print(f"pair on the restriction: {inner.status}")
lifted = lift_good_pair(q, nr, inner.pair)
print(f"lifted pair verifies on Q: {verify_good_pair(q, lifted).ok}")
shrunk = shrink_good_pair(q, nr, lifted)
print(f"shrinking it back succeeds: {shrunk.ok}")
full = decide_semicomplete(spec, BlobVertex(1, 1))
print(f"decide_semicomplete at 1.1: {full.status}")
