#!/usr/bin/env python3
"""The exact oracle as ground truth: enumeration, decision, and what it
costs.

The good-pair decision is NP-complete in general, so the oracle is an
exhaustive search with pruning, honest about its limits: above its vertex
cap it returns "undecided" rather than an unreliable answer.
"""

import time

from goodpairs import (
    DiGraph,
    decide_good_pair_exact,
    enumerate_out_branchings,
    gen_semicomplete,
    gen_strong_digraph,
    verify_good_pair,
)

# Every spanning out-branching of a small digraph, in deterministic order.
d = DiGraph(4, [(0, 1), (1, 0), (0, 2), (2, 3), (3, 1), (1, 2), (3, 0)])
print("out-branchings of a 7-arc digraph at root 0:")
for b in enumerate_out_branchings(d, 0):
    print(f"  {list(b.arcs_in_order())}")

# Decision with a witness.
decision = decide_good_pair_exact(d, 0)
print(f"\ngood pair at 0: {decision.status}")
if decision.found:
    print(f"  out: {list(decision.pair.out_branching.arcs_in_order())}")
    print(f"  in:  {list(decision.pair.in_branching.arcs_in_order())}")
    print(f"  verifies: {verify_good_pair(d, decision.pair).ok}")

# Random semicomplete digraphs: dense graphs answer almost instantly
# because the first few candidates already leave room for the in-branching.
print("\nseeded semicomplete digraphs, 10 vertices:")
for seed in range(3):
    t = gen_semicomplete(10, 0.3, seed=seed)
    started = time.perf_counter()
    decision = decide_good_pair_exact(t, 0)
    elapsed = time.perf_counter() - started
    print(f"  seed {seed}: {decision.status} in {elapsed * 1000:.1f} ms")

# Sparse strong digraphs can certify absence by exhaustion.
sparse = gen_strong_digraph(8, 1, seed=5)
decision = decide_good_pair_exact(sparse, 0)
print(f"\ncycle plus one chord on 8 vertices: {decision.status}")

# And beyond the cap the oracle declines.
big = gen_strong_digraph(20, 10, seed=0)
decision = decide_good_pair_exact(big, 0)
print(f"20 vertices: {decision.status} ({decision.reason})")
