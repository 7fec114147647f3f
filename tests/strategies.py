"""Hypothesis strategies for small digraphs."""

from __future__ import annotations

from hypothesis import strategies as st

from goodpairs import DiGraph


@st.composite
def digraphs(draw, min_n: int = 0, max_n: int = 7) -> DiGraph:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return DiGraph(n, arcs)


@st.composite
def root_adjacent(draw, max_n: int = 8) -> DiGraph:
    """A digraph on 1..max_n vertices in which every vertex is adjacent to
    vertex 0: each other vertex gets the arc from 0, to 0 or both, and any
    set of arcs among the others."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    arcs = set()
    for v in range(1, n):
        kind = draw(st.integers(0, 2))  # 0: 0 -> v, 1: v -> 0, 2: both
        if kind != 1:
            arcs.add((0, v))
        if kind != 0:
            arcs.add((v, 0))
    pairs = [(u, v) for u in range(1, n) for v in range(1, n) if u != v]
    if pairs:
        arcs |= draw(st.sets(st.sampled_from(pairs)))
    return DiGraph(n, arcs)
