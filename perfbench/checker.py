"""Independent checker for good pairs in compositions Q = T[H1, ..., Ht].

Nothing here imports goodpairs.  Arc membership comes straight from the
composition's definition: (u, v) is an arc of Q when u and v lie in the same
blob and the blob digraph has that arc, or when they lie in blobs i != p and
the outer digraph has the arc (i, p).  Vertices are numbered blob by blob,
blob i occupying the contiguous range offsets[i] .. offsets[i+1] - 1.

Pairs are checked with numpy over arc arrays, so a pair on 10^5 vertices
costs a few tens of milliseconds.  Absence is confirmed by an exhaustive
search over in-branchings that shares no code with the program's oracle.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

import numpy as np


class Composition:
    """A composition given by its outer arcs, blob sizes and blob arcs."""

    def __init__(
        self,
        outer_n: int,
        outer_arcs: Iterable[Sequence[int]],
        blob_sizes: Sequence[int],
        blob_arcs: Sequence[Iterable[Sequence[int]]],
    ) -> None:
        if len(blob_sizes) != outer_n or len(blob_arcs) != outer_n:
            raise ValueError("need one blob size and one arc list per outer vertex")
        sizes = np.asarray(blob_sizes, dtype=np.int64)
        self.t = outer_n
        self.offsets = np.concatenate(([0], np.cumsum(sizes)))
        self.n = int(self.offsets[-1])
        self.blob_of = np.repeat(np.arange(outer_n, dtype=np.int64), sizes)
        outer = _arc_array(outer_arcs)
        self.outer_keys = np.unique(outer[:, 0] * outer_n + outer[:, 1])
        internal = [
            _arc_array(arcs) + self.offsets[i] for i, arcs in enumerate(blob_arcs)
        ]
        inner = np.concatenate(internal) if internal else np.zeros((0, 2), np.int64)
        self.blob_keys = np.unique(inner[:, 0] * self.n + inner[:, 1])

    @classmethod
    def from_json(cls, text: str) -> Composition:
        """Read the composition document {"T": digraph, "H": [digraph, ...]}."""
        doc = json.loads(text)
        outer, blobs = doc["T"], doc["H"]
        return cls(
            outer["n"],
            outer["arcs"],
            [h["n"] for h in blobs],
            [h["arcs"] for h in blobs],
        )

    def vertex(self, blob: int, layer: int) -> int:
        """Vertex id of the 1-based (blob, layer) address."""
        return int(self.offsets[blob - 1]) + layer - 1

    def has_arcs(self, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
        """Boolean mask: is each (tails[k], heads[k]) an arc of Q?"""
        bt, bh = self.blob_of[tails], self.blob_of[heads]
        same = bt == bh
        ok = np.empty(len(tails), dtype=bool)
        ok[~same] = _member(bt[~same] * self.t + bh[~same], self.outer_keys)
        ok[same] = (tails[same] != heads[same]) & _member(
            tails[same] * self.n + heads[same], self.blob_keys
        )
        return ok


def _arc_array(arcs: Iterable[Sequence[int]]) -> np.ndarray:
    return np.array(list(arcs), dtype=np.int64).reshape(-1, 2)


def _member(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    if len(sorted_keys) == 0:
        return np.zeros(len(keys), dtype=bool)
    pos = np.searchsorted(sorted_keys, keys)
    pos[pos == len(sorted_keys)] = 0
    return sorted_keys[pos] == keys


def check_pair(
    q: Composition,
    expected_root: int,
    root: int,
    out_arcs: Iterable[Sequence[int]],
    in_arcs: Iterable[Sequence[int]],
) -> list[str]:
    """Problems with a claimed good pair of ``q``; empty when it is one.

    Checks the requested root, then for each tree: n - 1 arcs, every arc an
    arc of Q, the degree conditions, and that every vertex reaches the root
    (in-tree) or is reached from it (out-tree); last, arc-disjointness.
    """
    if root != expected_root:
        return [f"wrong root: {root}, requested {expected_root}"]
    out_a, in_a = _arc_array(out_arcs), _arc_array(in_arcs)
    problems = _check_tree(q, root, out_a, "out") + _check_tree(q, root, in_a, "in")
    if problems:
        return problems
    shared = np.intersect1d(out_a[:, 0] * q.n + out_a[:, 1], in_a[:, 0] * q.n + in_a[:, 1])
    if len(shared):
        k = int(shared[0])
        return [f"trees share arc ({k // q.n},{k % q.n})"]
    return []


def _check_tree(q: Composition, root: int, arcs: np.ndarray, kind: str) -> list[str]:
    n = q.n
    tree = f"{kind}-tree"
    if not 0 <= root < n:
        return [f"{tree}: root {root} out of range"]
    if len(arcs) != n - 1:
        return [f"{tree}: {len(arcs)} arcs for {n} vertices"]
    if len(arcs) == 0:
        return []
    if arcs.min() < 0 or arcs.max() >= n:
        return [f"{tree}: vertex id out of range"]
    tails, heads = arcs[:, 0], arcs[:, 1]
    bad = np.flatnonzero(~q.has_arcs(tails, heads))
    if len(bad):
        k = int(bad[0])
        return [f"{tree}: ({tails[k]},{heads[k]}) is not an arc of Q"]
    # An out-tree gives every vertex but the root exactly one parent (the
    # tail of its in-arc); an in-tree gives it exactly one successor.
    child, toward_root = (heads, tails) if kind == "out" else (tails, heads)
    side = "in" if kind == "out" else "out"
    degree = np.bincount(child, minlength=n)
    if degree[root]:
        return [f"{tree}: root {root} has {side}-degree {degree[root]}"]
    degree[root] = 1
    wrong = np.flatnonzero(degree != 1)
    if len(wrong):
        v = int(wrong[0])
        return [f"{tree}: vertex {v} has {side}-degree {degree[v]}, expected 1"]
    # Degrees are right, so the pointers form a functional graph; a vertex
    # fails to reach the root exactly when it lies on or above a cycle.
    # Pointer doubling: after k rounds, anc[v] is the 2^k-th pointer of v.
    anc = np.empty(n, dtype=np.int64)
    anc[child] = toward_root
    anc[root] = root
    for _ in range(max(1, int(n).bit_length())):
        anc = anc[anc]
    stuck = np.flatnonzero(anc != root)
    if len(stuck):
        return [f"{tree}: vertex {int(stuck[0])} lies on or above a cycle, cut off from the root"]
    return []


def check_pair_document(q: Composition, expected_root: int, text: str) -> list[str]:
    """Check a good pair document {"root", "out_arcs", "in_arcs"}."""
    try:
        doc = json.loads(text)
        root, out_arcs, in_arcs = doc["root"], doc["out_arcs"], doc["in_arcs"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable pair document: {exc!r}"]
    return check_pair(q, expected_root, root, out_arcs, in_arcs)


def good_pair_exists(q: Composition, root: int) -> bool:
    """Exhaustive decision: does Q have a good pair at ``root``?

    Enumerates in-branchings, each vertex but the root choosing its one
    out-arc, in vertex order.  A partial choice is abandoned as soon as it
    closes a cycle, or the root no longer reaches every vertex over the arcs
    not yet taken by the in-tree (the out-tree needs those), or some vertex
    can no longer reach the root.  Meant for compositions of a few dozen
    vertices; the whole of Q is searched, with no reduction assumed.
    """
    n = q.n
    ids = np.arange(n)
    out_adj = []
    for u in range(n):
        mask = q.has_arcs(np.full(n, u), ids)
        out_adj.append([int(v) for v in ids[mask]])
    order = [v for v in range(n) if v != root]
    succ = [-1] * n

    def out_tree_possible() -> bool:
        seen = [False] * n
        seen[root] = True
        stack = [root]
        while stack:
            u = stack.pop()
            for w in out_adj[u]:
                if not seen[w] and succ[u] != w:
                    seen[w] = True
                    stack.append(w)
        return all(seen)

    def in_tree_possible() -> bool:
        # Vertices with a chosen successor follow it; the rest may use any arc.
        reaches = [False] * n
        reaches[root] = True
        changed = True
        while changed:
            changed = False
            for u in order:
                if reaches[u]:
                    continue
                nxt = [succ[u]] if succ[u] != -1 else out_adj[u]
                if any(reaches[w] for w in nxt):
                    reaches[u] = changed = True
        return all(reaches)

    def closes_cycle(v: int, w: int) -> bool:
        while w != -1 and w != root:
            if w == v:
                return True
            w = succ[w]
        return False

    def search(k: int) -> bool:
        if k == len(order):
            return True
        v = order[k]
        for w in out_adj[v]:
            if closes_cycle(v, w):
                continue
            succ[v] = w
            if out_tree_possible() and in_tree_possible() and search(k + 1):
                return True
        succ[v] = -1
        return False

    if not in_tree_possible() or not out_tree_possible():
        return False
    return search(0)
