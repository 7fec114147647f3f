"""The traced benchmark run (``perfbench/run.py --trace 1``) swaps module
attributes of goodpairs for timing wrappers, looked up by name, and the
benchmark reads a few attributes of what goodpairs returns.  A renamed or
deleted hook point or attribute would otherwise show up only as an error in
a benchmark run; here it fails the suite."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from goodpairs import (
    BlobVertex,
    CompositionSpec,
    DiGraph,
    closed_neighborhood_restriction,
    construct_good_pair,
    materialize,
)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves_and_is_restored(monkeypatch):
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    hooks = [(importlib.import_module(m), attr) for m, attr, _ in spans._hooks(tracer)]
    for module, attr in hooks:
        assert hasattr(module, attr), f"{module.__name__}.{attr} is gone"
    originals = [getattr(module, attr) for module, attr in hooks]
    with spans.patched(tracer):
        for (module, attr), original in zip(hooks, originals):
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    for (module, attr), original in zip(hooks, originals):
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


def test_what_the_benchmark_reads_resolves():
    # perfbench/workloads.py builds specs blob by blob and reads spec.blobs;
    # run.py checks pair.*_branching.arcs and verifies on spec.implicit_view();
    # spans.py counts len(materialize(spec).arcs) and nr.restricted.vertex_count.
    c3 = DiGraph(3, [(0, 1), (1, 2), (2, 0)])
    spec = CompositionSpec(c3, [DiGraph(2), DiGraph(1), DiGraph(2)])
    assert all(isinstance(h, DiGraph) for h in spec.blobs)
    assert [h.vertex_count for h in spec.blobs] == [2, 1, 2]
    view = spec.implicit_view()
    assert view.vertex_count == 5
    assert view.has_arcs(np.array([0, 2]), np.array([2, 0])).tolist() == [True, False]
    assert isinstance(len(materialize(spec).arcs), int)
    nr = closed_neighborhood_restriction(materialize(spec), 0)
    assert isinstance(nr.restricted.vertex_count, int)
    pair = construct_good_pair(CompositionSpec(c3, [DiGraph(2)] * 3), BlobVertex(1, 1))
    for tree in (pair.out_branching, pair.in_branching):
        assert isinstance(tree.arcs, frozenset)
        assert all(isinstance(u, int) and isinstance(v, int) for u, v in tree.arcs)
