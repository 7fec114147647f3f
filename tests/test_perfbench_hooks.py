"""The traced benchmark run (``perfbench/run.py --trace 1``) swaps module
attributes of goodpairs for timing wrappers, looked up by name.  A renamed
or deleted hook point would otherwise show up only as an AttributeError in
a traced run; here it fails the suite."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

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
