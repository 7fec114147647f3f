"""In-memory spans around calls into goodpairs' modules, for the traced run.

The spans are recorded from the benchmark's side: `patched` swaps the module
attributes through which goodpairs calls its own layers (for example
``goodpairs.construct.ear_decompose``) for wrappers that open a span, and
puts the originals back on exit.  Each span keeps its name, start, end,
parent and the pass it belongs to; with ``memory`` set it also keeps its
tracemalloc peak above the memory in use when it opened.
"""

from __future__ import annotations

import functools
import importlib
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    parent: int
    label: tuple
    start: float = 0.0
    end: float = 0.0
    peak: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.label: tuple = ()
        self.memory = False
        # Open spans as [index, memory at open, highest memory seen inside].
        self._open: list[list[int]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        rec = Span(name, self._open[-1][0] if self._open else -1, self.label)
        self.spans.append(rec)
        entry = [len(self.spans) - 1, 0, 0]
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._open:
                self._open[-1][2] = max(self._open[-1][2], peak)
            tracemalloc.reset_peak()
            entry[1] = entry[2] = current
        self._open.append(entry)
        rec.start = perf_counter()
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            self._open.pop()
            if self.memory:
                highest = max(entry[2], tracemalloc.get_traced_memory()[1])
                rec.peak = highest - entry[1]
                if self._open:
                    self._open[-1][2] = max(self._open[-1][2], highest)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[self.label, name] += value

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def counting(self, name: str, gen_fn: Callable) -> Callable:
        @functools.wraps(gen_fn)
        def counted(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                self.count(name)
                yield item

        return counted

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own


def _count_ears(tracer: Tracer) -> Callable:
    def hook(decomposition) -> None:
        tracer.count("ears.total", len(decomposition.ears))
        tracer.count("ears.single_arc", sum(len(e.vertices) == 2 for e in decomposition.ears))

    return hook


def _hooks(tracer: Tracer) -> list[tuple[str, str, Callable]]:
    """(module, attribute, wrapper factory) for every call site traced."""

    def span(name: str, on_result: Callable | None = None) -> Callable:
        return lambda fn: tracer.wrap(name, fn, on_result)

    construct_span = span("construct.construct_good_pair")
    return [
        ("goodpairs.construct", "validate_for_construction", span("composition.validate")),
        ("goodpairs.construct", "skeleton_good_pair", span("construct.skeleton")),
        ("goodpairs.construct", "cycle_through", span("ears.cycle_through")),
        ("goodpairs.construct", "ear_decompose", span("ears.decompose", _count_ears(tracer))),
        ("goodpairs.construct", "extend_layers", span("construct.extend_layers")),
        ("goodpairs.semicomplete", "construct_good_pair", construct_span),
        ("goodpairs.semicomplete", "is_semicomplete", span("composition.is_semicomplete")),
        (
            "goodpairs.semicomplete",
            "materialize",
            span(
                "composition.materialize",
                lambda q: tracer.count("composition.materialized_arcs", len(q.arcs)),
            ),
        ),
        (
            "goodpairs.semicomplete",
            "closed_neighborhood_restriction",
            span(
                "semicomplete.restriction",
                lambda nr: tracer.count(
                    "semicomplete.restriction_vertices", nr.restricted.vertex_count
                ),
            ),
        ),
        ("goodpairs.semicomplete", "decide_good_pair_exact", span("oracle.decide_exact")),
        ("goodpairs.semicomplete", "lift_good_pair", span("semicomplete.lift")),
        (
            "goodpairs.oracle",
            "enumerate_out_branchings",
            lambda fn: tracer.counting("oracle.branchings", fn),
        ),
        ("goodpairs.io", "parse_composition", span("io.parse_composition")),
        (
            "goodpairs.io",
            "serialize_good_pair",
            span("io.serialize_pair", lambda text: tracer.count("io.pair_bytes", len(text))),
        ),
        ("goodpairs.cli", "construct_good_pair", construct_span),
        ("goodpairs.cli", "decide_semicomplete", span("semicomplete.decide")),
    ]


@contextmanager
def patched(tracer: Tracer) -> Iterator[None]:
    """Route goodpairs' internal calls through the tracer while open."""
    saved = []
    try:
        for module_name, attr, factory in _hooks(tracer):
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, factory(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
