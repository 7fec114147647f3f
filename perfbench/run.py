#!/usr/bin/env python3
"""Benchmark of goodpairs: solve, verify, decide-sc and the CLI.

    python3 perfbench/run.py --workload solve-sparse --seed 1 --seconds 20 --trace 0

Run it from the root of a goodpairs source tree: the package is imported from
./src, and nothing is installed.  A run generates the workload's inputs from
--seed, answers them in timed rounds for --seconds seconds (two rounds at
least), checks every answer with the benchmark's own checker, and prints as
its last line one JSON object with the keys correct, attempted, failed and
metrics.  --trace 0 gives the end-to-end metrics; --trace 1 runs the same
workload with spans around the calls into each module and gives the
per-layer metrics.  Each run also writes a record to perfbench/_out/.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import statistics
import sys
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_out"
SETUP_REPEATS = 3
MIN_ROUNDS = 2
MB = 1e6


def probe() -> float:
    """Time a fixed pure-Python loop, so machine drift can be told apart from
    a change in the program.  Written to the run record, not a metric."""
    started = perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return perf_counter() - started


@dataclass
class Task:
    """One (instance, root) question, with what the checker needs."""

    instance: object
    comp: object  # checker.Composition, built from the written JSON file
    root: object  # goodpairs.BlobVertex
    expected: int  # the root's vertex id, computed by the checker
    argv: list
    library_status: str | None = None
    exists: bool | None = None  # exhaustive ground truth, filled on demand


class Judge:
    """Counts answers and checks each one with the independent checker."""

    def __init__(self, checker, pair_type) -> None:
        self.checker = checker
        self.pair_type = pair_type
        self.attempted = 0
        self.failed = 0
        self.rejections: list[str] = []
        self.errors: list[str] = []

    def _fail(self, task: Task, message: str) -> None:
        self.failed += 1
        self.errors.append(f"{task.instance.name} at {task.root}: {message}")

    def _reject(self, task: Task, message: str) -> None:
        self.failed += 1
        self.rejections.append(f"{task.instance.name} at {task.root}: {message}")

    def _absence_confirmed(self, task: Task) -> bool:
        if task.instance.must_exist:
            return False
        if task.exists is None:
            task.exists = self.checker.good_pair_exists(task.comp, task.expected)
        return not task.exists

    def library(self, task: Task, result):
        """Check a library answer; return its pair when it is a checked one."""
        self.attempted += 1
        if isinstance(result, Exception):
            return self._fail(task, f"raised {result!r}")
        if isinstance(result, self.pair_type):
            status, pair = "found", result
        else:
            status, pair = result.status, result.pair
        if status == "found":
            problems = self.checker.check_pair(
                task.comp,
                task.expected,
                pair.root,
                pair.out_branching.arcs,
                pair.in_branching.arcs,
            )
            if problems:
                return self._reject(task, "; ".join(problems))
        elif status == "absent":
            if not self._absence_confirmed(task):
                return self._reject(task, "answered absent, but a good pair exists")
        else:
            return self._fail(task, f"{status}: {result.reason}")
        task.library_status = status
        return pair

    def verified(self, task: Task, report) -> None:
        self.attempted += 1
        if not report.ok:
            self._reject(task, f"verify_good_pair rejects a checked pair: {report.problems}")

    def cli(self, task: Task, code, out: str, err: str) -> None:
        self.attempted += 1
        if code == 0:
            problems = self.checker.check_pair_document(task.comp, task.expected, out)
            if problems:
                self._reject(task, "CLI: " + "; ".join(problems))
            elif task.library_status not in (None, "found"):
                self._reject(task, f"CLI found a pair, library said {task.library_status}")
        elif code == 1:
            if out.strip() != '{"status": "absent"}':
                self._reject(task, f"CLI exit 1 with output {out[:80]!r}")
            elif not self._absence_confirmed(task):
                self._reject(task, "CLI answered absent, but a good pair exists")
            elif task.library_status not in (None, "absent"):
                self._reject(task, f"CLI said absent, library said {task.library_status}")
        else:
            self._fail(task, f"CLI exit {code}: {err.strip()[:200]}")


def no_span(name: str):
    return contextlib.nullcontext()


def timed(fn):
    started = perf_counter()
    result = fn()
    return result, perf_counter() - started


def answer_one(answer, span_name, task, span):
    try:
        with span(span_name):
            return answer(task.instance.spec, task.root)
    except Exception as exc:  # a failed answer is counted, not fatal
        return exc


def verify_one(verify, task, pair, span):
    with span("digraph.verify_good_pair"):
        return verify(task.instance.spec.implicit_view(), pair)


def cli_one(cli_main, task, span):
    out, err = io.StringIO(), io.StringIO()
    try:
        with span("cli.main"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(task.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed answer
        code = f"raised {exc!r}"
    return code, out.getvalue(), err.getvalue()


def under_tracemalloc(fn):
    """Run fn with tracemalloc on; return its result and the traced peak."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class Bench:
    def __init__(self, args, gp, checker, workloads, tracer) -> None:
        self.args = args
        self.gp = gp
        self.checker = checker
        self.tracer = tracer
        self.span = tracer.span if tracer else no_span
        self.build, self.command = workloads.WORKLOADS[args.workload]
        if self.command == "solve":
            self.answer = (gp.construct_good_pair, "construct.construct_good_pair")
        else:
            self.answer = (gp.decide_semicomplete, "semicomplete.decide")
        self.judge = Judge(checker, gp.GoodPair)
        self.peak = 0
        self.workdir = OUT / "instances" / args.workload
        self.workdir.mkdir(parents=True, exist_ok=True)

    def label(self, *label) -> None:
        if self.tracer:
            self.tracer.label = label

    def setup(self) -> list[float]:
        """Generate and write the inputs several times; keep the last set."""
        times = []
        for k in range(SETUP_REPEATS):
            self.label("setup", k)
            self.instances = None
            gc.collect()
            started = perf_counter()
            self.instances = self.build(self.args.seed, self.workdir, self.span)
            times.append(perf_counter() - started)
        self.tasks = []
        for inst in self.instances:
            comp = self.checker.Composition.from_json(inst.path.read_text())
            for root in inst.roots:
                argv = [self.command, str(inst.path), "--root", f"{root.blob}.{root.layer}"]
                self.tasks.append(Task(inst, comp, root, comp.vertex(root.blob, root.layer), argv))
        return times

    def untimed(self, task: Task) -> None:
        """Untimed answer for the first root of an instance, made just before
        its timed calls; it warms the instance (cached adjacency) and gives
        the peak.  tracemalloc is on during the answer only, so earlier
        outputs do not count, and self.peak keeps the highest peak.  The
        traced run also verifies the pair, parses the instance and writes the
        pair under tracemalloc, for the per-layer peaks of digraph and io.

        Untraced runs skip the small decide-sc instances: each answer builds
        its own restriction, so there is nothing to warm; their peaks stay
        near 0.1 MB, far below the dense ones'; and tracemalloc slows their
        enumeration five-fold (about 20 s a run).  The traced run measures
        them, as semicomplete.peak_mb."""
        if not (self.tracer or task.instance.must_exist):
            return
        self.label("memory-answer")
        if self.tracer:
            self.tracer.memory = True
        try:
            result, peak = under_tracemalloc(lambda: answer_one(*self.answer, task, self.span))
            self.peak = max(self.peak, peak)
            pair = self.judge.library(task, result)
            del result
            if not self.tracer or pair is None:
                return
            self.label("memory-verify")
            report, _ = under_tracemalloc(lambda: verify_one(self.gp.verify_good_pair, task, pair, self.span))
            self.judge.verified(task, report)
            # The io layer's own calls, without a second answer under tracemalloc.
            self.label("memory-io")
            text = task.instance.path.read_text()
            under_tracemalloc(lambda: self.gp.io.parse_composition(text))
            under_tracemalloc(lambda: self.gp.io.serialize_good_pair(pair))
        finally:
            if self.tracer:
                self.tracer.memory = False

    def round(self, r: int) -> dict[str, float]:
        """Answer, verify and run the CLI on every task, task by task, so each
        metric samples the whole round; the first round also makes the
        untimed answers, each just before its instance's timed calls, so the
        timed calls spread over the whole run.  The machine's speed drifts
        over tens of seconds.  Garbage is collected before each task's timed
        calls, and each output is dropped before the next timed call."""
        times = {"answer_s": 0.0, "verify_s": 0.0, "cli_s": 0.0}
        for task in self.tasks:
            if r == 0 and task.root is task.instance.roots[0]:
                gc.collect()
                self.untimed(task)
            gc.collect()
            self.label("answer", r)
            result, elapsed = timed(lambda: answer_one(*self.answer, task, self.span))
            times["answer_s"] += elapsed
            pair = self.judge.library(task, result)
            del result
            if pair is not None:
                self.label("verify", r)
                report, elapsed = timed(lambda: verify_one(self.gp.verify_good_pair, task, pair, self.span))
                times["verify_s"] += elapsed
                self.judge.verified(task, report)
            del pair
            self.label("cli", r)
            (code, out, err), elapsed = timed(lambda: cli_one(self.gp.cli.main, task, self.span))
            times["cli_s"] += elapsed
            self.judge.cli(task, code, out, err)
        return times


def layer_metrics(tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans.  Times are medians over rounds of
    the per-round totals: io and cli from the CLI calls, every other layer
    from the library answers.  Counts are per round.  Peaks are the highest
    over the untimed answers, each above the memory in use when its span
    opened.  A layer that never runs on the workload reads 0."""
    own = tracer.self_times()
    total: dict = defaultdict(float)
    self_time: dict = defaultdict(float)
    peak: dict = defaultdict(int)
    for s, own_s in zip(tracer.spans, own):
        key = (s.label[0], s.label[1:], s.name)
        total[key] += s.duration
        self_time[key] += own_s
        peak[s.label[0], s.name] = max(peak[s.label[0], s.name], s.peak)

    def median(table, kind: str, name: str) -> float:
        return statistics.median(table[kind, (r,), name] for r in range(rounds))

    def count(kind: str, name: str) -> float:
        return tracer.counts[(kind, 0), name]

    def mb(kind: str, *names: str) -> float:
        return max(peak[kind, n] for n in names) / MB

    ears = count("answer", "ears.total")
    single = count("answer", "ears.single_arc")
    return {
        "generate.instances_s": (
            statistics.median(total["setup", (k,), "generate.instances"] for k in range(SETUP_REPEATS)),
            "s",
        ),
        "io.parse_composition_s": (median(total, "cli", "io.parse_composition"), "s"),
        "io.serialize_pair_s": (median(total, "cli", "io.serialize_pair"), "s"),
        "io.pair_bytes": (count("cli", "io.pair_bytes"), "bytes"),
        "io.peak_mb": (mb("memory-io", "io.parse_composition", "io.serialize_pair"), "MB"),
        "composition.validate_s": (median(total, "answer", "composition.validate"), "s"),
        "composition.is_semicomplete_s": (median(total, "answer", "composition.is_semicomplete"), "s"),
        "composition.materialize_s": (median(total, "answer", "composition.materialize"), "s"),
        "composition.materialized_arcs": (count("answer", "composition.materialized_arcs"), "count"),
        "ears.cycle_through_s": (median(total, "answer", "ears.cycle_through"), "s"),
        "ears.decompose_s": (median(total, "answer", "ears.decompose"), "s"),
        "ears.peak_mb": (mb("memory-answer", "ears.decompose"), "MB"),
        "ears.total": (ears, "count"),
        "ears.single_arc": (single, "count"),
        "ears.useful_ratio": ((ears - single) / ears if ears else 0.0, "ratio"),
        "construct.splice_s": (median(self_time, "answer", "construct.skeleton"), "s"),
        "construct.extend_layers_s": (median(total, "answer", "construct.extend_layers"), "s"),
        "construct.self_s": (median(self_time, "answer", "construct.construct_good_pair"), "s"),
        "construct.peak_mb": (mb("memory-answer", "construct.construct_good_pair"), "MB"),
        "digraph.verify_peak_mb": (mb("memory-verify", "digraph.verify_good_pair"), "MB"),
        "semicomplete.restriction_s": (median(total, "answer", "semicomplete.restriction"), "s"),
        "semicomplete.restriction_vertices": (count("answer", "semicomplete.restriction_vertices"), "count"),
        "semicomplete.lift_s": (median(total, "answer", "semicomplete.lift"), "s"),
        "semicomplete.peak_mb": (mb("memory-answer", "semicomplete.decide"), "MB"),
        "oracle.decide_exact_s": (median(total, "answer", "oracle.decide_exact"), "s"),
        "oracle.branchings": (count("answer", "oracle.branchings"), "count"),
        "cli.overhead_s": (median(self_time, "cli", "cli.main"), "s"),
    }


def import_program():
    if not (SRC / "goodpairs" / "__init__.py").is_file():
        sys.exit(f"error: no goodpairs package under {SRC}; run from the root of a source tree")
    sys.path.insert(0, str(SRC))
    import goodpairs
    import goodpairs.cli

    import checker
    import spans
    import workloads

    return goodpairs, checker, spans, workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("solve-sparse", "decide-sc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    gp, checker, spans, workloads = import_program()

    probe_start = probe()
    tracer = spans.Tracer() if args.trace else None
    phases = {}
    mark = perf_counter()

    def phase(name: str) -> None:
        nonlocal mark
        now = perf_counter()
        phases[name] = now - mark
        mark = now

    with spans.patched(tracer) if tracer else contextlib.nullcontext():
        bench = Bench(args, gp, checker, workloads, tracer)
        setup_times = bench.setup()
        phase("setup")
        rounds = []
        started = perf_counter()
        while len(rounds) < MIN_ROUNDS or perf_counter() - started < args.seconds:
            rounds.append(bench.round(len(rounds)))
        phase("rounds")
    probe_end = probe()

    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        **{k: (statistics.median(r[k] for r in rounds), "s") for k in ("answer_s", "verify_s", "cli_s")},
        "answer_peak_mb": (bench.peak / MB, "MB"),
    }
    if tracer:
        # Spans reset tracemalloc's peak, so the pass's own peak reads low.
        del end_to_end["answer_peak_mb"]
    metrics = layer_metrics(tracer, len(rounds)) if tracer else end_to_end
    judge = bench.judge
    result = {
        "correct": not judge.rejections,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "probe_start_s": probe_start,
        "probe_end_s": probe_end,
        "setup_s": setup_times,
        "rounds": rounds,
        "phases_s": phases,
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "rejections": judge.rejections[:20],
        "errors": judge.errors[:20],
        "result": result,
    }
    if tracer:
        record["spans"] = [
            [s.name, s.start, s.end, s.parent, list(s.label), s.peak] for s in tracer.spans
        ]
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record))
    for line in judge.rejections[:5] + judge.errors[:5]:
        print(f"failure: {line}", file=sys.stderr)
    print(f"probe_s start={probe_start:.4f} end={probe_end:.4f} rounds={len(rounds)} record={record_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
