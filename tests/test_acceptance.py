"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
All expected values come from the exact oracle or from independent brute
force, never from the code paths under test.
"""

from __future__ import annotations

import hashlib
import time
import tracemalloc
from functools import lru_cache

import numpy as np

from goodpairs import (
    BlobVertex,
    CompositionSpec,
    DiGraph,
    closed_neighborhood_restriction,
    construct_good_pair,
    decide_good_pair_exact,
    decide_root_adjacent,
    decide_semicomplete,
    gen_composition,
    gen_strong_digraph,
    lift_good_pair,
    materialize,
    shrink_good_pair,
    verify_good_pair,
)
from goodpairs.io import serialize_good_pair

from bruteforce import (
    labeled_tournaments,
    reference_branching_problems,
    root_adjacent_digraphs,
    subset_good_pair_exists,
)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def every_root(spec: CompositionSpec):
    for blob in range(1, spec.blob_count + 1):
        for layer in range(1, spec.blob_size(blob) + 1):
            yield BlobVertex(blob, layer)


def _c1_specs():
    for seed in range(500):
        t = 2 + seed % 7
        p = 0.3 if seed % 2 else 0.0
        yield seed, gen_composition(t, (2, 4), p, "strong", seed=seed)


def _text_digest(lines) -> str:
    """sha256 of the lines joined by newlines, with a trailing newline."""
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def test_c1_construction_correctness_on_500_specs():
    started = time.perf_counter()
    failures = []
    roots_checked = 0
    for seed, spec in _c1_specs():
        view = spec.implicit_view()
        q = materialize(spec)
        for root in every_root(spec):
            pair = construct_good_pair(spec, root)
            out_b, in_b = pair.out_branching, pair.in_branching
            if (
                not verify_good_pair(view, pair).ok
                or reference_branching_problems(q, out_b)
                or reference_branching_problems(q, in_b)
                or out_b.arcs & in_b.arcs
            ):
                failures.append((seed, root))
            roots_checked += 1
    elapsed = time.perf_counter() - started
    report(
        "C1 theorem-3 construction",
        not failures and elapsed < 60.0,
        f"500 specs, {roots_checked} roots, {len(failures)} failures, {elapsed:.1f}s",
    )


def test_c1_pair_text_is_pinned():
    """The pair text of every root of C1's specs, byte for byte."""
    lines = (
        serialize_good_pair(construct_good_pair(spec, root))
        for _, spec in _c1_specs()
        for root in every_root(spec)
    )
    assert _text_digest(lines) == (
        "31225ada70710b856b5d415bea82f69a91cbb2684ad4787b671d9879c2b5f947"
    )


def test_c2_cycle_construction_cross_validated_by_oracle():
    started = time.perf_counter()
    disagreements = []
    for m in range(2, 7):
        cycle = DiGraph(m, [(i, (i + 1) % m) for i in range(m)])
        spec = CompositionSpec(cycle, [DiGraph(2)] * m)
        q = materialize(spec)
        for root in every_root(spec):
            pair = construct_good_pair(spec, root)
            constructed_ok = verify_good_pair(q, pair).ok
            oracle_found = decide_good_pair_exact(q, spec.global_id(root)).found
            if not (constructed_ok and oracle_found):
                disagreements.append((m, root))
    elapsed = time.perf_counter() - started
    report(
        "C2 cycle skeleton vs oracle",
        not disagreements and elapsed < 30.0,
        f"m=2..6, all roots, {len(disagreements)} disagreements, {elapsed:.1f}s",
    )


def test_c3_tightness_of_blob_size_two():
    c3 = DiGraph(3, [(0, 1), (1, 2), (2, 0)])
    q = materialize(CompositionSpec(c3, [DiGraph(1)] * 3))
    base_absent = all(decide_good_pair_exact(q, r).absent for r in range(3))

    witnesses = []
    seed = 0
    while len(witnesses) < 3 and seed < 300:
        spec = gen_composition(2 + seed % 3, (1, 2), 0.2, "semicomplete", seed=seed)
        seed += 1
        sizes = [h.vertex_count for h in spec.blobs]
        if 1 not in sizes or spec.total_vertices > 7:
            continue
        q = materialize(spec)
        for r in range(q.vertex_count):
            if decide_good_pair_exact(q, r).absent:
                witnesses.append((seed - 1, r))
                break
    report(
        "C3 tightness of blob size >= 2",
        base_absent and len(witnesses) >= 3,
        f"C3[K1,K1,K1] absent at all roots: {base_absent}; "
        f"further singleton-blob absence witnesses (seed, root): {witnesses[:3]}",
    )


@lru_cache(maxsize=1)
def _semicomplete_instances() -> tuple[tuple[int, CompositionSpec], ...]:
    """300 seeded strong semicomplete compositions with at most 9 vertices.

    Blob sizes are kept at 1 or 2: with every blob that small, the shrink
    procedure's rewiring step always has its arc available (the problematic
    configuration needs two non-root vertices inside the root's blob), so
    criterion 5's zero-failure expectation is within the procedure's
    provably complete regime.  The size-3 gap itself is pinned by a unit
    test on the shrink module.
    """
    instances = []
    seed = 0
    while len(instances) < 300:
        t = 2 + seed % 3
        p = (0.0, 0.3, 0.6)[seed % 3]
        spec = gen_composition(t, (1, 2), p, "semicomplete", seed=seed)
        if spec.total_vertices <= 9:
            instances.append((seed, spec))
        seed += 1
    return tuple(instances)


def test_c4_restriction_equivalence_on_300_instances():
    started = time.perf_counter()
    disagreements = []
    roots_checked = 0
    for seed, spec in _semicomplete_instances():
        q = materialize(spec)
        for r in range(q.vertex_count):
            nr = closed_neighborhood_restriction(q, r)
            on_q = decide_good_pair_exact(q, r)
            on_restriction = decide_good_pair_exact(
                nr.restricted, nr.root_in_restricted
            )
            if on_q.found != on_restriction.found:
                disagreements.append((seed, r))
            roots_checked += 1
    elapsed = time.perf_counter() - started
    report(
        "C4 restriction equivalence",
        not disagreements and elapsed < 120.0,
        f"300 instances, {roots_checked} roots, {len(disagreements)} disagreements, "
        f"{elapsed:.1f}s",
    )


def test_c4_decision_text_is_pinned():
    """decide_semicomplete's answer at every root of C4's instances, byte for
    byte: the pair text when found, the status and reason otherwise."""
    lines = []
    for _, spec in _semicomplete_instances():
        for r in range(spec.total_vertices):
            d = decide_semicomplete(spec, spec.blob_vertex(r))
            lines.append(serialize_good_pair(d.pair) if d.found else f"{d.status} {d.reason}")
    assert _text_digest(lines) == (
        "d0f34e9310abbac345ff4e2228838cca8b4f07cc99ddb0552d8e48d5769d0f18"
    )


def test_c5_lift_and_shrink_round_trip():
    lift_failures = []
    shrink_failures = []
    pairs_seen = 0
    for seed, spec in _semicomplete_instances():
        q = materialize(spec)
        for r in range(q.vertex_count):
            on_q = decide_good_pair_exact(q, r)
            if not on_q.found:
                continue
            pairs_seen += 1
            nr = closed_neighborhood_restriction(q, r)
            on_restriction = decide_good_pair_exact(
                nr.restricted, nr.root_in_restricted
            )
            lifted = lift_good_pair(q, nr, on_restriction.pair)
            if not verify_good_pair(q, lifted).ok:
                lift_failures.append((seed, r))
            result = shrink_good_pair(q, nr, on_q.pair)
            if not result.ok:
                shrink_failures.append((seed, r, result.message))
            elif not verify_good_pair(nr.restricted, result.pair).ok:
                shrink_failures.append((seed, r, "shrunken pair does not verify"))
    for seed, r, message in shrink_failures:
        print(f"  shrink failure reproducer: seed={seed} root={r}: {message}")
    report(
        "C5 lift/shrink round trip",
        not lift_failures and not shrink_failures,
        f"{pairs_seen} pairs, {len(lift_failures)} lift failures, "
        f"{len(shrink_failures)} shrink failures",
    )


def test_c7_implicit_construction_performance(monkeypatch):
    t = 50_000
    outer = gen_strong_digraph(t, 50_000, seed=2024)
    spec = CompositionSpec(outer, (DiGraph(2),) * t)

    # The arc-count formula and materialization must never run here.
    import goodpairs.composition as composition_module

    def _forbidden(*args, **kwargs):
        raise AssertionError("materialization path invoked during construction")

    monkeypatch.setattr(composition_module, "materialize", _forbidden)
    monkeypatch.setattr(CompositionSpec, "arc_count", _forbidden)

    started = time.perf_counter()
    pair = construct_good_pair(spec, BlobVertex(1, 1))
    elapsed = time.perf_counter() - started

    tracemalloc.start()
    construct_good_pair(spec, BlobVertex(1, 1))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    n = spec.total_vertices
    sizes_ok = (
        len(pair.out_branching.arcs) == n - 1 and len(pair.in_branching.arcs) == n - 1
    )
    report(
        "C7 implicit-construction performance",
        sizes_ok and elapsed < 2.0 and peak < 500e6,
        f"N={n}, {elapsed:.2f}s, peak {peak / 1e6:.0f} MB",
    )
    assert verify_good_pair(spec.implicit_view(), pair).ok


def test_c8_oracle_completeness_against_subset_brute_force():
    disagreements = []
    roots_checked = 0

    rng = np.random.Generator(np.random.PCG64(99))
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        p = float(rng.choice([0.2, 0.35, 0.5, 0.65]))
        arcs = [
            (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p
        ]
        d = DiGraph(n, arcs)
        for r in range(n):
            if decide_good_pair_exact(d, r).found != subset_good_pair_exists(d, r):
                disagreements.append(("sample", sorted(d.arcs), r))
            roots_checked += 1

    for n in range(1, 6):
        for d in labeled_tournaments(n):
            for r in range(n):
                if decide_good_pair_exact(d, r).found != subset_good_pair_exists(d, r):
                    disagreements.append(("tournament", sorted(d.arcs), r))
                roots_checked += 1

    report(
        "C8 oracle completeness",
        not disagreements,
        f"1000 samples + all tournaments on <=5 vertices, {roots_checked} roots, "
        f"{len(disagreements)} disagreements",
    )


def _random_root_adjacent(rng: np.random.Generator) -> DiGraph:
    n = int(rng.integers(5, 9))
    p = float(rng.choice([0.2, 0.35, 0.5]))
    arcs = []
    for v in range(1, n):
        kind = int(rng.integers(3))  # 0: root -> v, 1: v -> root, 2: both
        if kind != 1:
            arcs.append((0, v))
        if kind != 0:
            arcs.append((v, 0))
    arcs += [
        (u, v)
        for u in range(1, n)
        for v in range(1, n)
        if u != v and rng.random() < p
    ]
    return DiGraph(n, arcs)


def test_c9_root_adjacent_decision_against_oracle_and_brute_force():
    disagreements = []
    unverified = []
    checked = found = 0

    def check(d: DiGraph) -> None:
        nonlocal checked, found
        decision = decide_root_adjacent(d, 0)
        expected = decide_good_pair_exact(d, 0).found
        if d.vertex_count <= 5 and subset_good_pair_exists(d, 0) != expected:
            disagreements.append(("brute force", sorted(d.arcs)))
        if decision.found != expected:
            disagreements.append(("oracle", sorted(d.arcs)))
        if decision.found and not verify_good_pair(d, decision.pair).ok:
            unverified.append(sorted(d.arcs))
        checked += 1
        found += decision.found

    for n in range(1, 5):
        for d in root_adjacent_digraphs(n):
            check(d)
    rng = np.random.Generator(np.random.PCG64(2024))
    for _ in range(2000):
        check(_random_root_adjacent(rng))

    report(
        "C9 root-adjacent decision",
        not disagreements and not unverified,
        f"all 1768 on <=4 vertices + 2000 on 5-8, {checked} digraphs, {found} found, "
        f"{len(disagreements)} disagreements, {len(unverified)} unverified pairs",
    )


def test_c10_semicomplete_decision_against_oracle_on_q():
    disagreements = []
    unverified = []
    roots_checked = 0
    for seed, spec in _semicomplete_instances():
        q = materialize(spec)
        for r in range(q.vertex_count):
            decision = decide_semicomplete(spec, spec.blob_vertex(r))
            if decision.found != decide_good_pair_exact(q, r).found:
                disagreements.append((seed, r))
            if decision.found and not verify_good_pair(q, decision.pair).ok:
                unverified.append((seed, r))
            roots_checked += 1
    report(
        "C10 semicomplete decision",
        not disagreements and not unverified,
        f"300 instances, {roots_checked} roots, {len(disagreements)} disagreements, "
        f"{len(unverified)} unverified pairs",
    )
