"""Tests of the benchmark's checker.  Run with: python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path

import pytest

from checker import Composition, check_pair, check_pair_document, good_pair_exists

# Two blobs of two vertices on the outer 2-cycle: vertices 0, 1 form blob 1
# and 2, 3 blob 2; every arc between the blobs exists, none inside them.
TWO_BY_TWO = Composition(2, [(0, 1), (1, 0)], [2, 2], [[], []])
GOOD_OUT = [(0, 2), (0, 3), (3, 1)]
GOOD_IN = [(1, 2), (2, 0), (3, 0)]


def test_accepts_hand_built_pair():
    assert check_pair(TWO_BY_TWO, 0, 0, GOOD_OUT, GOOD_IN) == []


def test_accepts_pair_document():
    doc = json.dumps({"root": 0, "out_arcs": GOOD_OUT, "in_arcs": GOOD_IN})
    assert check_pair_document(TWO_BY_TWO, 0, doc) == []


def test_accepts_pair_using_blob_arcs():
    # Blob 1 has the arc 1 -> 0, so an in-tree may use it.
    q = Composition(2, [(0, 1), (1, 0)], [2, 2], [[(1, 0)], []])
    assert check_pair(q, 0, 0, GOOD_OUT, [(1, 0), (2, 0), (3, 0)]) == []


def only(problems):
    assert len(problems) == 1, problems
    return problems[0]


def test_rejects_shared_arc():
    out = [(0, 2), (2, 1), (1, 3)]
    inn = [(1, 3), (3, 0), (2, 0)]
    assert "share arc (1,3)" in only(check_pair(TWO_BY_TWO, 0, 0, out, inn))


def test_rejects_blob_arc_missing_from_blob():
    out = [(0, 1), (0, 2), (0, 3)]
    assert "(0,1) is not an arc of Q" in only(check_pair(TWO_BY_TWO, 0, 0, out, GOOD_IN))


def test_rejects_arc_missing_from_outer():
    # Outer 3-cycle 0 -> 1 -> 2 -> 0 with single-vertex blobs: 1 -> 0 is no arc.
    q = Composition(3, [(0, 1), (1, 2), (2, 0)], [1, 1, 1], [[], [], []])
    problems = check_pair(q, 0, 0, [(0, 1), (1, 2)], [(1, 0), (2, 0)])
    assert "(1,0) is not an arc of Q" in only(problems)


def test_rejects_cycle():
    # Right degrees, but 1 and 3 feed each other and never meet the root.
    out = [(0, 2), (1, 3), (3, 1)]
    assert "cycle" in only(check_pair(TWO_BY_TWO, 0, 0, out, GOOD_IN))
    inn = [(1, 3), (3, 1), (2, 0)]
    assert "in-tree" in only(check_pair(TWO_BY_TWO, 0, 0, GOOD_OUT, inn))


def test_rejects_unreached_vertex():
    # Vertex 1 gets no in-arc; vertex 3 gets two.
    out = [(0, 2), (0, 3), (1, 3)]
    problem = only(check_pair(TWO_BY_TWO, 0, 0, out, GOOD_IN))
    assert "vertex 1 has in-degree 0" in problem


def test_rejects_missing_arc_count():
    problem = only(check_pair(TWO_BY_TWO, 0, 0, GOOD_OUT[:2], GOOD_IN))
    assert "2 arcs for 4 vertices" in problem


def test_rejects_wrong_root():
    assert "wrong root" in only(check_pair(TWO_BY_TWO, 1, 0, GOOD_OUT, GOOD_IN))


def test_rejects_arc_into_root_of_out_tree():
    out = [(2, 0), (0, 3), (3, 1)]
    assert "root 0 has in-degree 1" in only(check_pair(TWO_BY_TWO, 0, 0, out, GOOD_IN))


def test_rejects_unreadable_document():
    assert check_pair_document(TWO_BY_TWO, 0, '{"status": "absent"}')


@pytest.mark.parametrize("root", [0, 1, 2])
def test_confirms_absence_on_tightness_example(root):
    q = Composition(3, [(0, 1), (1, 2), (2, 0)], [1, 1, 1], [[], [], []])
    assert not good_pair_exists(q, root)


def test_finds_pair_when_blobs_have_two_vertices():
    assert good_pair_exists(TWO_BY_TWO, 0)
    q = Composition(3, [(0, 1), (1, 2), (2, 0)], [2, 2, 2], [[], [], []])
    assert all(good_pair_exists(q, r) for r in range(6))


def test_exhaustive_search_matches_program_on_small_semicomplete():
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    from goodpairs import BlobVertex, decide_semicomplete, gen_composition
    from goodpairs.io import serialize_composition

    for seed in range(40):
        spec = gen_composition(4, (1, 3), 0.0, "semicomplete", seed)
        q = Composition.from_json(serialize_composition(spec))
        for blob in range(1, spec.blob_count + 1):
            decision = decide_semicomplete(spec, BlobVertex(blob, 1))
            assert decision.status in ("found", "absent")
            assert good_pair_exists(q, q.vertex(blob, 1)) == decision.found, (seed, blob)
