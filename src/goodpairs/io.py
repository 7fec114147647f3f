"""File formats and serialization.

Every document is a single line of JSON:

  digraph       {"n": 3, "arcs": [[0,1],[1,2],[2,0]]}
  composition   {"T": <digraph>, "H": [<digraph>, ...]}   with len(H) == T.n
  good pair     {"root": 0, "out_arcs": [[0,1]], "in_arcs": [[1,0]]}

Arc lists are serialized sorted ascending, so parse(serialize(x)) == x and
documents diff cleanly.  Parsers reject loops, duplicate arcs, out-of-range
ids and malformed syntax, naming the offending field.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .composition import CompositionSpec
from .digraph import Arc, Branching, DiGraph, GoodPair
from .ears import EarDecomposition

# Attribute strings used by export_dot for the two branchings.
OUT_ARC_ATTR = "color=blue"
IN_ARC_ATTR = "color=red"


class FormatError(ValueError):
    """Raised on malformed input documents; the message names the field."""


def _json_object(text: str, what: str) -> dict[str, Any]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"{what}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise FormatError(f"{what}: JSON nested too deeply") from None
    except ValueError as exc:  # e.g. an integer over the interpreter's digit limit
        raise FormatError(f"{what}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{what}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _expect_keys(doc: dict[str, Any], keys: set[str], what: str) -> None:
    missing = keys - set(doc)
    if missing:
        raise FormatError(f"{what}: missing key {min(missing)!r}")
    unexpected = set(doc) - keys
    if unexpected:
        raise FormatError(f"{what}: unexpected key {min(unexpected)!r}")


def _parse_arc_list(
    raw: Any, n: int | None, field: str, forbid_loops: bool = True
) -> list[Arc]:
    if not isinstance(raw, list):
        raise FormatError(f"{field}: expected a list of arcs")
    arcs: list[Arc] = []
    seen: set[Arc] = set()
    for i, item in enumerate(raw):
        where = f"{field}[{i}]"
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)
        ):
            raise FormatError(f"{where}: an arc must be a pair of integers")
        u, v = item
        if forbid_loops and u == v:
            raise FormatError(f"{where}: loop ({u},{v}) not allowed")
        if n is not None and not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"{where}: arc ({u},{v}) out of range for n={n}")
        if (u, v) in seen:
            raise FormatError(f"{where}: duplicate arc ({u},{v})")
        seen.add((u, v))
        arcs.append((u, v))
    return arcs


def _digraph_from_doc(
    doc: dict[str, Any], what: str, arcless: dict[int, DiGraph] | None = None
) -> DiGraph:
    """The digraph of ``doc``.  With ``arcless``, an arcless digraph is taken
    from that cache of immutable ones by vertex count, and added if absent."""
    _expect_keys(doc, {"n", "arcs"}, what)
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise FormatError(f"{what}.n: expected a non-negative integer")
    if arcless is not None and doc["arcs"] == []:
        if n not in arcless:
            arcless[n] = DiGraph(n)
        return arcless[n]
    arcs = _parse_arc_list(doc["arcs"], n, f"{what}.arcs")
    return DiGraph(n, arcs)


def parse_digraph(text: str) -> DiGraph:
    return _digraph_from_doc(_json_object(text, "digraph"), "digraph")


def _digraph_doc(d: DiGraph) -> dict[str, Any]:
    return {"n": d.vertex_count, "arcs": [list(a) for a in sorted(d.arcs)]}


def serialize_digraph(d: DiGraph) -> str:
    return json.dumps(_digraph_doc(d))


def parse_composition(text: str) -> CompositionSpec:
    doc = _json_object(text, "composition")
    _expect_keys(doc, {"T", "H"}, "composition")
    if not isinstance(doc["T"], dict):
        raise FormatError("composition.T: expected a digraph object")
    outer = _digraph_from_doc(doc["T"], "composition.T")
    if outer.vertex_count < 1:
        raise FormatError("composition.T.n: the outer digraph needs at least 1 vertex")
    if not isinstance(doc["H"], list):
        raise FormatError("composition.H: expected a list of digraphs")
    if len(doc["H"]) != outer.vertex_count:
        raise FormatError(
            f"composition.H: expected {outer.vertex_count} blob digraphs, "
            f"got {len(doc['H'])}"
        )
    blobs = []
    arcless: dict[int, DiGraph] = {}
    for i, sub in enumerate(doc["H"]):
        if not isinstance(sub, dict):
            raise FormatError(f"composition.H[{i}]: expected a digraph object")
        blob = _digraph_from_doc(sub, f"composition.H[{i}]", arcless)
        if blob.vertex_count < 1:
            raise FormatError(f"composition.H[{i}].n: a blob needs at least 1 vertex")
        blobs.append(blob)
    return CompositionSpec(outer, blobs)


def serialize_composition(spec: CompositionSpec) -> str:
    return json.dumps(
        {"T": _digraph_doc(spec.outer), "H": [_digraph_doc(h) for h in spec.blobs]}
    )


def parse_good_pair(text: str) -> GoodPair:
    doc = _json_object(text, "pair")
    _expect_keys(doc, {"root", "out_arcs", "in_arcs"}, "pair")
    root = doc["root"]
    if not isinstance(root, int) or isinstance(root, bool) or root < 0:
        raise FormatError("pair.root: expected a non-negative integer")
    out_arcs = _parse_arc_list(doc["out_arcs"], None, "pair.out_arcs")
    in_arcs = _parse_arc_list(doc["in_arcs"], None, "pair.in_arcs")
    return GoodPair(
        root,
        Branching(root, "out", out_arcs),
        Branching(root, "in", in_arcs),
    )


def branching_arc_list(b: Branching) -> list[list[int]]:
    """The arcs of ``b`` as ``[tail, head]`` lists, in its sorted order."""
    return np.column_stack((b.tails, b.heads)).tolist()


def good_pair_doc(gp: GoodPair) -> dict[str, Any]:
    return {
        "root": gp.root,
        "out_arcs": branching_arc_list(gp.out_branching),
        "in_arcs": branching_arc_list(gp.in_branching),
    }


def serialize_good_pair(gp: GoodPair) -> str:
    return json.dumps(good_pair_doc(gp))


def serialize_ear_decomposition(ed: EarDecomposition) -> str:
    return json.dumps(
        {
            "ears": [
                {"kind": ear.kind, "vertices": list(ear.vertices)} for ear in ed.ears
            ]
        }
    )


def export_dot(
    pair: GoodPair | None = None, host: DiGraph | None = None
) -> str:
    """Render a digraph and/or good pair as DOT text.

    Out-branching arcs carry ``color=blue``, in-branching arcs ``color=red``
    (see OUT_ARC_ATTR / IN_ARC_ATTR).  When a host digraph is given, its
    remaining arcs are included without attributes.
    """
    if pair is None and host is None:
        raise ValueError("export_dot needs a pair, a host digraph, or both")
    lines = ["digraph G {"]
    colored: set[Arc] = set()
    if pair is not None:
        lines.append(f"  {pair.root} [shape=doublecircle];")
        for u, v in branching_arc_list(pair.out_branching):
            lines.append(f"  {u} -> {v} [{OUT_ARC_ATTR}];")
        for u, v in branching_arc_list(pair.in_branching):
            lines.append(f"  {u} -> {v} [{IN_ARC_ATTR}];")
        colored = pair.out_branching.arcs | pair.in_branching.arcs
    if host is not None:
        for u, v in sorted(host.arcs - colored):
            lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
