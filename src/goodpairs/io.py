"""File formats and serialization.

Every document is a single line of JSON:

  digraph       {"n": 3, "arcs": [[0,1],[1,2],[2,0]]}
  composition   {"T": <digraph>, "H": [<digraph>, ...]}   with len(H) == T.n
  good pair     {"root": 0, "out_arcs": [[0,1]], "in_arcs": [[1,0]]}

Arc lists are serialized sorted ascending, so parse(serialize(x)) == x and
documents diff cleanly; the text is what ``json.dumps`` writes, built by one
join over the arcs.  Parsers reject loops, duplicate arcs, out-of-range ids
and malformed syntax, naming the offending field.  An arc list becomes int
arrays sorted by (tail, head) once, at this boundary: C-level scans screen
its items, and the loop, range and duplicate checks run as masks over the
arrays.  The error names the first failing arc, ``field[i]``, with the first
check it fails in the order pair of integers, loop, range, duplicate.  Ids
beyond int64 are kept exact, in arrays of dtype object.
"""

from __future__ import annotations

import json
from itertools import chain, compress, repeat
from typing import Any, Iterable

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
    raw: Any, n: int | None, field: str
) -> tuple[np.ndarray, np.ndarray]:
    """The arcs of ``raw`` as `_checked_arcs` returns them; the first bad one
    raises, named as ``field[i]``."""
    if not isinstance(raw, list):
        raise FormatError(f"{field}: expected a list of arcs")
    tails, heads, first = _checked_arcs(raw, n, np.zeros(len(raw), dtype=np.int64))
    if first < len(raw):
        raise FormatError(f"{field}[{first}]: {_arc_problem(raw[first], n)}")
    return tails, heads


def _checked_arcs(
    raw: list[Any], n: Any, group: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Check the items of ``raw`` as arcs, over whole arrays.

    ``group``, non-decreasing with one entry per item, splits ``raw`` into
    arc lists that are checked apart; ``n`` bounds their ids: None for no
    bound, an int, or an array with one bound per item.  Returns the arcs as
    ``(tails, heads)`` arrays sorted by (group, tail, head), int64 unless
    some id does not fit (then dtype object, exact), and the index of the
    first item that fails a check, or ``len(raw)`` when none does.  At that
    item the first failing check, in the order pair of integers, loop,
    range, duplicate (an earlier equal arc in its list), is what is wrong.
    """
    # The longest prefix of pairs of ints, screened at C level.
    m = len(raw)
    if not (
        set(map(type, raw)) <= {list}
        and set(map(len, raw)) <= {2}
        and set(map(type, chain.from_iterable(raw))) <= {int}
    ):
        m = next(i for i, item in enumerate(raw) if not _is_int_pair(item))
        raw, group = raw[:m], group[:m]
        if isinstance(n, np.ndarray):
            n = n[:m]
    try:
        ids = np.fromiter(chain.from_iterable(raw), np.int64, 2 * m)
    except OverflowError:
        ids = np.array(list(chain.from_iterable(raw)), dtype=object)
    tails, heads = ids.reshape(-1, 2).T
    bad = tails == heads
    if n is not None:
        bad |= (tails < 0) | (tails >= n) | (heads < 0) | (heads >= n)
    rising = (group[1:] > group[:-1]) | (tails[1:] > tails[:-1])
    rising |= (tails[1:] == tails[:-1]) & (heads[1:] > heads[:-1])
    if not rising.all():
        # A stable sort keeps repeats in input order, so every occurrence of
        # an arc after its first is the one that follows an equal arc.
        order = np.lexsort((heads, tails, group))
        tails, heads, group = tails[order], heads[order], group[order]
        again = (group[1:] == group[:-1]) & (tails[1:] == tails[:-1])
        again &= heads[1:] == heads[:-1]
        bad[order[1:][again]] = True
    if bad.any():
        m = int(np.argmax(bad))
    return np.ascontiguousarray(tails), np.ascontiguousarray(heads), m


def _is_int_pair(item: Any) -> bool:
    return (
        isinstance(item, list)
        and len(item) == 2
        and all(isinstance(x, int) and not isinstance(x, bool) for x in item)
    )


def _arc_problem(item: Any, n: int | None) -> str:
    """What is wrong with ``item``, the first bad arc of its list."""
    if not _is_int_pair(item):
        return "an arc must be a pair of integers"
    u, v = item
    if u == v:
        return f"loop ({u},{v}) not allowed"
    if n is not None and not (0 <= u < n and 0 <= v < n):
        return f"arc ({u},{v}) out of range for n={n}"
    return f"duplicate arc ({u},{v})"


def _digraph_from_doc(doc: dict[str, Any], what: str) -> DiGraph:
    _expect_keys(doc, {"n", "arcs"}, what)
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise FormatError(f"{what}.n: expected a non-negative integer")
    return DiGraph.from_sorted_arrays(n, *_parse_arc_list(doc["arcs"], n, f"{what}.arcs"))


def parse_digraph(text: str) -> DiGraph:
    return _digraph_from_doc(_json_object(text, "digraph"), "digraph")


def _arc_list_text(arcs: Iterable[Arc]) -> str:
    """The arcs as ``json.dumps`` writes a list of ``[tail, head]`` lists."""
    return "[" + ", ".join([f"[{u}, {v}]" for u, v in arcs]) + "]"


def serialize_digraph(d: DiGraph) -> str:
    return f'{{"n": {d.vertex_count}, "arcs": {_arc_list_text(d.arcs_in_order())}}}'


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
    return CompositionSpec(outer, _blobs_from_docs(doc["H"]))


def _blobs_from_docs(subs: list[Any]) -> list[DiGraph]:
    """The blob digraphs of a non-empty ``composition.H``.

    Valid documents are ``{"n": k, "arcs": [...]}`` with an int k >= 1.  When
    C-level scans show that all are, with every k within int64, the arcless
    blobs share one ``DiGraph(k)`` per size, and the arcs of all other blobs
    are checked together in one `_checked_arcs` call, with no Python work
    per blob besides building it.  Otherwise the documents are read one by
    one, in order, and the first malformed one raises.
    """
    regular = set(map(type, subs)) == {dict} and set(map(len, subs)) == {2}
    if regular:
        sizes = list(map(dict.get, subs, repeat("n")))
        arc_lists = list(map(dict.get, subs, repeat("arcs")))
        regular = (
            set(map(type, sizes)) == {int}
            and 1 <= min(sizes) <= max(sizes) <= np.iinfo(np.int64).max
            and set(map(type, arc_lists)) == {list}
        )
    if not regular:
        return [_blob_from_doc(i, sub) for i, sub in enumerate(subs)]
    arcless = {k: DiGraph(k) for k in set(sizes)}
    blobs = list(map(arcless.__getitem__, sizes))
    with_arcs = list(compress(range(len(subs)), arc_lists))
    lists = list(map(arc_lists.__getitem__, with_arcs))
    counts = np.fromiter(map(len, lists), np.int64, len(lists))
    group = np.repeat(np.arange(len(lists)), counts)
    items = list(chain.from_iterable(lists))
    bound = np.fromiter(map(sizes.__getitem__, with_arcs), np.int64, len(lists))
    tails, heads, first = _checked_arcs(items, np.repeat(bound, counts), group)
    ends = np.cumsum(counts).tolist()
    starts = [0, *ends[:-1]]
    if first < len(items):
        k = int(group[first])
        i, n = with_arcs[k], sizes[with_arcs[k]]
        where = f"composition.H[{i}].arcs[{first - starts[k]}]"
        raise FormatError(f"{where}: {_arc_problem(items[first], n)}")
    for i, a, b in zip(with_arcs, starts, ends):
        blobs[i] = DiGraph.from_sorted_arrays(sizes[i], tails[a:b], heads[a:b])
    return blobs


def _blob_from_doc(i: int, sub: Any) -> DiGraph:
    if not isinstance(sub, dict):
        raise FormatError(f"composition.H[{i}]: expected a digraph object")
    blob = _digraph_from_doc(sub, f"composition.H[{i}]")
    if blob.vertex_count < 1:
        raise FormatError(f"composition.H[{i}].n: a blob needs at least 1 vertex")
    return blob


def serialize_composition(spec: CompositionSpec) -> str:
    # Blobs often share one DiGraph object; each is written once.
    distinct = {id(h): h for h in spec.blobs}
    texts = {key: serialize_digraph(h) for key, h in distinct.items()}
    blobs = ", ".join(map(texts.__getitem__, map(id, spec.blobs)))
    return f'{{"T": {serialize_digraph(spec.outer)}, "H": [{blobs}]}}'


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
        Branching.from_sorted_arrays(root, "out", *out_arcs),
        Branching.from_sorted_arrays(root, "in", *in_arcs),
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
    out_arcs = _arc_list_text(gp.out_branching.arcs_in_order())
    in_arcs = _arc_list_text(gp.in_branching.arcs_in_order())
    return f'{{"root": {gp.root}, "out_arcs": {out_arcs}, "in_arcs": {in_arcs}}}'


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
