"""File formats and serialization.

Every document is a single line of JSON:

  digraph       {"n": 3, "arcs": [[0, 1], [1, 2], [2, 0]]}
  composition   {"T": <digraph>, "H": [<digraph>, ...]}   with len(H) == T.n
  good pair     {"root": 0, "out_arcs": [[0, 1]], "in_arcs": [[1, 0]]}
  branching     {"root": 0, "arcs": [[0, 1]]}

Arc lists are written sorted ascending, so parse(serialize(x)) == x and
documents diff cleanly.  The text is what ``json.dumps`` writes, with
``", "`` separators: the integers with fixed text between them.  From
`ARRAY_TEXT_MIN_INTS` integers on, `_join_ints` writes them all into one
byte buffer, one pass per digit place; below that, and for ids beyond int64
(arrays of dtype object), a join over the arcs does, which keeps any id
exact.  A composition is read into, and written from, its spec's blob
orders and its one digraph of blob arcs in global ids.  Its order must fit
int64; the blob at which it stops fitting is named, ``composition.H[i].n``.

Texts of at least `ARRAY_READ_MIN_BYTES` are first read as canonical text,
the writers' own form, once the white space ``json.loads`` skips around a
document is stripped: `_canonical_ints` takes out the runs of digits, and
the bytes before each run tell which field it belongs to.  The text is
accepted only when the writer, run on what was read, gives it back byte for
byte, and the arcs pass the loop, range and order masks; ``json.loads``
reads such a text the same way.  Any other text goes through
``json.loads``, whose arc lists become int arrays sorted by (tail, head)
once: C-level scans screen their items, and the loop, range and duplicate
checks run as masks over the arrays.  Parsers reject loops, duplicate arcs,
out-of-range ids and malformed syntax, naming the first failing arc,
``field[i]``, with the first check it fails in the order pair of integers,
loop, range, duplicate.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from typing import Any, Iterable

import numpy as np

from .composition import INT64_MAX, CompositionSpec, inner_digraph
from .digraph import Arc, Branching, DiGraph, GoodPair

# Attribute strings used by export_dot for the two branchings.
OUT_ARC_ATTR = "color=blue"
IN_ARC_ATTR = "color=red"


class FormatError(ValueError):
    """Raised on malformed input documents; the message names the field."""


# Sizes from which the arrays pay off, set from the crossovers measured
# against ``json.loads`` and the per-arc join (CHANGES.md): documents of at
# least this many integers are written by `_join_ints`, and texts of at
# least this many bytes are tried as canonical text first.
ARRAY_TEXT_MIN_INTS = 1024
ARRAY_READ_MIN_BYTES = 16_384


# The text before each integer of a bare arc list, and after the last one.
_LIST_HEAD, _LIST_TAIL, _LIST_FIRST, _LIST_END = range(4)
_LIST_GAPS = (b", ", b"], [", b"[[", b"]]")
# The same for a run of digraph documents joined by ", ": before a head, a
# tail, the first tail, the first n, an n after a digraph with arcs or
# without, and after the last one, with arcs or without.
_DOC_GAPS = (
    b", ",
    b"], [",
    b', "arcs": [[',
    b'{"n": ',
    b']]}, {"n": ',
    b', "arcs": []}, {"n": ',
    b"]]}",
    b', "arcs": []}',
)
_DOC_FIRST_TAIL, _DOC_FIRST_N, _DOC_N_AFTER_ARCS, _DOC_N_AFTER_NONE = range(2, 6)
_DOC_END_ARCS, _DOC_END_NONE = 6, 7
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def _join_ints(
    values: np.ndarray, codes: np.ndarray, gaps: tuple[bytes, ...]
) -> str:
    """``gaps[codes[0]] + str(values[0]) + gaps[codes[1]] + ... +
    str(values[-1]) + gaps[codes[-1]]`` for non-negative int64 ``values``,
    written into one byte buffer.

    Every value is written at the width of the longest, one digit place per
    pass, the most significant first: a shorter value's leading zeros land
    on the bytes before it, which a later pass or the gaps overwrite.  The
    buffer has that width in front, for the zeros of the first value.
    """
    longest = len(str(values.max())) if len(values) else 0
    width = np.array([len(g) for g in gaps])[codes]
    width[:-1] += 1
    for power in _POWERS_OF_TEN[: max(longest - 1, 0)]:
        width[:-1] += values >= power
    ends = np.cumsum(width) + longest
    buf = np.empty(ends[-1], dtype=np.uint8)
    rest = values.astype(np.uint32) if longest < 10 else values
    places = []
    for _ in range(longest):
        quotient = rest // 10
        places.append((rest - quotient * 10).astype(np.uint8) + 48)
        rest = quotient
    at = ends[:-1] - longest
    for place in reversed(places):
        buf[at] = place
        at += 1
    starts = ends - width
    for code, gap in enumerate(gaps):
        at = starts[codes == code]
        for byte in gap:
            buf[at] = byte
            at += 1
    return buf[longest:].tobytes().decode("ascii")


def _writable(*arrays: np.ndarray) -> bool:
    """True when `_join_ints` can write the ids: non-negative int64."""
    return all(
        a.dtype.kind == "i" and not (len(a) and a.min() < 0) for a in arrays
    )


def _arc_list_bytes(tails: np.ndarray, heads: np.ndarray) -> str:
    """The arcs ``(tails[k], heads[k])``, non-negative int64, as
    ``json.dumps`` writes a list of ``[tail, head]`` lists."""
    if not len(tails):
        return "[]"
    values = np.empty(2 * len(tails), dtype=np.int64)
    values[0::2], values[1::2] = tails, heads
    codes = np.empty(len(values) + 1, dtype=np.intp)
    codes[1::2], codes[2::2] = _LIST_HEAD, _LIST_TAIL
    codes[0], codes[-1] = _LIST_FIRST, _LIST_END
    return _join_ints(values, codes, _LIST_GAPS)


def _arc_list_join(arcs: Iterable[Arc]) -> str:
    """The arcs, ``(tail, head)`` int pairs in order, as ``json.dumps``
    writes a list of ``[tail, head]`` lists, by one join."""
    return "[" + ", ".join([f"[{u}, {v}]" for u, v in arcs]) + "]"


def _arc_list_text(tails: np.ndarray, heads: np.ndarray) -> str:
    """`_arc_list_bytes` from `ARRAY_TEXT_MIN_INTS` ids on; below it, or for
    ids it cannot write, `_arc_list_join`."""
    if 2 * len(tails) >= ARRAY_TEXT_MIN_INTS and _writable(tails, heads):
        return _arc_list_bytes(tails, heads)
    return _arc_list_join(zip(tails.tolist(), heads.tolist()))


def _digraphs_text(values: np.ndarray, n_at: np.ndarray) -> str:
    """Digraph documents joined by ``", "``: digraph g has ``values[n_at[g]]``
    vertices and its arcs, interleaved tail and head, up to ``n_at[g + 1]``."""
    lengths = np.diff(n_at, append=len(values))
    with_arcs = lengths > 1
    codes = np.empty(len(values) + 1, dtype=np.intp)
    # Offsets 1, 3, ... past an n are tails, offsets 2, 4, ... heads.
    codes[:-1] = (np.arange(len(values)) - np.repeat(n_at, lengths)) & 1
    codes[n_at[with_arcs] + 1] = _DOC_FIRST_TAIL
    codes[n_at[1:]] = np.where(
        with_arcs[:-1], _DOC_N_AFTER_ARCS, _DOC_N_AFTER_NONE
    )
    codes[0] = _DOC_FIRST_N
    codes[-1] = _DOC_END_ARCS if with_arcs[-1] else _DOC_END_NONE
    return _join_ints(values, codes, _DOC_GAPS)


def _digraph_docs(
    sizes: np.ndarray, counts: np.ndarray, tails: np.ndarray, heads: np.ndarray
) -> str:
    """Digraph documents joined by ``", "``: digraph g has ``sizes[g]``
    vertices and the next ``counts[g]`` arcs ``(tails[k], heads[k])``, in
    order.  From `ARRAY_TEXT_MIN_INTS` integers on, one `_digraphs_text`
    call writes them all, unless some id does not fit int64; below that,
    one `_arc_list_join` per digraph."""
    ints = len(sizes) + 2 * len(tails)
    if ints < ARRAY_TEXT_MIN_INTS or not _writable(sizes, tails, heads):
        arcs = list(zip(tails.tolist(), heads.tolist()))
        ends = np.cumsum(counts).tolist()
        return ", ".join(
            f'{{"n": {n}, "arcs": {_arc_list_join(arcs[a:b])}}}'
            for n, a, b in zip(sizes.tolist(), [0, *ends], ends)
        )
    n_at = np.arange(len(sizes)) + 2 * (np.cumsum(counts) - counts)
    values = np.empty(len(sizes) + 2 * len(tails), dtype=np.int64)
    values[n_at] = sizes
    ids = np.ones(len(values), dtype=bool)
    ids[n_at] = False
    at = np.flatnonzero(ids)
    values[at[0::2]], values[at[1::2]] = tails, heads
    return _digraphs_text(values, n_at)


def _composition_text(outer: str, blobs: str) -> str:
    return f'{{"T": {outer}, "H": [{blobs}]}}'


def _pair_text(root: int, out_arcs: str, in_arcs: str) -> str:
    return f'{{"root": {root}, "out_arcs": {out_arcs}, "in_arcs": {in_arcs}}}'


def serialize_digraph(d: DiGraph) -> str:
    return _digraph_docs(np.array([d.vertex_count]), np.array([d.arc_count]), d.tails, d.heads)


def serialize_composition(spec: CompositionSpec) -> str:
    blobs = _digraph_docs(spec.sizes, *spec.local_arcs())
    return _composition_text(serialize_digraph(spec.outer), blobs)


def serialize_branching(b: Branching) -> str:
    return f'{{"root": {b.root}, "arcs": {_arc_list_text(b.tails, b.heads)}}}'


def serialize_good_pair(gp: GoodPair) -> str:
    out_b, in_b = gp.out_branching, gp.in_branching
    out_arcs = _arc_list_text(out_b.tails, out_b.heads)
    return _pair_text(gp.root, out_arcs, _arc_list_text(in_b.tails, in_b.heads))


_COLON = ord(":")


def _canonical_ints(
    text: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The runs of decimal digits in ``text`` as ``(values, starts, marks)``:
    each run's int64 value, its offset, and the byte two before it (``:`` in
    ``"n": 5``, ``[`` in ``[[5``).  None when the text is not ASCII, has no
    run, starts or ends with one, or has a run over 18 digits, which int64
    might not hold."""
    if not text.isascii():
        return None
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    digits = raw - 48  # wraps, so only the digits fall below 10
    is_digit = digits < 10
    if not len(raw) or is_digit[0] or is_digit[-1]:
        return None
    edges = np.flatnonzero(is_digit[1:] != is_digit[:-1]) + 1
    starts, ends = edges[0::2], edges[1::2]
    if not len(starts) or starts[0] < 2:
        return None
    lengths = ends - starts
    longest = int(lengths.max())
    if longest > 18:
        return None
    values = digits[ends - 1].astype(np.int64)
    for k in range(1, longest):  # the digit k places from the last
        digit = np.where(lengths > k, digits[ends - 1 - k], 0)
        values += digit * _POWERS_OF_TEN[k - 1]
    return values, starts, raw[starts - 2]


def _simple_and_sorted(
    tails: np.ndarray, heads: np.ndarray, group: np.ndarray | None = None
) -> bool:
    """True when no arc is a loop and the arcs of each list (the runs of
    equal ``group``) rise strictly by (tail, head), so none repeats."""
    if not len(tails):
        return True
    rising = tails[1:] > tails[:-1]
    rising |= (tails[1:] == tails[:-1]) & (heads[1:] > heads[:-1])
    if group is not None:
        rising |= group[1:] != group[:-1]
    return bool(rising.all()) and not (tails == heads).any()


def _arc_pairs(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Interleaved ids as ``(tails, heads)``; None for an odd count."""
    if len(ids) % 2:
        return None
    return np.ascontiguousarray(ids[0::2]), np.ascontiguousarray(ids[1::2])


def _canonical_digraphs(values: np.ndarray, marks: np.ndarray):
    """``(n_at, sizes, counts, tails, heads)`` for the digraph documents
    whose ints `_canonical_ints` read: each n is marked by a colon, and its
    arcs follow it.  None when the ints do not split into such documents or
    some arc is a loop, out of range, or out of order."""
    n_at = np.flatnonzero(marks == _COLON)
    if not len(n_at) or n_at[0] != 0:
        return None
    lengths = np.diff(n_at, append=len(values)) - 1
    arcs = _arc_pairs(np.delete(values, n_at))
    if arcs is None or (lengths & 1).any():
        return None
    tails, heads = arcs
    sizes, counts = values[n_at], lengths // 2
    group = np.repeat(np.arange(len(n_at)), counts)
    bound = sizes[group]
    if (tails >= bound).any() or (heads >= bound).any():
        return None
    if not _simple_and_sorted(tails, heads, group):
        return None
    return n_at, sizes, counts, tails, heads


def _canonical_digraph(text: str) -> DiGraph | None:
    read = _canonical_ints(text)
    found = read and _canonical_digraphs(read[0], read[2])
    if not found or len(found[0]) != 1:
        return None
    n_at, sizes, _, tails, heads = found
    if _digraphs_text(read[0], n_at) != text:
        return None
    return DiGraph.from_sorted_arrays(int(sizes[0]), tails, heads)


def _canonical_composition(text: str) -> CompositionSpec | None:
    read = _canonical_ints(text)
    found = read and _canonical_digraphs(read[0], read[2])
    if not found:
        return None
    n_at, sizes, counts, tails, heads = found
    if len(n_at) < 2 or sizes[0] != len(n_at) - 1:
        return None
    # Blob orders of at least 1 whose total passes int64 wrap it below 0.
    if sizes[1:].min() < 1 or np.cumsum(sizes[1:]).min() < 0:
        return None
    m = int(counts[0])
    outer = DiGraph.from_sorted_arrays(int(sizes[0]), tails[:m], heads[:m])
    inner = inner_digraph(sizes[1:], counts[1:], tails[m:], heads[m:])
    spec = CompositionSpec.from_arrays(outer, sizes[1:], inner)
    return spec if serialize_composition(spec) == text else None


def _canonical_pair(text: str) -> GoodPair | None:
    read = _canonical_ints(text)
    if read is None:
        return None
    values, starts, marks = read
    if marks[0] != _COLON:
        return None
    cut = 1 + int(np.searchsorted(starts[1:], text.find('"in_arcs"')))
    out_arcs, in_arcs = _arc_pairs(values[1:cut]), _arc_pairs(values[cut:])
    if out_arcs is None or in_arcs is None:
        return None
    if not (_simple_and_sorted(*out_arcs) and _simple_and_sorted(*in_arcs)):
        return None
    root = int(values[0])
    rebuilt = _pair_text(root, _arc_list_bytes(*out_arcs), _arc_list_bytes(*in_arcs))
    if rebuilt != text:
        return None
    return GoodPair(
        root,
        Branching.from_sorted_arrays(root, "out", *out_arcs),
        Branching.from_sorted_arrays(root, "in", *in_arcs),
    )


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


def _digraph_from_json(text: str) -> DiGraph:
    return _digraph_from_doc(_json_object(text, "digraph"), "digraph")


def _composition_from_json(text: str) -> CompositionSpec:
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
    return _spec_from_docs(outer, doc["H"])


def _spec_from_docs(outer: DiGraph, subs: list[Any]) -> CompositionSpec:
    """The spec of ``outer`` and the blob documents ``subs``, non-empty.

    Valid documents are ``{"n": k, "arcs": [...]}`` with int ks >= 1 that
    sum within int64.  When C-level scans show that all are, the arcs of all
    blobs are checked in one `_checked_arcs` call, with no Python work per
    blob.  Otherwise the documents are read in order, and the first
    malformed one, or the one at which the order passes int64, raises.
    """
    regular = set(map(type, subs)) == {dict} and set(map(len, subs)) == {2}
    if regular:
        sizes = list(map(dict.get, subs, repeat("n")))
        arc_lists = list(map(dict.get, subs, repeat("arcs")))
        regular = (
            set(map(type, sizes)) == {int}
            and min(sizes) >= 1
            and sum(sizes) <= INT64_MAX
            and set(map(type, arc_lists)) == {list}
        )
    if not regular:
        # The scans fail only on such a document, so this loop raises.
        total = 0
        for i, sub in enumerate(subs):
            if not isinstance(sub, dict):
                raise FormatError(f"composition.H[{i}]: expected a digraph object")
            n = _digraph_from_doc(sub, f"composition.H[{i}]").vertex_count
            if n < 1:
                raise FormatError(f"composition.H[{i}].n: a blob needs at least 1 vertex")
            total += n
            if total > INT64_MAX:
                raise FormatError(
                    f"composition.H[{i}].n: the composition order passes int64 "
                    f"({total} vertices so far)"
                )
    sizes = np.array(sizes, dtype=np.int64)
    counts = np.fromiter(map(len, arc_lists), np.int64, len(arc_lists))
    group = np.repeat(np.arange(len(subs)), counts)
    items = list(chain.from_iterable(arc_lists))
    tails, heads, first = _checked_arcs(items, sizes[group], group)
    if first < len(items):
        i = int(group[first])
        where = f"composition.H[{i}].arcs[{first - int(counts[:i].sum())}]"
        raise FormatError(f"{where}: {_arc_problem(items[first], int(sizes[i]))}")
    return CompositionSpec.from_arrays(outer, sizes, inner_digraph(sizes, counts, tails, heads))


def _pair_from_json(text: str) -> GoodPair:
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


def _parse(text: str, canonical, by_json):
    """``canonical`` of ``text`` without the white space ``json.loads``
    skips around a document (the CLI's output ends in a newline), for texts
    of at least `ARRAY_READ_MIN_BYTES`; ``by_json`` of ``text`` when that
    gives None or the text is shorter."""
    if len(text) >= ARRAY_READ_MIN_BYTES:
        found = canonical(text.strip(" \t\n\r"))
        if found is not None:
            return found
    return by_json(text)


def parse_digraph(text: str) -> DiGraph:
    return _parse(text, _canonical_digraph, _digraph_from_json)


def parse_composition(text: str) -> CompositionSpec:
    return _parse(text, _canonical_composition, _composition_from_json)


def parse_good_pair(text: str) -> GoodPair:
    return _parse(text, _canonical_pair, _pair_from_json)


def export_dot(
    pair: GoodPair | None = None, host: DiGraph | None = None
) -> str:
    """Render a digraph and/or good pair as DOT text.

    Out-branching arcs carry ``color=blue``, in-branching arcs ``color=red``
    (see OUT_ARC_ATTR / IN_ARC_ATTR).  When a host digraph is given, its
    remaining arcs follow without attributes.  Each group is in sorted order.
    """
    if pair is None and host is None:
        raise ValueError("export_dot needs a pair, a host digraph, or both")
    lines = ["digraph G {"]
    if pair is not None:
        lines.append(f"  {pair.root} [shape=doublecircle];")
        for b, attr in ((pair.out_branching, OUT_ARC_ATTR), (pair.in_branching, IN_ARC_ATTR)):
            lines += [f"  {u} -> {v} [{attr}];" for u, v in b.arcs_in_order()]
    if host is not None:
        trees = () if pair is None else (pair.out_branching, pair.in_branching)
        colored = {a for b in trees for a in b.arcs_in_order()}
        lines += [f"  {u} -> {v};" for u, v in host.arcs_in_order() if (u, v) not in colored]
    lines.append("}")
    return "\n".join(lines) + "\n"
