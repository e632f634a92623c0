"""Instance and result documents: strict JSON, wildcards by key omission.

An instance document carries ``version`` (must be 1), ``girls``, ``boys``,
``girl_lists``, ``boy_lists`` and optionally ``refusers``.  A person with
no entry in their list table is a wildcard; an explicit empty array is
rejected so that "no list" and "list emptied" can never be confused.
Serialization is canonical (fixed key order, two-space indent, UTF-8), so
identical inputs produce byte-identical documents.
"""

from __future__ import annotations

import json
import re
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from itertools import chain, compress, count, filterfalse, islice, repeat
from json.decoder import WHITESPACE, scanstring
from json.encoder import encode_basestring
from operator import contains, is_not, not_

from .hall import HallViolator
from .instances import (
    Assignment,
    IndexView,
    Infeasible,
    InvariantError,
    RawInstance,
    SmpInstance,
    _index_rows,
    assignment_violations,
    validate_raw,
)

INSTANCE_VERSION = 1

_INSTANCE_KEYS = ("version", "girls", "boys", "girl_lists", "boy_lists", "refusers")
_TABLES = ("girl_lists", "boy_lists")
_STATUSES = ("solved", "unsolvable", "infeasible")
_STR = {str}
_LIST = {list}
_PAIR_LENGTH = {2}
# One [girl, boy] pair of a solved document, as json.dumps(indent=2) lays it out.
_PAIR_ROW = "    [\n      %s,\n      %s\n    ]"
# An escape in JSON text; the group holds a \uD800-\uDFFF one.
_ESCAPE = re.compile(r"\\(?:(u[dD][89a-fA-F])|.)", re.S)
# The end of an object document after its last member's value.
_CLOSING = re.compile(r"[ \t\n\r]*\}[ \t\n\r]*\Z")
# About how many characters of a list table's text the walk parses, and holds, at once.
_CHUNK = 1 << 14


class ParseError(ValueError):
    """The document is not valid JSON or violates the schema."""


@dataclass(frozen=True)
class ResultDoc:
    """Outcome of a solve run; exactly one payload per status."""

    status: str
    assignment: tuple[tuple[str, str], ...] | None = None
    violator: HallViolator | None = None
    infeasible_member: str | None = None


def _reject_duplicate_keys(pairs):
    # One C-level build per object; only an object with a repeated key is
    # walked again, for the first key that repeats.
    table = dict(pairs)
    if len(table) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"duplicate key '{key}'")
            seen.add(key)
    return table


def _load_object(text: str) -> dict:
    try:
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except ParseError:
        raise
    except RecursionError as exc:
        raise ParseError("invalid JSON: arrays or objects nested too deeply") from exc
    except ValueError as exc:
        # A syntax error, or an integer literal past the int-string limit.
        raise ParseError(f"invalid JSON: {exc}") from exc
    # json.loads joins an escaped surrogate pair into one character but keeps
    # a lone surrogate, which no UTF-8 output can hold; only a document with
    # such an escape in its text is encoded once more to find one.
    if _surrogate_escaped(text):
        try:
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ParseError("invalid JSON: a string holds an unpaired surrogate escape") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    return doc


def _surrogate_escaped(text: str) -> bool:
    # Escapes are read left to right, so an escaped backslash and "ud83d" is none.
    return any(match[1] for match in _ESCAPE.finditer(text))


def _is_string_array(value) -> bool:
    # One C-level type test per array; json.loads never yields subclasses.
    return type(value) is list and set(map(type, value)) <= _STR


def _string_array(value, where: str) -> tuple[str, ...]:
    if not _is_string_array(value):
        raise ParseError(f"'{where}' must be an array of strings")
    return tuple(value)


def _list_table(value, field: str, owner: str) -> dict[str, tuple[str, ...]]:
    if not isinstance(value, dict):
        raise ParseError(f"'{field}' must be an object")
    table: dict[str, tuple[str, ...]] = {}
    for key, entries in value.items():
        row = _string_array(entries, f"{field}.{key}")
        if not row:
            raise ParseError(
                f"empty list for {owner} '{key}' (omit the key to mean no list)"
            )
        table[key] = row
    return table


def parse_instance(text: str) -> RawInstance:
    """Parse an instance document; raises ParseError on any schema violation."""
    doc = _load_object(text)
    unknown = [k for k in doc if k not in _INSTANCE_KEYS]
    if unknown:
        raise ParseError(f"unknown keys: {unknown}")
    for key in _INSTANCE_KEYS[:-1]:
        if key not in doc:
            raise ParseError(f"missing key '{key}'")
    version = doc["version"]
    if type(version) is not int or version != INSTANCE_VERSION:
        raise ParseError(f"unsupported version {version!r} (expected {INSTANCE_VERSION})")
    girls = _string_array(doc["girls"], "girls")
    boys = _string_array(doc["boys"], "boys")
    girl_lists = _list_table(doc["girl_lists"], "girl_lists", "girl")
    boy_lists = _list_table(doc["boy_lists"], "boy_lists", "boy")
    refusers = _string_array(doc.get("refusers", []), "refusers")
    return RawInstance.build(girls, boys, girl_lists, boy_lists, refusers)


def prepare_document(read: Callable[[], str]) -> IndexView | Infeasible:
    """An instance document's text, validated and its refusals applied, as
    an :class:`IndexView` (solve, check).

    ``read()`` gives the text; the loader keeps the only reference to it,
    so it is freed once the load returns.  The walk (:func:`_walked_text`)
    parses the top-level members one at a time, in the order the writers
    lay them out, and each list table a chunk of rows at a time
    (:func:`_table_chunks`); each chunk is checked, filtered and translated
    into its rows' roster slots before the next is parsed, so no whole
    table of names is ever built.  Every error message and every
    infeasible member is the name-level path's:
    :func:`validate_raw` and :func:`preprocess_refusals` of
    :func:`parse_instance`'s instance (:func:`_checked_document`).
    """
    checked = _checked_document(read, _translated, _index_rows)
    if type(checked) is Infeasible:
        return checked
    return IndexView(tuple(checked[0]), tuple(checked[2]), checked[1], checked[3])


def check_document(read: Callable[[], str]) -> None:
    """Raise the ParseError :func:`prepare_document` raises for the instance
    document ``read()`` gives, if any, through the same checked pass, which
    here keeps no row."""
    _checked_document(read, _dropped, _marked)


def claim_problems(read: Callable[[], str], result: ResultDoc) -> list[str]:
    """Every problem with ``result``'s claim about the instance document
    ``read()`` gives, as ``verify`` prints them; the empty list means the
    claim is valid.  The document takes :func:`prepare_document`'s path and
    raises its errors, but each list table is reduced to what a pairing or
    violator needs (:class:`_Pairing`, :class:`_Violator`), or dropped for
    an infeasible claim, so no instance-sized table is built.
    """
    if result.status == "infeasible":
        checked = _checked_document(read, _dropped, _marked)
        if type(checked) is not Infeasible:
            return ["instance survives refusal preprocessing"]
        if checked.member != result.infeasible_member:
            return [f"preprocessing empties the list of '{checked.member}', not '{result.infeasible_member}'"]
        return []
    claim = _Pairing(result.assignment) if result.status == "solved" else _Violator(result.violator)
    checked = _checked_document(read, claim, _named)
    if type(checked) is Infeasible:
        return [f"refusals empty the list of '{checked.member}'"]
    return claim.problems(checked[1], checked[3])


def _checked_document(read: Callable[[], str], consume, place) -> list | Infeasible:
    """The checked pass over the document ``read()`` gives, on the walk,
    each list table placed by ``place`` and handed to ``consume``.  A text
    the walk gives up on takes the name-level checks, those of
    :func:`parse_instance` and then :func:`validate_raw`, which raise the
    ParseError naming every problem; a valid one is written again in the
    writers' member order (:func:`_compact_text`), and that text is
    walked."""
    text = read()
    checked = _walked_text(text, consume, place)
    if checked is None:
        raw = parse_instance(text)
        del text
        problems = validate_raw(raw)
        if problems:
            raise ParseError("; ".join(problems))
        text = _compact_text(raw)
        del raw
        checked = _walked_text(text, consume, place)
        if checked is None:
            raise InvariantError("the checked pass rejected a document the name-level checks accept")
    return checked


def _translated(side: int, rows: list, own: dict, other: dict) -> tuple[tuple[int, ...], ...]:
    """The per-table consumer of solve and check, whose rows were placed as
    index rows (:func:`_index_rows`)."""
    return tuple(rows)


def _dropped(side: int, rows: list, own: dict, other: dict) -> None:
    """The per-table consumer of a pass whose result reads no row."""


def _named(rows, other: dict):
    """The placement of a claim check: each row as its names."""
    return rows


def _marked(rows, other: dict):
    """The placement of a pass that reads no row: a mark per row."""
    return repeat(True)


def _checked_tables(members, refusers, consume, place) -> list | Infeasible | None:
    """The one checked pass behind every load: ``[girls, girl_side, boys,
    boy_side]`` for the kept members, in roster order, or the first member
    (girls first) whose list the refusals empty; None for any anomaly.

    ``members`` gives the document's top-level (key, value) pairs in the
    writers' order (:func:`_text_members`), a list table's value as the
    generator of its chunks (:func:`_table_chunks`), and ``refusers`` the
    refusers read ahead, which must be the document's own.  Each list
    table is checked and filtered chunk by chunk against each side's place
    map (:func:`_kept_rosters`).  ``place(rows, other)`` gives what each
    kept row of a chunk leaves in its roster slot, the row less its refused
    names, and a side is what ``consume(side, slots, own, other)`` (side 0
    the girls, then the two place maps) makes of its slots, ``()`` for a
    wildcard, once its table is checked.  Both tables, the refusers' own
    lists included, are checked before any refusal can empty a row, so an
    emptied list never hides a bad table.
    """
    (_, version), (_, girls), (_, boys) = islice(members, 3)
    if type(version) is not int or version != INSTANCE_VERSION:
        return None
    checked = _kept_rosters(girls, boys, refusers)
    del girls, boys  # parsed: a side keeps its kept roster
    if checked is None:
        return None
    refuse, rosters = checked
    sides = []  # what consume made of each side's slots, or the first member they empty
    for side in (0, 1):
        (roster, own), (_, other) = rosters[side], rosters[1 - side]
        _, chunks = next(members)
        kept = _kept_rows(chunks, roster, own, other, refuse, place)
        del chunks
        if kept is None:
            return None
        sides.append(consume(side, kept, own, other) if type(kept) is list else kept)
        del kept  # the slots, which consume may have reduced
    # The rest of the walk: the document's refusers, if any, and its close.
    if dict(members).get("refusers", []) != refusers:
        return None
    for side in sides:
        if type(side) is Infeasible:
            return side
    return [rosters[0][0], sides[0], rosters[1][0], sides[1]]


def _kept_rosters(girls, boys, refusers):
    """``(refused names, [(kept girls, girl places), (kept boys, boy
    places)])``, or None when a roster or the refusers are no string arrays,
    a name repeats or a refuser is on no roster.  A side's places map each
    name on its roster to the name's place in the kept roster, or a refused
    name to None; the two maps share one int object per place."""
    if not all(map(_is_string_array, (girls, boys, refusers))):
        return None
    refuse, places, rosters = set(refusers), [*range(max(len(girls), len(boys)))], []
    for roster in girls, boys:
        kept, place = roster, {}
        if refuse:
            kept = [*filterfalse(refuse.__contains__, roster)]
            place = dict.fromkeys(filter(refuse.__contains__, roster))
        place.update(zip(kept, places))
        if len(place) != len(roster):
            return None  # a name repeats
        rosters.append((kept, place))
    # Each difference walks the refusers, not the map.
    if len(refuse) != len(refusers) or refuse.difference(rosters[0][1]).difference(rosters[1][1]):
        return None
    return refuse, rosters


def _kept_rows(chunks, roster, own: dict, other: dict, refuse: set, place) -> list | Infeasible | None:
    """One side's roster slots, each holding what ``place`` made of its
    kept member's row less the refused names, ``()`` for a wildcard; or
    the first member whose row the refusals empty.  None when a chunk of
    the list table fails :func:`_names_table_ok` or a key repeats across
    chunks."""
    slots = [()] * len(roster)
    keys, refused = 0, []  # every key met, and those of refused members
    emptied = len(roster)  # the first place whose row the refusals empty
    for chunk in chunks:
        if not _names_table_ok(chunk, own, other):
            return None
        keys += len(chunk)
        places, rows = map(own.__getitem__, chunk), chunk.values()
        if refuse:
            places, rows = [*places], [*rows]
            # Only the rows listing a refuser change; an emptied row is kept
            # whole, as the side is then the member it belongs to.
            for i in [*compress(count(), map(not_, map(refuse.isdisjoint, rows)))]:
                if places[i] is not None:
                    row = [*filterfalse(refuse.__contains__, rows[i])]
                    if row:
                        rows[i] = row
                    elif places[i] < emptied:
                        emptied = places[i]
            if None in places:  # a refused member's row is checked, never kept
                kept = [*map(is_not, places, repeat(None))]
                refused += compress(chunk, map(not_, kept))
                places, rows = [*compress(places, kept)], [*compress(rows, kept)]
        deque(map(slots.__setitem__, places, place(rows, other)), 0)  # placed at C level
    # A key met in two chunks fills one slot.
    if len(slots) - slots.count(()) + len(set(refused)) != keys:
        return None
    if emptied < len(roster):
        return Infeasible(roster[emptied])
    return slots


def _names_table_ok(table, own: dict, other: dict) -> bool:
    """Whether a chunk of a list table is keyed by names ``own`` maps and
    its rows are non-empty arrays of distinct names ``other`` maps."""
    if not table.keys() <= own.keys():
        return False
    rows = table.values()
    if not set(map(type, rows)) <= _LIST or not all(rows):
        return False  # a row that is no array, or an empty one
    # A row's intersection with ``other``'s names (which walks the row) is
    # shorter than the row when an entry is unknown, no string or repeated.
    try:
        return sum(map(len, map(other.keys().__and__, rows))) == sum(map(len, rows))
    except TypeError:
        return False  # an unhashable entry


def _walked_text(text: str, consume, place) -> list | Infeasible | None:
    """The walk of :func:`prepare_document` over ``text``: each member
    parsed by :func:`_text_members`, a list table chunk by chunk, goes into
    the checked pass as it arrives.  The refusers are read ahead from the
    text's tail, where every writer puts them.  None for any anomaly, and
    for any text not laid out in the writers' member order."""
    if _surrogate_escaped(text):
        # The name-level path joins an escaped pair and rejects a lone
        # surrogate; the writers escape neither.
        return None
    # The C scanner json.loads(text, object_pairs_hook=...) parses with.
    scan_once = json.JSONDecoder(object_pairs_hook=_reject_duplicate_keys).scan_once
    members = _text_members(text, scan_once)
    try:
        return _checked_tables(members, _refusers_ahead(text, scan_once), consume, place)
    except _Unwalkable:
        return None


def _skip_space(text: str, idx: int) -> int:
    return WHITESPACE.match(text, idx).end()


def _refusers_ahead(text: str, scan_once):
    """The value of a ``"refusers"`` member that closes the document, read
    from the text's tail; ``[]`` when the tail holds none.  A text whose
    last two non-space characters are ``}`` closes on an object value, so
    it is not searched.  A ``"refusers"`` that no ``:`` follows is a
    string, such as a refuser of that name, and the search goes on before
    it."""
    if _CLOSING.match(text, text.rfind("}", 0, text.rfind("}")) + 1):
        return []
    at = len(text)
    while (at := text.rfind('"refusers"', 0, at)) >= 0:
        idx = _skip_space(text, at + len('"refusers"'))
        if text.startswith(":", idx):
            try:
                value, idx = scan_once(text, _skip_space(text, idx + 1))
            except (ValueError, RecursionError, StopIteration):
                return []
            return value if _CLOSING.match(text, idx) else []
    return []


class _Unwalkable(Exception):
    """The text is no instance document in the writers' member order whose
    members the walk reads as ``json.loads`` reads them."""


def _text_members(text: str, scan_once):
    """Yield the top-level members of an object document one (key, value)
    pair at a time, each value parsed by ``scan_once`` as ``json.loads``
    parses it, except that a list table's value is yielded as the
    generator of its chunks (:func:`_table_chunks`), which must be run out
    before the next member is asked for.  The members must come in the
    order the writers lay them out, :data:`_INSTANCE_KEYS` with or without
    the refusers.  Raises :class:`_Unwalkable` on any other layout, and
    where ``json.loads`` would not give the same members: a syntax error,
    trailing data, an integer past the int-string limit or nesting too
    deep."""
    try:
        idx = _skip_space(text, 0)
        if not text.startswith("{", idx):
            raise _Unwalkable
        idx = _skip_space(text, idx + 1)
        for key in _INSTANCE_KEYS:
            if not text.startswith('"', idx):
                break
            name, idx = scanstring(text, idx + 1, True)
            idx = _skip_space(text, idx)
            if name != key or not text.startswith(":", idx):
                break
            idx = _skip_space(text, idx + 1)
            if key in _TABLES:
                end = []
                yield key, _table_chunks(text, idx, scan_once, end)
                idx = end[0]
            else:
                value, idx = scan_once(text, idx)
                yield key, value
                del value  # before the next member is parsed
            idx = _skip_space(text, idx)
            if text.startswith(",", idx):
                idx = _skip_space(text, idx + 1)
            elif key in ("boy_lists", "refusers") and _CLOSING.match(text, idx):
                return
            else:
                break
    except (ValueError, RecursionError, StopIteration) as exc:
        raise _Unwalkable from exc
    raise _Unwalkable


def _table_chunks(text: str, idx: int, scan_once, end: list):
    """Yield the members of the object at ``text[idx]`` as dicts of whole
    rows, each parsed by ``scan_once`` from about :data:`_CHUNK` characters
    of the text cut after a ``]`` that a ``,`` follows, as ``"{" + piece +
    "}"``; then append the index past the object to ``end``.  A piece
    whose parse stops short of its end holds the object's close, and ends
    it.  A piece that does not parse may be cut inside a string (a name
    holding ``],``), so the rest of the object is then parsed in one
    piece.  Raises :class:`_Unwalkable` where ``json.loads`` would not read
    the same members: no object at ``text[idx]``, a parse error, an empty
    piece after a comma, or any error of :func:`_text_members`; a key
    repeated across chunks is the checked pass's to find."""
    if not text.startswith("{", idx):
        raise _Unwalkable
    start = idx + 1
    try:
        while True:
            cut = text.find("],", start + _CHUNK)
            if cut < 0 and start == idx + 1:
                value, stop = scan_once(text, idx)  # no cut: the object whole
                yield value
                end.append(stop)
                return
            # "{" stands in for the comma before a piece after the first.
            piece = "{" + text[start : cut + 1] + "}" if cut >= 0 else "{" + text[start:]
            try:
                value, stop = scan_once(piece, 0)
            except ValueError:
                if cut < 0:
                    raise
                cut, piece = -1, "{" + text[start:]  # the rest of the object in one piece
                value, stop = scan_once(piece, 0)
            del piece
            if not value and start > idx + 1:
                raise _Unwalkable  # a comma before the object's close
            yield value
            del value
            if cut < 0 or stop < cut + 3 - start:
                end.append(start + stop - 1)
                return
            start = cut + 2
    except (ValueError, RecursionError, StopIteration) as exc:
        raise _Unwalkable from exc


def serialize_instance(instance: SmpInstance | RawInstance) -> str:
    """Canonical instance document; wildcard members have no list entry."""
    return json.dumps(_instance_members(instance), indent=2, ensure_ascii=False) + "\n"


def _compact_text(instance: RawInstance) -> str:
    """:func:`serialize_instance`'s members on one line, by json's C encoder
    (an indent takes its pure-Python one)."""
    return json.dumps(_instance_members(instance), ensure_ascii=False)


def _instance_members(instance: SmpInstance | RawInstance) -> dict:
    # The instance's own tuples, which both encoders write as arrays.
    doc: dict = {
        "version": INSTANCE_VERSION,
        "girls": instance.girls,
        "boys": instance.boys,
        "girl_lists": {g: lst for g, lst in instance.girl_lists.items() if lst},
        "boy_lists": {b: lst for b, lst in instance.boy_lists.items() if lst},
    }
    refusers = getattr(instance, "refusers", ())
    if refusers:
        doc["refusers"] = refusers
    return doc


def serialize_result(result: ResultDoc) -> str:
    """Canonical result document with the status-specific payload."""
    if result.status == "solved":
        return _solved_document(result.assignment or ())
    doc: dict = {"status": result.status}
    if result.status == "unsolvable":
        v = result.violator
        doc["violator"] = {
            "side": v.side,
            "members": list(v.members),
            "union_size": v.union_size,
        }
    elif result.status == "infeasible":
        doc["infeasible_member"] = result.infeasible_member
    else:
        raise ValueError(f"unknown status {result.status!r}")
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _solved_document(pairs: tuple[tuple[str, str], ...]) -> str:
    """``json.dumps(doc, indent=2, ensure_ascii=False)`` of a solved document.

    Any ``indent`` makes json use its pure-Python encoder; that encoder
    escapes strings with :func:`json.encoder.encode_basestring`, so escaping
    every name with it and filling a fixed row template gives the same
    bytes at C speed.
    """
    if pairs:
        names = tuple(map(encode_basestring, chain.from_iterable(pairs)))
        body = "[\n" + ",\n".join(repeat(_PAIR_ROW, len(pairs))) % names + "\n  ]"
    else:
        body = "[]"
    return '{\n  "status": "solved",\n  "assignment": ' + body + "\n}\n"


def parse_result(text: str) -> ResultDoc:
    """Parse a result document; payloads must match the status exactly."""
    doc = _load_object(text)
    status = doc.get("status")
    if status not in _STATUSES:
        raise ParseError(f"status must be one of {list(_STATUSES)}")
    expected = {"solved": "assignment", "unsolvable": "violator", "infeasible": "infeasible_member"}
    payload_key = expected[status]
    keys = set(doc)
    if keys != {"status", payload_key}:
        raise ParseError(f"a {status} result must carry exactly 'status' and '{payload_key}'")
    if status == "solved":
        # Whole-array type and length tests at C level, by exact type as in
        # _is_string_array.
        pairs = doc["assignment"]
        if (
            type(pairs) is not list
            or not set(map(type, pairs)) <= _LIST
            or not set(map(len, pairs)) <= _PAIR_LENGTH
            or not set(map(type, chain.from_iterable(pairs))) <= _STR
        ):
            raise ParseError("'assignment' must be an array of [girl, boy] pairs")
        return ResultDoc("solved", assignment=tuple(map(tuple, pairs)))
    if status == "unsolvable":
        v = doc["violator"]
        if not isinstance(v, dict) or set(v) != {"side", "members", "union_size"}:
            raise ParseError("'violator' must carry side, members and union_size")
        if v["side"] not in ("girls", "boys"):
            raise ParseError("violator side must be 'girls' or 'boys'")
        members = _string_array(v["members"], "violator.members")
        union_size = v["union_size"]
        if isinstance(union_size, bool) or not isinstance(union_size, int) or union_size < 0:
            raise ParseError("violator union_size must be a nonnegative integer")
        return ResultDoc(
            "unsolvable", violator=HallViolator(v["side"], members, union_size)
        )
    member = doc["infeasible_member"]
    if not isinstance(member, str):
        raise ParseError("'infeasible_member' must be a string")
    return ResultDoc("infeasible", infeasible_member=member)


class _Pairing:
    """A solved claim as a per-table consumer: one partner map per side.  A
    table clears when the claim is injective, each kept listed member's
    partner is on its row and every name paired on its side is kept; it is
    then reduced to which paired members are listed.  Any other table is
    reduced to a claim-sized name table for :func:`assignment_violations`,
    the one writer of a pairing's problems."""

    def __init__(self, pairs: tuple[tuple[str, str], ...]):
        self.pairs = pairs
        self.partners = (dict(pairs), {b: g for g, b in pairs})
        self.injective = len(self.partners[0]) == len(self.partners[1]) == len(pairs)

    def __call__(self, side: int, rows: list, own: dict, other: dict) -> bytes | dict:
        partners = self.partners[side]
        places = [*map(own.get, partners)]
        if self.injective and None not in places:  # else a name paired twice, refused or on no roster
            paired = [*map(rows.__getitem__, places)]
            # A wildcard's row is (): every listed member is paired, on its row.
            if len(rows) - rows.count(()) == len(paired) - paired.count(()) and all(
                map(contains, compress(paired, paired), compress(partners.values(), paired))
            ):
                return bytes(map(bool, paired))
        claimed = {}  # each name paired on this side -> every partner the claim gives it
        for pair in self.pairs:
            claimed.setdefault(pair[side], []).append(pair[1 - side])
        table = {}
        # ``own`` maps the refused names to None first, then the kept names
        # to their places, in roster order.
        for name, place in own.items():
            if place is not None and (rows[place] or name in claimed):
                row = rows[place]
                cut = tuple(filter(row.__contains__, claimed.get(name, ())))
                table[name] = cut if cut or not row else (None,)
        return table

    def problems(self, girl_side, boy_side) -> list[str]:
        if type(girl_side) is type(boy_side) is bytes:
            return []  # both tables clear
        tables = []
        for partners, reduced in zip(self.partners, (girl_side, boy_side)):
            if type(reduced) is bytes:
                # A table that clears: each paired member lists its one
                # partner, or is a wildcard.
                reduced = {m: (p,) if listed else () for (m, p), listed in zip(partners.items(), reduced)}
            tables.append(reduced)
        instance = SmpInstance(tuple(tables[0]), tuple(tables[1]), *tables)
        return assignment_violations(instance, Assignment(self.pairs))


class _Violator:
    """A violator claim as a per-table consumer: its side's table reduced to
    the members' rows, as the other side's places (None for a member with
    no kept list), and the other table to whether each member is listed
    and which violator members it lists."""

    def __init__(self, violator: HallViolator):
        self.violator = violator
        self.side = ("girls", "boys").index(violator.side)

    def __call__(self, side: int, rows: list, own: dict, other: dict):
        members = self.violator.members
        if side == self.side:
            member_rows = [() if place is None else rows[place] for place in map(own.get, members)]
            return [row or None for row in _index_rows(member_rows, other)]
        members = set(members)
        meeting = compress(count(), map(not_, map(members.isdisjoint, rows)))
        return bytes(map(bool, rows)), {p: members.intersection(rows[p]) for p in meeting}

    def problems(self, girl_side, boy_side) -> list[str]:
        violator = self.violator
        members = violator.members
        member_rows, (listed, backs) = (boy_side, girl_side) if self.side else (girl_side, boy_side)
        problems = []
        if len(set(members)) != len(members):
            problems.append("violator members repeat")
        missing = [m for m, row in zip(members, member_rows) if row is None]
        if missing:
            problems.append(f"violator members not listed on the {violator.side} side: {missing}")
            return problems
        # A partner stays on a member's pared row when it is a wildcard or
        # lists the member back.
        union = {p for m, row in zip(members, member_rows) for p in row if not listed[p] or m in backs.get(p, ())}
        if len(union) != violator.union_size:
            problems.append(
                f"recomputed union size {len(union)} differs from claimed {violator.union_size}"
            )
        if len(union) >= len(members):
            problems.append(
                f"union of pared lists has {len(union)} members, not smaller than the "
                f"subset of {len(members)}"
            )
        return problems
