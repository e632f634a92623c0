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
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, count, filterfalse, repeat
from json.decoder import WHITESPACE, scanstring
from json.encoder import encode_basestring
from operator import contains, not_

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
_KEYS = frozenset(_INSTANCE_KEYS)
_REQUIRED_KEYS = frozenset(_INSTANCE_KEYS[:-1])
_STATUSES = ("solved", "unsolvable", "infeasible")
_STR = {str}
_LIST = {list}
_PAIR_LENGTH = {2}
# One [girl, boy] pair of a solved document, as json.dumps(indent=2) lays it out.
_PAIR_ROW = "    [\n      %s,\n      %s\n    ]"
# A \uD800-\uDFFF escape in JSON text.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
# The end of an object document after its last member's value.
_CLOSING = re.compile(r"[ \t\n\r]*\}[ \t\n\r]*\Z")


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
    table = {}
    for key, value in pairs:
        if key in table:
            raise ParseError(f"duplicate key '{key}'")
        table[key] = value
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
    if _SURROGATE_ESCAPE.search(text):
        try:
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ParseError("invalid JSON: a string holds an unpaired surrogate escape") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    return doc


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
    return _raw_instance(_load_object(text))


def _raw_instance(doc: dict) -> RawInstance:
    """The schema checks of :func:`parse_instance` on a parsed document."""
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

    ``read()`` gives the text; the loader keeps the only reference to it.
    The walk (:func:`_walked_text`) parses the top-level members one at a
    time, so that, rows translated, only one list table's names are alive
    at once, and frees the text before the last table is translated.
    Every error message and every infeasible member is the name-level
    path's: :func:`validate_raw` and :func:`preprocess_refusals` of
    :func:`parse_instance`'s instance (:func:`_checked_document`).
    """
    checked = _checked_document(read, _translated)
    if type(checked) is Infeasible:
        return checked
    return IndexView(tuple(checked[0]), tuple(checked[2]), *_sides(checked))


def claim_problems(read: Callable[[], str], result: ResultDoc) -> list[str]:
    """Every problem with ``result``'s claim about the instance document
    ``read()`` gives, as ``verify`` prints them; the empty list means the
    claim is valid.  The document takes :func:`prepare_document`'s path and
    raises its errors, but each list table is reduced to what a pairing or
    violator needs (:class:`_Pairing`, :class:`_Violator`), or dropped for
    an infeasible claim, so no instance-sized table is built.
    """
    if result.status == "infeasible":
        checked = _checked_document(read, _dropped)
        if type(checked) is not Infeasible:
            return ["instance survives refusal preprocessing"]
        if checked.member != result.infeasible_member:
            return [f"preprocessing empties the list of '{checked.member}', not '{result.infeasible_member}'"]
        return []
    claim = _Pairing(result.assignment) if result.status == "solved" else _Violator(result.violator)
    checked = _checked_document(read, claim)
    if type(checked) is Infeasible:
        return [f"refusals empty the list of '{checked.member}'"]
    return claim.problems(*_sides(checked))


def _checked_document(read: Callable[[], str], consume) -> list | Infeasible:
    """The checked pass over the document ``read()`` gives, each list table
    handed to ``consume``: on the walk, else on the document parsed whole
    by :func:`_load_object`.  A document the pass rejects raises the
    ParseError of the name-level checks, those of :func:`parse_instance`
    and then :func:`validate_raw`, which name every problem."""
    box = [read()]
    checked = _walked_text(box, consume)
    if checked is None:
        doc = _load_object(box.pop())
        checked = _checked_tables(doc.items(), doc.get("refusers", []), consume)
        if checked is None:
            problems = validate_raw(_raw_instance(doc))
            if problems:
                raise ParseError("; ".join(problems))
            raise InvariantError("the checked pass rejected a document the name-level checks accept")
    return checked


def _translated(side: int, rows: list, own: dict, other: dict) -> tuple[tuple[int, ...], ...]:
    """The per-table consumer of solve and check: rows as index rows."""
    return _index_rows(rows, other)


def _dropped(side: int, rows: list, own: dict, other: dict) -> None:
    """The per-table consumer of an infeasible claim, which reads no row."""


def _checked_tables(members, refusers, consume) -> list | Infeasible | None:
    """The one checked pass behind every load: ``[girls, girl_side, boys,
    boy_side]`` for the kept members, in roster order, or the first member
    (girls first) whose list the refusals empty; None for any anomaly.

    ``members`` gives the document's top-level (key, value) pairs, in any
    order, and ``refusers`` the refusers to apply until the document's own
    arrive; it returns None when these differ from refusers it has already
    applied to a list table.  A row is the document's own array less its
    refused names, or ``()`` for a wildcard.  A list table is checked,
    filtered and dropped as soon as both rosters are known, checked
    against each side's place map (:func:`_kept_rosters`).  A side is what
    ``consume(side, rows, own, other)`` (side 0 the girls, then the two
    place maps) makes of its rows: the first table handled is replaced by
    it at once, before the next member is parsed; the other is returned
    as a ``partial`` that does so, for the caller to call once it has
    freed what it parsed (:func:`_sides`).  Both tables, the refusers' own
    lists included, are checked before any refusal can empty a row, so an
    emptied list never hides a bad table.
    """
    frame = {}  # each member met; a list table only until it is handled
    rosters = None  # each side's kept roster and place map, once both pass
    rows = {}  # side -> its kept rows, or the first member they empty
    for key, value in members:
        if key not in _KEYS:
            return None
        if key == "refusers" and value != refusers:
            if rows:
                return None  # a list table was filtered by other refusers
            refusers, rosters = value, None
        frame[key] = value
        del value
        if rosters is None:
            if "girls" not in frame or "boys" not in frame:
                continue
            checked = _kept_rosters(frame["girls"], frame["boys"], refusers)
            if checked is None:
                return None
            refuse, rosters = checked
        for side, field in enumerate(("girl_lists", "boy_lists")):
            if side in rows or field not in frame:
                continue
            (roster, own), (_, other) = rosters[side], rosters[1 - side]
            kept = _kept_rows(frame[field], roster, own, other, refuse)
            frame[field] = None
            if kept is None:
                return None
            if type(kept) is list:
                kept = partial(consume, side, kept, own, other) if rows else consume(side, kept, own, other)
            rows[side] = kept
    if not _REQUIRED_KEYS <= frame.keys():
        return None
    version = frame["version"]
    if type(version) is not int or version != INSTANCE_VERSION:
        return None
    if frame.get("refusers", []) != refusers:
        return None  # refusers read ahead that the walk never met
    for side in (0, 1):
        if type(rows[side]) is Infeasible:
            return rows[side]
    return [rosters[0][0], rows[0], rosters[1][0], rows[1]]


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


def _kept_rows(table, roster, own: dict, other: dict, refuse: set) -> list | Infeasible | None:
    """One side's rows for its kept ``roster``, less their refused names,
    or the first member whose row the refusals empty; None when the list
    table fails :func:`_names_table_ok`."""
    if not _names_table_ok(table, own, other):
        return None
    rows = [*map(table.get, roster, repeat(()))]
    if refuse:
        # Only the rows listing a refuser change, in roster order.
        for i in [*compress(count(), map(not_, map(refuse.isdisjoint, rows)))]:
            rows[i] = [*filterfalse(refuse.__contains__, rows[i])]
            if not rows[i]:
                return Infeasible(roster[i])
    return rows


def _names_table_ok(table, own: dict, other: dict) -> bool:
    """Whether a list table is an object keyed by names ``own`` maps whose
    rows are non-empty arrays of distinct names ``other`` maps."""
    if type(table) is not dict or not table.keys() <= own.keys():
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


def _walked_text(box: list, consume) -> list | Infeasible | None:
    """The walk of :func:`prepare_document` on the text in ``box``: each
    member parsed by :func:`_text_members` goes into the checked pass as it
    arrives, with ``consume`` for its list tables.  The refusers are read
    ahead from the text's tail, where every writer puts them; the pass
    takes the document's own when the walk meets them before any list
    table.  ``box`` is emptied once the walk has ended.  None, the text
    left in ``box``, for any anomaly, refusers met between the list tables
    included."""
    text = box[0]
    if _SURROGATE_ESCAPE.search(text):
        return None  # _load_object tests the whole document for a lone surrogate
    # The C scanner json.loads(text, object_pairs_hook=...) parses with.
    scan_once = json.JSONDecoder(object_pairs_hook=_reject_duplicate_keys).scan_once
    refusers = _refusers_ahead(text, scan_once)
    members = _text_members(text, scan_once)
    del text
    try:
        checked = _checked_tables(members, refusers, consume)
    except _Unwalkable:
        return None
    if checked is not None:
        box.clear()  # the walk has ended: the text goes before the last table is consumed
    return checked


def _sides(checked: list) -> list:
    """The checked pass's two sides, the one whose consumer waited called now."""
    return [side() if type(side) is partial else side for side in checked[1::2]]


def _skip_space(text: str, idx: int) -> int:
    return WHITESPACE.match(text, idx).end()


def _refusers_ahead(text: str, scan_once):
    """The value of a ``"refusers"`` member that closes the document, read
    from the text's tail; ``[]`` when the tail holds none.  A text whose
    last two non-space characters are ``}`` closes on an object value, so
    it is not searched."""
    if _CLOSING.match(text, text.rfind("}", 0, text.rfind("}")) + 1):
        return []
    at = text.rfind('"refusers"')
    if at >= 0:
        idx = _skip_space(text, at + len('"refusers"'))
        if text.startswith(":", idx):
            try:
                value, idx = scan_once(text, _skip_space(text, idx + 1))
            except (ValueError, RecursionError, StopIteration):
                return []
            if _CLOSING.match(text, idx):
                return value
    return []


class _Unwalkable(Exception):
    """The text is no object document whose members the walk reads as
    ``json.loads`` reads them."""


def _text_members(text: str, scan_once):
    """Yield the top-level members of an object document one (key, value)
    pair at a time, each value parsed by ``scan_once`` as ``json.loads``
    parses it.  Raises :class:`_Unwalkable` where ``json.loads`` would not
    give the same members: a syntax error, trailing data, a repeated key,
    an integer past the int-string limit or nesting too deep."""
    keys = set()
    try:
        idx = _skip_space(text, 0)
        if not text.startswith("{", idx):
            raise _Unwalkable
        idx = _skip_space(text, idx + 1)
        while text.startswith('"', idx):
            key, idx = scanstring(text, idx + 1, True)
            idx = _skip_space(text, idx)
            if key in keys or not text.startswith(":", idx):
                raise _Unwalkable
            keys.add(key)
            value, idx = scan_once(text, _skip_space(text, idx + 1))
            yield key, value
            del value  # before the next member is parsed
            idx = _skip_space(text, idx)
            if text.startswith(",", idx):
                idx = _skip_space(text, idx + 1)
            elif _CLOSING.match(text, idx):
                return
            else:
                break
    except (ValueError, RecursionError, StopIteration) as exc:
        raise _Unwalkable from exc
    raise _Unwalkable


def serialize_instance(instance: SmpInstance | RawInstance) -> str:
    """Canonical instance document; wildcard members have no list entry."""
    doc: dict = {
        "version": INSTANCE_VERSION,
        "girls": list(instance.girls),
        "boys": list(instance.boys),
        "girl_lists": {g: list(lst) for g, lst in instance.girl_lists.items() if lst},
        "boy_lists": {b: list(lst) for b, lst in instance.boy_lists.items() if lst},
    }
    refusers = getattr(instance, "refusers", ())
    if refusers:
        doc["refusers"] = list(refusers)
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


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
