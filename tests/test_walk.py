"""The member walk against ``json``: a differential fuzz over edited texts,
and the pieces of ``json.decoder`` the walk is built from.

The walk (``fileio._walked_text``, ``fileio._text_members`` and
``fileio._table_chunks``) parses an instance document's top-level members
with json's own scanner, each list table a chunk of rows at a time, and
every command loads through it.  It reads only members in the order the
writers lay them out.  Wherever it reads a text, it must read it as
``json.loads`` does; wherever it hands a text back, the name-level path
must give the same outcome, and a valid text, written again by the
writers, must be walked.  The fuzz draws valid and faulty
documents, lays them out, and edits the text: the refusers moved, one
member renamed everywhere or one top-level member written twice, then
characters deleted, inserted, appended, replaced, duplicated or cut off.
It runs at the walk's own chunk size and at size 1, where every row
boundary is a chunk boundary.
"""

import gc
import json
import json.decoder
from collections import deque
from contextlib import contextmanager
from types import GeneratorType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symmarriage import fileio
from symmarriage.fileio import serialize_instance
from symmarriage.instances import IndexView, RawInstance

from .conftest import bench_document
from .test_cli import (
    FRAME_CASES,
    FRAME_TEXT,
    LOAD_BASE,
    LOAD_CASES,
    assert_loads_alike,
    instance_documents,
    instance_objects,
    reordered,
    walked,
)

# What a character edit may insert: JSON syntax, escapes the walk pre-checks,
# literals json.loads rejects or limits, and members the walk reads ahead.
PIECES = (
    '"',
    "}",
    "{",
    ",",
    ":",
    "[",
    "]",
    " ",
    "\\",
    "\\ud800",
    "\\udc00",
    "\\ud83d\\ude00",
    "\\u0022",
    "NaN",
    "-Infinity",
    "1" * 5000,
    "1.5e3",
    "\ufeff",
    "\u00a0",
    "\f",
    "null",
    '"g1"',
    '"refusers": []',
    ',"refusers":["b1"]',
    '"version": 1,',
    "[" * 50,
)
# What a member may be renamed to, as JSON text: a lone surrogate escape,
# a name holding an escaped quote, and the name of the refusers member.
RENAMES = ('"\\ud800"', '"a\\"b"', '"refusers"')


def members_of(doc):
    """The string members on a document's rosters."""
    names = []
    for field in ("girls", "boys"):
        roster = doc.get(field)
        if type(roster) is list:
            names += [name for name in roster if type(name) is str]
    return names


@st.composite
def laid_out_documents(draw):
    """An instance document from ``instance_objects``, laid out with its
    keys in the writers' order or a drawn one, and a drawn indentation and
    escaping.  The refusers, when it has some, may be moved to just after
    the first list table; then one member may be renamed everywhere, or
    one top-level member written twice."""
    doc = draw(instance_objects())
    keys = list(doc) if draw(st.booleans()) else draw(st.permutations(list(doc)))
    if "refusers" in doc and draw(st.booleans()):
        keys.remove("refusers")
        tables = [i for i, key in enumerate(keys) if key in ("girl_lists", "boy_lists")]
        keys.insert(min(tables, default=-1) + 1, "refusers")  # after the first list table
    indent = draw(st.sampled_from([2, None, 0, "\t"]))
    text = json.dumps({key: doc[key] for key in keys}, indent=indent, ensure_ascii=draw(st.booleans()))
    edit = draw(st.sampled_from([None, "rename", "repeat"]))
    names = members_of(doc)
    if edit == "rename" and names:
        # Everywhere: on its roster, as a list key and in rows.
        name = json.dumps(draw(st.sampled_from(names)))
        text = text.replace(name, draw(st.sampled_from(RENAMES)))
    elif edit == "repeat":
        key = draw(st.sampled_from(keys))
        text = text.replace("{", "{%s: %s," % (json.dumps(key), json.dumps(doc[key])), 1)
    return text


@st.composite
def edited_documents(draw):
    """A laid-out document with up to three character edits."""
    text = draw(laid_out_documents())
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["delete", "insert", "append", "replace", "duplicate", "truncate"]))
        if edit == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 4)) :]
        elif edit == "insert":
            text = text[:at] + draw(st.sampled_from(PIECES)) + text[at:]
        elif edit == "append":
            text += draw(st.sampled_from(PIECES))
        elif edit == "replace":
            text = text[:at] + draw(st.sampled_from(PIECES)) + text[at + draw(st.integers(1, 4)) :]
        elif edit == "duplicate":
            span = text[at : at + draw(st.integers(1, 40))]
            to = draw(st.integers(0, len(text)))
            text = text[:to] + span + text[to:]
        else:
            text = text[:at]
    return text


def walked_members(text):
    """The members ``_text_members`` yields, a list table's chunks merged
    into one object in their order, or None where it hands the text back
    or a key repeats across chunks."""
    scan_once = json.JSONDecoder(object_pairs_hook=fileio._reject_duplicate_keys).scan_once
    members = []
    try:
        for key, value in fileio._text_members(text, scan_once):
            if type(value) is GeneratorType:
                chunks = list(value)
                value = {key: row for chunk in chunks for key, row in chunk.items()}
                if len(value) != sum(map(len, chunks)):
                    return None
            members.append((key, value))
    except fileio._Unwalkable:
        return None
    return members


def json_members(text):
    """The top-level members ``json.loads`` reads, or None where it rejects
    the text or reads no object."""
    try:
        doc = json.loads(text, object_pairs_hook=fileio._reject_duplicate_keys)
    except (ValueError, RecursionError):
        return None
    return list(doc.items()) if type(doc) is dict else None


def assert_walk_reads_as_json(text):
    # The loaded view against the name-level path.
    assert_loads_alike(text, check_walk=False)
    # Where the walk reads the text, it reads json's members; repr tells
    # NaN values apart.
    walked = walked_members(text)
    if walked is not None:
        assert repr(walked) == repr(json_members(text))


@contextmanager
def chunk_size(size):
    """The walk cuts its list tables after about ``size`` characters."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileio, "_CHUNK", size)
        yield


class TestWalkDifferential:
    @given(edited_documents())
    @example(FRAME_TEXT + "x")
    @example(FRAME_TEXT.replace('"b2"', '"\\ud800"'))
    @example(FRAME_TEXT.replace("{\n", '{\n  "version": 1,\n', 1))
    @settings(deadline=None, max_examples=300)
    def test_walk_reads_as_json_and_loads_as_the_name_level_path(self, text):
        assert_walk_reads_as_json(text)


COMPACT = json.dumps(LOAD_BASE)
# Texts where a list table's chunks could be misread: each with whether the
# walk must read it to an outcome (a valid document it hands back, laid out
# in an order no writer writes, still loads alike once written again; a
# faulty one it always hands back, for the name-level path's message).
CHUNK_TRAPS = {
    "comma before a table's close": (COMPACT.replace('"x": ["b1"]}', '"x": ["b1"],}'), False),
    "comma and space before the last table's close": (
        COMPACT.replace('"b1": ["x", "g1"]}', '"b1": ["x", "g1"], }'),
        False,
    ),
    "comma after a table's opening": (COMPACT.replace('"girl_lists": {', '"girl_lists": {,'), False),
    "key repeated in a later chunk": (COMPACT.replace('"x": ["b1"]}', '"x": ["b1"], "g1": ["b1"]}'), False),
    "refused member's key repeated in a later chunk": (
        json.dumps(dict(LOAD_BASE, refusers=["g1"])).replace('"x": ["b1"]}', '"x": ["b1"], "g1": ["b2"]}'),
        False,
    ),
    "key repeated in a table met before the rosters": (
        reordered(LOAD_BASE, "girl_lists", "boy_lists", "version", "girls", "boys").replace(
            '"x": [\n      "b1"\n    ]\n', '"x": [\n      "b1"\n    ],\n    "g1": ["b1"]\n'
        ),
        False,
    ),
    "], inside a name": (COMPACT.replace('"b1"', '"b],1"'), True),
    "], inside a table key": (COMPACT.replace('"g1"', '"g],1"'), True),
    "whitespace between ] and ,": (COMPACT.replace('"b3"], "x"', '"b3"] , "x"'), True),
    "newline between ] and , everywhere": (json.dumps(LOAD_BASE, indent=2).replace("],", "]\n,"), True),
    "table that is an array": (json.dumps(dict(LOAD_BASE, girl_lists=[["b1"]])), False),
    "empty table": (json.dumps(dict(LOAD_BASE, girl_lists={})), True),
    "empty last table, spaced": (json.dumps(dict(LOAD_BASE, boy_lists={})).replace("{}", "{ }"), True),
    "tables before the rosters": (reordered(LOAD_BASE, "girl_lists", "boy_lists", "version", "girls", "boys"), False),
    "emptied row, then a bad row in a later chunk": (
        json.dumps(dict(LOAD_BASE, refusers=["b1"], girl_lists={"x": ["b1"], "g1": ["b2", "b2"]})),
        False,
    ),
    "bad row, then an emptied row in a later chunk": (
        json.dumps(dict(LOAD_BASE, refusers=["b1"], girl_lists={"g1": ["b2", "b2"], "x": ["b1"]})),
        False,
    ),
    "emptied row, then a key repeated in a later chunk": (
        json.dumps(dict(LOAD_BASE, refusers=["b1"])).replace('"x": ["b1"]}', '"x": ["b1"], "g1": ["b2"]}'),
        False,
    ),
    "emptied row, then a bad boys' table": (
        json.dumps(dict(LOAD_BASE, refusers=["b1"], boy_lists={"b2": ["g2"], "b3": ["g1", "g1"]})),
        False,
    ),
}


# Pieces of the names a written text may hold: a cut, the refusers' key, a
# quote and a backslash the writers escape, letters that after an escaped
# backslash read like a surrogate escape, and an astral character the
# writers write as it is.
NAME_PIECES = st.sampled_from(["],", '"refusers"', "refusers", '"', "\\", "ud83d", "\U0001f600", ":", " ", "g"])
WRITTEN_NAMES = st.lists(NAME_PIECES, min_size=1, max_size=4).map("".join)


@st.composite
def written_instances(draw):
    """A valid instance whose names are drawn from :data:`NAME_PIECES`,
    with refusers that may empty a list."""
    girls = draw(st.lists(WRITTEN_NAMES, unique=True, max_size=5))
    boys = draw(st.lists(WRITTEN_NAMES, unique=True, max_size=5))

    def table(own, other):
        rows = st.lists(st.sampled_from(other or [""]), min_size=1, unique=True)
        return {member: draw(rows) for member in own if other and draw(st.booleans())}

    members = girls + boys
    refusers = draw(st.lists(st.sampled_from(members), unique=True, max_size=3)) if members else []
    return RawInstance.build(girls, boys, table(girls, boys), table(boys, girls), refusers)


class TestChunkBoundaries:
    """The walk reads a list table a chunk of whole rows at a time; at
    chunk size 1 every row boundary is a chunk boundary, and the walk
    still reads what json reads and loads what the name-level path loads."""

    @given(edited_documents())
    @example(FRAME_TEXT.replace("],", "],}", 1))
    @settings(deadline=None, max_examples=300)
    def test_walk_reads_as_json_at_every_row_boundary(self, text):
        with chunk_size(1):
            assert_walk_reads_as_json(text)

    @given(instance_documents())
    @settings(deadline=None, max_examples=600)
    def test_loads_as_the_name_level_path_at_every_row_boundary(self, text):
        with chunk_size(1):
            assert_loads_alike(text)

    @pytest.mark.parametrize("case", [*LOAD_CASES, *FRAME_CASES])
    def test_explicit_case_at_every_row_boundary(self, case):
        with chunk_size(1):
            if case in LOAD_CASES:
                assert_loads_alike(json.dumps(dict(LOAD_BASE, **LOAD_CASES[case][0])))
            else:
                assert_walk_reads_as_json(FRAME_CASES[case])

    @pytest.mark.parametrize("workload", ["reciprocal-repair", "planted-unsolvable"])
    @pytest.mark.parametrize("size", [1, 200])
    def test_bench_families(self, workload, size):
        with chunk_size(size):
            assert_loads_alike(bench_document(workload, 1000))

    @pytest.mark.parametrize("size", [1, 5, None])
    @pytest.mark.parametrize("case", list(CHUNK_TRAPS))
    def test_trap(self, case, size):
        text, must_walk = CHUNK_TRAPS[case]
        with chunk_size(size or fileio._CHUNK):
            assert_walk_reads_as_json(text)
            if must_walk:
                assert walked(text)

    @pytest.mark.parametrize("size", [1, None])
    @given(written_instances())
    @settings(deadline=None, max_examples=300)
    def test_every_written_text_is_walked(self, size, raw):
        # The writers' text, and the one-line text a load writes again for
        # a layout the walk gives up on.
        text = serialize_instance(raw)
        with chunk_size(size or fileio._CHUNK):
            assert walked(text)
            assert walked(fileio._compact_text(raw))
            assert_loads_alike(text)

    def test_every_row_is_a_chunk_at_size_one(self):
        scan_once = json.JSONDecoder(object_pairs_hook=fileio._reject_duplicate_keys).scan_once
        with chunk_size(1):
            tables = {key: list(value) for key, value in fileio._text_members(FRAME_TEXT, scan_once) if key.endswith("_lists")}
        assert tables == {
            "girl_lists": [{"g1": ["b1", "b2", "b3"]}, {"x": ["b1"]}],
            "boy_lists": [{"b2": ["g2", "g1"]}, {"b1": ["x", "g1"]}],
        }


class TestLoadMemory:
    """What the load holds while it reads the list tables."""

    def test_table_pieces_hold_about_16_kib(self):
        # A piece is cut at the first row end past 16 KiB; this family's
        # rows are far shorter than 1 KiB.
        scan = json.JSONDecoder(object_pairs_hook=fileio._reject_duplicate_keys).scan_once
        pieces = []

        def recording(text, idx):
            if idx == 0:
                pieces.append(len(text))
            return scan(text, idx)

        text = bench_document("planted-unsolvable", 1000)
        for _, value in fileio._text_members(text, recording):
            if isinstance(value, GeneratorType):
                deque(value, 0)
        # The tables hold most of the text, so there is more than one piece
        # per 32 KiB of it.
        assert len(pieces) > len(text) // (1 << 15)
        assert max(pieces) < (1 << 14) + (1 << 10)

    def test_parsed_rosters_are_dropped(self, monkeypatch):
        # With refusers, each side keeps a roster of its own, so the parsed
        # rosters are garbage before the first list table is read.
        parsed, alive = {}, []
        kept_rosters, kept_rows = fileio._kept_rosters, fileio._kept_rows

        def rosters(girls, boys, refusers):
            parsed.update({id(girls): tuple(girls), id(boys): tuple(boys)})
            return kept_rosters(girls, boys, refusers)

        def rows(*args):
            alive.extend(
                len(obj) for obj in gc.get_objects()
                if id(obj) in parsed and type(obj) is list and tuple(obj) == parsed[id(obj)]
            )
            return kept_rows(*args)

        monkeypatch.setattr(fileio, "_kept_rosters", rosters)
        monkeypatch.setattr(fileio, "_kept_rows", rows)
        text = bench_document("planted-unsolvable", 1000)
        assert json.loads(text)["refusers"]
        assert isinstance(fileio.prepare_document(lambda: text), IndexView)
        assert len(parsed) == 2 and alive == []


class TestJsonDecoderContract:
    """The walk uses three names ``json`` does not document; each test names
    the one that is gone or no longer behaves as the walk reads it."""

    def test_scanstring(self):
        scanstring = getattr(json.decoder, "scanstring", None)
        if scanstring is None:
            pytest.fail("json.decoder.scanstring is gone: the walk reads member keys with it")
        assert scanstring('{"a\\u0062": 1}', 2, True) == ("ab", 10), "json.decoder.scanstring changed"

    def test_whitespace(self):
        whitespace = getattr(json.decoder, "WHITESPACE", None)
        if whitespace is None:
            pytest.fail("json.decoder.WHITESPACE is gone: the walk skips whitespace with it")
        assert whitespace.match(" \t\n\r{", 0).end() == 4, "json.decoder.WHITESPACE changed"
        assert whitespace.match("\f{", 0).end() == 0, "json.decoder.WHITESPACE changed"

    def test_scan_once(self):
        decoder = json.JSONDecoder(object_pairs_hook=fileio._reject_duplicate_keys)
        scan_once = getattr(decoder, "scan_once", None)
        if scan_once is None:
            pytest.fail("json.JSONDecoder(...).scan_once is gone: the walk parses member values with it")
        assert scan_once('x: {"a": [1]} ,', 3) == ({"a": [1]}, 13), "json.JSONDecoder(...).scan_once changed"
        with pytest.raises(fileio.ParseError):
            scan_once('{"a": 1, "a": 2}', 0)
