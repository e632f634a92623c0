"""The member walk against ``json``: a differential fuzz over edited texts,
and the pieces of ``json.decoder`` the walk is built from.

The walk (``fileio._walked_text`` and ``fileio._text_members``) parses an
instance document's top-level members with json's own scanner, and every
command loads through it.  Wherever it reads a text, it must read it as
``json.loads`` does; wherever it hands a text back, the whole-document
path must give the same outcome.  The fuzz draws valid and faulty
documents, lays them out, and edits the text: the refusers moved, one
member renamed everywhere or one top-level member written twice, then
characters deleted, inserted, appended, replaced, duplicated or cut off.
"""

import json
import json.decoder

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symmarriage import fileio

from .test_cli import FRAME_TEXT, assert_loads_alike, instance_objects

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
    """An instance document from ``instance_objects``, laid out with a
    drawn key order, indentation and escaping.  The refusers, when it has
    some, may be moved to just after the first list table; then one member
    may be renamed everywhere, or one top-level member written twice."""
    doc = draw(instance_objects())
    keys = draw(st.permutations(list(doc)))
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
    """The members ``_text_members`` yields, or None where it hands the
    text back."""
    scan_once = json.JSONDecoder(object_pairs_hook=fileio._reject_duplicate_keys).scan_once
    try:
        return list(fileio._text_members(text, scan_once))
    except fileio._Unwalkable:
        return None


def json_members(text):
    """The top-level members ``json.loads`` reads, or None where it rejects
    the text or reads no object."""
    try:
        doc = json.loads(text, object_pairs_hook=fileio._reject_duplicate_keys)
    except (ValueError, RecursionError):
        return None
    return list(doc.items()) if type(doc) is dict else None


class TestWalkDifferential:
    @given(edited_documents())
    @example(FRAME_TEXT + "x")
    @example(FRAME_TEXT.replace('"b2"', '"\\ud800"'))
    @example(FRAME_TEXT.replace("{\n", '{\n  "version": 1,\n', 1))
    @settings(deadline=None, max_examples=300)
    def test_walk_reads_as_json_and_loads_as_the_name_level_path(self, text):
        # The loaded view against the name-level path.
        assert_loads_alike(text, check_walk=False)
        # Where the walk reads the text, it reads json's members; repr tells
        # NaN values apart.
        walked = walked_members(text)
        if walked is not None:
            assert repr(walked) == repr(json_members(text))


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
