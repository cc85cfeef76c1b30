from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcidx.errors import DataError, SchemaError
from mcidx.jsonio import atomic_text_writer, iter_json_objects, iter_jsonl_lines, read_jsonl, write_jsonl
from oracles import oracle_jsonl


def test_write_jsonl_round_trip(tmp_path):
    path = tmp_path / "out" / "records.jsonl"
    write_jsonl(path, [{"a": 1}, {"b": "ü"}])
    records = []
    read_jsonl(path, records.append)
    assert records == [{"a": 1}, {"b": "ü"}]
    assert sorted(p.name for p in path.parent.iterdir()) == ["records.jsonl"]


def test_failed_write_keeps_old_file(tmp_path):
    path = tmp_path / "records.jsonl"
    write_jsonl(path, [{"old": True}])
    before = path.read_bytes()

    def records():
        yield {"new": 1}
        raise RuntimeError("generator failed mid-write")

    with pytest.raises(RuntimeError, match="mid-write"):
        write_jsonl(path, records())
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["records.jsonl"]


def test_two_writers_open_on_one_path(tmp_path):
    # Each writes its own temporary file; the one closed last replaces the path last.
    path = tmp_path / "out.txt"
    with atomic_text_writer(path) as first, atomic_text_writer(path) as second:
        first.write("first\n")
        second.write("second\n")
    assert path.read_text() == "first\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# Whole lines that are not one JSON object, or nearly are.
_ODD_BODIES = st.sampled_from([
    "NaN", '{"a": NaN}', '{"a": -Infinity}', "}{", "{}{}", '{"a": 1} x', '{"a": 1}]', "{",
    '{"a": "b', '"s"', "[]", "1 2", "", "\\", '{"a":\t1}', '{"a": "\\u00e9"}',
])
# JSON whitespace, Unicode whitespace that JSON rejects, and a byte order mark.
_PADDING = st.text(st.sampled_from(" \t\r\n\x0c\x1c\x85\xa0\u3000\ufeff"), max_size=3)
_LINES = st.lists(
    st.tuples(
        _PADDING,
        st.dictionaries(st.text(max_size=3), _JSON_VALUES, max_size=3).map(json.dumps)
        | _JSON_VALUES.map(json.dumps) | _ODD_BODIES,
        _PADDING,
        st.sampled_from(["\n", "\r\n", "\r", ""]),
    ),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(_LINES)
@example([("", '{"a": 1}', "", "\r\n"), (" \x85 ", "", "\xa0", "\r"), ("", '{"b": NaN}', "\t", "\n")])
@example([("\ufeff", '{"a": 1}', "", "\n")])
@example([("", '{"a": "b', "\t", "\n")])
def test_iter_jsonl_matches_per_line_json_loads(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("jsonl") / "records.jsonl"
    path.write_bytes("".join("".join(parts) for parts in lines).encode("utf-8"))
    expected, bad_line = oracle_jsonl(path)
    got = []
    with open(path, encoding="utf-8") as fh:
        if bad_line is None:
            got.extend(iter_jsonl_lines(fh, path))
        else:
            with pytest.raises(SchemaError) as info:
                got.extend(iter_jsonl_lines(fh, path))
            assert info.value.line == bad_line
    # repr, because NaN != NaN.
    assert repr(got) == repr(expected)


def test_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_bytes(b'{"a": 1}\n{"b": "\xff"}\n')
    with pytest.raises(DataError, match="records.jsonl is not UTF-8 text"):
        read_jsonl(path, lambda record: None)


def test_json_objects_skip_a_malformed_one():
    assert list(iter_json_objects('{bad {"a": 1}')) == [{"a": 1}]
