from __future__ import annotations

import pytest

from mcidx.jsonio import iter_jsonl, write_jsonl


def test_write_jsonl_round_trip(tmp_path):
    path = tmp_path / "out" / "records.jsonl"
    write_jsonl(path, [{"a": 1}, {"b": "ü"}])
    assert [record for _, record in iter_jsonl(path)] == [{"a": 1}, {"b": "ü"}]
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
