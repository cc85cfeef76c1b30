from __future__ import annotations

import builtins
import hashlib
import io
import json
import os
import shutil
import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcidx import store
from mcidx.cli import run
from mcidx.errors import CorruptIndex, DataError, McIndexError, VersionMismatch
from mcidx.jsonio import jsonl_bytes
from mcidx.providers import EmbeddingProvider, MockEmbeddingProvider
from mcidx.retrieval import (
    Query,
    build_dense_index,
    build_sparse_index,
    rank_units,
)
from mcidx.store import EMBEDDINGS_FILE, IDS_FILE, MANIFEST, TERMS_FILE, UNITS_FILE, load_index, save_index

UNITS = [
    ("u1", "cat sat on the mat"),
    ("u2", "cat cat dog barks loud"),
    ("u3", "fish swim deep down"),
    ("u4", ""),
]
QUERIES = ["cat dog", "fish", "nothing matches", "cat cat fish dog"]


def ranking(index, query, provider=None):
    return [(u.unit_id, u.score, u.rank) for u in rank_units(index, Query(query, provider))]


class TestSparseRoundTrip:
    @pytest.mark.parametrize("kind", ["tfidf", "bm25"])
    def test_rankings_identical_after_reload(self, tmp_path, kind):
        index = build_sparse_index(UNITS, kind)
        save_index(index, tmp_path / kind)
        reloaded = load_index(tmp_path / kind)
        for query in QUERIES:
            assert ranking(index, query) == ranking(reloaded, query)

    @pytest.mark.parametrize("kind", ["tfidf", "bm25"])
    def test_scores_bit_exact_on_wide_vocabulary(self, tmp_path, kind):
        # Many terms per unit stresses summation order in derived statistics.
        import random

        rng = random.Random(99)
        vocabulary = [f"term{i}" for i in range(60)]
        units = [
            (f"u{i}", " ".join(rng.choice(vocabulary) for _ in range(40)))
            for i in range(25)
        ]
        index = build_sparse_index(units, kind)
        save_index(index, tmp_path / "wide")
        reloaded = load_index(tmp_path / "wide")
        for seed in range(10):
            qrng = random.Random(seed)
            query = " ".join(qrng.choice(vocabulary) for _ in range(5))
            assert ranking(index, query) == ranking(reloaded, query)

    @pytest.mark.parametrize("kind", ["tfidf", "bm25"])
    def test_units_without_terms(self, tmp_path, kind):
        # avgdl is 0, which no derived norm may divide by.
        index = build_sparse_index([("u1", ""), ("u2", "... !")], kind)
        save_index(index, tmp_path / kind)
        reloaded = load_index(tmp_path / kind)
        assert reloaded.avgdl == 0.0 and reloaded.unit_norms.tobytes() == index.unit_norms.tobytes()
        assert ranking(reloaded, "cat") == ranking(index, "cat") == [("u1", 0.0, 1), ("u2", 0.0, 2)]

    def test_statistics_survive(self, tmp_path):
        index = build_sparse_index(UNITS, "bm25")
        save_index(index, tmp_path / "idx")
        reloaded = load_index(tmp_path / "idx")
        assert reloaded.unit_ids == index.unit_ids
        assert reloaded.terms == index.terms
        for name in ("indptr", "postings", "tfs", "unit_lens", "idf", "unit_norms"):
            assert np.array_equal(getattr(reloaded, name), getattr(index, name)), name
        assert reloaded.avgdl == index.avgdl


class TestDenseRoundTrip:
    def test_rankings_identical_after_reload(self, tmp_path):
        provider = MockEmbeddingProvider()
        index = build_dense_index(UNITS, provider)
        save_index(index, tmp_path / "dense")
        reloaded = load_index(tmp_path / "dense")
        assert (reloaded.matrix == index.matrix).all()
        assert reloaded.provider == index.provider
        for query in QUERIES:
            assert ranking(index, query, provider) == ranking(reloaded, query, provider)


class OneColumnProvider(EmbeddingProvider):
    """Rows one column wide: -1, 0 or 1 by text length."""

    name = "one-column"

    def embed(self, texts):
        return [[len(text) % 3 - 1.0] for text in texts]


class TestSmallestRoundTrip:
    """The fewest units and the narrowest rows a manifest allows load and rank as before the save."""

    @pytest.mark.parametrize("kind", ["tfidf", "bm25", "dense"])
    def test_one_unit(self, tmp_path, kind):
        provider = MockEmbeddingProvider() if kind == "dense" else None
        units = [("only", "cat sat on the mat")]
        index = build_dense_index(units, provider) if provider else build_sparse_index(units, kind)
        save_index(index, tmp_path / kind)
        reloaded = load_index(tmp_path / kind)
        assert reloaded.unit_ids == ["only"]
        for query in QUERIES:
            assert ranking(index, query, provider) == ranking(reloaded, query, provider)

    def test_dense_one_column_wide(self, tmp_path):
        provider = OneColumnProvider()
        index = build_dense_index(UNITS, provider)
        assert index.dim == 1
        save_index(index, tmp_path / "dense")
        reloaded = load_index(tmp_path / "dense")
        assert (reloaded.matrix == index.matrix).all()
        for query in QUERIES:
            assert ranking(index, query, provider) == ranking(reloaded, query, provider)


class TestCorruption:
    def test_truncated_embeddings(self, tmp_path):
        index = build_dense_index(UNITS, MockEmbeddingProvider())
        save_index(index, tmp_path)
        blob = (tmp_path / EMBEDDINGS_FILE).read_bytes()
        (tmp_path / EMBEDDINGS_FILE).write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CorruptIndex):
            load_index(tmp_path)

    def test_flipped_byte_in_terms(self, tmp_path):
        save_index(build_sparse_index(UNITS, "bm25"), tmp_path)
        blob = bytearray((tmp_path / TERMS_FILE).read_bytes())
        blob[-1] ^= 0xFF
        (tmp_path / TERMS_FILE).write_bytes(bytes(blob))
        with pytest.raises(CorruptIndex):
            load_index(tmp_path)

    def test_missing_data_file(self, tmp_path):
        save_index(build_sparse_index(UNITS, "tfidf"), tmp_path)
        (tmp_path / TERMS_FILE).unlink()
        with pytest.raises(CorruptIndex):
            load_index(tmp_path)

    def test_unknown_format_version(self, tmp_path):
        save_index(build_sparse_index(UNITS, "tfidf"), tmp_path)
        manifest = json.loads((tmp_path / MANIFEST).read_text())
        manifest["format_version"] = 99
        (tmp_path / MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(VersionMismatch):
            load_index(tmp_path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CorruptIndex):
            load_index(tmp_path)


class TestReplaceAsAWhole:
    def test_failed_save_keeps_the_old_index(self, tmp_path, monkeypatch):
        directory = tmp_path / "idx"
        save_index(build_sparse_index(UNITS, "bm25"), directory)
        before = {path.name: path.read_bytes() for path in directory.iterdir()}
        write_bytes = Path.write_bytes

        def failing(path, data):
            if path.name == TERMS_FILE:
                raise OSError("disk full")
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", failing)
        with pytest.raises(OSError, match="disk full"):
            save_index(build_sparse_index(UNITS[:2], "bm25"), directory)
        assert {path.name: path.read_bytes() for path in directory.iterdir()} == before
        assert load_index(directory).unit_ids == [uid for uid, _ in UNITS]
        assert [path.name for path in tmp_path.iterdir()] == ["idx"]

    def test_failed_swap_puts_the_old_index_back(self, tmp_path, monkeypatch):
        directory = tmp_path / "idx"
        save_index(build_sparse_index(UNITS, "bm25"), directory)
        before = {path.name: path.read_bytes() for path in directory.iterdir()}
        rename = Path.rename

        def failing(path, target):
            if path.name == "new":  # the staged index, moved aside the old one
                raise OSError("rename refused")
            return rename(path, target)

        monkeypatch.setattr(Path, "rename", failing)
        with pytest.raises(OSError, match="rename refused"):
            save_index(build_sparse_index(UNITS[:2], "bm25"), directory)
        assert {path.name: path.read_bytes() for path in directory.iterdir()} == before
        assert load_index(directory).unit_ids == [uid for uid, _ in UNITS]
        assert [path.name for path in tmp_path.iterdir()] == ["idx"]

    @pytest.mark.parametrize("kind", ["bm25", "dense"])
    def test_save_replaces_every_file(self, tmp_path, kind):
        directory = _saved("tfidf" if kind == "dense" else "dense", tmp_path / "idx")
        _saved(kind, directory)
        expected = {MANIFEST, *((IDS_FILE, EMBEDDINGS_FILE) if kind == "dense" else (UNITS_FILE, TERMS_FILE))}
        assert {path.name for path in directory.iterdir()} == expected
        assert [path.name for path in tmp_path.iterdir()] == ["idx"]
        load_index(directory)

    def test_refuses_to_replace_what_is_not_an_index(self, tmp_path):
        (tmp_path / "idx").mkdir()
        (tmp_path / "idx" / "notes.txt").write_text("keep")
        with pytest.raises(DataError, match="not an index"):
            save_index(build_sparse_index(UNITS, "bm25"), tmp_path / "idx")
        assert [str(path.relative_to(tmp_path)) for path in tmp_path.rglob("*")] == ["idx", "idx/notes.txt"]

    def test_refuses_to_replace_the_working_directory(self, tmp_path, monkeypatch):
        save_index(build_sparse_index(UNITS, "bm25"), tmp_path / "idx")
        before = {path.name: path.read_bytes() for path in (tmp_path / "idx").iterdir()}
        monkeypatch.chdir(tmp_path / "idx")
        with pytest.raises(DataError, match="working directory"):
            save_index(build_sparse_index(UNITS[:2], "bm25"), ".")
        assert {path.name: path.read_bytes() for path in (tmp_path / "idx").iterdir()} == before

    def test_cli_refusal_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"doc_id": "d", "title": "t", "sections": [
            {"section_id": "s0", "heading": "h", "level": 1, "text": "cat sat."}]}) + "\n")
        code = run(["index", "--corpus", str(corpus), "--scheme", "content", "--retriever", "bm25",
                    "--output", str(tmp_path)])
        assert code == 2
        assert "not an index" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["corpus.jsonl"]


def _rewrite(directory, name, data: bytes):
    """Replace an index file and update its manifest checksum, so loading reaches the parser."""
    (directory / name).write_bytes(data)
    manifest = json.loads((directory / MANIFEST).read_text())
    manifest["checksums"][name] = hashlib.sha256(data).hexdigest()
    (directory / MANIFEST).write_text(json.dumps(manifest))


def _edit_manifest(directory, **changes):
    manifest = json.loads((directory / MANIFEST).read_text())
    for key, value in changes.items():
        if value is _DROP:
            del manifest[key]
        else:
            manifest[key] = value
    (directory / MANIFEST).write_text(json.dumps(manifest))


_DROP = object()


def _terms_blob(entries) -> bytes:
    """terms.bin bytes for ``[(term, [(unit_idx, tf), ...]), ...]`` in the given order."""
    out = [b"MCIT", struct.pack("<I", len(entries))]
    for term, postings in entries:
        encoded = term.encode("utf-8")
        out += [struct.pack("<I", len(encoded)), encoded, struct.pack("<I", len(postings))]
        out += [struct.pack("<II", unit_idx, tf) for unit_idx, tf in postings]
    return b"".join(out)


class TestCorruptIndexRejected:
    @pytest.fixture
    def sparse(self, tmp_path):
        save_index(build_sparse_index(UNITS, "bm25"), tmp_path)
        return tmp_path

    @pytest.fixture
    def dense(self, tmp_path):
        save_index(build_dense_index(UNITS, MockEmbeddingProvider()), tmp_path)
        return tmp_path

    @pytest.mark.parametrize("kind, damage", [
        ("sparse", lambda d: (d / MANIFEST).unlink()),
        ("sparse", lambda d: _edit_manifest(d, format_version=99)),
        ("sparse", lambda d: _edit_manifest(d, kind="lsi")),
        ("sparse", lambda d: _edit_manifest(d, n_units="4")),
        ("sparse", lambda d: (d / TERMS_FILE).unlink()),
        ("sparse", lambda d: (d / TERMS_FILE).write_bytes(b"MCIT")),
        ("sparse", lambda d: _rewrite(d, TERMS_FILE, b"XXXX")),
        ("sparse", lambda d: _rewrite(d, UNITS_FILE, b'{"unit_id": "u1", "n_tokens": 5}\n')),
        ("dense", lambda d: _rewrite(d, EMBEDDINGS_FILE, b"\0" * 4)),
    ], ids=["no-manifest", "version", "unknown-kind", "manifest-field", "missing-file", "checksum",
            "terms-magic", "unit-count", "embeddings-size"])
    def test_error_names_the_directory(self, request, kind, damage):
        # retrieve --mode mc loads three directories; the message must say which one is bad.
        directory = request.getfixturevalue(kind)
        damage(directory)
        with pytest.raises((CorruptIndex, VersionMismatch)) as info:
            load_index(directory)
        assert str(info.value).startswith(f"{directory}: ")

    def test_valid_handmade_terms_file_loads(self, sparse):
        units = "".join(f'{{"unit_id": "u{i}", "n_tokens": {n}}}\n' for i, n in enumerate([1, 3, 0, 0], 1))
        _rewrite(sparse, UNITS_FILE, units.encode())
        _rewrite(sparse, TERMS_FILE, _terms_blob([("cat", [(0, 1), (1, 2)]), ("dog", [(1, 1)])]))
        index = load_index(sparse)
        assert index.terms == {"cat": 0, "dog": 1}
        assert index.postings.tolist() == [0, 1, 1]
        assert index.tfs.tolist() == [1, 2, 1]

    def test_next_row_may_start_below_the_last_posting(self, sparse):
        # Postings ascend within a row; from one row to the next they start again.
        units = "".join(f'{{"unit_id": "u{i}", "n_tokens": {n}}}\n' for i, n in enumerate([1, 0, 0, 1], 1))
        _rewrite(sparse, UNITS_FILE, units.encode())
        _rewrite(sparse, TERMS_FILE, _terms_blob([("cat", [(3, 1)]), ("dog", [(0, 1)])]))
        index = load_index(sparse)
        assert index.postings.tolist() == [3, 0]
        assert index.indptr.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("changes", [
        {"n_units": _DROP}, {"n_units": "4"}, {"n_units": 4.0}, {"n_units": True}, {"n_units": 0},
    ], ids=["missing", "string", "float", "bool", "zero"])
    def test_bad_n_units_sparse(self, sparse, changes):
        _edit_manifest(sparse, **changes)
        with pytest.raises(CorruptIndex, match="n_units"):
            load_index(sparse)

    @pytest.mark.parametrize("changes", [{"checksums": _DROP}, {"checksums": []}], ids=["missing", "list"])
    def test_bad_checksums(self, sparse, changes):
        _edit_manifest(sparse, **changes)
        with pytest.raises(CorruptIndex, match="checksums"):
            load_index(sparse)

    @pytest.mark.parametrize("names", [(), (TERMS_FILE,), (TERMS_FILE, IDS_FILE)],
                             ids=["none", "terms-only", "other-kind-file"])
    def test_checksums_must_name_the_kind_files(self, sparse, names):
        # The edited units file loads unless the manifest is held to the kind's files.
        units = sparse / UNITS_FILE
        units.write_text(units.read_text().replace('"u1"', '"zzz"', 1))
        (sparse / IDS_FILE).write_text('{"unit_id": "u1"}\n')
        _edit_manifest(sparse, checksums={n: hashlib.sha256((sparse / n).read_bytes()).hexdigest() for n in names})
        with pytest.raises(CorruptIndex, match="checksums"):
            load_index(sparse)

    def test_checksums_naming_an_extra_file(self, dense):
        (dense / "notes.txt").write_bytes(b"x")
        manifest = json.loads((dense / MANIFEST).read_text())
        _edit_manifest(dense, checksums={**manifest["checksums"], "notes.txt": hashlib.sha256(b"x").hexdigest()})
        with pytest.raises(CorruptIndex, match="checksums"):
            load_index(dense)

    @pytest.mark.parametrize("changes", [
        {"n_units": _DROP}, {"dim": _DROP}, {"dim": "64"}, {"provider": _DROP}, {"provider": 7},
    ], ids=["no-n_units", "no-dim", "string-dim", "no-provider", "int-provider"])
    def test_bad_dense_manifest(self, dense, changes):
        _edit_manifest(dense, **changes)
        with pytest.raises(CorruptIndex):
            load_index(dense)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_embeddings(self, dense, value):
        # Every score against a NaN row is NaN, which no ranking threshold admits.
        matrix = np.frombuffer((dense / EMBEDDINGS_FILE).read_bytes(), dtype="<f4").copy()
        matrix[:] = value
        _rewrite(dense, EMBEDDINGS_FILE, matrix.tobytes())
        with pytest.raises(CorruptIndex, match="non-finite"):
            load_index(dense)

    def test_dense_record_without_unit_id(self, dense):
        _rewrite(dense, IDS_FILE, b'{"unit_id": "u1"}\n{"id": "u2"}\n{"unit_id": "u3"}\n{"unit_id": "u4"}\n')
        with pytest.raises(CorruptIndex, match="unit_id"):
            load_index(dense)

    @pytest.mark.parametrize("record", [
        '{"n_tokens": 5}', '{"unit_id": "u2"}', '{"unit_id": "u2", "n_tokens": "5"}',
        '{"unit_id": "u2", "n_tokens": 5.0}', '{"unit_id": "u2", "n_tokens": -1}',
        '{"unit_id": "u2", "n_tokens": 4}',
    ], ids=["no-unit_id", "no-n_tokens", "string-n_tokens", "float-n_tokens", "negative-n_tokens",
            "n_tokens-not-sum-of-tfs"])
    def test_bad_units_record(self, sparse, record):
        lines = (sparse / UNITS_FILE).read_text().splitlines()
        lines[1] = record
        _rewrite(sparse, UNITS_FILE, ("\n".join(lines) + "\n").encode())
        with pytest.raises(CorruptIndex):
            load_index(sparse)

    @pytest.mark.parametrize("kind, name", [("sparse", UNITS_FILE), ("dense", IDS_FILE)])
    def test_repeated_unit_id(self, request, kind, name):
        directory = request.getfixturevalue(kind)
        lines = (directory / name).read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace('"u2"', '"u1"')
        _rewrite(directory, name, "".join(lines).encode())
        with pytest.raises(CorruptIndex, match=f"{name} repeats unit id 'u1'"):
            load_index(directory)

    @pytest.mark.parametrize("entries, reason", [
        ([("dog", [(0, 1)]), ("cat", [(1, 1)])], "not sorted and unique"),
        ([("cat", [(0, 1)]), ("cat", [(1, 1)])], "not sorted and unique"),
        ([("cat", [(0, 1), (4, 1)])], "unit index out of range"),
        ([("cat", [(0, 1), (1, 0)])], "zero term count"),
        ([("cat", [(1, 1), (0, 1)])], "not strictly ascending"),
        ([("cat", [(1, 1), (1, 2)])], "not strictly ascending"),
        ([("cat", [(1, 1), (0, 1)]), ("dog", [(2, 1)])], "not strictly ascending"),
        ([("cat", [(0, 1)]), ("dog", [(2, 1), (1, 1)])], "not strictly ascending"),
    ], ids=["unsorted-terms", "repeated-term", "unit-out-of-range", "zero-tf",
            "descending-postings", "repeated-posting", "descent-in-first-row", "descent-in-last-row"])
    def test_bad_terms_file(self, sparse, entries, reason):
        # Each defect is named by its own check, not caught later by the token counts it also upsets.
        _rewrite(sparse, TERMS_FILE, _terms_blob(entries))
        with pytest.raises(CorruptIndex, match=reason):
            load_index(sparse)

    def test_term_without_postings(self, tmp_path, capsys):
        # Its idf would join every query norm that names it and scale each TF-IDF score.
        directory = tmp_path / "idx"
        index = build_sparse_index([("u1", "alpha beta"), ("u2", "beta gamma"), ("u3", "gamma delta")], "tfidf")
        save_index(index, directory)
        blob = (directory / TERMS_FILE).read_bytes()
        # One more row, "zzz", sorted last and with a count of 0.
        _rewrite(directory, TERMS_FILE, b"".join([blob[:4], struct.pack("<I", len(index.terms) + 1), blob[8:],
                                                  struct.pack("<I", 3), b"zzz", struct.pack("<I", 0)]))
        assert run(["retrieve", "--index", str(directory), "--question", "beta zzz"]) == 2
        assert capsys.readouterr().err == f"data error: {directory}: terms file has a term with no postings\n"

    @pytest.mark.parametrize("cut", [-3, 3], ids=["truncated", "trailing-bytes"])
    def test_terms_file_size(self, sparse, cut):
        blob = (sparse / TERMS_FILE).read_bytes()
        _rewrite(sparse, TERMS_FILE, blob[:cut] if cut < 0 else blob + b"\0" * cut)
        with pytest.raises(CorruptIndex):
            load_index(sparse)


def _units_file(*lines: str, end: str = "\n") -> bytes:
    return "".join(line + end for line in lines).encode("utf-8")


_CANONICAL = jsonl_bytes({"unit_id": f"u{i}", "n_tokens": n} for i, n in enumerate([5, 0, 3, 7], 1)).decode()
L1, L2, L3, L4 = _CANONICAL.splitlines()
_IDS = _units_file(*(f'{{"unit_id": "u{i}"}}' for i in range(1, 5)))


def _outcome(read, blob: bytes, n_units: int, with_lens: bool):
    """What ``read`` returns for a units file's bytes, or the type, text and line of the error it raises."""
    try:
        return read(Path(UNITS_FILE), blob, n_units, with_lens)
    except McIndexError as exc:
        return type(exc), str(exc), exc.line


@st.composite
def _edited_units_files(draw):
    """A units or ids file's bytes, often damaged line by line and byte by byte, with a manifest count."""
    with_lens = draw(st.booleans())
    ids = draw(st.lists(st.text(alphabet='ab\u00e9\u2028"\\{},\n', max_size=3), min_size=1, max_size=6, unique=True))
    lines = jsonl_bytes({"unit_id": uid, **({"n_tokens": draw(st.integers(0, 9))} if with_lens else {})}
                        for uid in ids).decode().split("\n")[:-1]
    for edit in draw(st.lists(st.sampled_from(["join", "split", "blank", "odd", "drop", "repeat"]), max_size=3)):
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if edit == "join" and i + 1 < len(lines):
            lines[i:i + 2] = [lines[i] + draw(st.sampled_from([", ", ",", " ", ""])) + lines[i + 1]]
        elif edit == "split" and lines:
            cut = draw(st.integers(0, len(lines[i])))
            lines[i:i + 1] = [lines[i][:cut], lines[i][cut:]]
        elif edit == "blank":
            lines.insert(i, draw(st.sampled_from(["", " ", "\t", "\x0c"])))
        elif edit == "odd" and lines:
            lines[i] = draw(st.sampled_from([
                "[1]", '"u1"', "{}", '{"unit_id": 1}', '{"unit_id": "z", "n_tokens": true}',
                '{"unit_id": "z", "n_tokens": -1}', '{"unit_id": "z", "n_tokens": 1.0}',
                '{"unit_id": "z", "n_tokens": 1, "x": [1]}', '{"unit_id": "z"}', ' {"unit_id": "z"} ']))
        elif edit == "drop" and lines:
            del lines[i]
        elif edit == "repeat" and lines:
            lines.insert(i, lines[i])
    blob = bytearray(_units_file(*lines, end=draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))))
    if not draw(st.integers(0, 3)):
        blob.insert(draw(st.integers(0, len(blob))), draw(st.sampled_from(b"\r\n\x00\xff\xed{},\" ")))
    n_units = draw(st.sampled_from([len(lines) or 1, len(ids), len(ids) + 1, max(len(ids) - 1, 1)]))
    return bytes(blob), n_units, with_lens


class TestUnitsParsedAtOnce:
    """A units or ids file read in one call gives what the per-line parser gives: the ids and counts, or its error."""

    @pytest.mark.parametrize("blob, n_units, with_lens", [
        (_CANONICAL.encode(), 4, True),
        (_CANONICAL.rstrip("\n").encode(), 4, True),
        (_IDS, 4, False),
        (_units_file(L1, "", L2, " \t", L3, "\x0c", L4, ""), 4, True),
        (_units_file(L1, L2, L3, L4, end="\r\n"), 4, True),
        (_units_file(L1, '{"unit_id":\r"u2", "n_tokens": 0}', L3, L4), 4, True),
        (_units_file(L1 + ", " + L2, L3, L4), 4, True),
        (_units_file(L1 + ", " + L1, L2, L3, L4), 4, True),
        (_units_file('{"unit_id": "u1"', '"n_tokens": 5}', L2 + ", " + L3, L4), 4, True),
        (_units_file('{"unit_id": "u1", "n_tokens": 5, "x": [0', '{"y": 1}]}', L2 + ", " + L3, L4), 4, True),
        (_units_file('{"unit_id": "u1", "x": [0', '{"y": 1}]}', '{"unit_id": "u2"}, {"unit_id": "u3"}',
                     '{"unit_id": "u4"}'), 4, False),
        (_units_file(L1, L2, L3, L4).replace(b'"u2"', b'"u\xed\xa0\x80"'), 4, True),
        (_units_file(L1, L2, L3, L4).replace(b'"u2"', b'"\\ud800"'), 4, True),
        (_units_file(L1, L2, L3, L4).replace(b'"u2"', b'"u\xff"'), 4, True),
        (b"\x00" + _CANONICAL.encode(), 4, True),
        (b"\xef\xbb\xbf" + _CANONICAL.encode(), 4, True),
        (_units_file(L1, "[1, 2]", L3, L4), 4, True),
        (_units_file(L1, '"u2"', L3, L4), 4, True),
        (_units_file(L1, L2.replace("0}", "false}"), L3, L4), 4, True),
        (_units_file(L1, L2.replace("0}", "-1}"), L3, L4), 4, True),
        (_units_file(L1, L2.replace("0}", "0.0}"), L3, L4), 4, True),
        (_units_file(L1, L2.replace("0}", "9" * 4301 + "}"), L3, L4), 4, True),
        (_units_file(L1, '{"unit_id": "u2", "x": ' + "[" * 100_000 + "]" * 100_000 + "}", L3, L4), 4, False),
        (_units_file(L1, L2.replace("}", ', "x": 1}'), L3, L4), 4, True),
        (_units_file(L1, L2.replace('"unit_id": "u2"', '"unit_id": 2'), L3, L4), 4, True),
        (_IDS.replace(b'"u3"', b'"u1"'), 4, False),
        (_IDS.replace(b"}", b', "n_tokens": 1}'), 4, False),
        (b" " + _CANONICAL.encode().replace(b"}\n", b"} \t\n"), 4, True),
        (_CANONICAL.encode(), 5, True),
        (_CANONICAL.encode(), 3, True),
        (b"", 1, True),
    ], ids=["canonical", "no-final-newline", "ids", "blank-lines", "crlf", "lone-cr-between-tokens",
            "two-records-on-a-line", "two-records-on-a-line-one-repeated", "record-over-two-lines",
            "nested-array-over-two-lines", "ids-nested-array-over-two-lines", "utf8-encoded-surrogate",
            "escaped-surrogate", "not-utf8", "leading-nul", "bom", "array-record", "string-record",
            "bool-n_tokens", "negative-n_tokens", "float-n_tokens", "int-of-4301-digits", "deep-nesting",
            "extra-key", "int-unit_id", "repeated-id", "ids-with-n_tokens", "spaces-around-records",
            "fewer-lines-than-units", "more-lines-than-units", "empty"])
    def test_agrees_with_the_per_line_parser(self, blob, n_units, with_lens):
        assert (_outcome(store._read_units, blob, n_units, with_lens)
                == _outcome(store._read_units_by_line, blob, n_units, with_lens))

    @settings(max_examples=400, deadline=None)
    @given(case=_edited_units_files())
    def test_agrees_on_edited_files(self, case):
        blob, n_units, with_lens = case
        assert (_outcome(store._read_units, blob, n_units, with_lens)
                == _outcome(store._read_units_by_line, blob, n_units, with_lens))

    @pytest.mark.parametrize("kind", ["bm25", "dense"])
    def test_saved_files_parse_at_once(self, tmp_path, kind):
        directory = _saved(kind, tmp_path)
        name = IDS_FILE if kind == "dense" else UNITS_FILE
        parsed = store._parse_units_at_once((directory / name).read_bytes(), len(UNITS), kind != "dense")
        assert parsed == store._read_units_by_line(directory / name, (directory / name).read_bytes(),
                                                   len(UNITS), kind != "dense")


def _saved(kind, directory):
    index = build_dense_index(UNITS, MockEmbeddingProvider()) if kind == "dense" else build_sparse_index(UNITS, kind)
    save_index(index, directory)
    return directory


@pytest.mark.parametrize("kind", ["bm25", "dense"])
def test_load_reads_each_file_once(tmp_path, monkeypatch, kind):
    directory = _saved(kind, tmp_path)
    expected = Counter(path.name for path in directory.iterdir())
    opened = Counter()
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file).parent == directory:
            opened[Path(file).name] += 1
        return real_open(file, *args, **kwargs)

    # Module code calls the builtin; pathlib calls io.open.
    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    load_index(directory)
    assert opened == expected


@pytest.fixture(scope="module")
def saved_indexes(tmp_path_factory):
    return {kind: _saved(kind, tmp_path_factory.mktemp(kind)) for kind in ("tfidf", "bm25", "dense")}


_EDITS = st.lists(
    st.tuples(st.sampled_from(["flip", "insert", "delete"]), st.integers(0, 1 << 16), st.integers(1, 255)),
    min_size=1, max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["tfidf", "bm25", "dense"]), first_file=st.booleans(), edits=_EDITS)
def test_mutated_data_file_loads_or_is_a_data_error(saved_indexes, tmp_path_factory, kind, first_file, edits):
    """Flipped, inserted or deleted bytes under a matching checksum: an index or an McIndexError, never a crash."""
    directory = tmp_path_factory.mktemp("fuzz")
    shutil.copytree(saved_indexes[kind], directory, dirs_exist_ok=True)
    name = ((IDS_FILE, EMBEDDINGS_FILE) if kind == "dense" else (UNITS_FILE, TERMS_FILE))[not first_file]
    blob = bytearray((directory / name).read_bytes())
    for op, position, byte in edits:
        if op == "insert":
            blob.insert(position % (len(blob) + 1), byte)
        elif blob and op == "flip":
            blob[position % len(blob)] ^= byte
        elif blob:
            del blob[position % len(blob)]
    _rewrite(directory, name, bytes(blob))
    try:
        load_index(directory)
    except McIndexError:
        pass
    assert run(["retrieve", "--index", str(directory), "--question", "cat dog fish", "--k", "2"]) in (0, 2)
