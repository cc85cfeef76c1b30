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

from mcidx.cli import run
from mcidx.errors import CorruptIndex, McIndexError, VersionMismatch
from mcidx.providers import MockEmbeddingProvider
from mcidx.retrieval import (
    build_dense_index,
    build_sparse_index,
    score_bm25,
    score_dense,
    score_tfidf,
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
    if provider is not None:
        return [(u.unit_id, u.score, u.rank) for u in score_dense(index, query, provider)]
    scorer = score_tfidf if index.kind == "tfidf" else score_bm25
    return [(u.unit_id, u.score, u.rank) for u in scorer(index, query)]


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

    def test_statistics_survive(self, tmp_path):
        index = build_sparse_index(UNITS, "bm25")
        save_index(index, tmp_path / "idx")
        reloaded = load_index(tmp_path / "idx")
        assert reloaded.unit_ids == index.unit_ids
        assert reloaded.terms == index.terms
        for name in ("indptr", "postings", "tfs", "unit_lens", "idf"):
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

    @pytest.mark.parametrize("entries", [
        [("dog", [(0, 1)]), ("cat", [(1, 1)])],
        [("cat", [(0, 1)]), ("cat", [(1, 1)])],
        [("cat", [(0, 1), (4, 1)])],
        [("cat", [(0, 1), (1, 0)])],
        [("cat", [(1, 1), (0, 1)])],
        [("cat", [(1, 1), (1, 2)])],
    ], ids=["unsorted-terms", "repeated-term", "unit-out-of-range", "zero-tf",
            "descending-postings", "repeated-posting"])
    def test_bad_terms_file(self, sparse, entries):
        _rewrite(sparse, TERMS_FILE, _terms_blob(entries))
        with pytest.raises(CorruptIndex):
            load_index(sparse)

    @pytest.mark.parametrize("cut", [-3, 3], ids=["truncated", "trailing-bytes"])
    def test_terms_file_size(self, sparse, cut):
        blob = (sparse / TERMS_FILE).read_bytes()
        _rewrite(sparse, TERMS_FILE, blob[:cut] if cut < 0 else blob + b"\0" * cut)
        with pytest.raises(CorruptIndex):
            load_index(sparse)


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
