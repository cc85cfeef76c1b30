"""Index persistence: manifest with checksums plus per-kind data files.

Directory layout:

* ``manifest.json`` - format_version, kind, provider, unit/dim counts, and a
  sha256 checksum per data file (verified on load);
* sparse: ``units.jsonl`` (unit ids and token counts, in corpus order) and
  ``terms.bin`` (inverted index: term postings as little-endian u32 pairs);
* dense: ``ids.jsonl`` (row order) and ``embeddings.f32le`` (row-major
  little-endian float32 matrix).

Loading rebuilds derived statistics (idf, norms, avgdl) from the stored
integers, so a save/load round trip reproduces rankings bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .errors import CorruptIndex, VersionMismatch
from .jsonio import iter_jsonl, write_jsonl
from .retrieval import BM25, DENSE, TFIDF, DenseIndex, SparseIndex, assemble_sparse_index

FORMAT_VERSION = 1

MANIFEST = "manifest.json"
UNITS_FILE = "units.jsonl"
TERMS_FILE = "terms.bin"
IDS_FILE = "ids.jsonl"
EMBEDDINGS_FILE = "embeddings.f32le"

_TERMS_MAGIC = b"MCIT"


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _pack_terms(index: SparseIndex) -> bytes:
    postings: dict[str, list[tuple[int, int]]] = {}
    for unit_idx, freqs in enumerate(index.term_freqs):
        for term, tf in freqs.items():
            postings.setdefault(term, []).append((unit_idx, tf))
    out = [_TERMS_MAGIC, struct.pack("<I", len(postings))]
    for term in sorted(postings):
        encoded = term.encode("utf-8")
        entries = postings[term]
        out.append(struct.pack("<I", len(encoded)))
        out.append(encoded)
        out.append(struct.pack("<I", len(entries)))
        for unit_idx, tf in entries:
            out.append(struct.pack("<II", unit_idx, tf))
    return b"".join(out)


def _unpack_terms(blob: bytes, n_units: int) -> list[dict[str, int]]:
    if blob[:4] != _TERMS_MAGIC:
        raise CorruptIndex("terms file has wrong magic bytes")
    term_freqs: list[dict[str, int]] = [{} for _ in range(n_units)]
    try:
        (n_terms,) = struct.unpack_from("<I", blob, 4)
        offset = 8
        for _ in range(n_terms):
            (term_len,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            term = blob[offset:offset + term_len].decode("utf-8")
            offset += term_len
            (n_postings,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            for _ in range(n_postings):
                unit_idx, tf = struct.unpack_from("<II", blob, offset)
                offset += 8
                term_freqs[unit_idx][term] = tf
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise CorruptIndex(f"terms file is malformed: {exc}") from exc
    return term_freqs


def save_index(index: SparseIndex | DenseIndex, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if isinstance(index, DenseIndex):
        kind = DENSE
        write_jsonl(directory / IDS_FILE, ({"unit_id": uid} for uid in index.unit_ids))
        (directory / EMBEDDINGS_FILE).write_bytes(index.matrix.astype("<f4").tobytes())
        data_files = [IDS_FILE, EMBEDDINGS_FILE]
        extra = {"provider": index.provider, "n_units": index.n, "dim": index.dim}
    else:
        kind = index.kind
        write_jsonl(
            directory / UNITS_FILE,
            (
                {"unit_id": uid, "n_tokens": n}
                for uid, n in zip(index.unit_ids, index.unit_lens)
            ),
        )
        (directory / TERMS_FILE).write_bytes(_pack_terms(index))
        data_files = [UNITS_FILE, TERMS_FILE]
        extra = {"provider": None, "n_units": index.n}
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "checksums": {name: _sha256(directory / name) for name in data_files},
        **extra,
    }
    (directory / MANIFEST).write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _verify_checksums(directory: Path, manifest: dict) -> None:
    for name, expected in manifest.get("checksums", {}).items():
        path = directory / name
        if not path.exists():
            raise CorruptIndex(f"missing index file {name!r}")
        actual = _sha256(path)
        if actual != expected:
            raise CorruptIndex(f"checksum mismatch for {name!r}")


def load_index(directory: str | Path) -> SparseIndex | DenseIndex:
    directory = Path(directory)
    manifest_path = directory / MANIFEST
    if not manifest_path.exists():
        raise CorruptIndex(f"no manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise CorruptIndex(f"manifest {manifest_path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CorruptIndex(f"manifest {manifest_path} is not a JSON object")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise VersionMismatch(
            f"index format version {manifest.get('format_version')!r} is not supported"
        )
    _verify_checksums(directory, manifest)
    kind = manifest.get("kind")
    if kind == DENSE:
        unit_ids = [record["unit_id"] for _, record in iter_jsonl(directory / IDS_FILE)]
        blob = (directory / EMBEDDINGS_FILE).read_bytes()
        n, dim = manifest["n_units"], manifest["dim"]
        if len(unit_ids) != n or len(blob) != n * dim * 4:
            raise CorruptIndex("embeddings size does not match manifest")
        matrix = np.frombuffer(blob, dtype="<f4").reshape(n, dim).copy()
        return DenseIndex(unit_ids, matrix, manifest["provider"])
    if kind not in (TFIDF, BM25):
        raise CorruptIndex(f"unknown index kind {kind!r}")
    unit_ids: list[str] = []
    unit_lens: list[int] = []
    for _, record in iter_jsonl(directory / UNITS_FILE):
        unit_ids.append(record["unit_id"])
        unit_lens.append(record["n_tokens"])
    if len(unit_ids) != manifest["n_units"]:
        raise CorruptIndex("unit count does not match manifest")
    term_freqs = _unpack_terms((directory / TERMS_FILE).read_bytes(), len(unit_ids))
    return assemble_sparse_index(kind, unit_ids, term_freqs, unit_lens)
