"""Index persistence: manifest with checksums plus per-kind data files.

Directory layout:

* ``manifest.json`` - format_version, kind, provider, unit/dim counts, and a
  sha256 checksum for exactly the kind's data files;
* sparse: ``units.jsonl`` (unit ids and token counts, in corpus order) and
  ``terms.bin`` (inverted index: term postings as little-endian u32 pairs);
* dense: ``ids.jsonl`` (row order) and ``embeddings.f32le`` (row-major
  little-endian float32 matrix).

Saving hashes each data file's bytes before it writes them, so nothing is
read back, and replaces a directory as a whole (``save_index``). Loading
reads each data file once and checks its checksum on the bytes that are then
parsed. It parses the postings straight into the index arrays and checks
them (terms sorted and unique, each with at least one posting, unit indexes
in range and strictly ascending per term, term counts positive), the unit
ids (one per row, none repeated) and the embeddings (every value finite);
any defect is ``CorruptIndex``. ``SparseIndex`` derives its statistics (unit
term counts, idf, avgdl and the kind's unit norms) from the stored integers,
so a save/load round trip reproduces rankings bit-exactly; the stored
``n_tokens`` must equal the derived counts.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import struct
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from .errors import CorruptIndex, DataError, VersionMismatch
from .jsonio import iter_jsonl_lines, jsonl_bytes
from .retrieval import BM25, DENSE, TFIDF, DenseIndex, SparseIndex

FORMAT_VERSION = 1

MANIFEST = "manifest.json"
UNITS_FILE = "units.jsonl"
TERMS_FILE = "terms.bin"
IDS_FILE = "ids.jsonl"
EMBEDDINGS_FILE = "embeddings.f32le"

_TERMS_MAGIC = b"MCIT"


def _data_files(kind: str) -> tuple[str, str]:
    return (IDS_FILE, EMBEDDINGS_FILE) if kind == DENSE else (UNITS_FILE, TERMS_FILE)


def _pack_terms(index: SparseIndex) -> bytes:
    pairs = np.stack([index.postings, index.tfs], axis=1).astype("<u4").tobytes()
    indptr = index.indptr.tolist()
    out = [_TERMS_MAGIC, struct.pack("<I", len(index.terms))]
    for term, row in index.terms.items():  # rows are in sorted term order
        start, end = indptr[row], indptr[row + 1]
        encoded = term.encode("utf-8")
        out += [struct.pack("<I", len(encoded)), encoded,
                struct.pack("<I", end - start), pairs[8 * start:8 * end]]
    return b"".join(out)


def _unpack_terms(blob: bytes, n_units: int) -> tuple[dict[str, int], np.ndarray, np.ndarray, np.ndarray]:
    """``terms``, ``indptr``, ``postings`` and ``tfs`` of a terms file, checked."""
    if blob[:4] != _TERMS_MAGIC:
        raise CorruptIndex("terms file has wrong magic bytes")
    terms: dict[str, int] = {}
    blocks: list[memoryview] = []
    counts: list[int] = []
    view = memoryview(blob)
    try:
        (n_terms,) = struct.unpack_from("<I", blob, 4)
        offset = 8
        for row in range(n_terms):
            (term_len,) = struct.unpack_from("<I", blob, offset)
            term = blob[offset + 4:offset + 4 + term_len].decode("utf-8")
            if row and term <= previous:
                raise CorruptIndex(f"terms file has {term!r} after {previous!r}: not sorted and unique")
            terms[term] = row
            previous = term
            (count,) = struct.unpack_from("<I", blob, offset + 4 + term_len)
            offset += 8 + term_len
            blocks.append(view[offset:offset + 8 * count])
            counts.append(count)
            offset += 8 * count
    except (struct.error, UnicodeDecodeError) as exc:
        raise CorruptIndex(f"terms file is malformed: {exc}") from exc
    if offset != len(blob):
        raise CorruptIndex("terms file size does not match its contents")
    postings, tfs = np.frombuffer(b"".join(blocks), dtype="<u4").reshape(-1, 2).T.astype(np.int64, order="C")
    if postings.size and postings.max() >= n_units:
        raise CorruptIndex("terms file names a unit index out of range")
    if (tfs == 0).any():
        raise CorruptIndex("terms file has a zero term count")
    if 0 in counts:
        raise CorruptIndex("terms file has a term with no postings")
    rows = np.repeat(np.arange(n_terms), counts)
    if ((np.diff(postings) <= 0) & (np.diff(rows) == 0)).any():
        raise CorruptIndex("terms file has postings not strictly ascending within a term")
    return terms, np.concatenate(([0], np.cumsum(counts, dtype=np.int64))), postings, tfs


def _count(record: dict, key: str, where: str, minimum: int) -> int:
    value = record.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise CorruptIndex(f"{where}: {key!r} is not an integer >= {minimum}")
    return value


def _read_units(path: Path, blob: bytes, n_units: int, with_lens: bool) -> tuple[list[str], list[int]]:
    """Unit ids (and token counts) of a units or ids file's bytes, in row order."""
    unit_ids: list[str] = []
    unit_lens: list[int] = []
    for lineno, record in iter_jsonl_lines(io.TextIOWrapper(io.BytesIO(blob), encoding="utf-8"), path):
        unit_id = record.get("unit_id")
        if not isinstance(unit_id, str):
            raise CorruptIndex("no string 'unit_id'", lineno, path)
        unit_ids.append(unit_id)
        if with_lens:
            n_tokens = record.get("n_tokens")
            # JSON decodes to no int subclass but bool, which is not a count.
            if type(n_tokens) is not int or n_tokens < 0:
                raise CorruptIndex("'n_tokens' is not an integer >= 0", lineno, path)
            unit_lens.append(n_tokens)
    if len(unit_ids) != n_units:
        raise CorruptIndex(f"{path.name} holds {len(unit_ids)} unit ids; the manifest says {n_units}")
    if len(set(unit_ids)) != n_units:
        repeated = next(uid for uid, count in Counter(unit_ids).items() if count > 1)
        raise CorruptIndex(f"{path.name} repeats unit id {repeated!r}")
    return unit_ids, unit_lens


def check_replaceable(directory: str | Path) -> None:
    """A DataError if ``save_index`` would refuse to replace ``directory``, an OSError if it could not make it.

    A non-empty directory without a manifest is not an index, and the working
    directory cannot be renamed. A path that is not a directory is made and
    removed again, so only its missing parents are left made, as for a file output.
    """
    directory = Path(directory)
    if not directory.is_dir():
        directory.mkdir(parents=True)
        directory.rmdir()
        return
    if any(directory.iterdir()) and not (directory / MANIFEST).is_file():
        raise DataError(f"not an index (no {MANIFEST}) and not empty; refusing to replace it", path=directory)
    if directory.samefile(Path.cwd()):
        raise DataError("is the working directory, which cannot be replaced; write the index elsewhere",
                        path=directory)


def save_index(index: SparseIndex | DenseIndex, directory: str | Path) -> None:
    """Write ``index`` to ``directory``, replacing any index there as a whole.

    The files go to a temporary sibling directory, which is renamed into
    place once complete; an old index is moved aside first and removed after
    the swap, and stays as it was if the save fails. A directory that
    ``check_replaceable`` refuses is a DataError, left untouched.
    """
    directory = Path(directory)
    check_replaceable(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if index.kind == DENSE:
        blobs = (jsonl_bytes({"unit_id": uid} for uid in index.unit_ids),
                 index.matrix.astype("<f4").tobytes())
        extra = {"provider": index.provider, "n_units": index.n, "dim": index.dim}
    else:
        blobs = (jsonl_bytes({"unit_id": uid, "n_tokens": n}
                             for uid, n in zip(index.unit_ids, index.unit_lens.tolist())),
                 _pack_terms(index))
        extra = {"provider": None, "n_units": index.n}
    work = Path(tempfile.mkdtemp(prefix=f".{directory.name}.", dir=directory.parent))
    staged, aside = work / "new", work / "old"
    try:
        staged.mkdir()
        checksums = {}
        for name, blob in zip(_data_files(index.kind), blobs):
            (staged / name).write_bytes(blob)
            checksums[name] = hashlib.sha256(blob).hexdigest()
        manifest = {"format_version": FORMAT_VERSION, "kind": index.kind, "checksums": checksums, **extra}
        (staged / MANIFEST).write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
        directory.rename(aside)
        try:
            staged.rename(directory)
        except OSError:
            aside.rename(directory)
            raise
    finally:
        # An old index that could not be put back stays in ``work``, not deleted.
        if directory.exists():
            shutil.rmtree(work, ignore_errors=True)


def _read_verified(directory: Path, manifest: dict, data_files: tuple[str, str]) -> tuple[bytes, bytes]:
    """The bytes of the kind's data files, each read once and checked against its manifest checksum."""
    checksums = manifest.get("checksums")
    if not isinstance(checksums, dict):
        raise CorruptIndex("manifest: 'checksums' is not an object")
    if set(checksums) != set(data_files):
        raise CorruptIndex(f"manifest: 'checksums' must name exactly {sorted(data_files)}")
    blobs = []
    for name in data_files:
        try:
            blob = (directory / name).read_bytes()
        except FileNotFoundError:
            raise CorruptIndex(f"missing index file {name!r}") from None
        if hashlib.sha256(blob).hexdigest() != checksums[name]:
            raise CorruptIndex(f"checksum mismatch for {name!r}")
        blobs.append(blob)
    return blobs[0], blobs[1]


def load_index(directory: str | Path) -> SparseIndex | DenseIndex:
    """The index saved in ``directory``; every CorruptIndex or VersionMismatch names the directory."""
    directory = Path(directory)
    try:
        return _load(directory)
    except (CorruptIndex, VersionMismatch) as exc:
        if exc.path is None:
            exc.path = directory
        raise


def _load(directory: Path) -> SparseIndex | DenseIndex:
    manifest_path = directory / MANIFEST
    if not manifest_path.exists():
        raise CorruptIndex(f"no {MANIFEST}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CorruptIndex(f"not valid JSON: {exc}", path=manifest_path) from exc
    if not isinstance(manifest, dict):
        raise CorruptIndex("not a JSON object", path=manifest_path)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise VersionMismatch(
            f"index format version {manifest.get('format_version')!r} is not supported"
        )
    kind = manifest.get("kind")
    if kind not in (TFIDF, BM25, DENSE):
        raise CorruptIndex(f"unknown index kind {kind!r}")
    units_blob, data_blob = _read_verified(directory, manifest, _data_files(kind))
    n_units = _count(manifest, "n_units", "manifest", 1)
    if kind == DENSE:
        dim = _count(manifest, "dim", "manifest", 1)
        if not isinstance(manifest.get("provider"), str):
            raise CorruptIndex("manifest: 'provider' is not a string")
        unit_ids, _ = _read_units(directory / IDS_FILE, units_blob, n_units, with_lens=False)
        if len(data_blob) != n_units * dim * 4:
            raise CorruptIndex("embeddings size does not match manifest")
        matrix = np.frombuffer(data_blob, dtype="<f4").reshape(n_units, dim).copy()
        if not np.isfinite(matrix).all():
            raise CorruptIndex("embeddings file has a non-finite value")
        return DenseIndex(unit_ids, matrix, manifest["provider"])
    unit_ids, unit_lens = _read_units(directory / UNITS_FILE, units_blob, n_units, with_lens=True)
    index = SparseIndex(kind, unit_ids, *_unpack_terms(data_blob, n_units))
    if not np.array_equal(index.unit_lens, unit_lens):
        raise CorruptIndex(f"{UNITS_FILE} token counts do not match the term counts in {TERMS_FILE}")
    return index
