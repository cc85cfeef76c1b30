"""Chunking-error comparison across schemes on the bundled synthetic corpus.

Shows the characteristic pattern: error falls as the fixed-length target
grows, section-bounded chunking lowers it further, and content-aware
chunking eliminates it. Also prints, per scheme, the sha256 of the chunk
records as ``mcidx chunk`` writes them, so two checkouts can be compared for
identical chunks.
"""

from __future__ import annotations

import argparse
import hashlib
import tempfile
from pathlib import Path

from mcidx.chunking import ChunkScheme, chunk_document, chunking_error, write_chunks_jsonl
from mcidx.synthetic import synthetic_corpus

SCHEMES = ("flc:100", "flc-content:100", "flc:200", "flc-content:200",
           "flc:300", "flc-content:300", "content")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    docs, qa = synthetic_corpus(seed=args.seed)
    digests = []
    print(f"{'scheme':<18} {'split':>5} {'scopes':>6} {'error %':>8}")
    with tempfile.TemporaryDirectory() as tmp:
        for spec in SCHEMES:
            scheme = ChunkScheme.parse(spec)
            chunks = [c for doc in docs for c in chunk_document(doc, scheme)]
            report = chunking_error(docs, qa, scheme)
            print(f"{spec:<18} {report.n_split:>5} {report.n_scopes:>6} {100 * report.error_rate:>8.1f}")
            path = Path(tmp) / "chunks.jsonl"
            write_chunks_jsonl(chunks, path)
            digests.append(f"sha256 {hashlib.sha256(path.read_bytes()).hexdigest()}  {spec}")
    print()
    print("\n".join(digests))


if __name__ == "__main__":
    main()
