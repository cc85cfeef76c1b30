"""Run the full offline recall grid on the bundled synthetic corpus.

Covers every chunking scheme, the three single views plus multi-view fusion,
and all three offline retrievers (TF-IDF, BM25, mock dense) at budgets
k = 1.5, 3, 5, 10. Writes a CSV and a markdown table, and prints the CSV's
sha256 so two checkouts can be compared for byte-identical results.
"""

from __future__ import annotations

import argparse
import hashlib
from pathlib import Path

from mcidx.evaluation import RecallReport, eval_recall
from mcidx.synthetic import synthetic_corpus
from mcidx.views import build_views

KS = [1.5, 3, 5, 10]
RETRIEVERS = ("tfidf", "bm25", "dense:mock")
CONTENT_MODES = ("single:raw", "single:keywords", "single:summary", "mc")
FLC_SCHEMES = ("flc:100", "flc:200", "flc:300",
               "flc-content:100", "flc-content:200", "flc-content:300")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("results"))
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    docs, qa = synthetic_corpus(seed=args.seed)
    views = {doc.doc_id: build_views(doc) for doc in docs}

    reports = []
    for retriever in RETRIEVERS:
        for scheme in FLC_SCHEMES:
            reports.append(eval_recall(docs, qa, scheme, retriever, "single:raw", KS))
        for mode in CONTENT_MODES:
            reports.append(eval_recall(docs, qa, "content", retriever, mode, KS, views=views))

    merged = RecallReport.merge(reports)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = args.out_dir / "recall_grid.csv"
    md_path = args.out_dir / "recall_grid.md"
    csv_bytes = merged.to_csv().encode("utf-8")
    csv_path.write_bytes(csv_bytes)
    md_path.write_text(merged.to_markdown(), encoding="utf-8")
    print(f"wrote {csv_path} and {md_path}")
    print(f"sha256 {hashlib.sha256(csv_bytes).hexdigest()}  {csv_path}")
    print()
    print(merged.to_markdown())


if __name__ == "__main__":
    main()
