"""Golden outputs: whole-pipeline results pinned byte for byte by sha256.

The recall-grid CSV of ``scripts/run_recall_grid.py --seed 7``, and ``mcidx
retrieve`` stdout in ``mc`` and ``single:raw`` mode over indexes that
``mcidx views`` and ``mcidx index`` build from the ``scripts/make_dataset.py``
corpus. A changed digest means a changed ranking, score or recall figure.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mcidx.cli import run

ROOT = Path(__file__).resolve().parents[1]

GRID_SHA256 = "3c66c2f0b327bd9b6cb53b0f5720337701d620564e97489952a27d76c147e466"

RETRIEVE_SHA256 = {
    "bm25": "ff44e02905c75f977aa85657fe484f6ed670ade338ba298c58ca2733e4c0161e",
    "dense:mock": "89ad1857069631cf43c9a9ab49135691563a0ea924ba10c63b1195a4b4356047",
}


def _script(name: str, *args: str) -> None:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env, check=True,
                   capture_output=True)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_recall_grid_csv(tmp_path):
    _script("run_recall_grid.py", "--seed", "7", "--out-dir", str(tmp_path))
    assert _sha256((tmp_path / "recall_grid.csv").read_bytes()) == GRID_SHA256


@pytest.mark.parametrize("retriever", list(RETRIEVE_SHA256))
def test_retrieve_stdout(retriever, tmp_path, capsys):
    _script("make_dataset.py", "--out-dir", str(tmp_path))
    corpus = str(tmp_path / "corpus.jsonl")
    views = str(tmp_path / "views.jsonl")
    assert run(["views", "--corpus", corpus, "--output", views]) == 0
    dirs = {}
    for view in (None, "raw", "keywords", "summary"):
        dirs[view] = str(tmp_path / f"idx_{view or 'chunks'}")
        extra = ["--view", view, "--views", views] if view else []
        assert run(["index", "--corpus", corpus, "--scheme", "content", "--retriever", retriever,
                    *extra, "--output", dirs[view]]) == 0
    questions = [json.loads(line)["question"] for line in (tmp_path / "qa.jsonl").read_text().splitlines()[:4]]
    capsys.readouterr()
    for ordinal, question in enumerate(questions):
        for k in ("1.5", "3", "10"):
            common = ["--question", question, "--k", k, "--ordinal", str(ordinal)]
            assert run(["retrieve", "--mode", "mc", "--index", dirs["raw"], dirs["keywords"],
                        dirs["summary"], *common]) == 0
            assert run(["retrieve", "--mode", "single:raw", "--index", dirs[None], *common]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == RETRIEVE_SHA256[retriever]
