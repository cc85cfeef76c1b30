"""Golden outputs: whole-pipeline results pinned byte for byte by sha256.

The recall-grid CSV of ``scripts/run_recall_grid.py --seed 7``, the stdout
of ``scripts/run_chunking_error.py --seed 7`` and of
``scripts/run_complementarity.py``, and ``mcidx retrieve`` stdout in ``mc``
and ``single:raw`` mode over indexes that ``mcidx views`` and ``mcidx index``
build from the ``scripts/make_dataset.py`` corpus. A changed digest means a
changed chunk, ranking, score or recall figure.
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

# The error table, then one line per scheme: the sha256 of its chunks as
# ``mcidx chunk`` writes them.
CHUNKING_ERROR_STDOUT = """\
scheme             split scopes  error %
flc:100               19     30     63.3
flc-content:100       18     30     60.0
flc:200               13     30     43.3
flc-content:200        7     30     23.3
flc:300                8     30     26.7
flc-content:300        2     30      6.7
content                0     30      0.0

sha256 7dfbe2824e62c77bd44efd117a4247044ad3c96f77a97d39a282003cd2408ceb  flc:100
sha256 5be8f671b6fa618140f95de2ffb743bfc29916ce49e37c77bf80dcd70b42f737  flc-content:100
sha256 55ecdd93f054153f7037c408f1641a0d06b8e34faabb747150da086c031cd4df  flc:200
sha256 e65dc709542e99f66805fa80e5f2686623e6c0df7da7df4ab7b4f5adf5021cef  flc-content:200
sha256 88253b28fccab31125b52aa2e6265ead7d256b55ee9b8687ac72ef059c4f2ea4  flc:300
sha256 cc7bcb0afb57509e867c74c60d22351412d28cae83ede5895f07f113b484df3d  flc-content:300
sha256 9456f98b04a4c59477a6dc84f00f2351c02ab43b28e3b4ab4f9775a32c7a49ad  content
"""

COMPLEMENTARITY_STDOUT = """\
30 questions, retriever=bm25, k=3
single:raw       recall  33.3%
single:keywords  recall  33.3%
single:summary   recall  33.3%
mc               recall 100.0%
"""

RETRIEVE_SHA256 = {
    "bm25": "ff44e02905c75f977aa85657fe484f6ed670ade338ba298c58ca2733e4c0161e",
    "dense:mock": "89ad1857069631cf43c9a9ab49135691563a0ea924ba10c63b1195a4b4356047",
}


def _script(name: str, *args: str) -> str:
    """Run a script on this checkout's package; returns its stdout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_recall_grid_csv(tmp_path):
    _script("run_recall_grid.py", "--seed", "7", "--out-dir", str(tmp_path))
    assert _sha256((tmp_path / "recall_grid.csv").read_bytes()) == GRID_SHA256


def test_chunking_error_script():
    assert _script("run_chunking_error.py", "--seed", "7") == CHUNKING_ERROR_STDOUT


def test_complementarity_script():
    assert _script("run_complementarity.py") == COMPLEMENTARITY_STDOUT


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
