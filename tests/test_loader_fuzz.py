"""Fuzz of the text loaders: mutated corpus, QA, views and markdown files.

Each example damages one valid input file, by bytes (flips, inserts,
deletes) or by record (a missing key, a value of the wrong type, a lone
surrogate, nesting past the recursion limit, an integer too long to parse).
The file must then load or fail with an McIndexError whose message starts
with its path, and ``stats``, ``eval recall --views`` and ``ingest`` must
exit 0, or exit 2 and print that message as ``data error: <path>...``.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcidx.cli import run
from mcidx.corpus import load_corpus_jsonl, load_qa_jsonl, write_corpus_jsonl, write_qa_jsonl
from mcidx.errors import McIndexError
from mcidx.synthetic import synthetic_corpus
from mcidx.views import build_views, read_views_jsonl, write_views_jsonl

MARKDOWN = b"""Preamble text.
# Guide
Intro sentences live here. They describe the guide.
## Setup
Install the tool first. Then configure it carefully.
## References
This body is dropped at ingestion.
"""

NAMES = {"corpus": "corpus.jsonl", "qa": "qa.jsonl", "views": "views.jsonl", "markdown": "guide.md"}
LOADERS = {"corpus": load_corpus_jsonl, "qa": load_qa_jsonl, "views": read_views_jsonl}

# Stand-ins that json.dumps can write, swapped for their raw text afterwards.
RAW = {"\x00deep": "[" * 100_000 + "]" * 100_000, "\x00huge": "9" * 5_000}
ODD_VALUES = [None, True, 7, -1, 2.5, "", "\ud800", [], {}, ["x"], {"x": 1}, *RAW]
STRUCTURE = frozenset(b'{}[]:,"')


@pytest.fixture(scope="module")
def valid(tmp_path_factory) -> dict[str, bytes]:
    """The bytes of one valid file of each kind."""
    directory = tmp_path_factory.mktemp("valid")
    docs, qa = synthetic_corpus(n_docs=2, questions_per_doc=2)
    write_corpus_jsonl(docs, directory / NAMES["corpus"])
    write_qa_jsonl(qa, directory / NAMES["qa"])
    write_views_jsonl({d.doc_id: build_views(d) for d in docs}, directory / NAMES["views"])
    (directory / NAMES["markdown"]).write_bytes(MARKDOWN)
    return {kind: (directory / name).read_bytes() for kind, name in NAMES.items()}


@st.composite
def byte_mutation(draw, blob: bytes) -> bytes:
    """One flip, insert or delete, half the time at a JSON structural byte."""
    data = bytearray(blob)
    structural = [i for i, b in enumerate(data) if b in STRUCTURE]
    pos = draw(st.integers(0, len(data) - 1) | st.sampled_from(structural or [0]))
    op = draw(st.sampled_from(["flip", "insert", "delete"]))
    if op == "flip":
        data[pos] ^= draw(st.integers(1, 255))
    elif op == "insert":
        data[pos:pos] = draw(st.binary(min_size=1, max_size=8))
    else:
        del data[pos:pos + draw(st.integers(1, 64))]
    return bytes(data)


@st.composite
def record_mutation(draw, blob: bytes) -> bytes:
    """One record loses a key, gets an odd value for one, or is replaced by an odd value."""
    records = [json.loads(line) for line in blob.decode("utf-8").splitlines()]
    i = draw(st.integers(0, len(records) - 1))
    record = copy.deepcopy(records[i])
    targets = [record, *record.get("sections", []), *([record["scope"]] if "scope" in record else [])]
    target = draw(st.sampled_from(targets))
    op = draw(st.sampled_from(["drop", "retype", "replace"]))
    key = draw(st.sampled_from(sorted(target)))
    if op == "drop":
        del target[key]
    elif op == "retype":
        target[key] = draw(st.sampled_from(ODD_VALUES))
    else:
        record = draw(st.sampled_from(ODD_VALUES))
    records[i] = record
    text = "".join(json.dumps(r) + "\n" for r in records)
    for mark, raw in RAW.items():
        text = text.replace(json.dumps(mark), raw)
    return text.encode("utf-8")


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_input_loads_or_is_a_data_error_naming_the_file(valid, tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("fuzz")
    for other, name in NAMES.items():
        (directory / name).write_bytes(valid[other])
    kind = data.draw(st.sampled_from(sorted(NAMES)), label="kind")
    by_record = kind != "markdown" and data.draw(st.booleans(), label="by record")
    blob = data.draw((record_mutation if by_record else byte_mutation)(valid[kind]), label="file")
    path = directory / NAMES[kind]
    path.write_bytes(blob)
    corpus, qa, views = (str(directory / NAMES[k]) for k in ("corpus", "qa", "views"))

    error = None
    if kind == "markdown":
        commands = [["ingest", str(path), "--output", str(directory / "ingested.jsonl")]]
    else:
        commands = [["eval", "recall", "--corpus", corpus, "--qa", qa, "--views", views,
                     "--scheme", "content", "--retriever", "bm25", "--mode", "mc", "--k", "3"]]
        if kind != "views":
            commands.append(["stats", "--corpus", corpus, "--qa", qa])
        try:
            LOADERS[kind](path)
        except McIndexError as exc:  # anything else fails the test
            error = exc
            assert str(exc).startswith(str(path))

    for argv in commands:
        code, err = _run(argv)
        if error is not None:
            assert (code, f"data error: {error}") == (2, err.strip().splitlines()[-1])
        elif kind == "markdown" and code == 2:
            assert err.strip().splitlines()[-1].startswith(f"data error: {path}")
        else:
            # A file that loads can still disagree with another (views that miss a section).
            assert code == 0 or (code == 2 and "data error: " in err)
