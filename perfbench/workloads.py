"""The four benchmark workloads: grid, query, ingest and llm.

Each workload is one caller in a closed loop: it issues its next operation
only after the previous one returned. It builds its inputs from the seed with
``synthetic_corpus``, builds its state in ``setup`` (timed), then runs
operations, each of which times only its call into mcidx. ``check``
verifies the outputs of the first pass: invariants that hold on any seed,
plus sha256 digests that ``run.py`` compares with the recorded ones.

Why these four (NOTES.md maps each layer metric to the end-to-end metric it
should move):

* grid   - the paper's recall grid; per-document index builds and re-chunking
  dominate, per-query scoring barely shows.
* query  - corpus-wide indexes over 400 documents; per-query scoring and
  sorting of thousands of units dominate.
* ingest - the CLI write path (views, index, store) and cold index loads.
* llm    - the only workload where the HTTP provider and prompts do the work.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import http.client
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from mcidx import cli, corpus, evaluation, fusion, retrieval, synthetic, views

KS = [1.5, 3, 5, 10]
RETRIEVERS = ("tfidf", "bm25", "dense:mock")
CONTENT_MODES = ("single:raw", "single:keywords", "single:summary", "mc")
FLC_SCHEMES = ("flc:100", "flc:200", "flc:300",
               "flc-content:100", "flc-content:200", "flc-content:300")
VIEW_KINDS = (views.ViewKind.RAW_TEXT, views.ViewKind.KEYWORDS, views.ViewKind.SUMMARY)
VIEW_NAMES = ("raw", "keywords", "summary")

# Document counts per size; "tiny" is for the self-test only.
SIZES = {
    "grid": {"full": 100, "tiny": 4},
    "query": {"full": 400, "tiny": 6},
    "ingest": {"full": 400, "tiny": 6},
    "llm": {"full": 100, "tiny": 3},
}


@dataclass
class Sample:
    kind: str
    seconds: float
    work: int
    ok: bool


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def rate(samples) -> float:
    return sum(s.work for s in samples) / sum(s.seconds for s in samples)


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def freeze_inputs() -> None:
    """Move every object alive now out of the garbage collector's reach.

    An ``mcidx`` command normally starts in a fresh process with a small heap.
    Run in-process, its collections would also walk the benchmark's own
    inputs, so their cost would depend on what the benchmark holds.
    """
    gc.collect()
    gc.freeze()


def run_cli(argv: list[str]) -> tuple[int, float, str]:
    """Run one mcidx command in-process; returns exit code, seconds, stdout.

    Garbage left by the previous command is collected first, untimed, as a
    fresh process would not have it.
    """
    gc.collect()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.run(argv)
        seconds = time.perf_counter() - start
    return code, seconds, out.getvalue()


def view_units(docs, views_by_doc, view):
    """Corpus-wide (unit_id, text) pairs for one view, as ``mcidx index`` builds them."""
    units = []
    for doc in docs:
        if view is views.ViewKind.RAW_TEXT:
            units.extend((f"{doc.doc_id}#{s.section_id}", s.text) for s in doc.sections)
        else:
            units.extend((f"{doc.doc_id}#{sid}", text)
                         for sid, text in views.view_texts(views_by_doc[doc.doc_id], view))
    return units


def build_view_indexes(docs, views_by_doc, retriever):
    """In-memory raw/keywords/summary indexes for one retriever spec."""
    kind, provider_name = retrieval.parse_retriever(retriever)
    provider = retrieval.resolve_provider(provider_name) if kind == retrieval.DENSE else None
    indexes = {}
    for view in VIEW_KINDS:
        units = view_units(docs, views_by_doc, view)
        if provider is not None:
            indexes[view] = retrieval.build_dense_index(units, provider)
        else:
            indexes[view] = retrieval.build_sparse_index(units, kind)
    return indexes, provider


class Workload:
    name = ""
    setup_repeats = 3
    # Operations timed between two runs of the calibration loop (see run.py).
    segment = 1

    def __init__(self, seed: int, size: str, workdir: Path):
        self.workdir = workdir
        self.docs, self.qa = synthetic.synthetic_corpus(n_docs=SIZES[self.name][size], seed=seed)
        self.outputs: dict = {}

    @property
    def pass_len(self) -> int:
        """Operations in one pass over the workload's inputs."""
        raise NotImplementedError

    @property
    def min_ops(self) -> int:
        """Operations whose outputs ``check`` verifies; every run does these."""
        return self.pass_len

    @property
    def stop_every(self) -> int:
        """A timed run may end only after a multiple of this many operations."""
        return self.segment

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> Sample:
        raise NotImplementedError

    def check(self) -> tuple[dict[str, str], list[str]]:
        """Digests of the first pass, and the invariant violations found."""
        raise NotImplementedError

    def figures(self, samples: list[Sample]) -> dict:
        """``ops_per_s`` and ``op_p50_ms`` plus the workload's own named metrics."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def corpus_size(self) -> dict:
        return {
            "docs": len(self.docs),
            "sections": sum(len(d.sections) for d in self.docs),
            "tokens": sum(s.token_count for d in self.docs for s in d.sections),
            "questions": len(self.qa),
        }


class Grid(Workload):
    """The recall grid of scripts/run_recall_grid.py, split into operations.

    One operation is one (scheme, retriever, mode) setup on a batch of ten
    documents. A batch keeps its questions' dataset-order ordinals (through
    ``invert_parity`` when it starts at an odd position), so the merged
    per-question recalls, and the CSV built from them, equal one
    ``eval_recall`` call per setup over the whole corpus. Operations run in a
    strided order, so every stretch of a run mixes batches and setups alike.
    """

    name = "grid"
    segment = 5

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.setups = [setup for r in RETRIEVERS
                       for setup in [(scheme, r, "single:raw") for scheme in FLC_SCHEMES]
                       + [("content", r, mode) for mode in CONTENT_MODES]]
        step = 10 if size == "full" else 2
        positions = {}
        for pos, item in enumerate(self.qa):
            positions.setdefault(item.doc_id, []).append(pos)
        self.batches = []
        for start in range(0, len(self.docs), step):
            batch = self.docs[start:start + step]
            pos = [p for d in batch for p in positions.get(d.doc_id, [])]
            self.batches.append((batch, [self.qa[p] for p in pos], pos[0] if pos else 0))
        self.stride = next(s for s in (7, 11, 13, 17, 19) if math.gcd(s, self.pass_len) == 1)
        self.views = None

    @property
    def pass_len(self):
        return len(self.batches) * len(self.setups)

    def setup(self):
        self.views = {doc.doc_id: views.build_views(doc) for doc in self.docs}

    def op(self, i):
        position = (i % self.pass_len) * self.stride % self.pass_len
        batch, qa, first = self.batches[position // len(self.setups)]
        scheme, retriever, mode = self.setups[position % len(self.setups)]
        start = time.perf_counter()
        report = evaluation.eval_recall(
            batch, qa, scheme, retriever, mode, KS,
            views=self.views if scheme == "content" else None,
            invert_parity=first % 2 == 1,
        )
        seconds = time.perf_counter() - start
        if i < self.pass_len:
            self.outputs[position] = report
        return Sample("eval", seconds, len(qa), True)

    def merged_report(self):
        """One report row per (setup, k) over all batches, in the script's order."""
        rows = []
        for s in range(len(self.setups)):
            reports = [self.outputs[b * len(self.setups) + s] for b in range(len(self.batches))]
            for j in range(len(KS)):
                recalls = [x for r in reports for x in r.rows[j].per_question]
                rows.append(replace(reports[0].rows[j], n_questions=len(recalls),
                                    mean_recall=sum(recalls) / len(recalls),
                                    per_question=tuple(recalls)))
        return evaluation.RecallReport(tuple(rows))

    def check(self):
        report = self.merged_report()
        problems = []
        for i in range(0, len(report.rows), len(KS)):
            rows = report.rows[i:i + len(KS)]
            label = f"{rows[0].scheme}/{rows[0].retriever}/{rows[0].mode}"
            if any(not 0.0 <= x <= 1.0 for row in rows for x in row.per_question):
                problems.append(f"{label}: recall outside [0, 1]")
            for q in range(len(rows[0].per_question)):
                series = [row.per_question[q] for row in rows]
                if any(b < a for a, b in zip(series, series[1:])):
                    problems.append(f"{label}: recall of question {q} falls as k grows")
                    break
        return {"grid_csv": sha256_hex(report.to_csv().encode("utf-8"))}, problems

    def figures(self, samples):
        per_eval_ms = [1000.0 * s.seconds / s.work for s in samples]
        return {
            "ops_per_s": rate(samples),
            "op_p50_ms": statistics.median(per_eval_ms),
            "named": {
                "recall_evals_per_s": (rate(samples), "1/s"),
                "recall_eval_p50_ms": (statistics.median(per_eval_ms), "ms"),
                "recall_eval_p90_ms": (p90(per_eval_ms), "ms"),
            },
            "samples": {"ops": len(samples), "evals": sum(s.work for s in samples)},
        }


class Query(Workload):
    """Single requests against corpus-wide in-memory indexes.

    Request i asks question i (dataset order, ordinal = position) under the
    i-th (retriever, mode) pair of a fixed rotation, at k = 5.
    """

    name = "query"
    setup_repeats = 2  # one set-up takes about 11 s on 2 CPUs
    check_requests = 120
    segment = 10
    rotation = [(r, mode) for r in RETRIEVERS for mode in ("single:raw", "mc")]
    k = 5

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.indexes = {}

    @property
    def pass_len(self):
        return len(self.rotation)

    @property
    def min_ops(self):
        return self.check_requests

    def setup(self):
        views_by_doc = {doc.doc_id: views.build_views(doc) for doc in self.docs}
        self.indexes = {r: build_view_indexes(self.docs, views_by_doc, r) for r in RETRIEVERS}

    def op(self, i):
        retriever, mode = self.rotation[i % len(self.rotation)]
        ordinal = i % len(self.qa)
        question = self.qa[ordinal].question
        view_indexes, provider = self.indexes[retriever]
        start = time.perf_counter()
        if mode == "mc":
            ids = fusion.retrieve_mc(view_indexes, question, self.k, ordinal, provider).unit_ids
        else:
            scored = fusion.retrieve_single(view_indexes[views.ViewKind.RAW_TEXT], question,
                                            self.k, ordinal, provider)
            ids = [s.unit_id for s in scored]
        seconds = time.perf_counter() - start
        if i < self.check_requests:
            self.outputs[i] = (retriever, mode, ordinal, ids)
        return Sample("request", seconds, 1, True)

    def check(self):
        problems = []
        known = set(self.indexes[RETRIEVERS[0]][0][views.ViewKind.RAW_TEXT].unit_ids)
        budget = fusion.per_view_budget(self.k, 0)
        lines = []
        for i in range(self.check_requests):
            retriever, mode, ordinal, ids = self.outputs[i]
            lines.append(json.dumps([retriever, mode, ordinal, ids]))
            expected = (budget, 3 * budget) if mode == "mc" else (self.k, self.k)
            if not expected[0] <= len(ids) <= expected[1] or len(set(ids)) != len(ids):
                problems.append(f"request {i}: {len(ids)} units for {retriever} {mode}")
            if not known.issuperset(ids):
                problems.append(f"request {i}: unknown unit id")
        return {"unit_ids": sha256_hex("\n".join(lines).encode("utf-8"))}, problems

    def figures(self, samples):
        latency_ms = [1000.0 * s.seconds for s in samples]
        return {
            "ops_per_s": rate(samples),
            "op_p50_ms": statistics.median(latency_ms),
            "named": {
                "queries_per_s": (rate(samples), "1/s"),
                "query_p50_ms": (statistics.median(latency_ms), "ms"),
                "query_p90_ms": (p90(latency_ms), "ms"),
            },
            "samples": {"requests": len(samples)},
        }


class Ingest(Workload):
    """The CLI write path on 400 documents, then cold reads of what it wrote.

    A pass runs ``views`` (extractive) on each quarter of the corpus, so no
    single command spans more than a second or two of host-speed drift, and
    joins the four outputs into one ``views.jsonl``. Then it runs ``index``
    for every retriever and view (nine index directories) and cold
    ``retrieve --mode mc`` calls over the saved bm25 and dense:mock triples.
    Retrieves cycle bm25, bm25, dense:mock, so the median falls among the
    slower bm25 loads.
    """

    name = "ingest"
    shards = 4
    retrieves = 30

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.corpus_path = workdir / "corpus.jsonl"
        self.views_path = workdir / "views.jsonl"
        per_shard = math.ceil(len(self.docs) / self.shards)
        self.shard_docs = [self.docs[k:k + per_shard] for k in range(0, len(self.docs), per_shard)]
        self.index_jobs = [(r, v) for r in RETRIEVERS for v in VIEW_NAMES]
        self.retrieve_jobs = [("bm25", "bm25", "dense:mock")[j % 3] for j in range(self.retrieves)]
        freeze_inputs()

    def index_dir(self, retriever, view):
        return self.workdir / f"index-{retriever.replace(':', '-')}-{view}"

    def shard_path(self, kind, k):
        return self.workdir / f"{kind}-shard{k}.jsonl"

    @property
    def pass_len(self):
        return len(self.shard_docs) + len(self.index_jobs) + len(self.retrieve_jobs)

    @property
    def stop_every(self):
        return self.pass_len

    def setup(self):
        corpus.write_corpus_jsonl(self.docs, self.corpus_path)
        for k, docs in enumerate(self.shard_docs):
            corpus.write_corpus_jsonl(docs, self.shard_path("corpus", k))

    def op(self, i):
        j = i % self.pass_len
        if j < len(self.shard_docs):
            code, seconds, _ = run_cli(["views", "--corpus", str(self.shard_path("corpus", j)),
                                        "--output", str(self.shard_path("views", j))])
            if j == len(self.shard_docs) - 1:
                self.views_path.write_bytes(b"".join(
                    self.shard_path("views", k).read_bytes() for k in range(len(self.shard_docs))))
            return Sample("build", seconds, len(self.shard_docs[j]), code == 0)
        j -= len(self.shard_docs)
        if j < len(self.index_jobs):
            retriever, view = self.index_jobs[j]
            code, seconds, _ = run_cli([
                "index", "--corpus", str(self.corpus_path), "--scheme", "content",
                "--retriever", retriever, "--view", view, "--views", str(self.views_path),
                "--output", str(self.index_dir(retriever, view))])
            return Sample("build", seconds, 0, code == 0)
        r = j - len(self.index_jobs)
        retriever = self.retrieve_jobs[r]
        code, seconds, out = run_cli([
            "retrieve", "--mode", "mc", "--question", self.qa[r % len(self.qa)].question, "--k", "5",
            "--ordinal", str(r), "--index", *(str(self.index_dir(retriever, v)) for v in VIEW_NAMES)])
        if i < self.pass_len:
            self.outputs[r] = [json.loads(line)["unit_id"] for line in out.splitlines()] if code == 0 else None
        return Sample("retrieve", seconds, 1, code == 0)

    def stored_files(self):
        files = [self.views_path]
        for retriever, view in self.index_jobs:
            files.extend(sorted(p for p in self.index_dir(retriever, view).iterdir() if p.is_file()))
        return files

    def check(self):
        # The files on disk are the last pass's; every pass writes the same
        # bytes, and the digest checks them against the recorded ones.
        digest = hashlib.sha256()
        for path in self.stored_files():
            digest.update(str(path.relative_to(self.workdir)).encode("utf-8") + b"\0")
            digest.update(path.read_bytes())
        problems = []
        views_by_doc = views.read_views_jsonl(self.views_path)
        memory = {r: build_view_indexes(self.docs, views_by_doc, r) for r in set(self.retrieve_jobs)}
        for r, retriever in enumerate(self.retrieve_jobs):
            view_indexes, provider = memory[retriever]
            expected = fusion.retrieve_mc(view_indexes, self.qa[r % len(self.qa)].question, 5, r, provider).unit_ids
            if self.outputs.get(r) != expected:
                problems.append(f"retrieve {r} ({retriever}): cold ranking differs from in-memory")
        retrieved = json.dumps([self.outputs.get(r) for r in range(len(self.retrieve_jobs))])
        return {"index_bytes": digest.hexdigest(),
                "retrieved": sha256_hex(retrieved.encode("utf-8"))}, problems

    def figures(self, samples):
        builds = [s for s in samples if s.kind == "build"]
        retrieve_ms = [1000.0 * s.seconds for s in samples if s.kind == "retrieve"]
        index_bytes = sum(p.stat().st_size for p in self.stored_files()[1:])
        return {
            "ops_per_s": rate(builds),
            "op_p50_ms": statistics.median(retrieve_ms),
            "named": {
                "ingest_docs_per_s": (rate(builds), "docs/s"),
                "cold_retrieve_p50_ms": (statistics.median(retrieve_ms), "ms"),
                "index_bytes_per_corpus_byte": (index_bytes / self.corpus_path.stat().st_size, "ratio"),
            },
            "samples": {"build_commands": len(builds), "retrieves": len(retrieve_ms)},
        }


class StubLlm:
    """The loopback stub LLM (stub_llm.py) running in its own process."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("stub_llm.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.port = int(self.proc.stdout.readline())
        self.url = f"http://127.0.0.1:{self.port}"
        self.stats_reads = 0

    def stats(self) -> dict:
        self.stats_reads += 1
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Llm(Workload):
    """LLM views, then pairwise-judged answers, against the loopback stub.

    A pass runs ``views --generator llm --jobs 2`` on each batch of ten
    documents, then one ``eval answers`` per document (bm25, k=5, content/mc
    against flc:300/single:raw), so the per-question figures come from many
    small commands.
    """

    name = "llm"
    jobs = 2

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        step = 10 if size == "full" else 1
        self.batches = [list(range(b, min(b + step, len(self.docs)))) for b in range(0, len(self.docs), step)]
        self.stub = None
        self.start_stats = None
        freeze_inputs()

    @property
    def pass_len(self):
        return len(self.batches) + len(self.docs)

    def path(self, kind, n):
        return self.workdir / f"{kind}-{n:04d}.jsonl"

    def setup(self):
        self.stub = StubLlm()
        os.environ["MCIDX_LLM_URL"] = self.stub.url
        os.environ.pop("MCIDX_LLM_API_KEY", None)
        for b, batch in enumerate(self.batches):
            corpus.write_corpus_jsonl([self.docs[d] for d in batch], self.path("batch-corpus", b))
        for d, doc in enumerate(self.docs):
            corpus.write_corpus_jsonl([doc], self.path("corpus", d))
            corpus.write_qa_jsonl([q for q in self.qa if q.doc_id == doc.doc_id], self.path("qa", d))
        self.start_stats = self.stub.stats()

    def op(self, i):
        j = i % self.pass_len
        if j < len(self.batches):
            views_path = self.path("batch-views", j)
            before = self.stub.stats()["requests"]
            code, seconds, _ = run_cli(["views", "--corpus", str(self.path("batch-corpus", j)),
                                        "--generator", "llm", "--jobs", str(self.jobs),
                                        "--output", str(views_path)])
            calls = self.stub.stats()["requests"] - before
            if code == 0:
                self.split_views(j)
                if i < self.pass_len:
                    self.outputs[("views", j)] = views_path.read_bytes()
            return Sample("views", seconds, calls, code == 0)
        d = j - len(self.batches)
        out_path = self.path("answers", d)
        code, seconds, _ = run_cli([
            "eval", "answers", "--corpus", str(self.path("corpus", d)),
            "--qa", str(self.path("qa", d)), "--retriever", "bm25", "--k", "5",
            "--scheme-a", "content", "--mode-a", "mc", "--scheme-b", "flc:300", "--mode-b", "single:raw",
            "--views", str(self.path("views", d)), "--output", str(out_path),
            "--jobs", str(self.jobs)])
        records = [json.loads(line) for line in out_path.read_text("utf-8").splitlines()] if code == 0 else []
        if i < self.pass_len:
            self.outputs[("answers", d)] = records
        return Sample("answers", seconds, len(records), code == 0)

    def split_views(self, b):
        by_doc = {}
        with open(self.path("batch-views", b), encoding="utf-8") as fh:
            for line in fh:
                by_doc.setdefault(json.loads(line)["doc_id"], []).append(line)
        for d in self.batches[b]:
            self.path("views", d).write_text("".join(by_doc.get(self.docs[d].doc_id, [])), encoding="utf-8")

    def conns_per_call(self) -> float:
        """TCP connections the stub accepted per LLM request since setup."""
        stats = self.stub.stats()
        requests = stats["requests"] - self.start_stats["requests"]
        # Every /stats read after the first is one more connection, and no request.
        conns = stats["connections"] - self.start_stats["connections"] - (self.stub.stats_reads - 1)
        return conns / requests if requests else 0.0

    def check(self):
        problems = []
        lines = []
        for d, doc in enumerate(self.docs):
            records = self.outputs.get(("answers", d), [])
            expected = sum(1 for q in self.qa if q.doc_id == doc.doc_id)
            if len(records) != expected:
                problems.append(f"{doc.doc_id}: {len(records)} judged questions, expected {expected}")
            for record in records:
                scores = record.get("scores", [])
                if len(scores) != 4 or not all(0 <= s <= 10 for s in scores):
                    problems.append(f"{record.get('question_id')}: bad judge scores {scores}")
                lines.append(json.dumps(record, sort_keys=True))
        views_bytes = b"".join(self.outputs.get(("views", b), b"") for b in range(len(self.batches)))
        return {"views_jsonl": sha256_hex(views_bytes),
                "answers": sha256_hex("\n".join(lines).encode("utf-8"))}, problems

    def figures(self, samples):
        views_ops = [s for s in samples if s.kind == "views"]
        answers = [s for s in samples if s.kind == "answers"]
        per_question_ms = [1000.0 * s.seconds / s.work for s in answers]
        return {
            "ops_per_s": rate(views_ops),
            "op_p50_ms": statistics.median(per_question_ms),
            "named": {
                "llm_calls_per_s": (rate(views_ops), "1/s"),
                "answers_per_s": (rate(answers), "1/s"),
                "answer_p50_ms": (statistics.median(per_question_ms), "ms"),
            },
            "samples": {"views_commands": len(views_ops), "llm_calls": sum(s.work for s in views_ops),
                        "answers_commands": len(answers), "judged": sum(s.work for s in answers)},
        }

    def close(self):
        if self.stub is not None:
            self.stub.stop()
            self.stub = None


WORKLOADS = {cls.name: cls for cls in (Grid, Query, Ingest, Llm)}
