from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import shutil
from collections import Counter

import pytest

from mcidx import cli, evaluation, providers
from mcidx.chunking import ChunkScheme, chunk_document
from mcidx.cli import build_parser, parse_k_list, run
from mcidx.corpus import load_and_filter_qa, load_corpus_jsonl, write_corpus_jsonl, write_qa_jsonl
from mcidx.evaluation import Setup, build_doc_context, eval_recall
from mcidx.fusion import retrieve_mc, retrieve_single
from mcidx.prompts import ANSWER
from mcidx.store import load_index
from mcidx.views import DEFAULT_JOBS, ViewKind, build_views
from mcidx.synthetic import synthetic_corpus

MARKDOWN = """# Guide
Intro sentences live here. They describe the guide.
## Setup
Install the tool first. Then configure it carefully. Check the output twice.
## Usage
Run the indexer on your corpus. Inspect the resulting report.
## References
This body is dropped at ingestion.
"""


@pytest.fixture
def dataset(tmp_path):
    docs, qa = synthetic_corpus(n_docs=2, questions_per_doc=2)
    corpus = tmp_path / "corpus.jsonl"
    qa_path = tmp_path / "qa.jsonl"
    write_corpus_jsonl(docs, corpus)
    write_qa_jsonl(qa, qa_path)
    return corpus, qa_path


class TestExitCodes:
    def test_parser_builds(self):
        assert build_parser().prog == "mcidx"

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "mcidx" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["ingest", "--help"],
        ["chunk", "--help"],
        ["views", "--help"],
        ["index", "--help"],
        ["retrieve", "--help"],
        ["eval", "recall", "--help"],
        ["eval", "chunking-error", "--help"],
        ["eval", "answers", "--help"],
        ["stats", "--help"],
    ])
    def test_subcommand_help(self, argv, capsys):
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert "--" in out

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["stats", "--corpus", "x.jsonl", "--frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_corpus_is_data_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        code = run(["stats", "--corpus", str(missing)])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_bad_scheme_spec_is_usage_error(self, dataset, capsys):
        corpus, qa = dataset
        code = run(["eval", "recall", "--corpus", str(corpus), "--qa", str(qa),
                    "--scheme", "semantic", "--retriever", "bm25",
                    "--mode", "single:raw", "--k", "3"])
        assert code == 1

    def test_llm_generator_without_env_is_provider_error(self, dataset, tmp_path, monkeypatch, capsys):
        # LLM views are made only by `views`; `eval recall` and `eval answers` read them with --views.
        monkeypatch.delenv("MCIDX_LLM_URL", raising=False)
        corpus, _ = dataset
        code = run(["views", "--corpus", str(corpus), "--generator", "llm",
                    "--output", str(tmp_path / "views.jsonl")])
        assert code == 3
        assert "MCIDX_LLM_URL" in capsys.readouterr().err

    def test_mc_retrieve_over_different_unit_sets_is_data_error(self, dataset, tmp_path, capsys):
        corpus, _ = dataset
        views = tmp_path / "views.jsonl"
        assert run(["views", "--corpus", str(corpus), "--output", str(views)]) == 0
        dirs = []
        for scheme, view in (("content", "raw"), ("content", "keywords"), ("flc:100", None)):
            dirs.append(str(tmp_path / f"idx{len(dirs)}"))
            extra = ["--view", view, "--views", str(views)] if view else []
            assert run(["index", "--corpus", str(corpus), "--scheme", scheme, "--retriever", "bm25",
                        *extra, "--output", dirs[-1]]) == 0
        assert run(["retrieve", "--mode", "mc", "--index", *dirs, "--question", "anything"]) == 2
        assert "different unit id sets" in capsys.readouterr().err

    @pytest.mark.parametrize("retrievers", [("bm25", "dense:mock", "tfidf"), ("bm25", "bm25", "dense:mock")])
    def test_mc_retrieve_over_indexes_of_different_retrievers_is_data_error(self, retrievers, dataset, tmp_path,
                                                                            capsys):
        # One unit id set in all three, so only the retriever differs: bm25 fused with dense is no mc retrieval.
        corpus, _ = dataset
        views = tmp_path / "views.jsonl"
        assert run(["views", "--corpus", str(corpus), "--output", str(views)]) == 0
        dirs = [str(tmp_path / view) for view in ("raw", "keywords", "summary")]
        for directory, view, retriever in zip(dirs, ("raw", "keywords", "summary"), retrievers):
            assert run(["index", "--corpus", str(corpus), "--scheme", "content", "--retriever", retriever,
                        "--view", view, "--views", str(views), "--output", directory]) == 0
        capsys.readouterr()
        assert run(["retrieve", "--mode", "mc", "--index", *dirs, "--question", "anything"]) == 2
        other = 1 if retrievers[1] != retrievers[0] else 2  # the first directory that disagrees is named
        assert capsys.readouterr().err == (f"data error: {dirs[other]}: a {retrievers[other]} index, but {dirs[0]} is "
                                           f"a {retrievers[0]} index; an mc index set comes from one retriever\n")


class TestPipeline:
    def test_ingest_excludes_reference_sections(self, tmp_path, capsys):
        source = tmp_path / "guide.md"
        source.write_text(MARKDOWN)
        out = tmp_path / "corpus.jsonl"
        assert run(["ingest", str(source), "--output", str(out)]) == 0
        record = json.loads(out.read_text().splitlines()[0])
        assert record["doc_id"] == "guide"
        headings = [s["heading"] for s in record["sections"]]
        assert "References" not in headings
        assert headings == ["Guide", "Setup", "Usage"]

    def test_chunk_writes_jsonl(self, dataset, tmp_path):
        corpus, _ = dataset
        out = tmp_path / "chunks.jsonl"
        assert run(["chunk", "--corpus", str(corpus), "--scheme", "flc:100",
                    "--output", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(r["scheme"] == "flc:100" for r in records)
        assert {"chunk_id", "doc_id", "section_id", "char_start", "char_end", "scheme"} == set(records[0])

    def test_views_then_indexes_then_mc_retrieve(self, dataset, tmp_path, capsys):
        corpus, _ = dataset
        views = tmp_path / "views.jsonl"
        assert run(["views", "--corpus", str(corpus), "--output", str(views)]) == 0
        dirs = {}
        for view in ("raw", "keywords", "summary"):
            dirs[view] = tmp_path / f"idx_{view}"
            assert run(["index", "--corpus", str(corpus), "--scheme", "content",
                        "--retriever", "bm25", "--view", view, "--views", str(views),
                        "--output", str(dirs[view])]) == 0
        capsys.readouterr()
        assert run(["retrieve", "--mode", "mc",
                    "--index", str(dirs["raw"]), str(dirs["keywords"]), str(dirs["summary"]),
                    "--question", "anything at all", "--k", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert records and all("unit_id" in r and "views" in r for r in records)

    def test_index_without_view_joins_an_mc_set(self, dataset, tmp_path, capsys):
        # Without --view, index builds the raw view, which an mc set takes as its first index.
        corpus, _ = dataset
        views = tmp_path / "views.jsonl"
        assert run(["views", "--corpus", str(corpus), "--output", str(views)]) == 0
        dirs = {}
        for name, extra in (("default", []), ("raw", ["--view", "raw"]), ("keywords", ["--view", "keywords"]),
                            ("summary", ["--view", "summary"])):
            dirs[name] = str(tmp_path / f"idx_{name}")
            assert run(["index", "--corpus", str(corpus), "--scheme", "content", "--retriever", "bm25",
                        *extra, "--views", str(views), "--output", dirs[name]]) == 0
        outputs = []
        for raw in ("default", "raw"):
            capsys.readouterr()
            assert run(["retrieve", "--mode", "mc", "--index", dirs[raw], dirs["keywords"], dirs["summary"],
                        "--question", "anything at all", "--k", "3"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] and outputs[0] == outputs[1]

    def test_raw_view_under_flc_indexes_its_chunks(self, dataset, tmp_path):
        corpus, _ = dataset
        dirs = [tmp_path / "idx_default", tmp_path / "idx_raw"]
        for directory, extra in zip(dirs, ([], ["--view", "raw"])):
            assert run(["index", "--corpus", str(corpus), "--scheme", "flc:100", "--retriever", "bm25",
                        *extra, "--output", str(directory)]) == 0
        files = [{f.name: f.read_bytes() for f in directory.iterdir()} for directory in dirs]
        assert files[0] == files[1]
        chunks = [f"{doc.doc_id}#{c.chunk_id}" for doc in load_corpus_jsonl(corpus)
                  for c in chunk_document(doc, ChunkScheme.parse("flc:100"))]
        assert chunks[0].endswith("#c0000")
        assert load_index(dirs[1]).unit_ids == chunks

    def test_retrieve_embeds_its_question_once(self, dataset, tmp_path, stub, monkeypatch):
        monkeypatch.setenv("MCIDX_EMBED_URL", stub.url)
        stub.responder = lambda path, payload: (
            200, {"vectors": [[1.0 + len(t) % 7, 1.0 + t.count("a"), 1.0] for t in payload["texts"]]})
        corpus, _ = dataset
        views = tmp_path / "views.jsonl"
        assert run(["views", "--corpus", str(corpus), "--output", str(views)]) == 0
        dirs = []
        for view in ("raw", "keywords", "summary"):
            dirs.append(str(tmp_path / f"idx_{view}"))
            assert run(["index", "--corpus", str(corpus), "--scheme", "content", "--retriever", "dense:stub",
                        "--view", view, "--views", str(views), "--output", dirs[-1]]) == 0
        for mode, indexes in (("mc", dirs), ("single:raw", dirs[:1])):
            before = len(stub.requests)
            assert run(["retrieve", "--mode", mode, "--index", *indexes, "--question", "anything"]) == 0
            assert [path for path, _, _ in stub.requests[before:]] == ["/embed"], mode

    def test_single_retrieve_ranks(self, dataset, tmp_path, capsys):
        corpus, _ = dataset
        idx = tmp_path / "idx"
        assert run(["index", "--corpus", str(corpus), "--scheme", "flc:200",
                    "--retriever", "tfidf", "--output", str(idx)]) == 0
        capsys.readouterr()
        assert run(["retrieve", "--index", str(idx), "--question", "anything", "--k", "4"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert [r["rank"] for r in records] == [1, 2, 3, 4]

    def test_eval_recall_byte_identical_runs(self, dataset, tmp_path):
        corpus, qa = dataset
        outputs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = run(["eval", "recall", "--corpus", str(corpus), "--qa", str(qa),
                        "--scheme", "content", "--retriever", "dense:mock",
                        "--mode", "mc", "--k", "1.5,3,5,10",
                        "--output", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        header = outputs[0].decode().splitlines()[0]
        assert header == "scheme,retriever,mode,k,n,mean_recall"

    def test_eval_recall_invert_parity(self, tmp_path):
        # In mc mode k=3 gives 1 or 2 units per view by question ordinal; the flag swaps which half gets 2.
        docs, qa = synthetic_corpus(n_docs=3)
        corpus, qa_path = tmp_path / "corpus.jsonl", tmp_path / "qa.jsonl"
        write_corpus_jsonl(docs, corpus)
        write_qa_jsonl(qa, qa_path)
        argv = ["eval", "recall", "--corpus", str(corpus), "--qa", str(qa_path), "--scheme", "content",
                "--retriever", "bm25", "--mode", "mc", "--k", "1.5,3"]
        assert run([*argv, "--invert-parity", "--output", str(tmp_path / "inverted.csv")]) == 0
        assert run([*argv, "--output", str(tmp_path / "plain.csv")]) == 0
        inverted = (tmp_path / "inverted.csv").read_text(encoding="utf-8")
        expected = eval_recall(docs, qa, "content", "bm25", "mc", [1.5, 3], invert_parity=True).to_csv()
        assert inverted == expected
        assert inverted != (tmp_path / "plain.csv").read_text(encoding="utf-8")

    def test_eval_recall_output_and_markdown_on_one_path(self, dataset, tmp_path, capsys):
        # Both are open at once; the CSV replaces the file last.
        corpus, qa = dataset
        argv = ["eval", "recall", "--corpus", str(corpus), "--qa", str(qa), "--scheme", "content",
                "--retriever", "bm25", "--mode", "mc", "--k", "3,5"]
        assert run(argv) == 0
        csv = capsys.readouterr().out
        both = tmp_path / "out" / "both"
        assert run([*argv, "--output", str(both), "--markdown", str(both)]) == 0
        assert both.read_text() == csv
        assert os.listdir(both.parent) == ["both"]

    def test_eval_recall_markdown_output(self, dataset, tmp_path):
        corpus, qa = dataset
        md = tmp_path / "table.md"
        assert run(["eval", "recall", "--corpus", str(corpus), "--qa", str(qa),
                    "--scheme", "content", "--retriever", "bm25",
                    "--mode", "single:summary", "--k", "3,5",
                    "--output", str(tmp_path / "r.csv"), "--markdown", str(md)]) == 0
        assert "k=3" in md.read_text()

    def test_output_paths_create_parent_directories(self, dataset, tmp_path):
        corpus, qa = dataset
        out = tmp_path / "new" / "dirs"
        assert run(["eval", "recall", "--corpus", str(corpus), "--qa", str(qa),
                    "--scheme", "content", "--retriever", "bm25", "--mode", "single:raw", "--k", "3",
                    "--output", str(out / "csv" / "r.csv"), "--markdown", str(out / "md" / "r.md")]) == 0
        assert run(["eval", "chunking-error", "--corpus", str(corpus), "--qa", str(qa),
                    "--scheme", "content", "--output", str(out / "err" / "e.csv")]) == 0
        assert (out / "csv" / "r.csv").read_text().startswith("scheme,retriever,mode,k")
        assert "k=3" in (out / "md" / "r.md").read_text()
        assert (out / "err" / "e.csv").read_text().startswith("scheme,n_scopes")

    def test_eval_chunking_error_multiple_schemes(self, dataset, tmp_path, capsys):
        corpus, qa = dataset
        assert run(["eval", "chunking-error", "--corpus", str(corpus), "--qa", str(qa),
                    "--scheme", "flc:100", "flc-content:100", "content"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "scheme,n_scopes,n_split,error_rate"
        content_row = [l for l in lines if l.startswith("content,")][0]
        assert content_row.endswith("0,0.000000")

    def test_stats_json(self, dataset, capsys):
        corpus, qa = dataset
        assert run(["stats", "--corpus", str(corpus), "--qa", str(qa)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["n_documents"] == 2
        assert stats["n_questions"] == 4
        assert stats["n_questions_skipped"] == 0  # the loader has dropped what would not resolve

    def test_eval_answers_with_stub_llm(self, dataset, tmp_path, stub, monkeypatch, capsys):
        corpus, qa = dataset
        monkeypatch.setenv("MCIDX_LLM_URL", stub.url)

        def responder(path, payload):
            prompt = payload["prompt"]
            if "evaluating answers" in prompt:
                return (200, {"text": 'reasoning\n{"answer_1_score": "7", "answer_2_score": "4"}'})
            return (200, {"text": "a generated answer"})

        stub.responder = responder
        transcripts = tmp_path / "judge.jsonl"
        code = run(["eval", "answers", "--corpus", str(corpus), "--qa", str(qa),
                    "--retriever", "bm25", "--k", "3",
                    "--scheme-a", "content", "--mode-a", "mc",
                    "--scheme-b", "flc:300", "--mode-b", "single:raw",
                    "--output", str(transcripts)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_questions"] == 4
        records = [json.loads(line) for line in transcripts.read_text().splitlines()]
        assert len(records) == 4
        assert all(r["scores"] == [7.0, 4.0, 4.0, 7.0] for r in records)
        assert all(r["score_based"] == "tie" for r in records)


    def test_eval_answers_prompt_order_and_texts(self, dataset, tmp_path, stub, monkeypatch):
        # Per question: answer a, answer b, then the two judge rounds; each answer
        # prompt holds exactly its own side's retrieved texts, in rank order.
        corpus, qa_path = dataset
        monkeypatch.setenv("MCIDX_LLM_URL", stub.url)

        def responder(path, payload):
            if "evaluating answers" in payload["prompt"]:
                return (200, {"text": '{"answer_1_score": 6, "answer_2_score": 3}'})
            return (200, {"text": f"answer-{len(stub.requests):03d}"})

        stub.responder = responder
        assert run(["eval", "answers", "--corpus", str(corpus), "--qa", str(qa_path),
                    "--retriever", "bm25", "--k", "3",
                    "--scheme-a", "content", "--mode-a", "mc",
                    "--scheme-b", "flc:40", "--mode-b", "single:raw",
                    "--output", str(tmp_path / "judge.jsonl")]) == 0
        docs = {doc.doc_id: doc for doc in load_corpus_jsonl(corpus)}
        qa = load_and_filter_qa(qa_path, list(docs.values()))
        prompts = [payload["prompt"] for _, payload, _ in stub.requests]
        assert len(prompts) == 4 * len(qa)
        differ = 0
        for ordinal, item in enumerate(qa):
            doc = docs[item.doc_id]
            texts = []
            for scheme, mode in (("content", "mc"), ("flc:40", "single:raw")):
                units, indexes = build_doc_context(doc, Setup.parse(scheme, "bm25", mode, [3]),
                                                   build_views(doc))
                if mode == "mc":
                    unit_ids = retrieve_mc(indexes, item.question, 3, ordinal).unit_ids
                else:
                    unit_ids = [s.unit_id
                                for s in retrieve_single(indexes[ViewKind.RAW_TEXT], item.question, 3, ordinal)]
                texts.append([doc.full_text[slice(*units[uid])] for uid in unit_ids])
            differ += texts[0] != texts[1]
            answer_a, answer_b, judge1, judge2 = prompts[4 * ordinal:4 * ordinal + 4]
            assert answer_a == ANSWER.substitute(quotes="\n\n".join(texts[0]), question=item.question)
            assert answer_b == ANSWER.substitute(quotes="\n\n".join(texts[1]), question=item.question)
            reply_a, reply_b = f"answer-{4 * ordinal + 1:03d}", f"answer-{4 * ordinal + 2:03d}"
            assert judge1.index(reply_a) < judge1.index(reply_b)
            assert judge2.index(reply_b) < judge2.index(reply_a)
        assert differ  # the two sides retrieve different texts for some question


class TestOneParsePerSetup:
    """A setup's mode and retriever are parsed where the setup enters, and nothing below parses them again."""

    @pytest.fixture
    def parses(self, monkeypatch):
        # (function name, spec) -> calls, counted under every name the entry points reach them by.
        counted = Counter()
        for module in (evaluation, cli):
            for name in ("parse_mode", "parse_retriever"):
                def counting(spec, parse=getattr(module, name), name=name):
                    counted[name, spec] += 1
                    return parse(spec)

                monkeypatch.setattr(module, name, counting)
        return counted

    @pytest.mark.parametrize("scheme,retriever,mode", [("content", "bm25", "mc"),
                                                       ("flc:100", "dense:mock", "single:raw")])
    def test_eval_recall(self, parses, scheme, retriever, mode):
        docs, qa = synthetic_corpus(n_docs=2, seed=7)
        eval_recall(docs, qa, scheme, retriever, mode, [1.5, 3])
        assert parses == {("parse_mode", mode): 1, ("parse_retriever", retriever): 1}

    def test_cli_eval_recall(self, parses, dataset, capsys):
        # The command parses its setup before reading a file; eval_recall keeps its string entry and parses once more.
        corpus, qa = dataset
        assert run(["eval", "recall", "--corpus", str(corpus), "--qa", str(qa), "--scheme", "content",
                    "--retriever", "bm25", "--mode", "mc", "--k", "1.5,3"]) == 0
        assert set(parses) == {("parse_mode", "mc"), ("parse_retriever", "bm25")}
        assert max(parses.values()) <= 2

    def test_cli_eval_answers(self, parses, dataset, tmp_path, stub, monkeypatch, capsys):
        corpus, qa = dataset
        _answers_stub(stub, monkeypatch)
        assert run(["eval", "answers", "--corpus", str(corpus), "--qa", str(qa),
                    "--retriever", "bm25", "--k", "3",
                    "--scheme-a", "content", "--mode-a", "mc",
                    "--scheme-b", "flc:300", "--mode-b", "single:raw",
                    "--output", str(tmp_path / "judge.jsonl")]) == 0
        # One parse of each side's mode and one of the retriever per side.
        assert parses == {("parse_mode", "mc"): 1, ("parse_mode", "single:raw"): 1, ("parse_retriever", "bm25"): 2}


class TestParseKList:
    def test_parse_k_list(self):
        assert parse_k_list("1.5,3,5,10") == (1.5, 3.0, 5.0, 10.0)
        with pytest.raises(argparse.ArgumentTypeError, match="'three' is not a comma-separated list"):
            parse_k_list("three")
        with pytest.raises(argparse.ArgumentTypeError, match="'' is not a comma-separated list"):
            parse_k_list("")


def _views_file(tmp_path, corpus, keep=lambda record: True, extra=()):
    """A views.jsonl from the ``views`` command, filtered by ``keep`` plus ``extra`` records."""
    full = tmp_path / "views_full.jsonl"
    assert run(["views", "--corpus", str(corpus), "--output", str(full)]) == 0
    records = [json.loads(line) for line in full.read_text().splitlines()]
    path = tmp_path / "views.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in [*filter(keep, records), *extra]))
    return path


def _answers_stub(stub, monkeypatch):
    monkeypatch.setenv("MCIDX_LLM_URL", stub.url)

    def responder(path, payload):
        if "evaluating answers" in payload["prompt"]:
            return (200, {"text": '{"answer_1_score": 5, "answer_2_score": 5}'})
        return (200, {"text": "an answer"})

    stub.responder = responder


class TestViewsCoverSections:
    """A views file must cover exactly each document's sections, else exit 2.

    A views file that lacks a whole document is a case of ``TestRefusalsBeforeProviderCalls``.
    """

    def test_missing_section_in_mc_recall(self, dataset, tmp_path, capsys):
        corpus, qa = dataset
        views = _views_file(tmp_path, corpus,
                            keep=lambda r: (r["doc_id"], r["section_id"]) != ("doc000", "s0003"))
        code = run(["eval", "recall", "--corpus", str(corpus), "--qa", str(qa),
                    "--scheme", "content", "--retriever", "bm25", "--mode", "mc",
                    "--k", "1.5,3,5,10", "--views", str(views)])
        assert code == 2
        assert "do not cover exactly its sections" in capsys.readouterr().err

    def test_unknown_section_in_mc_recall(self, dataset, tmp_path, capsys):
        corpus, qa = dataset
        question = json.loads(qa.read_text().splitlines()[0])["question"]
        extra = [{"doc_id": "doc000", "section_id": "s9999", "view_kind": kind,
                  "text": question, "provenance": "extractive"}
                 for kind in ("raw", "keywords", "summary")]
        views = _views_file(tmp_path, corpus, extra=extra)
        code = run(["eval", "recall", "--corpus", str(corpus), "--qa", str(qa),
                    "--scheme", "content", "--retriever", "bm25", "--mode", "mc",
                    "--k", "10", "--views", str(views)])
        assert code == 2
        assert "do not cover exactly its sections" in capsys.readouterr().err


class TestViewsFileReadOnlyForViewKinds:
    """``--views`` is read only by a setup that indexes keyword or summary texts."""

    @pytest.fixture
    def invalid(self, tmp_path):
        path = tmp_path / "views.jsonl"
        path.write_text("{not json\n")
        return path

    @pytest.mark.parametrize("scheme", ["content", "flc:40"])
    def test_eval_recall_raw_mode_ignores_it(self, scheme, dataset, invalid, capsys):
        corpus, qa = dataset
        argv = ["eval", "recall", "--corpus", str(corpus), "--qa", str(qa), "--scheme", scheme,
                "--retriever", "bm25", "--mode", "single:raw", "--k", "1.5,3"]
        assert run(argv) == 0
        want = capsys.readouterr().out
        assert run([*argv, "--views", str(invalid)]) == 0
        assert capsys.readouterr().out == want

    def test_eval_answers_raw_modes_ignore_it(self, dataset, tmp_path, invalid, stub, monkeypatch, capsys):
        corpus, qa = dataset
        _answers_stub(stub, monkeypatch)
        argv = ["eval", "answers", "--corpus", str(corpus), "--qa", str(qa), "--retriever", "bm25", "--k", "3",
                "--scheme-a", "content", "--mode-a", "single:raw", "--scheme-b", "flc:40", "--mode-b", "single:raw"]
        runs = []
        for extra in ([], ["--views", str(invalid)]):
            transcripts = tmp_path / f"judge{len(extra)}.jsonl"
            assert run([*argv, *extra, "--output", str(transcripts)]) == 0
            runs.append((capsys.readouterr().out, transcripts.read_bytes()))
        assert runs[0] == runs[1]

    def test_index_raw_view_ignores_it(self, dataset, tmp_path, invalid):
        corpus, _ = dataset
        argv = ["index", "--corpus", str(corpus), "--scheme", "content", "--retriever", "bm25", "--view", "raw"]
        assert run([*argv, "--output", str(tmp_path / "a")]) == 0
        assert run([*argv, "--views", str(invalid), "--output", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "manifest.json").read_bytes() == (tmp_path / "b" / "manifest.json").read_bytes()

    @pytest.mark.parametrize("command", [
        ["eval", "recall", "--qa", "QA", "--scheme", "content", "--mode", "mc", "--k", "3"],
        ["eval", "answers", "--qa", "QA", "--k", "3", "--scheme-a", "content", "--mode-a", "single:raw",
         "--scheme-b", "content", "--mode-b", "mc", "--output", "OUT"],
        ["index", "--scheme", "content", "--view", "summary", "--output", "OUT"],
    ], ids=["eval-recall-mc", "eval-answers-mc", "index-summary"])
    def test_view_modes_read_it(self, command, dataset, tmp_path, invalid, stub, monkeypatch, capsys):
        corpus, qa = dataset
        _answers_stub(stub, monkeypatch)
        paths = {"QA": str(qa), "OUT": str(tmp_path / "out")}
        code = run([*(paths.get(arg, arg) for arg in command), "--corpus", str(corpus), "--retriever", "bm25",
                    "--views", str(invalid)])
        assert code == 2
        assert str(invalid) in capsys.readouterr().err
        assert stub.requests == []


# A command that takes --k, with every other argument it needs.
_BUDGET_COMMANDS = {
    "retrieve": ["retrieve", "--index", "missing-idx", "--question", "anything"],
    "eval-recall": ["eval", "recall", "--corpus", "missing.jsonl", "--qa", "missing.jsonl",
                    "--scheme", "content", "--retriever", "bm25", "--mode", "single:raw"],
    "eval-answers": ["eval", "answers", "--corpus", "missing.jsonl", "--qa", "missing.jsonl",
                     "--retriever", "bm25", "--scheme-a", "content", "--mode-a", "single:raw",
                     "--scheme-b", "flc:300", "--mode-b", "single:raw", "--output", "unused.jsonl"],
}


class TestUsageChecks:
    def test_eval_answers_view_mode_needs_content_scheme(self, dataset, tmp_path, stub,
                                                          monkeypatch, capsys):
        corpus, qa = dataset
        _answers_stub(stub, monkeypatch)
        code = run(["eval", "answers", "--corpus", str(corpus), "--qa", str(qa),
                    "--retriever", "bm25", "--k", "3",
                    "--scheme-a", "flc:300", "--mode-a", "mc",
                    "--scheme-b", "content", "--mode-b", "single:raw",
                    "--output", str(tmp_path / "judge.jsonl")])
        assert code == 1
        assert "content scheme" in capsys.readouterr().err

    def test_eval_answers_view_mode_needs_content_scheme_without_llm(self, dataset, tmp_path,
                                                                     monkeypatch, capsys):
        # No LLM endpoint: a setup rule checked after the client exists would exit 3 instead.
        monkeypatch.delenv("MCIDX_LLM_URL", raising=False)
        corpus, qa = dataset
        code = run(["eval", "answers", "--corpus", str(corpus), "--qa", str(qa),
                    "--retriever", "bm25", "--k", "3",
                    "--scheme-a", "flc:300", "--mode-a", "mc",
                    "--scheme-b", "content", "--mode-b", "single:raw",
                    "--output", str(tmp_path / "judge.jsonl")])
        assert code == 1
        assert "content scheme" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["eval", "recall", "--qa", "qa.jsonl", "--scheme", "content", "--retriever", "bm25",
         "--mode", "bogus", "--k", "3"],
        ["eval", "recall", "--qa", "qa.jsonl", "--scheme", "content", "--retriever", "bogus",
         "--mode", "mc", "--k", "3"],
        ["eval", "recall", "--qa", "qa.jsonl", "--scheme", "flc:100", "--retriever", "bm25",
         "--mode", "mc", "--k", "3"],
        ["index", "--scheme", "flc:100", "--retriever", "bm25", "--view", "keywords", "--output", "idx"],
        ["eval", "answers", "--qa", "qa.jsonl", "--retriever", "bm25", "--k", "3", "--scheme-a", "content",
         "--mode-a", "single:raw", "--scheme-b", "flc:100", "--mode-b", "mc", "--output", "judge.jsonl"],
        ["eval", "answers", "--qa", "qa.jsonl", "--retriever", "bogus", "--k", "3", "--scheme-a", "content",
         "--mode-a", "mc", "--scheme-b", "content", "--mode-b", "single:raw", "--output", "judge.jsonl"],
        ["eval", "recall", "--qa", "qa.jsonl", "--scheme", "content", "--retriever", "dense:remote",
         "--mode", "bogus", "--k", "3"],
        ["eval", "recall", "--qa", "qa.jsonl", "--scheme", "content", "--retriever", "dense:remote",
         "--mode", "mc", "--k", "1"],
    ], ids=["unknown-mode", "unknown-retriever", "mc-under-flc", "index-view-under-flc", "answers-mc-under-flc-on-b",
            "answers-unknown-retriever", "unknown-mode-before-provider", "bad-k-before-provider"])
    def test_setup_usage_error_before_corpus_is_read(self, argv, tmp_path, monkeypatch, capsys):
        # The corpus path is wrong too: read first, it would be exit 2 ("missing file"); and with no
        # embedding endpoint, a provider resolved before the usage checks would be exit 3.
        monkeypatch.delenv("MCIDX_EMBED_URL", raising=False)
        assert run([*argv, "--corpus", str(tmp_path / "missing.jsonl")]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,variable", [
        (["index", "--scheme", "content", "--retriever", "dense:remote", "--output", "idx"], "MCIDX_EMBED_URL"),
        (["eval", "recall", "--qa", "qa.jsonl", "--scheme", "content", "--retriever", "dense:remote",
          "--mode", "mc", "--k", "3"], "MCIDX_EMBED_URL"),
        (["eval", "answers", "--qa", "qa.jsonl", "--retriever", "bm25", "--k", "3", "--scheme-a", "content",
          "--mode-a", "mc", "--scheme-b", "flc:100", "--mode-b", "single:raw", "--output", "judge.jsonl"],
         "MCIDX_LLM_URL"),
        (["views", "--generator", "llm", "--output", "views.jsonl"], "MCIDX_LLM_URL"),
    ], ids=["index", "eval-recall", "eval-answers", "views"])
    def test_provider_error_before_corpus_is_read(self, argv, variable, tmp_path, monkeypatch, capsys):
        # The corpus path is wrong too: read before the provider resolves, it would be exit 2.
        monkeypatch.delenv(variable, raising=False)
        assert run([*argv, "--corpus", str(tmp_path / "missing.jsonl")]) == 3
        assert f"provider error: {variable} is not set" in capsys.readouterr().err

    def test_eval_recall_fractional_k_other_than_1_5(self, dataset, capsys):
        corpus, qa = dataset
        code = run(["eval", "recall", "--corpus", str(corpus), "--qa", str(qa),
                    "--scheme", "content", "--retriever", "bm25", "--mode", "mc", "--k", "2.5"])
        assert code == 1
        assert "2.5" in capsys.readouterr().err

    @pytest.mark.parametrize("k,mode", [
        ("2.5", "single:raw"), ("nan", "single:raw"), ("0", "single:raw"), ("-3", "single:raw"),
        ("3,5", "single:raw"), ("1", "mc"),
    ], ids=["2.5", "nan", "0", "-3", "3,5", "1-mc"])
    def test_retrieve_bad_k_is_usage_error(self, k, mode, dataset, tmp_path, capsys):
        corpus, _ = dataset
        idx = tmp_path / "idx"
        assert run(["index", "--corpus", str(corpus), "--scheme", "content",
                    "--retriever", "bm25", "--output", str(idx)]) == 0
        # mc fuses three views; the one section index stands in for each of them.
        dirs = [str(idx)] * (3 if mode == "mc" else 1)
        assert run(["retrieve", "--mode", mode, "--index", *dirs, "--question", "anything", "--k", k]) == 1
        assert "--k" in capsys.readouterr().err

    @pytest.mark.parametrize("k,mode", [("0", "single:raw"), ("-3", "single:raw"), ("nan", "single:raw"),
                                        ("1", "mc")], ids=["0", "-3", "nan", "1-mc"])
    def test_eval_recall_bad_k_is_usage_error(self, k, mode, dataset, capsys):
        corpus, qa = dataset
        code = run(["eval", "recall", "--corpus", str(corpus), "--qa", str(qa),
                    "--scheme", "content", "--retriever", "bm25", "--mode", mode, "--k", k])
        assert code == 1
        assert "--k" in capsys.readouterr().err

    @pytest.mark.parametrize("command,k,bad", [
        *((command, k, bad) for command in _BUDGET_COMMANDS
          for k, bad in [("2.5", "2.5"), ("nan", "nan"), ("inf", "inf"), ("0", "0"), ("-3", "-3")]),
        # Only eval recall takes a list of budgets.
        ("eval-recall", "3,0.5", "0.5"), ("eval-recall", "3,0", "0"),
    ])
    def test_bad_k_states_the_budget_rule(self, command, k, bad, monkeypatch, capsys):
        # Checked before any file is read or client built: the inputs are
        # missing (exit 2) and no LLM endpoint is set (exit 3).
        monkeypatch.delenv("MCIDX_LLM_URL", raising=False)
        assert run([*_BUDGET_COMMANDS[command], "--k", k]) == 1
        assert f"usage error: --k {bad}: budget must be 1.5 or an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command,k,message", [
        ("retrieve", "3,5", "argument --k: '3,5' lists 2 budgets; this command takes one"),
        ("eval-answers", "3,5", "argument --k: '3,5' lists 2 budgets; this command takes one"),
        ("retrieve", "", "argument --k: '' is not a comma-separated list of numbers"),
        ("eval-answers", "three", "argument --k: 'three' is not a comma-separated list of numbers"),
        ("eval-recall", "", "argument --k: '' is not a comma-separated list of numbers"),
        ("eval-recall", "3,,5", "argument --k: '3,,5' is not a comma-separated list of numbers"),
    ], ids=["retrieve-list", "eval-answers-list", "retrieve-empty", "eval-answers-word",
            "eval-recall-empty", "eval-recall-gap"])
    def test_k_that_is_not_a_budget_names_the_value(self, command, k, message, monkeypatch, capsys):
        monkeypatch.delenv("MCIDX_LLM_URL", raising=False)
        assert run([*_BUDGET_COMMANDS[command], "--k", k]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("mode,n_dirs", [("mc", 2), ("mc", 4), ("single:raw", 2)])
    def test_retrieve_wrong_index_count_loads_nothing(self, mode, n_dirs, tmp_path, monkeypatch, capsys):
        loaded = []
        monkeypatch.setattr(cli, "load_index", loaded.append)
        code = run(["retrieve", "--mode", mode, "--question", "anything",
                    "--index", *(str(tmp_path / f"idx{i}") for i in range(n_dirs))])
        assert (code, loaded) == (1, [])
        assert "--index" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["2.5", "0", "1"])
    def test_eval_answers_bad_k_is_usage_error_before_setup(self, k, dataset, tmp_path, monkeypatch, capsys):
        # No LLM endpoint: a budget noticed after setup would exit 3 instead.
        monkeypatch.delenv("MCIDX_LLM_URL", raising=False)
        corpus, qa = dataset
        code = run(["eval", "answers", "--corpus", str(corpus), "--qa", str(qa),
                    "--retriever", "bm25", "--k", k,
                    "--scheme-a", "content", "--mode-a", "mc",
                    "--scheme-b", "content", "--mode-b", "single:raw",
                    "--output", str(tmp_path / "judge.jsonl")])
        assert code == 1
        assert "--k" in capsys.readouterr().err

    def test_eval_recall_repeated_k(self, dataset, capsys):
        corpus, qa = dataset
        code = run(["eval", "recall", "--corpus", str(corpus), "--qa", str(qa),
                    "--scheme", "content", "--retriever", "bm25", "--mode", "single:raw", "--k", "3,3"])
        assert code == 1
        assert "repeated budget" in capsys.readouterr().err

    @pytest.mark.parametrize("command,rest", [
        (["views"], ["--generator", "extractive", "--output", "unused.jsonl"]),
        (["eval", "recall"], ["--qa", "q.jsonl", "--scheme", "content", "--retriever", "bm25",
                              "--mode", "mc", "--k", "3"]),
        (["eval", "answers"], ["--qa", "q.jsonl", "--retriever", "bm25",
                               "--scheme-a", "content", "--mode-a", "mc",
                               "--scheme-b", "content", "--mode-b", "single:raw",
                               "--output", "unused.jsonl"]),
    ])
    def test_jobs_below_one_is_usage_error(self, command, rest, dataset, monkeypatch, capsys):
        # Rejected at parsing, before any input is read or any LLM client exists.
        monkeypatch.delenv("MCIDX_LLM_URL", raising=False)
        corpus, _ = dataset
        assert run([*command, "--corpus", str(corpus), *rest, "--jobs", "0"]) == 1
        assert "--jobs" in capsys.readouterr().err

    def test_jobs_default_does_not_follow_the_cpu_count(self, monkeypatch):
        # LLM calls wait on I/O, so the pool size is the same on every host.
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        parser = build_parser()
        views = parser.parse_args(["views", "--corpus", "c.jsonl", "--output", "v.jsonl"])
        answers = parser.parse_args(["eval", "answers", "--corpus", "c.jsonl", "--qa", "q.jsonl",
                                     "--retriever", "bm25", "--k", "3", "--scheme-a", "content",
                                     "--mode-a", "mc", "--scheme-b", "content", "--mode-b", "single:raw",
                                     "--output", "t.jsonl"])
        assert views.jobs == answers.jobs == DEFAULT_JOBS == 4

    @pytest.mark.parametrize("manifest", ["{not json", "[]"], ids=["not-json", "not-object"])
    def test_unparseable_manifest_is_data_error(self, manifest, tmp_path, capsys):
        index = tmp_path / "idx"
        index.mkdir()
        (index / "manifest.json").write_text(manifest)
        code = run(["retrieve", "--index", str(index), "--question", "anything"])
        assert code == 2
        assert "manifest" in capsys.readouterr().err

    def test_manifest_without_n_units_is_data_error(self, tmp_path, capsys):
        index = tmp_path / "idx"
        index.mkdir()
        checksums = {}
        for name in ("units.jsonl", "terms.bin"):
            (index / name).write_bytes(b"")
            checksums[name] = hashlib.sha256(b"").hexdigest()
        (index / "manifest.json").write_text(
            json.dumps({"format_version": 1, "kind": "bm25", "checksums": checksums}))
        code = run(["retrieve", "--index", str(index), "--question", "anything"])
        assert code == 2
        assert "n_units" in capsys.readouterr().err


class TestMalformedEmbeddings:
    # The provider hands each reply's vectors to retrieval.embed unchecked; a
    # reply of n texts' vectors is ``reply(n)``.
    @pytest.mark.parametrize("reply", [
        lambda n: {"vectors": [[1.0, "a"]] * n},
        lambda n: {"vectors": [1.0] * n},
        lambda n: {"vectors": [[1.0, None]] * n},
        lambda n: {"model": "stub"},
        lambda n: {"vectors": {"a": [1.0]}},
        lambda n: {"vectors": [[1.0, 0.0]] * (n - 1)},
        lambda n: {"vectors": [[1.0, 0.0]] * (n - 1) + [[1.0]]},
        lambda n: {"vectors": [[True, False]] * n},
        lambda n: {"vectors": [["1.5", "2"]] * n},
        lambda n: {"vectors": [[1, "\u0663"]] * n},
        lambda n: {"vectors": [[1.0, 0.0]] * (n - 1) + [[1.0, True]]},
        lambda n: {"vectors": [[]] * n},
    ], ids=["string-value", "flat-number", "null-value", "missing", "object", "wrong-count", "ragged",
            "boolean-value", "numeric-string", "non-ascii-digit", "boolean-in-last-row", "zero-width"])
    def test_index_with_malformed_vectors_is_provider_error(self, reply, dataset, tmp_path, stub,
                                                           monkeypatch, capsys):
        monkeypatch.setenv("MCIDX_EMBED_URL", stub.url)
        stub.responder = lambda path, payload: (200, reply(len(payload["texts"])))
        corpus, _ = dataset
        output = tmp_path / "idx"
        code = run(["index", "--corpus", str(corpus), "--scheme", "content",
                    "--retriever", "dense:stub", "--output", str(output)])
        assert code == 3
        assert "provider error: provider 'stub' returned" in capsys.readouterr().err
        assert not output.exists()

    def test_remote_embedder_without_url_exits_3(self, dataset, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("MCIDX_EMBED_URL", raising=False)
        corpus, _ = dataset
        code = run(["index", "--corpus", str(corpus), "--scheme", "content",
                    "--retriever", "dense:remote", "--output", str(tmp_path / "idx")])
        assert code == 3
        assert "MCIDX_EMBED_URL is not set" in capsys.readouterr().err

    def test_retrieve_at_a_new_width_is_provider_error(self, dataset, tmp_path, stub, monkeypatch, capsys):
        monkeypatch.setenv("MCIDX_EMBED_URL", stub.url)
        width = {"now": 4}
        stub.responder = lambda path, payload: (200, {"vectors": [[1.0] * width["now"]] * len(payload["texts"])})
        corpus, _ = dataset
        index = tmp_path / "idx"
        assert run(["index", "--corpus", str(corpus), "--scheme", "content",
                    "--retriever", "dense:stub", "--output", str(index)]) == 0
        width["now"] = 5
        assert run(["retrieve", "--index", str(index), "--question", "anything"]) == 3
        err = capsys.readouterr().err
        assert "provider error" in err and "width 5" in err


class TestNonObjectReply:
    @pytest.mark.parametrize("command", [
        ["eval", "answers", "--retriever", "bm25", "--k", "3",
         "--scheme-a", "content", "--mode-a", "mc", "--scheme-b", "flc:300", "--mode-b", "single:raw"],
        ["index", "--scheme", "content", "--retriever", "dense:stub"],
    ], ids=["llm", "embedding"])
    def test_200_with_json_array_is_provider_error(self, command, dataset, tmp_path, stub,
                                                   monkeypatch, capsys):
        monkeypatch.setenv("MCIDX_LLM_URL", stub.url)
        monkeypatch.setenv("MCIDX_EMBED_URL", stub.url)
        stub.default = (200, [1, 2])
        corpus, qa = dataset
        qa_args = ["--qa", str(qa)] if command[0] == "eval" else []
        code = run([*command, "--corpus", str(corpus), *qa_args, "--output", str(tmp_path / "out")])
        assert code == 3
        assert "not a JSON object" in capsys.readouterr().err


def _unsized_reply(conn, payload, sent, total):
    """A valid embed reply of about ``total`` bytes, sent without a Content-Length.

    The body ends only when the connection closes, so only the client's own
    cap stops it from reading all of it. ``sent`` gets the bytes sent before
    the client hung up, or ``total``.
    """
    piece = b"x" * 65536
    head = json.dumps({"vectors": [[1.0, 0.0]] * len(payload["texts"])})[:-1] + ', "pad": "'
    done = 0
    try:
        conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nConnection: close\r\n\r\n"
                     + head.encode())
        while done < total:
            conn.sendall(piece)
            done += len(piece)
        conn.sendall(b'"}')
    finally:
        sent.append(done)


class TestReplySizeCap:
    """A reply over ``providers.MAX_REPLY_BYTES`` is a provider error (exit 3), never retried."""

    @pytest.fixture(autouse=True)
    def _small_cap(self, monkeypatch):
        monkeypatch.setattr(providers, "MAX_REPLY_BYTES", 1024)
        monkeypatch.setattr(providers, "BACKOFF_S", 0.01)

    def _index(self, dataset, tmp_path, monkeypatch, url):
        monkeypatch.setenv("MCIDX_EMBED_URL", url)
        corpus, _ = dataset
        return run(["index", "--corpus", str(corpus), "--scheme", "content",
                    "--retriever", "dense:stub", "--output", str(tmp_path / "idx")])

    def test_declared_length_over_the_cap(self, dataset, tmp_path, stub, monkeypatch, capsys):
        stub.responder = lambda path, payload: (
            200, {"vectors": [[1.0, 0.0]] * len(payload["texts"]), "pad": "x" * 2048})
        assert self._index(dataset, tmp_path, monkeypatch, stub.url) == 3
        assert len(stub.requests) == 1
        assert "declares 2" in capsys.readouterr().err  # rejected before the body is read

    def test_unsized_body_over_the_cap(self, dataset, tmp_path, monkeypatch, raw_stub, capsys):
        sent, total = [], 64 << 20
        server = raw_stub(lambda conn, payload: _unsized_reply(conn, payload, sent, total))
        assert self._index(dataset, tmp_path, monkeypatch, server.url) == 3
        server.stop()
        assert len(server.requests) == 1 and sent[0] < total  # the client stopped reading at its cap
        assert "is larger than 1024 bytes" in capsys.readouterr().err


def test_llm_url_that_is_not_http_fails_before_any_request(dataset, tmp_path, monkeypatch, capsys):
    def no_sleep(seconds):
        raise AssertionError("a bad endpoint URL must fail before any request is retried")

    monkeypatch.setattr(providers.time, "sleep", no_sleep)
    monkeypatch.setenv("MCIDX_LLM_URL", "localhost:9/x")
    corpus, _ = dataset
    code = run(["views", "--corpus", str(corpus), "--generator", "llm", "--jobs", "1",
                "--output", str(tmp_path / "views.jsonl")])
    assert code == 3
    assert "MCIDX_LLM_URL must be an http:// or https:// URL" in capsys.readouterr().err


class TestMistypedViewFields:
    @pytest.mark.parametrize("kind,field,value,command", [
        ("keywords", "text", 5, ["index", "--retriever", "bm25", "--view", "keywords"]),
        ("summary", "text", None, ["eval", "recall", "--retriever", "bm25", "--mode", "mc", "--k", "3"]),
        ("keywords", "doc_id", ["x"], ["index", "--retriever", "bm25", "--view", "keywords"]),
    ], ids=["int-text-index", "null-text-recall", "list-doc_id"])
    def test_mistyped_field_is_data_error(self, kind, field, value, command, dataset, tmp_path, capsys):
        corpus, qa = dataset
        views = _views_file(tmp_path, corpus)
        records = [json.loads(line) for line in views.read_text().splitlines()]
        next(r for r in records if r["view_kind"] == kind)[field] = value
        views.write_text("".join(json.dumps(r) + "\n" for r in records))
        rest = ["--qa", str(qa)] if command[0] == "eval" else ["--output", str(tmp_path / "idx")]
        code = run([*command, "--corpus", str(corpus), "--scheme", "content", "--views", str(views), *rest])
        assert code == 2
        assert f"key {field!r} must be str" in capsys.readouterr().err


class TestNotUtf8:
    """A file that is not UTF-8 text is a data error (exit 2) that names the file, wherever it is read."""

    BAD = b"\xff\xfe not utf-8\n"

    def test_markdown(self, tmp_path, capsys):
        source = tmp_path / "guide.md"
        source.write_bytes(b"# Guide\n" + self.BAD)
        assert run(["ingest", str(source), "--output", str(tmp_path / "corpus.jsonl")]) == 2
        assert f"{source} is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["stats", "chunk"])
    def test_corpus(self, command, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(self.BAD)
        rest = ["--scheme", "content", "--output", str(tmp_path / "chunks.jsonl")] if command == "chunk" else []
        assert run([command, "--corpus", str(corpus), *rest]) == 2
        assert f"{corpus} is not UTF-8" in capsys.readouterr().err

    def test_views(self, dataset, tmp_path, capsys):
        corpus, _ = dataset
        views = tmp_path / "views.jsonl"
        views.write_bytes(self.BAD)
        code = run(["index", "--corpus", str(corpus), "--scheme", "content", "--retriever", "bm25",
                    "--view", "keywords", "--views", str(views), "--output", str(tmp_path / "idx")])
        assert code == 2
        assert f"{views} is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["corpus", "qa", "views"])
    def test_eval_recall_names_the_bad_file(self, bad, dataset, tmp_path, capsys):
        corpus, qa = dataset
        views = tmp_path / "views.jsonl"
        assert run(["views", "--corpus", str(corpus), "--output", str(views)]) == 0
        paths = {"corpus": corpus, "qa": qa, "views": views}
        paths[bad].write_bytes(self.BAD)
        code = run(["eval", "recall", "--corpus", str(corpus), "--qa", str(qa), "--scheme", "content",
                    "--retriever", "bm25", "--mode", "mc", "--k", "3", "--views", str(views)])
        assert code == 2
        assert f"{paths[bad]} is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["manifest.json", "units.jsonl"])
    def test_index_file(self, name, dataset, tmp_path, capsys):
        corpus, _ = dataset
        index = tmp_path / "idx"
        assert run(["index", "--corpus", str(corpus), "--scheme", "content", "--retriever", "bm25",
                    "--output", str(index)]) == 0
        (index / name).write_bytes(self.BAD)
        if name != "manifest.json":
            manifest = json.loads((index / "manifest.json").read_text())
            manifest["checksums"][name] = hashlib.sha256(self.BAD).hexdigest()
            (index / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run(["retrieve", "--index", str(index), "--question", "anything"]) == 2
        err = capsys.readouterr().err
        assert str(index / name) in err
        assert "UTF-8" in err or "utf-8" in err


class TestBadRecordNamesTheFile:
    """A JSONL record that does not decode, or lacks a field, is a data error naming its file and line."""

    @pytest.mark.parametrize("line", ["{not json}", '{"a": 1} x', "[1, 2]", "{}",
                                      '{"a": ' + "[" * 100_000 + "]" * 100_000 + "}",
                                      '{"a": ' + "9" * 5000 + "}"],
                             ids=["invalid-json", "extra-data", "not-an-object", "missing-key",
                                  "deep-nesting", "5000-digit-int"])
    @pytest.mark.parametrize("bad", ["corpus", "qa", "views"])
    def test_eval_recall(self, bad, line, dataset, tmp_path, capsys):
        corpus, qa = dataset
        views = tmp_path / "views.jsonl"
        assert run(["views", "--corpus", str(corpus), "--output", str(views)]) == 0
        path = {"corpus": corpus, "qa": qa, "views": views}[bad]
        lineno = len(path.read_text().splitlines()) + 1
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        capsys.readouterr()
        code = run(["eval", "recall", "--corpus", str(corpus), "--qa", str(qa), "--scheme", "content",
                    "--retriever", "bm25", "--mode", "mc", "--k", "3", "--views", str(views)])
        assert code == 2
        assert f"data error: {path}: line {lineno}: " in capsys.readouterr().err


    def test_index_units_file(self, dataset, tmp_path, capsys):
        corpus, _ = dataset
        index = tmp_path / "idx"
        assert run(["index", "--corpus", str(corpus), "--scheme", "content", "--retriever", "bm25",
                    "--output", str(index)]) == 0
        units = index / "units.jsonl"
        lines = units.read_text().splitlines()
        lines[1] = "{not json}"
        units.write_text("".join(line + "\n" for line in lines))
        manifest = json.loads((index / "manifest.json").read_text())
        manifest["checksums"]["units.jsonl"] = hashlib.sha256(units.read_bytes()).hexdigest()
        (index / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run(["retrieve", "--index", str(index), "--question", "anything"]) == 2
        assert f"data error: {units}: line 2: invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["raw", "keywords", "summary"])
    def test_view_index_record_names_its_index(self, bad, dataset, tmp_path, capsys):
        corpus, _ = dataset
        views = tmp_path / "views.jsonl"
        assert run(["views", "--corpus", str(corpus), "--output", str(views)]) == 0
        dirs = {view: tmp_path / f"idx_{view}" for view in ("raw", "keywords", "summary")}
        for view, index in dirs.items():
            assert run(["index", "--corpus", str(corpus), "--scheme", "content", "--retriever", "bm25",
                        "--view", view, "--views", str(views), "--output", str(index)]) == 0
        units = dirs[bad] / "units.jsonl"
        lines = units.read_text().splitlines()
        lines[1] = '{"n_tokens": 3}'
        units.write_text("".join(line + "\n" for line in lines))
        manifest = json.loads((dirs[bad] / "manifest.json").read_text())
        manifest["checksums"]["units.jsonl"] = hashlib.sha256(units.read_bytes()).hexdigest()
        (dirs[bad] / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run(["retrieve", "--mode", "mc", "--index", *(str(d) for d in dirs.values()),
                    "--question", "anything", "--k", "3"]) == 2
        assert f"data error: {units}: line 2: no string 'unit_id'" in capsys.readouterr().err


class TestFileSystemErrors:
    """A path that cannot be read or written is a data error (exit 2) naming it, not a traceback."""

    def test_corpus_that_is_a_directory(self, tmp_path, capsys):
        assert run(["stats", "--corpus", str(tmp_path)]) == 2
        assert f"data error: {tmp_path}: {os.strerror(errno.EISDIR)}" in capsys.readouterr().err

    def test_ingest_input_that_is_a_directory(self, tmp_path, capsys):
        source = tmp_path / "docs"
        source.mkdir()
        assert run(["ingest", str(source), "--output", str(tmp_path / "c.jsonl")]) == 2
        assert f"data error: {source}: {os.strerror(errno.EISDIR)}" in capsys.readouterr().err

    def test_index_output_that_is_a_file(self, dataset, tmp_path, capsys):
        corpus, _ = dataset
        output = tmp_path / "idx"
        output.write_text("not a directory")
        assert run(["index", "--corpus", str(corpus), "--scheme", "content", "--retriever", "bm25",
                    "--output", str(output)]) == 2
        assert f"data error: {output}: {os.strerror(errno.EEXIST)}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["chunk", "--scheme", "content", "--output", ""],
        ["views", "--output", ""],
        ["eval", "recall", "--scheme", "content", "--retriever", "bm25", "--mode", "mc", "--k", "3",
         "--output", ""],
        ["eval", "recall", "--scheme", "content", "--retriever", "bm25", "--mode", "mc", "--k", "3",
         "--markdown", ""],
        ["eval", "chunking-error", "--scheme", "content", "--output", ""],
        ["eval", "answers", "--retriever", "bm25", "--scheme-a", "content", "--mode-a", "mc",
         "--scheme-b", "content", "--mode-b", "single:raw", "--output", ""],
    ], ids=["chunk", "views", "eval-recall", "eval-recall-markdown", "eval-chunking-error", "eval-answers"])
    def test_empty_output_path_is_usage_error(self, argv, dataset, tmp_path, stub, monkeypatch, capsys):
        # An empty path names no file: not stdout, and not the working directory.
        corpus, qa = dataset
        _answers_stub(stub, monkeypatch)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        inputs = ["--corpus", str(corpus)] + (["--qa", str(qa)] if argv[0] == "eval" else [])
        assert run([*argv, *inputs]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "usage error: empty output path" in err
        assert not any(work.iterdir())

    def test_ingest_file_name_that_is_not_utf8(self, tmp_path, capsys):
        # The document id is the file stem, and corpus JSONL is UTF-8.
        source = os.path.join(os.fsencode(tmp_path), b"\xffdoc.md")
        try:
            with open(source, "wb") as fh:
                fh.write(b"# Guide\nSome text.\n")
        except OSError:
            pytest.skip("file system refuses a non-UTF-8 file name")
        output = tmp_path / "c.jsonl"
        assert run(["ingest", os.fsdecode(source), "--output", str(output)]) == 2
        assert (f"data error: {tmp_path}/\\xffdoc.md: file name is not valid UTF-8"
                in capsys.readouterr().err)
        assert not output.exists()

    def test_ingest_two_files_with_one_stem_names_the_second(self, tmp_path, capsys):
        # The stem is the document id; a corpus with it twice is unreadable.
        first, second = tmp_path / "a" / "doc.md", tmp_path / "b" / "doc.md"
        for source in (first, second):
            source.parent.mkdir()
            source.write_text(MARKDOWN)
        output = tmp_path / "c.jsonl"
        assert run(["ingest", str(first), str(second), "--output", str(output)]) == 2
        assert f"data error: {second}: document id 'doc' repeated" in capsys.readouterr().err
        assert not output.exists()

    def test_ingest_markdown_with_no_content_names_the_file(self, tmp_path, capsys):
        source = tmp_path / "refs.md"
        source.write_text("## References\nOnly references here.\n")
        assert run(["ingest", str(source), "--output", str(tmp_path / "c.jsonl")]) == 2
        assert f"data error: {source}: no content survived" in capsys.readouterr().err


class TestOutputBeforeWork:
    """A command refuses an output it cannot write before it reads or sends anything, and replaces one only on
    success."""

    @pytest.mark.parametrize("argv", [
        ["views", "--generator", "llm", "--jobs", "2"],
        ["eval", "answers", "--retriever", "bm25", "--scheme-a", "content", "--mode-a", "mc",
         "--scheme-b", "content", "--mode-b", "single:raw"],
    ], ids=["views", "eval-answers"])
    def test_llm_output_opened_before_the_first_request(self, argv, dataset, tmp_path, stub, monkeypatch, capsys):
        corpus, qa = dataset
        monkeypatch.setenv("MCIDX_LLM_URL", stub.url)

        def answer(path, payload):
            # A keyword list serves as keywords, summary and answer alike.
            if "evaluating answers" in payload["prompt"]:
                return (200, {"text": '{"answer_1_score": 5, "answer_2_score": 4}'})
            return (200, {"text": '["alpha", "beta"]'})

        stub.responder = answer
        inputs = ["--corpus", str(corpus)] + (["--qa", str(qa)] if argv[0] == "eval" else [])
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        before = sorted(os.listdir(tmp_path))
        assert run([*argv, *inputs, "--output", str(blocker / "out.jsonl")]) == 2
        assert f"data error: {blocker}: {os.strerror(errno.EEXIST)}" in capsys.readouterr().err
        assert stub.requests == []
        assert sorted(os.listdir(tmp_path)) == before
        assert blocker.read_text() == "not a directory"

        # A run that fails after some requests leaves the output of an earlier run as it was.
        output = tmp_path / "out.jsonl"
        assert run([*argv, *inputs, "--output", str(output)]) == 0
        old, n_requests = output.read_bytes(), len(stub.requests)
        stub.requests.clear()
        stub.responder = lambda path, payload: (answer(path, payload) if len(stub.requests) <= n_requests // 2
                                                else (400, {"error": "refused"}))
        assert run([*argv, *inputs, "--output", str(output)]) == 3
        assert len(stub.requests) > n_requests // 2
        assert output.read_bytes() == old
        assert sorted(os.listdir(tmp_path)) == sorted([*before, output.name])

    @pytest.mark.parametrize("where", ["not-an-index", "working-directory"])
    def test_index_refuses_its_output_before_reading_the_corpus(self, where, dataset, tmp_path, monkeypatch,
                                                               capsys):
        corpus, _ = dataset
        output = tmp_path / "out"
        output.mkdir()
        if where == "not-an-index":
            (output / "notes.txt").write_text("keep me")
            expected = f"data error: {output}: not an index (no manifest.json) and not empty"
        else:
            monkeypatch.chdir(output)
            expected = f"data error: {output}: is the working directory"
        calls = Counter()

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            monkeypatch.setattr(cli, name, wrapper)

        for name in ("load_corpus_jsonl", "build_dense_index", "build_sparse_index"):
            counted(name, getattr(cli, name))
        assert run(["index", "--corpus", str(corpus), "--scheme", "content", "--retriever", "dense:mock",
                    "--output", str(output)]) == 2
        assert expected in capsys.readouterr().err
        assert calls == Counter()
        assert sorted(os.listdir(tmp_path)) == ["corpus.jsonl", "out", "qa.jsonl"]
        assert {p.name: p.read_text() for p in output.iterdir()} == (
            {"notes.txt": "keep me"} if where == "not-an-index" else {})

    def test_chunking_error_refuses_its_output_before_chunking(self, dataset, tmp_path, monkeypatch, capsys):
        corpus, qa = dataset
        calls = []
        monkeypatch.setattr(cli, "chunking_error", lambda *args: calls.append(args))
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert run(["eval", "chunking-error", "--corpus", str(corpus), "--qa", str(qa), "--scheme", "content",
                    "--output", str(blocker / "e.csv")]) == 2
        assert f"data error: {blocker}: {os.strerror(errno.EEXIST)}" in capsys.readouterr().err
        assert calls == []


def _provider_stub(stub, monkeypatch):
    """Serve both endpoints from ``stub``: rows two wide, a keyword list as every text, and judge scores."""
    monkeypatch.setenv("MCIDX_EMBED_URL", stub.url)
    monkeypatch.setenv("MCIDX_LLM_URL", stub.url)

    def responder(path, payload):
        if path == "/embed":
            return (200, {"vectors": [[1.0 + len(text) % 5, 1.0] for text in payload["texts"]]})
        if "evaluating answers" in payload["prompt"]:
            return (200, {"text": '{"answer_1_score": 5, "answer_2_score": 4}'})
        return (200, {"text": '["alpha", "beta"]'})

    stub.responder = responder


class TestRefusalsBeforeProviderCalls:
    """Every command that calls a provider refuses a bad output or input file (exit 2) before its first request.

    With that one argument good, the same command exits 0 after at least one request.
    """

    # Each command with every argument it needs; the dense retriever's endpoint is the stub. OUT and TABLE
    # are outputs, CORPUS, VIEWS and INDEX input files.
    COMMANDS = {
        "views": ["views", "--corpus", "CORPUS", "--generator", "llm", "--output", "OUT"],
        "index": ["index", "--corpus", "CORPUS", "--scheme", "content", "--retriever", "dense:stub",
                  "--view", "keywords", "--views", "VIEWS", "--output", "OUT"],
        "eval-recall": ["eval", "recall", "--corpus", "CORPUS", "--qa", "QA", "--scheme", "content",
                        "--retriever", "dense:stub", "--mode", "mc", "--k", "3", "--views", "VIEWS",
                        "--output", "OUT", "--markdown", "TABLE"],
        "retrieve": ["retrieve", "--index", "INDEX", "--question", "How is it configured?"],
        # Only setup b reads the views file, and setup a's first question is drawn first.
        "eval-answers": ["eval", "answers", "--corpus", "CORPUS", "--qa", "QA", "--retriever", "dense:stub",
                         "--k", "3", "--scheme-a", "flc:300", "--mode-a", "single:raw",
                         "--scheme-b", "content", "--mode-b", "mc", "--views", "VIEWS", "--output", "OUT"],
    }

    # (command, the argument made bad, what the error says)
    CASES = [
        ("views", "OUT", "{blocker}: {EEXIST}"),
        ("views", "CORPUS", "{broken_corpus}: line 3: invalid JSON"),
        ("index", "OUT", "{blocker}/result: {ENOTDIR}"),
        ("index", "VIEWS", "no views supplied for document 'doc001'"),
        ("eval-recall", "OUT", "{blocker}: {EEXIST}"),
        ("eval-recall", "TABLE", "{blocker}: {EEXIST}"),
        ("eval-recall", "VIEWS", "no views supplied for document 'doc001'"),
        ("retrieve", "INDEX", "{broken_index}: checksum mismatch for 'embeddings.f32le'"),
        ("eval-answers", "OUT", "{blocker}: {EEXIST}"),
        ("eval-answers", "VIEWS", "no views supplied for document 'doc001'"),
    ]

    @pytest.mark.parametrize("command,bad,says", CASES, ids=[f"{command}-{bad}" for command, bad, _ in CASES])
    def test_refused_before_the_first_request(self, command, bad, says, dataset, tmp_path, stub, monkeypatch,
                                               capsys):
        corpus, qa = dataset
        _provider_stub(stub, monkeypatch)
        paths = {"blocker": tmp_path / "blocker", "broken_corpus": tmp_path / "broken.jsonl",
                 "broken_index": tmp_path / "broken_idx"}
        paths["blocker"].write_text("not a directory")
        paths["broken_corpus"].write_text(corpus.read_text() + "{not json\n")
        views_missing_doc001 = _views_file(tmp_path, corpus, keep=lambda r: r["doc_id"] == "doc000")
        good = {"CORPUS": corpus, "QA": qa, "VIEWS": tmp_path / "views_full.jsonl", "INDEX": tmp_path / "idx",
                "OUT": tmp_path / "out" / "result", "TABLE": tmp_path / "out" / "table.md"}
        if command == "retrieve":
            assert run(["index", "--corpus", str(corpus), "--scheme", "content", "--retriever", "dense:stub",
                        "--output", str(good["INDEX"])]) == 0
            shutil.copytree(good["INDEX"], paths["broken_index"])
            embeddings = paths["broken_index"] / "embeddings.f32le"
            embeddings.write_bytes(embeddings.read_bytes()[:-4])
            stub.requests.clear()
        bad_value = {"OUT": paths["blocker"] / "result", "TABLE": paths["blocker"] / "table.md",
                     "CORPUS": paths["broken_corpus"], "VIEWS": views_missing_doc001,
                     "INDEX": paths["broken_index"]}[bad]
        argv = self.COMMANDS[command]
        capsys.readouterr()

        assert run([str({**good, bad: bad_value}.get(arg, arg)) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert says.format(**paths, EEXIST=os.strerror(errno.EEXIST), ENOTDIR=os.strerror(errno.ENOTDIR)) in err
        assert err.startswith("data error: ")
        assert stub.requests == []

        assert run([str(good.get(arg, arg)) for arg in argv]) == 0
        assert stub.requests


DEEP_LIST = "[" * 100_000 + "]" * 100_000
DEEP_OBJECT = '{"a": ' * 100_000 + "1" + "}" * 100_000


class TestMalformedJson:
    """JSON that does not decode is a data error in a file (exit 2) and a provider error in a reply (exit 3).

    A JSONL record that does not decode is covered by ``TestBadRecordNamesTheFile``.
    """

    def test_manifest(self, dataset, tmp_path, capsys):
        corpus, _ = dataset
        index = tmp_path / "idx"
        assert run(["index", "--corpus", str(corpus), "--scheme", "content", "--retriever", "bm25",
                    "--output", str(index)]) == 0
        (index / "manifest.json").write_text('{"kind": ' + DEEP_LIST + "}")
        capsys.readouterr()
        assert run(["retrieve", "--index", str(index), "--question", "anything"]) == 2
        assert f"data error: {index / 'manifest.json'}: not valid JSON" in capsys.readouterr().err

    def test_provider_reply(self, dataset, tmp_path, stub, monkeypatch, capsys):
        monkeypatch.setenv("MCIDX_LLM_URL", stub.url)
        stub.default = (200, '{"text": ' + DEEP_LIST + "}")
        corpus, _ = dataset
        assert run(["views", "--corpus", str(corpus), "--generator", "llm", "--jobs", "1",
                    "--output", str(tmp_path / "views.jsonl")]) == 3
        assert "non-JSON response" in capsys.readouterr().err

    def test_keyword_list(self, dataset, tmp_path, stub, monkeypatch, capsys):
        monkeypatch.setenv("MCIDX_LLM_URL", stub.url)
        stub.default = (200, {"text": DEEP_LIST})
        corpus, _ = dataset
        assert run(["views", "--corpus", str(corpus), "--generator", "llm", "--jobs", "1",
                    "--output", str(tmp_path / "views.jsonl")]) == 3
        assert "keyword output nests its list too deeply" in capsys.readouterr().err

    def test_judge_output(self, dataset, tmp_path, stub, monkeypatch, capsys):
        monkeypatch.setenv("MCIDX_LLM_URL", stub.url)
        stub.responder = lambda path, payload: (
            200, {"text": DEEP_OBJECT if "evaluating answers" in payload["prompt"] else "an answer"})
        corpus, qa = dataset
        assert run(["eval", "answers", "--corpus", str(corpus), "--qa", str(qa), "--retriever", "bm25",
                    "--k", "3", "--scheme-a", "content", "--mode-a", "single:raw",
                    "--scheme-b", "flc:300", "--mode-b", "single:raw",
                    "--output", str(tmp_path / "judge.jsonl")]) == 3
        assert "nests JSON too deeply" in capsys.readouterr().err

    def test_lone_surrogate_in_corpus_text(self, dataset, tmp_path, capsys):
        corpus, _ = dataset
        lines = corpus.read_text().splitlines()
        lines[1] = lines[1].replace('"text": "', '"text": "\\ud800', 1)
        corpus.write_text("".join(line + "\n" for line in lines))
        assert run(["views", "--corpus", str(corpus), "--output", str(tmp_path / "views.jsonl")]) == 2
        assert (f"data error: {corpus}: line 2: key 'text' is not valid Unicode"
                in capsys.readouterr().err)

    def test_lone_surrogate_in_llm_reply(self, dataset, tmp_path, stub, monkeypatch, capsys):
        # Valid JSON can spell a reply text that no output file could hold;
        # keyword lists and judge scores still parse, so only the write would fail.
        monkeypatch.setenv("MCIDX_LLM_URL", stub.url)

        def responder(path, payload):
            if "evaluating answers" in payload["prompt"]:
                return (200, {"text": '{"answer_1_score": 5, "answer_2_score": 5}'})
            if "keyword extractor" in payload["prompt"]:
                return (200, r'{"text": "[\"alpha\", \"beta\"] \ud800"}')
            return (200, r'{"text": "a reply \ud800"}')

        stub.responder = responder
        corpus, qa = dataset
        views, transcripts = tmp_path / "views.jsonl", tmp_path / "judge.jsonl"
        assert run(["views", "--corpus", str(corpus), "--generator", "llm", "--jobs", "1",
                    "--output", str(views)]) == 3
        assert run(["eval", "answers", "--corpus", str(corpus), "--qa", str(qa), "--retriever", "bm25",
                    "--k", "3", "--scheme-a", "content", "--mode-a", "single:raw",
                    "--scheme-b", "flc:300", "--mode-b", "single:raw",
                    "--output", str(transcripts)]) == 3
        err = capsys.readouterr().err
        assert err.count(f"response from {stub.url}/generate: key 'text' is not valid Unicode") == 2
        assert "provider error: section 's0000': response from" in err
        assert not views.exists() and not transcripts.exists()


def test_bad_view_index_checksum_names_its_directory(dataset, tmp_path, capsys):
    corpus, _ = dataset
    views = tmp_path / "views.jsonl"
    assert run(["views", "--corpus", str(corpus), "--output", str(views)]) == 0
    dirs = [tmp_path / f"idx_{view}" for view in ("raw", "keywords", "summary")]
    for view, index in zip(("raw", "keywords", "summary"), dirs):
        assert run(["index", "--corpus", str(corpus), "--scheme", "content", "--retriever", "bm25",
                    "--view", view, "--views", str(views), "--output", str(index)]) == 0
    terms = bytearray((dirs[1] / "terms.bin").read_bytes())
    terms[len(terms) // 2] ^= 0xFF
    (dirs[1] / "terms.bin").write_bytes(bytes(terms))
    capsys.readouterr()
    assert run(["retrieve", "--mode", "mc", "--index", *map(str, dirs), "--question", "anything"]) == 2
    assert f"data error: {dirs[1]}: checksum mismatch for 'terms.bin'" in capsys.readouterr().err
