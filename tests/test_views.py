from __future__ import annotations

import threading
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import RefusingLlm, ScriptedLlm, make_doc
from oracles import oracle_extractive_keywords
from mcidx import views
from mcidx.cli import run
from mcidx.corpus import write_corpus_jsonl
from mcidx.errors import ParseError, ProviderError
from mcidx.providers import LlmClient
from mcidx.text import iter_sentences, token_count
from mcidx.views import (
    KEYWORD_SEPARATOR,
    STOPWORDS,
    Provenance,
    ViewKind,
    build_views,
    extractive_summary,
    generate_keywords,
    generate_summary,
    read_views_jsonl,
    write_views_jsonl,
)


def words_sentence(n, stem="w"):
    ws = [f"{stem}{i}" for i in range(n)]
    ws[0] = ws[0].capitalize()
    return " ".join(ws) + "."


class FailingLlm(LlmClient):
    name = "failing"

    def generate(self, prompt, max_tokens=1024):
        raise ProviderError("retries exhausted for test endpoint")


class TestGenerateSummary:
    def test_short_section_returned_verbatim_without_llm(self):
        doc = make_doc([words_sentence(150)])
        section = doc.sections[0]
        assert generate_summary(section, RefusingLlm()) == section.text

    def test_long_section_uses_llm(self):
        doc = make_doc([words_sentence(500)])
        llm = ScriptedLlm(["SUMMARY"])
        assert generate_summary(doc.sections[0], llm) == "SUMMARY"
        assert doc.sections[0].heading in llm.prompts[0]
        assert doc.sections[0].text in llm.prompts[0]

    def test_provider_failure_propagates(self):
        doc = make_doc([words_sentence(500)])
        with pytest.raises(ProviderError, match="retries exhausted"):
            generate_summary(doc.sections[0], FailingLlm())

    def test_boundary_200_tokens_is_identity(self):
        doc = make_doc([words_sentence(200)])
        assert generate_summary(doc.sections[0], RefusingLlm()) == doc.sections[0].text


class TestGenerateKeywords:
    def _section(self):
        return make_doc(["Some section body."]).sections[0]

    def test_bare_list_parsed(self):
        llm = ScriptedLlm(["[Dell XPS 13, battery, display]"])
        assert generate_keywords(self._section(), llm) == ["Dell XPS 13", "battery", "display"]

    def test_case_insensitive_dedup_keeps_first(self):
        llm = ScriptedLlm(["[a, A, a ]"])
        assert generate_keywords(self._section(), llm) == ["a"]

    def test_json_array_parsed(self):
        llm = ScriptedLlm(['["alpha", "beta gamma"]'])
        assert generate_keywords(self._section(), llm) == ["alpha", "beta gamma"]

    def test_prose_without_brackets_raises(self):
        llm = ScriptedLlm(["here are some keywords: alpha, beta"])
        with pytest.raises(ParseError):
            generate_keywords(self._section(), llm)

    def test_empty_items_dropped(self):
        llm = ScriptedLlm(["[x, , y,]"])
        assert generate_keywords(self._section(), llm) == ["x", "y"]


class TestExtractiveSummary:
    def test_single_short_sentence(self):
        doc = make_doc([words_sentence(30)])
        assert extractive_summary(doc.sections[0]) == doc.sections[0].text

    def test_word_budget_cuts_after_first(self):
        text = words_sentence(150, "a") + " " + words_sentence(100, "b")
        doc = make_doc([text])
        summary = extractive_summary(doc.sections[0])
        assert summary == words_sentence(150, "a")
        assert token_count(summary) == 150

    def test_single_oversized_sentence_kept_whole(self):
        doc = make_doc([words_sentence(300)])
        assert extractive_summary(doc.sections[0]) == doc.sections[0].text

    def test_budget_boundary_inclusive(self):
        # 100 + 100 = exactly 200 words: both kept.
        text = words_sentence(100, "a") + " " + words_sentence(100, "b")
        doc = make_doc([text])
        assert token_count(extractive_summary(doc.sections[0])) == 200

    def test_splits_no_further_than_the_budget(self, monkeypatch):
        # Three 60-word sentences fit; the fourth is read and dropped, the rest never split.
        text = " ".join(words_sentence(60, f"s{i}") for i in range(50))
        doc = make_doc([text])
        read = []

        def counting(section_text):
            for sentence in iter_sentences(section_text):
                read.append(sentence)
                yield sentence

        monkeypatch.setattr(views, "iter_sentences", counting)
        assert token_count(extractive_summary(doc.sections[0])) == 180
        assert len(read) == 4


def _extractive_keywords(doc, i):
    """Section i's keywords, read back from its ``build_views`` keyword view."""
    (text,) = [v.text for v in build_views(doc)
               if v.view_kind is ViewKind.KEYWORDS and v.section_id == doc.sections[i].section_id]
    return text.split(KEYWORD_SEPARATOR) if text else []


class TestExtractiveKeywords:
    def test_distinctive_term_ranks_first(self):
        doc = make_doc([
            "Zirconium zirconium zirconium zirconium zirconium metal metal alloy.",
            "Copper pipes and metal fittings.",
            "Steel beams and metal plates.",
        ])
        assert _extractive_keywords(doc, 0)[0] == "zirconium"

    def test_stopword_only_section_is_empty(self):
        doc = make_doc(["The and of but the.", "Real content words here."])
        assert _extractive_keywords(doc, 0) == []

    def test_tie_broken_by_first_occurrence(self):
        doc = make_doc(["zeta alpha zeta alpha.", "unrelated words."])
        assert _extractive_keywords(doc, 0) == ["zeta", "alpha"]


# Repeated, cased, edge-punctuated and punctuation-only tokens plus stopwords,
# from a small vocabulary so that scores tie often.
_TOKENS = st.sampled_from(["alpha", "Alpha", "alpha.", "(alpha)", "beta", "beta,", '"beta"', "gamma",
                           "gamma's", "delta", "the", "The", "and", "of", "--", "...", "—", "“x”", "x"])
_SECTION = st.lists(st.tuples(_TOKENS, st.sampled_from([" ", "  ", "\n", "\t"])), max_size=12).map(
    lambda pairs: "".join(token + space for token, space in pairs))


class TestExtractiveKeywordsOracle:
    """Keywords equal the per-term oracle: tf * idf per section, ties by first position."""

    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(_SECTION, min_size=1, max_size=5))
    @example(texts=["beta alpha the alpha beta gamma", "gamma delta"])
    @example(texts=["alpha, alpha. -- beta"])
    @example(texts=[" ".join(f"t{i}" for i in range(30)), "t0 t1"])  # more than 20 candidates
    def test_matches_oracle(self, texts):
        doc = make_doc(texts)
        keyword_views = [v.text for v in build_views(doc) if v.view_kind is ViewKind.KEYWORDS]
        assert keyword_views == [KEYWORD_SEPARATOR.join(oracle_extractive_keywords(texts, i, STOPWORDS))
                                 for i in range(len(texts))]


class TestBuildViews:
    def _llm_handler(self, summary="GENERATED SUMMARY"):
        def handler(prompt):
            if "keyword extractor" in prompt:
                return "[topic one, topic two]"
            return summary
        return handler

    def test_extractive_three_views_per_section(self):
        doc = make_doc(["alpha beta gamma.", "delta epsilon zeta."])
        views = build_views(doc)
        assert len(views) == 6
        pairs = {(v.section_id, v.view_kind) for v in views}
        assert len(pairs) == 6

    def test_raw_view_is_identity(self):
        doc = make_doc(["alpha beta.", "gamma delta."])
        for view in build_views(doc):
            if view.view_kind is ViewKind.RAW_TEXT:
                section = doc.sections_by_id[view.section_id]
                assert view.text == section.text
                assert view.provenance is Provenance.IDENTITY

    def test_extractive_is_deterministic(self):
        doc = make_doc(["alpha beta gamma alpha.", "delta epsilon."])
        assert build_views(doc) == build_views(doc)

    def test_llm_provenance_rules(self):
        doc = make_doc([words_sentence(30, "short"), words_sentence(300, "long")])
        views = build_views(doc, generator="llm", llm=ScriptedLlm(handler=self._llm_handler()))
        by_key = {(v.section_id, v.view_kind): v for v in views}
        assert by_key[("s0000", ViewKind.SUMMARY)].provenance is Provenance.IDENTITY
        assert by_key[("s0001", ViewKind.SUMMARY)].provenance is Provenance.LLM_GENERATED
        assert by_key[("s0001", ViewKind.SUMMARY)].text == "GENERATED SUMMARY"
        assert by_key[("s0000", ViewKind.KEYWORDS)].provenance is Provenance.LLM_GENERATED
        assert by_key[("s0000", ViewKind.KEYWORDS)].text == "topic one; topic two"

    @pytest.mark.parametrize("n_tokens,summarized", [(200, False), (201, True)])
    def test_llm_summarizes_only_past_the_threshold(self, n_tokens, summarized):
        # SUMMARY_TOKEN_THRESHOLD is 200: a section of exactly 200 tokens is its own summary.
        doc = make_doc([words_sentence(n_tokens)])
        assert doc.sections[0].token_count == n_tokens
        llm = ScriptedLlm(handler=self._llm_handler())
        summary = next(v for v in build_views(doc, generator="llm", llm=llm) if v.view_kind is ViewKind.SUMMARY)
        assert summary.text == ("GENERATED SUMMARY" if summarized else doc.sections[0].text)
        assert summary.provenance is (Provenance.LLM_GENERATED if summarized else Provenance.IDENTITY)
        assert len(llm.prompts) == (2 if summarized else 1)

    def test_llm_summary_truncated_for_indexing(self):
        long_summary = " ".join(f"s{i}" for i in range(600))
        doc = make_doc([words_sentence(300)])
        views = build_views(doc, generator="llm", llm=ScriptedLlm(handler=self._llm_handler(long_summary)))
        summary = next(v for v in views if v.view_kind is ViewKind.SUMMARY)
        assert token_count(summary.text) == 512

    def test_llm_errors_carry_section_context(self):
        doc = make_doc([words_sentence(300)])
        with pytest.raises(ProviderError, match="s0000"):
            build_views(doc, generator="llm", llm=FailingLlm())

    def test_extractive_summary_word_bound(self):
        doc = make_doc([" ".join(words_sentence(40, f"s{i}") for i in range(10))])
        for view in build_views(doc):
            if view.view_kind is ViewKind.SUMMARY:
                assert token_count(view.text) <= 200

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError):
            build_views(make_doc(["x."]), generator="neural")

    def test_llm_generator_requires_client(self):
        with pytest.raises(ValueError):
            build_views(make_doc(["x."]), generator="llm")

    def test_parallel_llm_calls_keep_section_order(self):
        doc = make_doc([words_sentence(300, f"sec{i}x") for i in range(6)])
        lock = threading.Lock()
        in_flight = {"now": 0, "peak": 0}

        class SlowLlm(LlmClient):
            name = "slow"

            def generate(self, prompt, max_tokens=1024):
                with lock:
                    in_flight["now"] += 1
                    in_flight["peak"] = max(in_flight["peak"], in_flight["now"])
                # Later sections answer faster than earlier ones.
                delay = 0.05 if "sec0x0" in prompt or "sec1x0" in prompt else 0.001
                time.sleep(delay)
                with lock:
                    in_flight["now"] -= 1
                if "keyword extractor" in prompt:
                    return "[kw]"
                return "SUMMARY"

        views = build_views(doc, generator="llm", llm=SlowLlm(), jobs=4)
        assert [v.section_id for v in views if v.view_kind is ViewKind.SUMMARY] == [
            s.section_id for s in doc.sections
        ]
        assert in_flight["peak"] > 1  # calls actually overlapped


class TestInFlightBound:
    """The ``build_views`` pool of ``jobs`` workers is the one bound on LLM requests in flight."""

    def test_views_jobs_is_the_peak_of_concurrent_requests(self, stub, tmp_path, monkeypatch):
        lock = threading.Lock()
        in_flight = {"now": 0, "peak": 0}

        def responder(path, payload):
            with lock:
                in_flight["now"] += 1
                in_flight["peak"] = max(in_flight["peak"], in_flight["now"])
            time.sleep(0.05)
            with lock:
                in_flight["now"] -= 1
            return (200, {"text": "[kw]" if "keyword extractor" in payload["prompt"] else "SUMMARY"})

        stub.responder = responder
        monkeypatch.setenv("MCIDX_LLM_URL", stub.url)
        doc = make_doc([words_sentence(300, f"sec{i}x") for i in range(4)])
        assert all(s.token_count > views.SUMMARY_TOKEN_THRESHOLD for s in doc.sections)
        corpus = tmp_path / "corpus.jsonl"
        write_corpus_jsonl([doc], corpus)
        assert run(["views", "--corpus", str(corpus), "--generator", "llm", "--jobs", "2",
                    "--output", str(tmp_path / "views.jsonl")]) == 0
        assert len(stub.requests) == 8  # keywords and a summary per section
        assert in_flight["peak"] == 2  # no more than --jobs, and the calls overlapped

    def test_zero_jobs_is_rejected(self):
        with pytest.raises(ValueError):
            build_views(make_doc(["x."]), generator="llm", llm=RefusingLlm(), jobs=0)


class TestViewsJsonl:
    def test_round_trip(self, tmp_path):
        doc_a = make_doc(["alpha beta gamma.", "delta words here."], doc_id="a")
        doc_b = make_doc(["epsilon zeta eta."], doc_id="b")
        views = {"a": build_views(doc_a), "b": build_views(doc_b)}
        path = tmp_path / "views.jsonl"
        write_views_jsonl(views.items(), path)
        assert read_views_jsonl(path) == views
