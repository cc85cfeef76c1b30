from __future__ import annotations

import gc
import json
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SECTION_TEXTS, make_doc
from mcidx import corpus
from mcidx.chunking import ChunkScheme, chunking_error
from mcidx.cli import run
from mcidx.corpus import (
    QAItem,
    QuestionType,
    build_document,
    corpus_stats,
    load_and_filter_qa,
    load_corpus_jsonl,
    load_qa_jsonl,
    parse_markdown,
    parse_question_type,
    write_corpus_jsonl,
    write_qa_jsonl,
)
from mcidx.errors import DuplicateId, EmptyDocument, EmptyScope, SchemaError
from mcidx.evaluation import doc_units, eval_recall
from mcidx.synthetic import synthetic_corpus
from mcidx.text import index_terms, term_ids, token_count
from mcidx.views import ViewKind


class TestParseMarkdown:
    def test_two_flat_headings(self):
        doc = parse_markdown("## A\nx\n## B\ny", "d")
        assert [(s.heading, s.text) for s in doc.sections] == [("A", "x"), ("B", "y")]

    def test_heading_keeps_only_its_own_preamble(self):
        doc = parse_markdown("# T\nintro\n## S1\nbody", "d")
        assert [(s.heading, s.text) for s in doc.sections] == [("T", "intro"), ("S1", "body")]
        assert [s.level for s in doc.sections] == [1, 2]

    def test_level_is_the_number_of_hashes(self):
        # Heading texts whose lengths differ from their levels.
        doc = parse_markdown("### Introduction\nintro\n# Setup steps\nbody", "d")
        assert [(s.heading, s.level) for s in doc.sections] == [("Introduction", 3), ("Setup steps", 1)]

    def test_excluded_headings_dropped_with_body(self):
        doc = parse_markdown("## A\nx\n## References\nz", "d")
        assert [(s.heading, s.text) for s in doc.sections] == [("A", "x")]

    def test_exclusion_is_case_insensitive(self):
        doc = parse_markdown("## A\nx\n## SEE ALSO\ny\n## notes\nz", "d")
        assert [s.heading for s in doc.sections] == ["A"]

    def test_preamble_becomes_level_zero_section(self):
        doc = parse_markdown("leading text\n# First\nbody", "d")
        assert doc.sections[0].heading == "(preamble)"
        assert doc.sections[0].level == 0
        assert doc.sections[0].text == "leading text"

    def test_empty_document_raises(self):
        with pytest.raises(EmptyDocument):
            parse_markdown("## References\nonly excluded content", "d")

    def test_heading_requires_space_after_hashes(self):
        doc = parse_markdown("## A\n#notaheading\nx", "d")
        assert doc.sections[0].text == "#notaheading\nx"

    def test_blank_sections_are_dropped(self):
        doc = parse_markdown("## Empty\n\n## Full\ntext", "d")
        assert [s.heading for s in doc.sections] == ["Full"]

    def test_spans_reconstruct_full_text(self):
        doc = parse_markdown("## A\nx y\n## B\nz w\n## C\nq", "d")
        assert "\n".join(s.text for s in doc.sections) == doc.full_text
        for section in doc.sections:
            start, end = section.doc_span
            assert doc.full_text[start:end] == section.text


class TestCorpusJsonl:
    def test_round_trip(self, tmp_path):
        docs, _ = synthetic_corpus(n_docs=3)
        path = tmp_path / "corpus.jsonl"
        write_corpus_jsonl(docs, path)
        loaded = load_corpus_jsonl(path)
        assert [d.doc_id for d in loaded] == [d.doc_id for d in docs]
        assert all(a.full_text == b.full_text for a, b in zip(loaded, docs))

    def test_single_valid_record(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = {"doc_id": "d1", "title": "t", "sections": [
            {"section_id": "s0", "heading": "H", "level": 1, "text": "hello world"}]}
        path.write_text(json.dumps(record) + "\n")
        docs = load_corpus_jsonl(path)
        assert len(docs) == 1
        assert docs[0].full_text == "hello world"

    def test_section_entry_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"doc_id": "d1", "title": "t", "sections": ["just text"]}) + "\n")
        with pytest.raises(SchemaError) as err:
            load_corpus_jsonl(path)
        assert str(err.value) == f"{path}: line 1: section entry is not an object"
        assert run(["stats", "--corpus", str(path)]) == 2
        assert f"{path}: line 1: section entry is not an object" in capsys.readouterr().err

    def test_missing_sections_is_schema_error_with_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"doc_id": "d1", "title": "t"}) + "\n")
        with pytest.raises(SchemaError) as err:
            load_corpus_jsonl(path)
        assert err.value.line == 1

    def test_duplicate_doc_id(self, tmp_path):
        record = {"doc_id": "d1", "title": "t", "sections": [
            {"section_id": "s0", "heading": "H", "level": 1, "text": "x"}]}
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(DuplicateId) as err:
            load_corpus_jsonl(path)
        assert str(err.value) == f"{path}: line 2: document id 'd1' repeated"

    def test_duplicate_section_id_names_file_and_line(self, tmp_path):
        section = {"section_id": "s0", "heading": "H", "level": 1, "text": "x"}
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"doc_id": "d1", "title": "t", "sections": [section, section]}) + "\n")
        with pytest.raises(DuplicateId) as err:
            load_corpus_jsonl(path)
        assert str(err.value) == f"{path}: line 1: section id 's0' repeated in document 'd1'"

    def test_document_without_sections_names_file_and_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"doc_id": "d1", "title": "t", "sections": []}) + "\n")
        with pytest.raises(EmptyDocument) as err:
            load_corpus_jsonl(path)
        assert str(err.value) == f"{path}: line 1: document 'd1' has no sections"

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"doc_id": "d1"}\nnot json\n')
        with pytest.raises(SchemaError) as err:
            load_corpus_jsonl(path)
        assert err.value.line == 1  # first record is already malformed


class TestQaLoading:
    def _fixture(self, tmp_path):
        docs = [make_doc(["alpha beta gamma delta", "epsilon zeta"], doc_id="d1")]
        items = [
            {"question_id": "q1", "doc_id": "d1", "question": "?", "answer": "a",
             "question_type": "CauseEffect",
             "scope": {"section_id": "s0000", "char_start": 0, "char_end": 10}},
            {"question_id": "q2", "doc_id": "d1", "question": "?", "answer": "a",
             "question_type": "Comparative",
             "scope": {"section_id": "s0000", "char_start": 0, "char_end": 9999}},
            {"question_id": "q3", "doc_id": "nope", "question": "?", "answer": "a",
             "question_type": "Explanatory",
             "scope": {"section_id": "s0000", "char_start": 0, "char_end": 3}},
            {"question_id": "q4", "doc_id": "d1", "question": "?", "answer": "a",
             "question_type": "Summarization",
             "scope": {"section_id": "missing", "char_start": 0, "char_end": 3}},
        ]
        path = tmp_path / "qa.jsonl"
        path.write_text("".join(json.dumps(i) + "\n" for i in items))
        return docs, path

    def test_keeps_valid_drops_invalid(self, tmp_path):
        docs, path = self._fixture(tmp_path)
        kept = load_and_filter_qa(path, docs)
        assert [q.question_id for q in kept] == ["q1"]
        assert kept[0].question_type is QuestionType.CAUSE_EFFECT

    def test_malformed_line_is_schema_error(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text(json.dumps({"question_id": "q1"}) + "\n")
        with pytest.raises(SchemaError):
            load_and_filter_qa(path, [])

    def test_unknown_question_type_is_schema_error(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text(json.dumps({
            "question_id": "q", "doc_id": "d", "question": "?", "answer": "a",
            "question_type": "Rhetorical",
            "scope": {"section_id": "s", "char_start": 0, "char_end": 1}}) + "\n")
        with pytest.raises(SchemaError):
            load_qa_jsonl(path)

    def test_qa_round_trip(self, tmp_path):
        docs, qa = synthetic_corpus(n_docs=2)
        path = tmp_path / "qa.jsonl"
        write_qa_jsonl(qa, path)
        assert load_and_filter_qa(path, docs) == qa

    def test_surviving_scopes_are_in_bounds(self, tmp_path):
        docs, path = self._fixture(tmp_path)
        for item in load_and_filter_qa(path, docs):
            section = docs[0].sections_by_id[item.scope_section_id]
            start, end = item.scope_span
            assert 0 <= start < end <= len(section.text)


class TestQuestionTypes:
    def test_exactly_eight(self):
        assert len(QuestionType) == 8

    @pytest.mark.parametrize("label,expected", [
        ("Cause and Effect Questions", QuestionType.CAUSE_EFFECT),
        ("Questions about Narrative and Plot Details", QuestionType.NARRATIVE_PLOT),
        ("InformationSynthesis", QuestionType.INFORMATION_SYNTHESIS),
        ("themes and motifs", QuestionType.THEMES_MOTIFS),
        ("cause effect", QuestionType.CAUSE_EFFECT),
    ])
    def test_alias_parsing(self, label, expected):
        assert parse_question_type(label) is expected

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            parse_question_type("TrueFalse")


class TestCorpusStats:
    def test_mean_tokens_per_section(self):
        doc = make_doc([" ".join(["a"] * 100), " ".join(["b"] * 300)])
        stats = corpus_stats([doc], [])
        assert stats.mean_tokens_per_section == 200

    def test_empty_qa_means_zero(self):
        doc = make_doc(["one two"])
        stats = corpus_stats([doc], [])
        assert stats.n_questions == 0
        assert stats.mean_tokens_per_answer_scope == 0

    def test_mean_tokens_per_doc(self):
        docs = [make_doc([" ".join(["x"] * 10_000)], doc_id="a"),
                make_doc([" ".join(["y"] * 20_000)], doc_id="b")]
        assert corpus_stats(docs, []).mean_tokens_per_doc == 15_000

    @given(st.lists(st.text(alphabet="ab \n\t\u3000"), min_size=1, max_size=6))
    def test_mean_tokens_per_doc_sums_section_counts(self, texts):
        # Sections with leading or trailing whitespace, and empty ones, join without merging tokens.
        doc = make_doc(texts)
        assert sum(s.token_count for s in doc.sections) == token_count(doc.full_text)
        assert corpus_stats([doc], []).mean_tokens_per_doc == token_count(doc.full_text)

    def test_questions_outside_the_corpus_are_skipped(self):
        doc = make_doc(["one two three four"], doc_id="d1")
        items = [QAItem(qid, doc_id, "?", "a", QuestionType.EXPLANATORY, section_id, (0, 7))
                 for qid, doc_id, section_id in [("q1", "d1", "s0000"), ("q2", "d1", "missing"),
                                                 ("q3", "nope", "s0000")]]
        stats = corpus_stats([doc], items)
        assert stats.n_questions == 3
        assert stats.n_questions_skipped == 2
        assert stats.mean_tokens_per_answer_scope == 2  # "one two" alone

    def test_empty_corpus_is_all_zero(self):
        stats = corpus_stats([], [])
        assert stats.n_documents == 0
        assert stats.mean_tokens_per_doc == 0.0


class TestOneScopeResolver:
    """Every caller resolves a question's document and scope as ``load_and_filter_qa`` does.

    ``doc000:q0`` of seed 7 has the scope (0, 347) in section ``s0005``,
    1,434 characters long.
    """

    @pytest.mark.parametrize("span", [(0, 6434), (-50, 347), (347, 347)])
    def test_scope_outside_its_section(self, span):
        docs, qa = synthetic_corpus(n_docs=2, seed=7)
        assert qa[0].question_id == "doc000:q0" and qa[0].scope_span == (0, 347)
        bad = [replace(qa[0], scope_span=span), *qa[1:]]
        with pytest.raises(EmptyScope, match="s0005"):
            eval_recall(docs, bad, "content", "bm25", "single:raw", [3])
        with pytest.raises(EmptyScope, match="s0005"):
            chunking_error(docs, bad, ChunkScheme("content"))
        stats = corpus_stats(docs, bad)
        assert stats.n_questions == len(qa)
        assert stats.n_questions_skipped == 1
        assert stats.mean_tokens_per_answer_scope == corpus_stats(docs, qa[1:]).mean_tokens_per_answer_scope

    def test_repeated_document_id(self, tmp_path):
        docs, qa = synthetic_corpus(n_docs=2, seed=7)
        docs = [docs[0], replace(docs[1], doc_id=docs[0].doc_id)]
        qa = [q for q in qa if q.doc_id == docs[0].doc_id]
        path = tmp_path / "qa.jsonl"
        write_qa_jsonl(qa, path)
        calls = [lambda: eval_recall(docs, qa, "content", "bm25", "single:raw", [1.5, 3]),
                 lambda: chunking_error(docs, qa, ChunkScheme("content")),
                 lambda: corpus_stats(docs, qa),
                 lambda: load_and_filter_qa(path, docs)]
        for call in calls:
            with pytest.raises(DuplicateId, match="doc000"):
                call()


class TestDocumentInvariants:
    @given(st.lists(st.text(alphabet="ab \n", min_size=1).map(lambda t: t.strip() or "a"),
                    min_size=1, max_size=6))
    def test_reconstruction(self, texts):
        doc = make_doc(texts)
        assert "\n".join(s.text for s in doc.sections) == doc.full_text
        for section in doc.sections:
            start, end = section.doc_span
            assert doc.full_text[start:end] == section.text
            assert section.token_count == token_count(section.text)

    def test_empty_section_list_rejected(self):
        with pytest.raises(EmptyDocument):
            build_document("d", "t", [])

    def test_duplicate_section_id_rejected(self):
        with pytest.raises(DuplicateId):
            build_document("d", "t", [("s0", "H", 1, "x"), ("s0", "H", 1, "y")])


def test_load_counts_no_tokens(tmp_path, monkeypatch):
    """A section counts its tokens on first use, not when the corpus loads."""
    path = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(synthetic_corpus(n_docs=3, seed=7)[0], path)
    calls = []

    def counting(text):
        calls.append(text)
        return token_count(text)

    monkeypatch.setattr(corpus, "token_count", counting)
    section = load_corpus_jsonl(path)[1].sections[2]
    assert calls == []
    assert section.token_count == token_count(section.text)
    assert section.token_count == token_count(section.text)
    assert calls == [section.text]


class TestDocumentAnalysis:
    PARTS = ("terms", "section_starts", "text_sentences", "section_sentences")

    @settings(max_examples=150, deadline=None)
    @given(SECTION_TEXTS)
    @example(["İSTANBUL -- “İzmir” ΑΣ. ΣΑ a\x1cb\x85c\xa0d\u3000e", "... «x» —y— ‘z’ ΟΔΟΣ."])
    def test_unit_terms_equal_index_terms(self, texts):
        doc = make_doc(texts)
        vocabulary, ids = doc.terms
        assert vocabulary == sorted(set(index_terms(doc.full_text)))
        assert ids.dtype == np.int32 and len(ids) == token_count(doc.full_text)
        schemes = [ChunkScheme("content")] + [
            ChunkScheme(kind, target) for kind in ("flc", "flc-content") for target in range(1, len(ids) + 2)]
        for scheme in schemes:
            for _, _, text, (start, end) in doc_units(doc, scheme, ViewKind.RAW_TEXT, None):
                assert [vocabulary[i] for i in ids[start:end] if i >= 0] == index_terms(text)

    def test_load_builds_no_analysis(self, tmp_path, monkeypatch):
        path = tmp_path / "corpus.jsonl"
        write_corpus_jsonl(synthetic_corpus(n_docs=3, seed=7)[0], path)
        analyzed = []
        monkeypatch.setattr(corpus, "term_ids", lambda texts: analyzed.append(texts) or term_ids(texts))
        docs = load_corpus_jsonl(path)
        assert analyzed == []
        assert not any(part in vars(doc) for doc in docs for part in self.PARTS)
        assert docs[1].terms is docs[1].terms
        assert analyzed == [[docs[1].full_text]]
        assert [(doc.doc_id, part) for doc in docs for part in self.PARTS if part in vars(doc)] == [
            (docs[1].doc_id, "terms")]

    def test_analysis_is_freed_with_its_document(self):
        # With the collector off, only reference counting frees the document:
        # a reference cycle through any part would keep it alive.
        gc.disable()
        try:
            doc = make_doc(["Alpha beta. Gamma delta.", "Epsilon zeta!"])
            _ = doc.terms, doc.section_starts, doc.text_sentences, doc.section_sentences
            for spec in ("content", "flc:2", "flc-content:2"):
                doc_units(doc, ChunkScheme.parse(spec), ViewKind.RAW_TEXT, None)
            freed = weakref.ref(doc)
            del doc
            assert freed() is None
        finally:
            gc.enable()
