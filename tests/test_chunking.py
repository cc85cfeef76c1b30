from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SECTION_TEXTS, make_doc
from mcidx.chunking import ChunkScheme, chunk_document, chunking_error
from mcidx.corpus import QAItem, QuestionType
from mcidx.errors import EmptyCorpus, UnknownDoc
from mcidx.synthetic import synthetic_corpus
from mcidx.text import iter_sentences, token_count
from oracles import oracle_chunks, oracle_scope_split, oracle_split_sentences

# Terminals, ASCII and Unicode whitespace, non-ASCII uppercase, Unicode digits
# and every opener: the characters the sentence rule branches on.
_SENTENCE_ALPHABET = ".!?" + " \t\n\x1c\x85\u3000\xa0" + "aAÉΩЖ" + "1²٣" + "\"'([{“‘«" + "b,"


def sent(n_tokens, stem="w"):
    """A sentence with exactly n_tokens whitespace tokens."""
    words = [f"{stem}{i}" for i in range(n_tokens)]
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


class TestSplitSentences:
    def test_two_simple_sentences(self):
        result = list(iter_sentences("A cat. A dog."))
        assert len(result) == 2
        assert [text.strip() for text, _ in result] == ["A cat.", "A dog."]

    def test_digit_after_period_splits(self):
        result = list(iter_sentences("Approx. 3 kg total."))
        assert [text.strip() for text, _ in result] == ["Approx.", "3 kg total."]

    def test_no_terminal_punctuation_is_one_sentence(self):
        text = "no terminal punctuation"
        assert list(iter_sentences(text)) == [(text, (0, len(text)))]

    def test_lowercase_continuation_does_not_split(self):
        assert len(list(iter_sentences("e.g. something here. More."))) == 2

    def test_opening_quote_splits(self):
        result = list(iter_sentences('He left. "Stay," she said.'))
        assert len(result) == 2

    def test_empty_text(self):
        assert list(iter_sentences("")) == []

    @given(st.text(alphabet=_SENTENCE_ALPHABET, max_size=80))
    def test_equals_per_character_oracle(self, text):
        assert list(iter_sentences(text)) == oracle_split_sentences(text)

    @given(st.text(max_size=300))
    def test_spans_partition_input(self, text):
        result = list(iter_sentences(text))
        if not text:
            assert result == []
            return
        assert result[0][1][0] == 0
        assert result[-1][1][1] == len(text)
        for (_, left), (_, right) in zip(result, result[1:]):
            assert left[1] == right[0]
        for piece, (start, end) in result:
            assert piece == text[start:end]


class TestContentAware:
    def test_one_chunk_per_section(self):
        doc = make_doc(["one two.", "three four.", "five."])
        chunks = chunk_document(doc, ChunkScheme("content"))
        assert len(chunks) == 3
        assert [c.doc_span for c in chunks] == [s.doc_span for s in doc.sections]
        assert [c.text for c in chunks] == [s.text for s in doc.sections]

    def test_single_section(self):
        doc = make_doc(["only section text."])
        chunks = chunk_document(doc, ChunkScheme("content"))
        assert len(chunks) == 1
        assert chunks[0].text == doc.sections[0].text

    def test_section_ids_set_and_unique(self):
        docs, _ = synthetic_corpus(n_docs=2)
        for doc in docs:
            ids = [c.section_id for c in chunk_document(doc, ChunkScheme("content"))]
            assert None not in ids
            assert len(set(ids)) == len(ids)


class TestFlc:
    def test_greedy_close_at_target(self):
        doc = make_doc([" ".join([sent(60, "a"), sent(50, "b"), sent(70, "c")])])
        chunks = chunk_document(doc, ChunkScheme("flc", 100))
        assert [token_count(c.text) for c in chunks] == [110, 70]

    def test_single_long_sentence_never_split(self):
        doc = make_doc([sent(400)])
        chunks = chunk_document(doc, ChunkScheme("flc", 100))
        assert len(chunks) == 1
        assert token_count(chunks[0].text) == 400

    def test_empty_body_gives_no_chunks(self):
        doc = make_doc([""])
        assert chunk_document(doc, ChunkScheme("flc", 100)) == []

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            chunk_document(make_doc(["x."]), ChunkScheme("flc", 0))

    def test_cross_section_chunk_has_no_section_id(self):
        # Two sections; one sentence each; chunk big enough to span both.
        doc = make_doc([sent(30, "a"), sent(30, "b")])
        chunks = chunk_document(doc, ChunkScheme("flc", 50))
        assert len(chunks) == 1
        assert chunks[0].section_id is None

    def test_chunk_inside_one_section_keeps_its_id(self):
        doc = make_doc([" ".join([sent(40, "a"), sent(40, "b")]), sent(80, "c")])
        chunks = chunk_document(doc, ChunkScheme("flc", 80))
        assert chunks[0].section_id == "s0000"
        assert chunks[-1].section_id == "s0001"


class TestFlcContent:
    def test_per_section_chunks_never_cross(self):
        texts = [" ".join(sent(50, f"a{i}") for i in range(3)),
                 " ".join(sent(50, f"b{i}") for i in range(3))]
        doc = make_doc(texts)
        chunks = chunk_document(doc, ChunkScheme("flc-content", 100))
        assert len(chunks) == 4  # two per 150-token section
        by_section = {}
        for chunk in chunks:
            assert chunk.section_id is not None
            by_section.setdefault(chunk.section_id, []).append(chunk)
        assert {len(v) for v in by_section.values()} == {2}
        for section in doc.sections:
            for chunk in by_section[section.section_id]:
                assert section.doc_span[0] <= chunk.doc_span[0]
                assert chunk.doc_span[1] <= section.doc_span[1]

    def test_short_section_is_one_chunk(self):
        doc = make_doc([sent(30)])
        chunks = chunk_document(doc, ChunkScheme("flc-content", 100))
        assert len(chunks) == 1
        assert chunks[0].text == doc.sections[0].text

    def test_contrast_with_plain_flc_at_boundary(self):
        doc = make_doc([sent(30, "a"), sent(30, "b")])
        plain = chunk_document(doc, ChunkScheme("flc", 50))
        bounded = chunk_document(doc, ChunkScheme("flc-content", 50))
        assert any(c.section_id is None for c in plain)
        assert all(c.section_id is not None for c in bounded)


def _qa(doc_id, section_id, span, qid="q"):
    return QAItem(qid, doc_id, "?", "a", QuestionType.EXPLANATORY, section_id, span)


# Documents of whitespace only: their one flc chunk has no tokens.
_WHITESPACE_TEXTS = st.lists(st.sampled_from(["", " ", "\n", "\t\n", "\u3000\xa0"]), min_size=1, max_size=5)


class TestGreedyOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(SECTION_TEXTS, _WHITESPACE_TEXTS))
    @example(["A b. C d. E f."])  # every sentence reaches a target of 2 exactly
    @example(["A b.", "  ", "", "C d! E."])
    @example(["", ""])  # the full text is "\n"
    def test_matches_running_sum_oracle(self, texts):
        doc = make_doc(texts)
        total = token_count(doc.full_text)
        for kind in ("flc", "flc-content"):
            for target in range(1, total + 2):
                chunks = chunk_document(doc, ChunkScheme(kind, target))
                got = [(c.chunk_id, c.section_id, c.doc_span, c.text) for c in chunks]
                assert got == oracle_chunks(texts, kind, target), (kind, target)
                for chunk in chunks:
                    start, end = chunk.token_span
                    assert start == token_count(doc.full_text[:chunk.doc_span[0]])
                    assert end - start == token_count(chunk.text)


class TestChunkingError:
    def test_content_aware_is_zero(self):
        docs, qa = synthetic_corpus(n_docs=3)
        report = chunking_error(docs, qa, ChunkScheme("content"))
        assert report.error_rate == 0.0
        assert report.n_scopes == len(qa)

    def test_scope_crossing_chunk_boundary_counts_split(self):
        doc = make_doc([" ".join(sent(25, f"s{i}") for i in range(4))])
        chunks = chunk_document(doc, ChunkScheme("flc", 25))  # one chunk per sentence
        boundary = chunks[0].doc_span[1]
        item = _qa(doc.doc_id, "s0000", (boundary - 10, boundary + 10))
        report = chunking_error([doc], [item], ChunkScheme("flc", 25))
        assert report.n_split == 1
        assert oracle_scope_split([c.doc_span for c in chunks], (boundary - 10, boundary + 10))

    def test_scope_inside_one_chunk_not_split(self):
        doc = make_doc([" ".join(sent(25, f"s{i}") for i in range(4))])
        item = _qa(doc.doc_id, "s0000", (10, 40))
        assert chunking_error([doc], [item], ChunkScheme("flc", 100)).n_split == 0

    def test_unknown_doc_raises(self):
        doc = make_doc(["alpha beta."])
        with pytest.raises(UnknownDoc):
            chunking_error([doc], [_qa("ghost", "s0000", (0, 3))], ChunkScheme("content"))

    def test_empty_chunks_raise(self):
        with pytest.raises(EmptyCorpus):
            chunking_error([], [], ChunkScheme("content"))

    def test_error_rate_zero_when_no_scopes(self):
        doc = make_doc(["alpha beta."])
        report = chunking_error([doc], [], ChunkScheme("content"))
        assert report.error_rate == 0.0


class TestPartitionInvariants:
    @pytest.mark.parametrize("target", [30, 100, 250])
    def test_flc_partitions_full_text(self, target):
        docs, _ = synthetic_corpus(n_docs=3)
        for doc in docs:
            chunks = chunk_document(doc, ChunkScheme("flc", target))
            assert chunks[0].doc_span[0] == 0
            assert chunks[-1].doc_span[1] == len(doc.full_text)
            for left, right in zip(chunks, chunks[1:]):
                assert left.doc_span[1] == right.doc_span[0]
            for chunk in chunks:
                assert doc.full_text[chunk.doc_span[0]:chunk.doc_span[1]] == chunk.text

    @pytest.mark.parametrize("target", [30, 100, 250])
    def test_flc_content_partitions_each_section(self, target):
        docs, _ = synthetic_corpus(n_docs=3)
        for doc in docs:
            chunks = chunk_document(doc, ChunkScheme("flc-content", target))
            by_section = {}
            for chunk in chunks:
                by_section.setdefault(chunk.section_id, []).append(chunk)
            for section in doc.sections:
                spans = [c.doc_span for c in by_section[section.section_id]]
                assert spans[0][0] == section.doc_span[0]
                assert spans[-1][1] == section.doc_span[1]
                for left, right in zip(spans, spans[1:]):
                    assert left[1] == right[0]

    @pytest.mark.parametrize("target", [50, 150])
    def test_flc_chunk_token_bounds(self, target):
        docs, _ = synthetic_corpus(n_docs=3)
        for doc in docs:
            max_sentence = max(token_count(s) for s, _ in iter_sentences(doc.full_text))
            chunks = chunk_document(doc, ChunkScheme("flc", target))
            for chunk in chunks[:-1]:
                assert token_count(chunk.text) >= target
            for chunk in chunks:
                assert token_count(chunk.text) < target + max_sentence


class TestChunkScheme:
    @pytest.mark.parametrize("spec", ["content", "flc:100", "flc-content:300"])
    def test_spec_round_trip(self, spec):
        assert ChunkScheme.parse(spec).spec() == spec

    @pytest.mark.parametrize("spec", ["flc", "flc:zero", "flc:0", "semantic", "content:5"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            ChunkScheme.parse(spec)

    @pytest.mark.parametrize("kind,target", [("flc", 0), ("content", 5), ("flc", None), ("semantic", None)])
    def test_bad_schemes_rejected_on_construction(self, kind, target):
        with pytest.raises(ValueError):
            ChunkScheme(kind, target)
