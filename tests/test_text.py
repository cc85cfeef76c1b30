from __future__ import annotations

import string

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mcidx import text as text_module
from mcidx.text import index_terms, term_ids, token_count, truncate_tokens
from oracles import oracle_terms

# Letters (cased and not, and "İ", whose lowercase form is longer), every
# edge-punctuation character spelled out here rather than imported, and ASCII
# and Unicode whitespace, so tokens split, strip and vanish in every combination.
_TERM_ALPHABET = "aZéÉßΣ日İ" + string.punctuation + "‘’“”«»–—" + " \t\n\x1c\x85\u3000\xa0"


def test_token_count_empty():
    assert token_count("") == 0


def test_token_count_whitespace_runs():
    assert token_count("a  b\tc") == 3


def test_token_count_sentence():
    assert token_count("How to bake a chocolate cake?") == 6


def test_token_count_unicode_whitespace():
    assert token_count("a b c") == 3


@given(st.text())
def test_token_count_matches_split(text):
    assert token_count(text) == len(text.split())


def test_truncate_short_text_unchanged():
    assert truncate_tokens("one  two", 5) == "one  two"


def test_truncate_cuts_to_limit():
    assert truncate_tokens("a b c d e", 3) == "a b c"
    assert token_count(truncate_tokens("a b c d e", 3)) == 3


@given(st.text(alphabet="ab \n\u3000", max_size=24), st.integers(0, 12))
@example("a b c", 2)  # the shortest text with more than ``limit`` tokens
def test_truncate_equals_split_and_join(text, limit):
    tokens = text.split()
    assert truncate_tokens(text, limit) == (text if len(tokens) <= limit else " ".join(tokens[:limit]))


def test_index_terms_lowercase_and_edge_punctuation():
    assert index_terms('The "Dell XPS-13", fast!') == ["the", "dell", "xps-13", "fast"]


def test_index_terms_drops_pure_punctuation():
    assert index_terms("hello -- world ...") == ["hello", "world"]


@given(st.text(alphabet=_TERM_ALPHABET, max_size=60))
@example("İSTANBUL -- “İzmir” a\x1cb\x85c\xa0d\u3000e ... «x» —y— ‘z’")
def test_index_terms_equals_oracle(text):
    # Cold, then warm, under the real bound and under a bound of 3, where the
    # term table is cleared in the middle of a call.
    for bound in (text_module.TERM_MEMO_MAX, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(text_module, "TERM_MEMO_MAX", bound)
            text_module._TERMS.clear()
            for _ in range(2):
                assert index_terms(text) == oracle_terms(text)
                assert len(text_module._TERMS) <= bound


@given(st.lists(st.text(alphabet=_TERM_ALPHABET, max_size=30), max_size=4))
@example([])
def test_term_ids_equal_oracle_terms(texts):
    vocabulary, ids = term_ids(texts)
    assert vocabulary == sorted({term for text in texts for term in oracle_terms(text)})
    assert len(ids) == len(texts)
    for text, text_ids in zip(texts, ids):
        assert text_ids.dtype == np.int32 and len(text_ids) == token_count(text)
        assert [vocabulary[i] for i in text_ids if i >= 0] == oracle_terms(text)
        assert (text_ids >= 0).tolist() == [bool(oracle_terms(token)) for token in text.split()]
