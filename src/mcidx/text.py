"""Tokenization and sentence-splitting primitives used by every module.

A "token" is a maximal run of non-whitespace characters (Unicode whitespace
as separators). This whitespace definition is deterministic and model-free
and is normative for every length threshold in the package. Index terms are
tokens lowercased with punctuation stripped from both edges. Sentences come
from one rule-based splitter (``iter_sentences``) whose boundaries always
follow whitespace, so a sentence is a whole run of tokens. Texts become term
ids only in ``term_ids``, for documents' analysis and sparse indexes alike.

A corpus repeats a small vocabulary, so ``index_terms`` strips each distinct
lowercased token once per process and looks it up after that, in one
module-level ``TermMemo``. Such a table holds at most ``TERM_MEMO_MAX``
entries: a miss on a full table clears it before inserting. A term is a pure
function of its token, so clearing the table, or sharing it between callers,
never changes a result; it only costs the strips again.
"""

from __future__ import annotations

import re
import string
import threading
from collections.abc import Callable, Iterator

import numpy as np

EDGE_PUNCT = string.punctuation + "‘’“”«»–—"
TERM_MEMO_MAX = 1 << 16

# Characters that may open a following sentence, besides uppercase and digits.
_OPENERS = "\"'([{“‘«"
# A terminal and the whitespace run after it; ``\s`` matches exactly the
# characters for which ``str.isspace()`` is true.
_TERMINAL_RUN = re.compile(r"[.!?]\s+")


class TermMemo(dict):
    """``key -> compute(key)`` for a pure ``compute``, computed on the first lookup of ``key``.

    Never holds more than ``TERM_MEMO_MAX`` entries (see the module docstring).
    """

    def __init__(self, compute: Callable[[str], object]):
        super().__init__()
        self._compute = compute
        self._lock = threading.Lock()

    def __missing__(self, key: str):
        value = self._compute(key)
        with self._lock:
            if len(self) >= TERM_MEMO_MAX:
                self.clear()
            self[key] = value
        return value


def token_term(token: str) -> str:
    """The index term of a lowercased token: its edges stripped of punctuation, empty if nothing is left."""
    return token.strip(EDGE_PUNCT)


_TERMS = TermMemo(token_term)


def token_count(text: str) -> int:
    """Number of whitespace-delimited tokens in ``text``."""
    return len(text.split())


def truncate_tokens(text: str, limit: int) -> str:
    """First ``limit`` whitespace tokens of ``text``.

    Returns ``text`` unchanged when it is short enough; otherwise the kept
    tokens re-joined with single spaces.
    """
    if len(text) <= 2 * limit:  # each token but the last takes a whitespace character after it
        return text
    tokens = text.split()
    if len(tokens) <= limit:
        return text
    return " ".join(tokens[:limit])


def token_terms(text: str) -> Iterator[str]:
    """The index term of each whitespace token of ``text``, in order.

    A token that is pure punctuation gives the empty string.
    """
    return map(_TERMS.__getitem__, text.lower().split())


def index_terms(text: str) -> list[str]:
    """Lowercased whitespace tokens with punctuation stripped from the edges.

    Tokens that are pure punctuation vanish.
    """
    return list(filter(None, token_terms(text)))


def term_ids(texts: list[str]) -> tuple[list[str], list[np.ndarray]]:
    """The sorted vocabulary of the texts' index terms, and each text's term ids in it.

    A text's ids, a slice of one int32 array, hold for each whitespace token
    the vocabulary position of its term, or -1 for a pure-punctuation token.
    """
    token_term: list[str] = []
    ends = [0]
    for text in texts:
        token_term += token_terms(text)
        ends.append(len(token_term))
    vocabulary = sorted(set(token_term).difference(("",)))
    position = dict(zip(vocabulary, range(len(vocabulary))))
    position[""] = -1
    ids = np.fromiter(map(position.__getitem__, token_term), np.int32, len(token_term))
    return vocabulary, [ids[start:end] for start, end in zip(ends, ends[1:])]


def iter_sentences(text: str) -> Iterator[tuple[str, tuple[int, int]]]:
    """Rule-based sentence split, one sentence at a time; spans partition the input exactly.

    A boundary occurs after '.', '!' or '?' followed by whitespace and then an
    uppercase letter, digit, or opening quote/bracket. The whitespace run
    stays attached to the preceding sentence, so each yielded text is the
    verbatim slice ``text[start:end]``, and no whitespace token crosses a
    boundary. No abbreviation dictionary: "Approx. 3 kg" splits after
    "Approx." by design, identically for every scheme. The text is split no
    further than the caller reads.
    """
    n = len(text)
    start = 0
    for match in _TERMINAL_RUN.finditer(text):
        k = match.end()
        if k < n and (text[k].isupper() or text[k].isdigit() or text[k] in _OPENERS):
            yield text[start:k], (start, k)
            start = k
    if text:
        yield text[start:], (start, n)
