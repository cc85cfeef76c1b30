"""Tokenization primitives used by every module.

A "token" is a maximal run of non-whitespace characters (Unicode whitespace
as separators). This whitespace definition is deterministic and model-free
and is normative for every length threshold in the package. Index terms are
tokens lowercased with punctuation stripped from both edges.
"""

from __future__ import annotations

import string

EDGE_PUNCT = string.punctuation + "‘’“”«»–—"


def token_count(text: str) -> int:
    """Number of whitespace-delimited tokens in ``text``."""
    return len(text.split())


def truncate_tokens(text: str, limit: int) -> str:
    """First ``limit`` whitespace tokens of ``text``.

    Returns ``text`` unchanged when it is short enough; otherwise the kept
    tokens re-joined with single spaces.
    """
    tokens = text.split()
    if len(tokens) <= limit:
        return text
    return " ".join(tokens[:limit])


def index_terms(text: str) -> list[str]:
    """Lowercased whitespace tokens with punctuation stripped from the edges.

    Tokens that are pure punctuation vanish.
    """
    return [term for token in text.lower().split() if (term := token.strip(EDGE_PUNCT))]
