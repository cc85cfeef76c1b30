"""Independent brute-force oracles the implementation is checked against.

These deliberately re-derive everything from the definitions (dict/loop
arithmetic, position sets) and share no scoring code with the package.
"""

from __future__ import annotations

import hashlib
import json
import math
import string
from collections import Counter


def oracle_terms(text: str) -> list[str]:
    terms = []
    for token in text.lower().split():
        term = token.strip(string.punctuation + "‘’“”«»–—")
        if term:
            terms.append(term)
    return terms


def oracle_mock_embed(texts: list[str], dim: int = 256) -> list[list[float]]:
    """Feature-hashed term counts, one blake2b per term occurrence."""
    rows = []
    for text in texts:
        row = [0.0] * dim
        for term in oracle_terms(text):
            digest = hashlib.blake2b(term.encode("utf-8"), digest_size=8).digest()
            row[int.from_bytes(digest, "little") % dim] += 1.0
        rows.append(row)
    return rows


def oracle_postings(units: list[tuple[str, str]]) -> tuple[dict[str, list[tuple[int, int]]], list[int]]:
    """Each term's ``(unit position, tf)`` postings in sorted term order, units
    ascending, and each unit's term count."""
    term_lists = [oracle_terms(text) for _, text in units]
    postings: dict[str, list[tuple[int, int]]] = {}
    for term in sorted({t for terms in term_lists for t in terms}):
        postings[term] = [(i, terms.count(term)) for i, terms in enumerate(term_lists) if term in terms]
    return postings, [len(terms) for terms in term_lists]


def oracle_tfidf_scores(units: list[tuple[str, str]], query: str) -> dict[str, float]:
    """Cosine of L2-normalized tf*idf vectors, idf = ln((1+N)/(1+df)) + 1."""
    n = len(units)
    term_lists = {uid: oracle_terms(text) for uid, text in units}
    df: Counter[str] = Counter()
    for terms in term_lists.values():
        df.update(set(terms))

    def weights(terms: list[str]) -> dict[str, float]:
        counts = Counter(t for t in terms if t in df)
        return {t: c * (math.log((1 + n) / (1 + df[t])) + 1.0) for t, c in counts.items()}

    q = weights(oracle_terms(query))
    q_norm = math.sqrt(sum(w * w for w in q.values()))
    scores = {}
    for uid, terms in term_lists.items():
        w = weights(terms)
        u_norm = math.sqrt(sum(x * x for x in w.values()))
        dot = sum(q[t] * w.get(t, 0.0) for t in q)
        denom = q_norm * u_norm
        scores[uid] = dot / denom if denom else 0.0
    return scores


def oracle_bm25_scores(
    units: list[tuple[str, str]], query: str, k1: float = 1.5, b: float = 0.75
) -> dict[str, float]:
    """Okapi BM25, idf = ln(1 + (N-df+0.5)/(df+0.5)), summed per query token."""
    n = len(units)
    term_lists = {uid: oracle_terms(text) for uid, text in units}
    df: Counter[str] = Counter()
    for terms in term_lists.values():
        df.update(set(terms))
    lens = {uid: len(terms) for uid, terms in term_lists.items()}
    avgdl = sum(lens.values()) / n if n else 0.0
    query_terms = oracle_terms(query)
    scores = {}
    for uid, terms in term_lists.items():
        counts = Counter(terms)
        total = 0.0
        for term in query_terms:
            f = counts.get(term, 0)
            if not f or term not in df:
                continue
            idf = math.log(1.0 + (n - df[term] + 0.5) / (df[term] + 0.5))
            norm = lens[uid] / avgdl if avgdl else 0.0
            total += idf * f * (k1 + 1.0) / (f + k1 * (1.0 - b + b * norm))
        scores[uid] = total
    return scores


def reference_loop_scores(
    units: list[tuple[str, str]], query: str, kind: str, k1: float = 1.5, b: float = 0.75
) -> dict[str, float]:
    """Per-unit dict-and-loop scoring in the package's exact operation order.

    TF-IDF norms sum ``(tf * idf) ** 2`` in sorted term order and the dot
    product runs over query terms in first-occurrence order; BM25 adds one
    contribution per query token. The vectorized scorers must equal these
    floats bit for bit, not just within a tolerance.
    """
    n = len(units)
    freqs = [Counter(oracle_terms(text)) for _, text in units]
    df: Counter[str] = Counter()
    for tf in freqs:
        df.update(tf.keys())
    if kind == "tfidf":
        idf = {t: math.log((1 + n) / (1 + d)) + 1.0 for t, d in df.items()}
        q = {t: c * idf[t] for t, c in Counter(oracle_terms(query)).items() if t in idf}
        q_norm = math.sqrt(sum(w * w for w in q.values()))
        scores = []
        for tf in freqs:
            u_norm = math.sqrt(sum((c * idf[t]) ** 2 for t, c in sorted(tf.items())))
            dot = sum(w * tf.get(t, 0) * idf[t] for t, w in q.items())
            scores.append(dot / (q_norm * u_norm) if q_norm * u_norm else 0.0)
    else:
        idf = {t: math.log(1.0 + (n - d + 0.5) / (d + 0.5)) for t, d in df.items()}
        avgdl = sum(sum(tf.values()) for tf in freqs) / n
        scores = []
        for tf in freqs:
            denom_norm = k1 * (1.0 - b + b * (sum(tf.values()) / avgdl if avgdl else 0.0))
            total = 0.0
            for t in oracle_terms(query):
                if tf.get(t):
                    total += idf[t] * tf[t] * (k1 + 1.0) / (tf[t] + denom_norm)
            scores.append(total)
    return {uid: score for (uid, _), score in zip(units, scores)}


def oracle_rank(scores: dict[str, float], corpus_order: list[str]) -> list[str]:
    """Unit ids sorted by descending score, ties by corpus position."""
    position = {uid: i for i, uid in enumerate(corpus_order)}
    return sorted(corpus_order, key=lambda uid: (-scores[uid], position[uid]))


def oracle_cosine_scores(rows: list[list[float]], query_row: list[float]) -> list[float]:
    """Plain-python cosine similarities, no normalization shortcuts."""

    def norm(v):
        return math.sqrt(sum(x * x for x in v))

    qn = norm(query_row)
    scores = []
    for row in rows:
        rn = norm(row)
        dot = sum(a * b for a, b in zip(row, query_row))
        scores.append(dot / (rn * qn) if rn and qn else 0.0)
    return scores


def oracle_split_sentences(text: str) -> list[tuple[str, tuple[int, int]]]:
    """Per-character sentence split: a boundary after '.', '!' or '?', a
    whitespace run (``str.isspace``), and then an uppercase letter, a digit or
    an opening quote/bracket; the run stays with the preceding sentence."""
    if not text:
        return []
    n = len(text)
    bounds: list[int] = []
    for i, ch in enumerate(text):
        if ch not in ".!?":
            continue
        k = i + 1
        while k < n and text[k].isspace():
            k += 1
        if k == i + 1 or k == n:
            continue
        nxt = text[k]
        if nxt.isupper() or nxt.isdigit() or nxt in "\"'([{“‘«":
            bounds.append(k)
    sentences = []
    prev = 0
    for bound in bounds:
        sentences.append((text[prev:bound], (prev, bound)))
        prev = bound
    sentences.append((text[prev:], (prev, n)))
    return sentences


def oracle_chunks(
    section_texts: list[str], kind: str, target: int
) -> list[tuple[str, str | None, tuple[int, int], str]]:
    """``(chunk_id, section_id, doc_span, text)`` of a greedy sentence merge.

    ``flc`` merges the sentences of the newline-joined full text, ``flc-content``
    those of each section (ids s0000, s0001, ...). A running token sum closes a
    chunk at the first sentence that brings it to ``target``; what is left at
    the end of a region is its last chunk. An ``flc`` chunk's section is
    ``oracle_chunk_section`` of its span.
    """
    full_text = "\n".join(section_texts)
    section_spans = []
    pos = 0
    for text in section_texts:
        section_spans.append((pos, pos + len(text)))
        pos += len(text) + 1
    if kind == "flc":
        regions = [(None, 0, full_text)]
    else:
        regions = [(f"s{i:04d}", start, text) for i, ((start, _), text) in enumerate(zip(section_spans, section_texts))]
    spans: list[tuple[str | None, tuple[int, int]]] = []
    for section_id, offset, text in regions:
        start = None
        total = 0
        sentences = oracle_split_sentences(text)
        for sentence, (s, e) in sentences:
            if start is None:
                start = offset + s
            total += len(sentence.split())
            if total >= target:
                spans.append((section_id, (start, offset + e)))
                start, total = None, 0
        if start is not None:
            spans.append((section_id, (start, offset + sentences[-1][1][1])))
    chunks = []
    for n, (section_id, (s, e)) in enumerate(spans):
        if kind == "flc":
            section_id = oracle_chunk_section(section_texts, (s, e))
        chunks.append((f"c{n:04d}", section_id, (s, e), full_text[s:e]))
    return chunks


def oracle_chunk_section(section_texts: list[str], span: tuple[int, int]) -> str | None:
    """The section of a span of the newline-joined sections, by characters.

    The span is trimmed of its edge whitespace (to an empty span at its start
    when nothing is left), and its section is the first (ids s0000, s0001,
    ...) whose character span holds the trimmed span, else None.
    """
    full_text = "\n".join(section_texts)
    s, e = span
    piece = full_text[s:e]
    lead = len(piece) - len(piece.lstrip())
    body = (s + lead, s + lead + len(piece.strip())) if piece.strip() else (s, s)
    pos = 0
    for i, text in enumerate(section_texts):
        if pos <= body[0] and body[1] <= pos + len(text):
            return f"s{i:04d}"
        pos += len(text) + 1
    return None


def oracle_scope_split(chunk_spans: list[tuple[int, int]], scope: tuple[int, int]) -> bool:
    """Position-set containment check: split iff no chunk covers every scope char."""
    scope_chars = set(range(scope[0], scope[1]))
    for start, end in chunk_spans:
        if scope_chars <= set(range(start, end)):
            return False
    return True


def oracle_recall_sum(spans: list[tuple[int, int]], scope: tuple[int, int]) -> float:
    """Sum of per-span overlaps with the scope (valid for disjoint spans)."""
    length = scope[1] - scope[0]
    total = 0
    for start, end in spans:
        total += max(0, min(end, scope[1]) - max(start, scope[0]))
    return total / length


def oracle_judge(a1: float, b1: float, a2: float, b2: float) -> tuple[str, str]:
    """Table-driven restatement of the two judging rules."""
    if a1 + a2 > b1 + b2:
        score_based = "a"
    elif b1 + b2 > a1 + a2:
        score_based = "b"
    else:
        score_based = "tie"
    wins_a = (a1 > b1) + (a2 > b2)
    wins_b = (b1 > a1) + (b2 > a2)
    if wins_a == 2:
        round_based = "a"
    elif wins_b == 2:
        round_based = "b"
    else:
        round_based = "tie"
    return score_based, round_based


def oracle_jsonl(path) -> tuple[list[tuple[int, object]], int | None]:
    """Per-line ``json.loads`` over a JSONL file read with universal newlines.

    Returns the ``(line_number, record)`` pairs before the first line that is
    not one JSON object, and that line's number (None if every line is one).
    Lines that ``str.strip`` empties are skipped.
    """
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                return pairs, lineno
            if not isinstance(record, dict):
                return pairs, lineno
            pairs.append((lineno, record))
    return pairs, None


def oracle_extractive_keywords(
    section_texts: list[str], index: int, stopwords: frozenset[str], n: int = 20
) -> list[str]:
    """Top-n non-stopword terms of one section by tf * idf over the document's sections.

    idf = ln((1+N)/(1+df)) + 1, computed per term; ties break by first position.
    """
    term_lists = [oracle_terms(text) for text in section_texts]
    df: Counter[str] = Counter()
    for terms in term_lists:
        df.update(set(terms))
    m = len(section_texts)
    tf: dict[str, int] = {}
    first: dict[str, int] = {}
    for pos, term in enumerate(term_lists[index]):
        if term in stopwords:
            continue
        tf[term] = tf.get(term, 0) + 1
        first.setdefault(term, pos)
    score = {t: tf[t] * (math.log((1 + m) / (1 + df[t])) + 1.0) for t in tf}
    return sorted(tf, key=lambda t: (-score[t], first[t]))[:n]
