"""Independent brute-force oracles the implementation is checked against.

These deliberately re-derive everything from the definitions (dict/loop
arithmetic, position sets) and share no scoring code with the package.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import string
from collections import Counter
from fractions import Fraction


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


def oracle_recall_chars(spans: list[tuple[int, int]], scope: tuple[int, int]) -> float:
    """Share of the scope's character positions that some span covers, counted one by one."""
    covered = set()
    for start, end in spans:
        covered.update(range(start, end))
    return len(covered & set(range(*scope))) / (scope[1] - scope[0])


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


def oracle_recall(docs, qa, scheme: str, retriever: str, mode: str, ks: list[float], views, invert_parity: bool):
    """``(question_id, spans per k, recall per k)`` of each answered question, in dataset order.

    Composed from the oracles above: the raw view's units are the scheme's
    chunks, ``oracle_chunks`` or, under content, the sections under their ids;
    the keyword and summary views' units are the sections' texts in ``views``.
    ``oracle_rank`` orders them and ``oracle_recall_sum`` measures the
    (disjoint) spans. Sparse retrievers score with ``reference_loop_scores``.
    ``dense:mock`` ranks by the exact cosine of ``oracle_mock_embed`` rows of
    texts cut to 512 tokens, as the
    rational dot**2 / |row|**2; a question where units with different rows
    tie at a nonzero cosine within the budgets gets None for its spans and
    recalls, because float rounding, not position, orders such a tie. A
    question keeps its dataset position as ordinal (plus one with
    ``invert_parity``) even when its document is absent and it is skipped. A
    multi-view budget k gives every view k' units, and the union is taken
    round-robin in the order raw, keywords, summary.
    """
    view_order = {"mc": ("raw", "keywords", "summary"), "single:raw": ("raw",),
                  "single:keywords": ("keywords",), "single:summary": ("summary",)}[mode]
    kind, _, target = scheme.partition(":")

    def budget(k: float, odd: bool) -> int:
        if len(view_order) == 1:
            return (2 if odd else 1) if k == 1.5 else int(k)
        if k == 1.5:
            return 1
        if k == 3:
            return 2 if odd else 1
        if k == 5:
            return 3
        return math.ceil(2 * k / 3) if odd else math.floor(2 * k / 3)

    def cut(text: str) -> str:
        return " ".join(text.split()[:512])

    @functools.cache
    def section_spans(doc) -> dict[str, tuple[int, int]]:
        spans, pos = {}, 0
        for s in doc.sections:
            spans[s.section_id] = (pos, pos + len(s.text))
            pos += len(s.text) + 1
        return spans

    @functools.cache
    def units_of(doc, view) -> list[tuple[str, tuple[int, int], str]]:
        if view == "raw" and kind != "content":
            texts = [s.text for s in doc.sections]
            return [(cid, span, text) for cid, _, span, text in oracle_chunks(texts, kind, int(target))]
        if view == "raw":
            texts = {s.section_id: s.text for s in doc.sections}
        else:
            texts = {v.section_id: v.text for v in views[doc.doc_id] if v.view_kind.value == view}
        return [(sid, span, texts[sid]) for sid, span in section_spans(doc).items()]

    @functools.cache
    def rows_of(doc, view) -> list[tuple[int, ...]]:
        return [tuple(map(int, row)) for row in oracle_mock_embed([cut(text) for _, _, text in units_of(doc, view)])]

    def ranking(doc, view, query: str, n: int) -> list[str] | None:
        """Unit ids best first, or None if a tie float rounding orders reaches the top n."""
        units = units_of(doc, view)
        uids = [uid for uid, _, _ in units]
        if retriever != "dense:mock":
            return oracle_rank(reference_loop_scores([(uid, text) for uid, _, text in units], query, retriever),
                               uids)
        rows = rows_of(doc, view)
        q = tuple(map(int, oracle_mock_embed([cut(query)])[0]))
        keys = {}
        for uid, row in zip(uids, rows):
            dot, norm = sum(a * b for a, b in zip(row, q)), sum(a * a for a in row)
            keys[uid] = Fraction(dot * dot, norm) if norm else Fraction(0)
        order = oracle_rank(keys, uids)
        row_of = dict(zip(uids, rows))
        for uid in order[:n]:
            if keys[uid] and any(keys[other] == keys[uid] and row_of[other] != row_of[uid] for other in uids):
                return None
        return order

    docs_by_id = {doc.doc_id: doc for doc in docs}
    results = []
    for position, item in enumerate(qa):
        doc = docs_by_id.get(item.doc_id)
        if doc is None:
            continue
        odd = (position + invert_parity) % 2 == 1
        budgets = [budget(k, odd) for k in ks]
        ranked = {view: ranking(doc, view, item.question, max(budgets)) for view in view_order}
        if None in ranked.values():
            results.append((item.question_id, None, None))
            continue
        span_of = {uid: span for uid, span, _ in units_of(doc, view_order[0])}
        offset = section_spans(doc)[item.scope_section_id][0]
        scope = (offset + item.scope_span[0], offset + item.scope_span[1])
        spans_per_k = []
        for b in budgets:
            if len(view_order) == 1:
                chosen = ranked[view_order[0]][:b]
            else:
                chosen = []
                for r in range(b):
                    for view in view_order:
                        if r < len(ranked[view]) and ranked[view][r] not in chosen:
                            chosen.append(ranked[view][r])
            spans_per_k.append([span_of[uid] for uid in chosen])
        results.append((item.question_id, spans_per_k, [oracle_recall_sum(spans, scope) for spans in spans_per_k]))
    return results
