"""Multi-view content-aware indexing and retrieval evaluation.

Structured documents are chunked at their smallest heading-delimited
divisions; each section is represented in raw-text, keyword, and summary
views; retrieval fuses the per-view top results by deduplicated round-robin
union; evaluation measures answer-scope recall, chunking error, and pairwise
answer quality.
"""

from .chunking import (
    Chunk,
    ChunkScheme,
    ChunkingErrorReport,
    chunk_document,
    chunking_error,
)
from .corpus import (
    CorpusStats,
    Document,
    QAItem,
    QuestionType,
    Section,
    build_document,
    corpus_stats,
    load_and_filter_qa,
    load_corpus_jsonl,
    parse_markdown,
)
from .errors import McIndexError
from .evaluation import (
    JudgeOutcome,
    RecallReport,
    Winner,
    eval_recall,
    generate_answer,
    judge_outcome,
    judge_pairwise,
    recall_of_set,
)
from .fusion import FusedResult, per_view_budget, retrieve_mc, retrieve_single
from .providers import HttpEmbeddingProvider, HttpLlmClient, LlmClient, MockEmbeddingProvider
from .retrieval import (
    DenseIndex,
    ScoredUnit,
    SparseIndex,
    build_dense_index,
    build_sparse_index,
    embed,
)
from .store import load_index, save_index
from .synthetic import complementarity_fixture, synthetic_corpus
from .text import token_count
from .views import (
    Provenance,
    ViewEntry,
    ViewKind,
    build_views,
    extractive_summary,
    generate_keywords,
    generate_summary,
)

__version__ = "0.1.0"
