"""Command-line surface wiring the pipeline into reproducible runs.

Exit codes: 0 success, 1 usage error, 2 data error, 3 provider error. All
diagnostics go to stderr; data goes to files or stdout. Every run with the
extractive generator and the mock embedding provider is fully offline and
byte-for-byte reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from .chunking import ChunkScheme, chunk_document, chunking_error, write_chunks_jsonl
from .corpus import (
    corpus_stats,
    load_and_filter_qa,
    load_corpus_jsonl,
    parse_markdown,
    write_corpus_jsonl,
)
from .errors import DataError, DuplicateId, McIndexError, ProviderError, ViewMismatch
from .evaluation import (
    VIEWS_FILE_KINDS,
    Setup,
    check_budgets,
    check_views,
    doc_units,
    doc_views_for,
    eval_recall,
    generate_answer,
    judge_pairwise,
    parse_mode,
    retrieved_spans,
)
from .fusion import retrieve_mc, retrieve_single
from .jsonio import atomic_text_writer, write_jsonl
from .providers import HttpLlmClient
from .retrieval import DENSE, build_dense_index, build_sparse_index, parse_retriever, resolve_provider
from .store import check_replaceable, load_index, save_index
from .views import (
    DEFAULT_JOBS,
    EXTRACTIVE_GENERATOR,
    LLM_GENERATOR,
    ViewKind,
    build_views,
    read_views_jsonl,
    write_views_jsonl,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROVIDER = 3


def parse_k_list(spec: str) -> tuple[float, ...]:
    """The numbers of a comma-separated ``--k`` value; ``check_budgets`` says which budgets are valid."""
    try:
        return tuple(map(float, spec.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{spec!r} is not a comma-separated list of numbers") from None


def parse_k(spec: str) -> float:
    """The budget of a ``--k`` value that takes exactly one."""
    ks = parse_k_list(spec)
    if len(ks) != 1:
        raise argparse.ArgumentTypeError(f"{spec!r} lists {len(ks)} budgets; this command takes one")
    return ks[0]


def _open_output(path: str | None) -> contextlib.AbstractContextManager:
    """The file ``path``, replaced atomically on success with its parent directories created, or stdout without one."""
    return contextlib.nullcontext(sys.stdout) if path is None else atomic_text_writer(path)


def _load_views_arg(args, wanted: bool) -> dict | None:
    return read_views_jsonl(args.views) if args.views and wanted else None


def cmd_ingest(args) -> int:
    docs = {}
    for path in map(Path, args.inputs):
        try:
            path.stem.encode("utf-8")
        except UnicodeEncodeError:
            # The stem becomes the document id. Show the name's raw bytes, escaped.
            shown = os.fsencode(path).decode("utf-8", "backslashreplace")
            raise DataError("file name is not valid UTF-8", path=shown) from None
        if path.stem in docs:
            raise DuplicateId(f"document id {path.stem!r} repeated", path=path)
        try:
            docs[path.stem] = parse_markdown(path.read_text(encoding="utf-8"), doc_id=path.stem)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text: {exc.reason}") from exc
        except DataError as exc:
            exc.path = path
            raise
    write_corpus_jsonl(list(docs.values()), args.output)
    logger.info("wrote %d documents to %s", len(docs), args.output)
    return EXIT_OK


def cmd_chunk(args) -> int:
    scheme = ChunkScheme.parse(args.scheme)
    docs = load_corpus_jsonl(args.corpus)
    n_chunks = write_chunks_jsonl((c for doc in docs for c in chunk_document(doc, scheme)), args.output)
    logger.info("wrote %d chunks to %s", n_chunks, args.output)
    return EXIT_OK


def cmd_views(args) -> int:
    llm = HttpLlmClient.from_env() if args.generator == LLM_GENERATOR else None
    docs = load_corpus_jsonl(args.corpus)
    write_views_jsonl(((doc.doc_id, build_views(doc, generator=args.generator, llm=llm, jobs=args.jobs))
                       for doc in docs), args.output)
    logger.info("wrote views for %d documents to %s", len(docs), args.output)
    return EXIT_OK


def cmd_index(args) -> int:
    scheme = ChunkScheme.parse(args.scheme)
    kind, provider_name = parse_retriever(args.retriever)
    view = ViewKind(args.view)
    check_views(scheme, (view,))
    provider = resolve_provider(provider_name) if kind == DENSE else None
    check_replaceable(args.output)
    docs = load_corpus_jsonl(args.corpus)
    reads_views = view in VIEWS_FILE_KINDS
    views_by_doc = _load_views_arg(args, reads_views)
    units = []
    for doc in docs:
        doc_views = doc_views_for(doc, views_by_doc) if reads_views else None
        # Unit ids are doc-qualified so one index can hold the whole corpus.
        units.extend((f"{doc.doc_id}#{uid}", text) for uid, _, text, _ in doc_units(doc, scheme, view, doc_views))
    index = build_dense_index(units, provider) if kind == DENSE else build_sparse_index(units, kind)
    save_index(index, args.output)
    logger.info("saved %s index of %d units to %s", args.retriever, len(units), args.output)
    return EXIT_OK


def cmd_retrieve(args) -> int:
    views = parse_mode(args.mode)
    if len(args.index) != len(views):
        raise ValueError(f"--mode {args.mode} needs one --index directory per view ({len(views)}), "
                         f"got {len(args.index)}")
    check_budgets(views, [args.k])
    indexes = [load_index(d) for d in args.index]
    # Checked once where the view indexes meet; fusion relies on it.
    retrievers = [f"{DENSE}:{index.provider}" if index.kind == DENSE else index.kind for index in indexes]
    for directory, retriever in zip(args.index, retrievers):
        if retriever != retrievers[0]:
            raise ViewMismatch(f"a {retriever} index, but {args.index[0]} is a {retrievers[0]} index; "
                               "an mc index set comes from one retriever", path=directory)
    if len({frozenset(index.unit_ids) for index in indexes}) > 1:
        raise ViewMismatch("view indexes cover different unit id sets")
    provider = resolve_provider(indexes[0].provider) if indexes[0].kind == DENSE else None
    if len(views) > 1:
        fused = retrieve_mc(dict(zip(views, indexes)), args.question, args.k, args.ordinal, provider)
        for pos, unit in enumerate(fused.units, start=1):
            print(json.dumps({
                "unit_id": unit.unit_id,
                "position": pos,
                "views": sorted(v.value for v in unit.view_ranks),
                "view_ranks": {v.value: r for v, r in unit.view_ranks.items()},
            }))
    else:
        scored = retrieve_single(indexes[0], args.question, args.k, args.ordinal, provider)
        for unit in scored:
            print(json.dumps({"unit_id": unit.unit_id, "score": unit.score, "rank": unit.rank}))
    return EXIT_OK


def cmd_eval_recall(args) -> int:
    setup = Setup.parse(args.scheme, args.retriever, args.mode, args.k)
    # The CSV is written once the table is in place, so --output X --markdown X leaves the CSV in X.
    with _open_output(args.output) as csv_out:
        with contextlib.nullcontext() if args.markdown is None else atomic_text_writer(args.markdown) as table:
            docs = load_corpus_jsonl(args.corpus)
            qa = load_and_filter_qa(args.qa, docs)
            report = eval_recall(docs, qa, args.scheme, args.retriever, args.mode, args.k,
                                 views=_load_views_arg(args, setup.reads_views_file),
                                 invert_parity=args.invert_parity)
            if table is not None:
                table.write(report.to_markdown())
        csv_out.write(report.to_csv())
    return EXIT_OK


def cmd_eval_chunking_error(args) -> int:
    schemes = [(spec, ChunkScheme.parse(spec)) for spec in args.scheme]
    with _open_output(args.output) as out:
        docs = load_corpus_jsonl(args.corpus)
        qa = load_and_filter_qa(args.qa, docs)
        lines = ["scheme,n_scopes,n_split,error_rate"]
        for spec, scheme in schemes:
            report = chunking_error(docs, qa, scheme)
            lines.append(f"{spec},{report.n_scopes},{report.n_split},{report.error_rate:.6f}")
        out.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_eval_answers(args) -> int:
    setups = [Setup.parse(scheme, args.retriever, mode, [args.k])
              for scheme, mode in ((args.scheme_a, args.mode_a), (args.scheme_b, args.mode_b))]
    llm = HttpLlmClient.from_env()
    docs = load_corpus_jsonl(args.corpus)
    qa = load_and_filter_qa(args.qa, docs)
    views_by_doc = _load_views_arg(args, any(setup.reads_views_file for setup in setups))
    side_a, side_b = (retrieved_spans(docs, qa, setup, views_by_doc) for setup in setups)
    tallies = {"score_based": {"a": 0, "b": 0, "tie": 0}, "round_based": {"a": 0, "b": 0, "tie": 0}}

    def transcripts():
        for (item, doc, (spans_a,)), (_, _, (spans_b,)) in zip(side_a, side_b):
            answer_a, answer_b = (generate_answer(item.question, [doc.full_text[slice(*span)] for span in spans], llm)
                                  for spans in (spans_a, spans_b))
            outcome = judge_pairwise(item.question, item.answer, answer_a, answer_b, llm)
            tallies["score_based"][outcome.score_based.value] += 1
            tallies["round_based"][outcome.round_based.value] += 1
            yield {
                "question_id": item.question_id,
                "answer_a": answer_a,
                "answer_b": answer_b,
                "scores": list(outcome.scores),
                "score_based": outcome.score_based.value,
                "round_based": outcome.round_based.value,
                "judge_round1": outcome.raw_round1,
                "judge_round2": outcome.raw_round2,
            }

    # Each transcript is written as it is judged, into the output opened before the first request.
    n_questions = write_jsonl(args.output, transcripts())
    print(json.dumps({"n_questions": n_questions, **tallies}))
    return EXIT_OK


def cmd_stats(args) -> int:
    docs = load_corpus_jsonl(args.corpus)
    qa = load_and_filter_qa(args.qa, docs) if args.qa else []
    print(json.dumps(dataclasses.asdict(corpus_stats(docs, qa))))
    return EXIT_OK


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcidx",
        description="Multi-view content-aware indexing and retrieval evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The inputs several commands share, each declared once.
    corpus = argparse.ArgumentParser(add_help=False)
    corpus.add_argument("--corpus", required=True)
    qa = argparse.ArgumentParser(add_help=False)
    qa.add_argument("--qa", required=True)
    views = argparse.ArgumentParser(add_help=False)
    views.add_argument("--views", help="views.jsonl of keyword and summary texts, read only when the command "
                                       "indexes a keyword or summary view")

    p = sub.add_parser("ingest", help="parse markdown files into corpus JSONL")
    p.add_argument("inputs", nargs="+", help="markdown files (doc_id = file stem)")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("chunk", parents=[corpus], help="chunk a corpus under one scheme")
    p.add_argument("--scheme", required=True, help="content | flc:<N> | flc-content:<N>")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_chunk)

    p = sub.add_parser("views", parents=[corpus], help="generate raw/keywords/summary views per section")
    p.add_argument("--generator", choices=(LLM_GENERATOR, EXTRACTIVE_GENERATOR),
                   default=EXTRACTIVE_GENERATOR)
    p.add_argument("--output", required=True)
    p.add_argument("--jobs", type=_at_least_one, default=DEFAULT_JOBS,
                   help="worker pool size for provider calls (default: %(default)s)")
    p.set_defaults(func=cmd_views)

    p = sub.add_parser("index", parents=[corpus, views], help="build and save one index over the corpus")
    p.add_argument("--scheme", required=True)
    p.add_argument("--retriever", required=True, help="tfidf | bm25 | dense:<provider>")
    p.add_argument("--view", choices=[view.value for view in ViewKind], default=ViewKind.RAW_TEXT.value,
                   help="raw, the scheme's chunks (the default), or keywords or summary (content scheme only)")
    p.add_argument("--output", required=True, help="index directory")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("retrieve", help="rank units for one ad-hoc question")
    p.add_argument("--index", nargs="+", required=True,
                   help="index directory (three for --mode mc: raw keywords summary)")
    p.add_argument("--mode", default="single:raw", help="mc | single:<raw|keywords|summary>")
    p.add_argument("--question", required=True)
    p.add_argument("--k", type=parse_k, default="5")
    p.add_argument("--ordinal", type=int, default=0, help="question ordinal for budget alternation")
    p.set_defaults(func=cmd_retrieve)

    p_eval = sub.add_parser("eval", help="evaluation harness")
    eval_sub = p_eval.add_subparsers(dest="eval_command", required=True)

    p = eval_sub.add_parser("recall", parents=[corpus, qa, views], help="answer-scope recall per budget k")
    p.add_argument("--scheme", required=True)
    p.add_argument("--retriever", required=True)
    p.add_argument("--mode", required=True)
    p.add_argument("--k", type=parse_k_list, required=True, help="comma-separated budgets, e.g. 1.5,3,5,10")
    p.add_argument("--invert-parity", action="store_true",
                   help="give even ordinals the larger alternating budget")
    p.add_argument("--output", default=None, help="CSV path (default: stdout)")
    p.add_argument("--markdown", default=None, help="also write a markdown table here")
    p.set_defaults(func=cmd_eval_recall)

    p = eval_sub.add_parser("chunking-error", parents=[corpus, qa], help="fraction of split answer scopes")
    p.add_argument("--scheme", required=True, nargs="+")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_eval_chunking_error)

    p = eval_sub.add_parser("answers", parents=[corpus, qa, views], help="generate and judge answers for two setups")
    p.add_argument("--retriever", required=True)
    p.add_argument("--k", type=parse_k, default="5")
    p.add_argument("--scheme-a", required=True)
    p.add_argument("--mode-a", required=True)
    p.add_argument("--scheme-b", required=True)
    p.add_argument("--mode-b", required=True)
    p.add_argument("--output", required=True, help="transcripts JSONL")
    p.add_argument("--jobs", type=_at_least_one, default=DEFAULT_JOBS,
                   help="accepted and unused: requests are sent one at a time")
    p.set_defaults(func=cmd_eval_answers)

    p = sub.add_parser("stats", parents=[corpus], help="corpus statistics as JSON")
    p.add_argument("--qa", default=None)
    p.set_defaults(func=cmd_stats)

    return parser


def run(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except ProviderError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except OSError as exc:
        # A failed os.replace names its source, then its target: the file the user named.
        name = exc.filename2 or exc.filename
        print(f"data error: {name}: {exc.strerror}" if name else f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except McIndexError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
