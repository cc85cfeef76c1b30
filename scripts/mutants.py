"""Mutation check: each mutant in ``MUTANTS`` must make the tests it names fail.

    python scripts/mutants.py

A mutant replaces one exact snippet of one file. Each runs in a fresh
temporary copy of the whole checkout, not of ``src/`` alone: pytest's
``pythonpath = ["src"]`` in ``pyproject.toml`` puts the copy's own ``src``
first, so the mutated package is the one the tests import. The named tests
run there with ``pytest -x -q`` and a fixed hypothesis seed, so a verdict
repeats. A mutant is killed when a test fails, and survives when all pass.

Before any mutant runs, every snippet must occur exactly once in its file,
so code that moves breaks the table loudly instead of leaving a mutant that
changes nothing, and the unmutated copy must pass every named test. A
survivor gets a test; a mutant no test can tell apart from the code says
why in ``equivalent``.

Exit status: 0 when every mutant is killed or marked equivalent, 1 when an
unmarked one survives, 2 on a table error or a failing unmutated run.
Standard library only.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Left out of each copy: version control, caches and benchmark output.
IGNORED = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__", ".perfbench", "*.egg-info")
TIMEOUT_S = 900


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the checkout
    snippet: str  # must occur exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # pytest paths that must catch the mutant
    equivalent: str | None = None  # why no test can tell it apart, if none can


EVALUATION, CORPUS = "src/mcidx/evaluation.py", "src/mcidx/corpus.py"
RETRIEVAL, FUSION, PROVIDERS = "src/mcidx/retrieval.py", "src/mcidx/fusion.py", "src/mcidx/providers.py"
CHUNKING, STORE, CLI = "src/mcidx/chunking.py", "src/mcidx/store.py", "src/mcidx/cli.py"
JSONIO, VIEWS = "src/mcidx/jsonio.py", "src/mcidx/views.py"
TEST_EVALUATION, TEST_CLI, TEST_CORPUS = "tests/test_evaluation.py", "tests/test_cli.py", "tests/test_corpus.py"
ORACLES = "tests/test_retrieval.py::TestOracleEquivalence"
BAD_TERMS = "tests/test_store.py::TestCorruptIndexRejected::test_bad_terms_file"
UNITS_AGREE = "tests/test_store.py::TestUnitsParsedAtOnce::test_agrees_with_the_per_line_parser"
REFUSALS = "tests/test_cli.py::TestRefusalsBeforeProviderCalls"

MUTANTS = (
    # The four checks of evaluation.Setup.parse, each dropped in turn; `eval` and `index` parse through it.
    Mutant("setup-takes-any-retriever", EVALUATION,
           "kind, provider_name = parse_retriever(retriever)",
           'kind, _, provider_name = retriever.partition(":")',
           (TEST_CLI,)),
    Mutant("setup-takes-any-mode", EVALUATION,
           "views = parse_mode(mode)",
           "views = _MODE_VIEWS.get(mode, (ViewKind.RAW_TEXT,))",
           (TEST_CLI,)),
    Mutant("setup-skips-check-views", EVALUATION,
           "        check_views(scheme, views)\n",
           "",
           (TEST_EVALUATION,)),
    Mutant("setup-skips-check-budgets", EVALUATION,
           "budget = check_budgets(views, ks)",
           "budget = per_view_budget if len(views) > 1 else single_budget",
           (TEST_EVALUATION,)),
    # The provider resolves only once every usage check has passed: a usage error is exit 1, not 3.
    Mutant("setup-resolves-provider-before-check-budgets", EVALUATION,
           "        budget = check_budgets(views, ks)\n"
           "        provider = resolve_provider(provider_name) if kind == DENSE else None\n",
           "        provider = resolve_provider(provider_name) if kind == DENSE else None\n"
           "        budget = check_budgets(views, ks)\n",
           ("tests/test_cli.py::TestUsageChecks::test_setup_usage_error_before_corpus_is_read",)),
    # Which budget rule a mode takes: per view when it fuses several views.
    Mutant("budget-rule-always-single", EVALUATION,
           "rule = per_view_budget if len(views) > 1 else single_budget",
           "rule = single_budget",
           (TEST_EVALUATION,)),
    # Whether a setup reads a views file, `index` included: only for a keyword or summary view.
    Mutant("setup-always-reads-views-file", EVALUATION,
           "return not VIEWS_FILE_KINDS.isdisjoint(self.views)",
           "return True",
           (TEST_CLI,)),
    # With invert_parity the first question takes ordinal 1, flipping every alternating budget.
    Mutant("invert-parity-ignored", EVALUATION,
           "enumerate(qa, start=int(invert_parity))",
           "enumerate(qa)",
           (TEST_EVALUATION,)),
    # A budget keeps the units whose best rank is within its cut, the cut included.
    Mutant("budget-cut-drops-its-last-rank", EVALUATION,
           "if rank <= b]",
           "if rank < b]",
           (TEST_EVALUATION,)),
    # corpus_stats counts every question its scope mean leaves out, not only those of absent documents.
    Mutant("skipped-counts-only-absent-documents", CORPUS,
           "n_questions_skipped=len(qa_items) - len(scope_tokens)",
           "n_questions_skipped=sum(item.doc_id not in by_id for item in qa_items)",
           (TEST_CORPUS,)),
    # A top-n cut keeps every unit scoring at least the n-th score, so ties at the cut go by position.
    # The cut is the n-th smallest negated score, at selection index n - 1.
    Mutant("top-n-cut-drops-its-ties", RETRIEVAL,
           "negated <= np.partition(negated, n - 1)[n - 1]",
           "negated < np.partition(negated, n - 1)[n - 1]",
           ("tests/test_retrieval.py::TestTopN",)),
    Mutant("top-n-selection-index-off-by-one", RETRIEVAL,
           "np.partition(negated, n - 1)",
           "np.partition(negated, n)",
           ("tests/test_retrieval.py::TestTopN",)),
    Mutant("ranking-sort-not-stable", RETRIEVAL,
           'np.argsort(negated[candidates], kind="stable")',
           "np.argsort(negated[candidates])",
           ("tests/test_retrieval.py::TestTopN",)),
    # The larger alternating budget goes to odd question ordinals.
    Mutant("per-view-budget-parity-flipped", FUSION,
           "odd = question_ordinal % 2 == 1",
           "odd = question_ordinal % 2 == 0",
           ("tests/test_fusion.py::TestPerViewBudget",)),
    Mutant("single-budget-parity-flipped", FUSION,
           "return 2 if question_ordinal % 2 == 1 else 1",
           "return 2 if question_ordinal % 2 == 0 else 1",
           ("tests/test_fusion.py::TestRetrieveSingle",)),
    # Fusion takes every view's r-th unit in round r, not one view's whole list after another.
    Mutant("fuse-view-by-view", FUSION,
           "top[r].unit_id for r in range(k_prime) for top in tops if r < len(top)",
           "top[r].unit_id for top in tops for r in range(len(top))",
           ("tests/test_fusion.py::TestRetrieveMc",)),
    # Recall sweeps spans in start order, each counting only past what earlier spans reached.
    Mutant("recall-counts-overlaps-twice", EVALUATION,
           "start, end = max(start, reach), min(end, scope_end)",
           "start, end = max(start, scope_start), min(end, scope_end)",
           ("tests/test_evaluation.py::TestRecallOfSet",)),
    # An answer scope must start inside its section.
    Mutant("scope-may-start-before-its-section", CORPUS,
           "if not 0 <= start < end <= len(section.text):",
           "if not start < end <= len(section.text):",
           ("tests/test_corpus.py::TestOneScopeResolver",)),
    # A content chunk is its section under the section's id, so the raw view joins the other views in an mc set.
    Mutant("content-chunks-under-their-own-ids", CHUNKING,
           'section_id if scheme.kind == CONTENT else f"c{n:04d}"',
           'f"c{n:04d}"',
           ("tests/test_cli.py::TestPipeline::test_index_without_view_joins_an_mc_set",)),
    # A greedy chunk closes at the first sentence boundary reaching its target, a boundary at exactly the
    # target included, and the last chunk takes what is left.
    Mutant("greedy-chunk-passes-an-exact-target", CHUNKING,
           "bisect_left(tokens, tokens[i] + target_tokens, i + 1)",
           "bisect_right(tokens, tokens[i] + target_tokens, i + 1)",
           ("tests/test_chunking.py::TestGreedyOracle",)),
    Mutant("greedy-chunk-runs-past-the-last-boundary", CHUNKING,
           "min(bisect_left(tokens, tokens[i] + target_tokens, i + 1), last)",
           "bisect_left(tokens, tokens[i] + target_tokens, i + 1)",
           ("tests/test_chunking.py::TestGreedyOracle",)),
    # The idf formulas and BM25's saturation and length normalizer, against the formula oracles.
    Mutant("smoothed-idf-loses-its-one", RETRIEVAL,
           "return math.log((1 + n) / (1 + df)) + 1.0",
           "return math.log((1 + n) / (1 + df))",
           (ORACLES,)),
    Mutant("bm25-idf-loses-its-halves", RETRIEVAL,
           "(n - df + 0.5) / (df + 0.5)",
           "(n - df) / df",
           (ORACLES,)),
    Mutant("bm25-saturation-loses-its-one", RETRIEVAL,
           "idf * tfs * (BM25_K1 + 1.0)",
           "idf * tfs * BM25_K1",
           (ORACLES,)),
    # A kept TF-IDF contribution is a term's for one query occurrence; a repeated term weighs its count.
    Mutant("tfidf-repeated-term-takes-its-single-contribution", RETRIEVAL,
           "kept if count == 1 else weight * tfs * idf",
           "kept",
           (ORACLES,)),
    Mutant("bm25-length-not-over-avgdl", RETRIEVAL,
           "BM25_B * (self.unit_lens / (self.avgdl or 1.0))",
           "BM25_B * self.unit_lens",
           (ORACLES,)),
    # Each postings check of a loaded terms file.
    Mutant("terms-unit-index-may-equal-n-units", STORE,
           "postings.max() >= n_units",
           "postings.max() > n_units",
           (BAD_TERMS,)),
    Mutant("terms-postings-may-repeat", STORE,
           "postings[1:] <= postings[:-1]",
           "postings[1:] < postings[:-1]",
           (BAD_TERMS,)),
    Mutant("terms-zero-tf-accepted", STORE,
           "if not tfs.all():",
           "if False:",
           (BAD_TERMS,)),
    Mutant("terms-row-boundaries-unmasked", STORE,
           "    not_ascending[indptr[1:-1] - 1] = False\n",
           "",
           ("tests/test_store.py::TestCorruptIndexRejected::test_next_row_may_start_below_the_last_posting",)),
    # Each guard of the one-call parse of a units or ids file, dropped in turn, lets it accept a file that the
    # per-line parser rejects.
    Mutant("units-lone-cr-accepted", STORE,
           '"\\r" in text or ',
           "",
           (UNITS_AGREE,)),
    Mutant("units-line-may-continue-a-record", STORE,
           ' or text.count("\\n{") != n_lines - 1',
           "",
           (UNITS_AGREE,)),
    Mutant("units-two-records-on-a-line", STORE,
           "len(records) != n_lines or ",
           "",
           (UNITS_AGREE,)),
    Mutant("units-record-may-nest", STORE,
           "if set(map(len, records)) != {2 if with_lens else 1}:",
           "if False:",
           (UNITS_AGREE,)),
    Mutant("terms-may-repeat", STORE,
           "if row and term <= previous:",
           "if row and term < previous:",
           (BAD_TERMS,)),
    # Embedding rows have a width of at least 1, and an mc index set comes from one retriever.
    Mutant("embed-accepts-zero-width", RETRIEVAL,
           "block.shape[0] != len(batch) or not block.shape[1]",
           "block.shape[0] != len(batch)",
           ("tests/test_retrieval.py::TestEmbed",)),
    # Embedding values are finite, and a reply read after its deadline fails before it reads.
    Mutant("embed-accepts-non-finite", RETRIEVAL,
           "if not np.isfinite(block).all():",
           "if False:",
           ("tests/test_retrieval.py::TestEmbed",)),
    Mutant("deadline-never-expires", PROVIDERS,
           "if left <= 0:",
           "if False:",
           ("tests/test_providers.py::TestDeadline::test_read_after_the_deadline_times_out_without_reading",)),
    # `index --view V` builds the setup single:V.
    Mutant("index-ignores-its-view", CLI,
           'f"single:{args.view}"',
           '"single:raw"',
           (TEST_CLI,)),
    Mutant("mc-set-of-any-retrievers", CLI,
           "if retriever != retrievers[0]:",
           "if False:",
           ("tests/test_cli.py::TestExitCodes",)),
    # Every refusal comes before the first provider call: outputs are opened, and a views file is checked for
    # every questioned document, before any work. Each mutant moves one refusal back behind the work.
    Mutant("eval-recall-opens-its-outputs-after-the-report", CLI,
           "    with _open_output(args.output) as csv_out:\n"
           "        with contextlib.nullcontext() if args.markdown is None else "
           "atomic_text_writer(args.markdown) as table:\n"
           "            docs = load_corpus_jsonl(args.corpus)\n"
           "            qa = load_and_filter_qa(args.qa, docs)\n"
           "            report = eval_recall(docs, qa, args.scheme, args.retriever, args.mode, args.k,\n"
           "                                 views=_load_views_arg(args, setup.reads_views_file),\n"
           "                                 invert_parity=args.invert_parity)\n",
           "    docs = load_corpus_jsonl(args.corpus)\n"
           "    qa = load_and_filter_qa(args.qa, docs)\n"
           "    report = eval_recall(docs, qa, args.scheme, args.retriever, args.mode, args.k,\n"
           "                         views=_load_views_arg(args, setup.reads_views_file),\n"
           "                         invert_parity=args.invert_parity)\n"
           "    with _open_output(args.output) as csv_out:\n"
           "        with contextlib.nullcontext() if args.markdown is None else "
           "atomic_text_writer(args.markdown) as table:\n",
           (REFUSALS,)),
    Mutant("chunking-error-opens-its-output-after-chunking", CLI,
           "    with _open_output(args.output) as out:\n"
           "        docs = load_corpus_jsonl(args.corpus)\n"
           "        qa = load_and_filter_qa(args.qa, docs)\n"
           "        lines = [\"scheme,n_scopes,n_split,error_rate\"]\n"
           "        for spec, scheme in schemes:\n"
           "            report = chunking_error(docs, qa, scheme)\n",
           "    docs = load_corpus_jsonl(args.corpus)\n"
           "    qa = load_and_filter_qa(args.qa, docs)\n"
           "    reports = [chunking_error(docs, qa, scheme) for _, scheme in schemes]\n"
           "    with _open_output(args.output) as out:\n"
           "        lines = [\"scheme,n_scopes,n_split,error_rate\"]\n"
           "        for (spec, scheme), report in zip(schemes, reports):\n",
           ("tests/test_cli.py::TestOutputBeforeWork::test_chunking_error_refuses_its_output_before_chunking",)),
    Mutant("index-output-made-only-at-the-save", STORE,
           "        directory.mkdir(parents=True)\n        directory.rmdir()\n",
           "",
           (REFUSALS,)),
    Mutant("views-checked-only-at-each-document", EVALUATION,
           "for doc in (by_id[doc_id] for doc_id in questions_left if doc_id in by_id and views is not None):",
           "for doc in ():",
           (REFUSALS,)),
    # The check is made by the call, not by the first draw: eval answers draws setup a's first question
    # before setup b's.
    Mutant("views-checked-at-the-first-draw", EVALUATION,
           "    return spans()\n",
           "    yield from spans()\n",
           (REFUSALS,)),
    # Two writers open on one path in one process each write their own temporary file.
    Mutant("one-temporary-file-per-path", JSONIO,
           ".{os.getpid()}.{next(_tmp_serial)}.tmp",
           ".{os.getpid()}.tmp",
           ("tests/test_jsonio.py::test_two_writers_open_on_one_path",
            "tests/test_cli.py::TestPipeline::test_eval_recall_output_and_markdown_on_one_path")),
    # A section of exactly SUMMARY_TOKEN_THRESHOLD tokens is its own summary.
    Mutant("summary-at-the-threshold", VIEWS,
           "return section.token_count > SUMMARY_TOKEN_THRESHOLD",
           "return section.token_count >= SUMMARY_TOKEN_THRESHOLD",
           ("tests/test_views.py::TestBuildViews",)),
    # A heading's level is its number of hashes, not the length of its text.
    Mutant("heading-level-from-its-text", CORPUS,
           "len(match.group(1))",
           "len(match.group(2))",
           ("tests/test_corpus.py::TestParseMarkdown",)),
    # Retries wait BACKOFF_S, then twice and four times as long.
    Mutant("backoff-starts-at-twice-its-base", PROVIDERS,
           "2 ** (attempt - 1)",
           "2 ** attempt",
           ("tests/test_providers.py::TestHttpLlmClient::test_backoff_doubles_from_half_a_second",)),
    # The keyword prompt asks for at most 512 tokens, not the client's default of 1024.
    Mutant("keywords-prompt-takes-the-default-max-tokens", VIEWS,
           "section_text=section.text), max_tokens=512)\n    return _parse_keyword_list(raw)",
           "section_text=section.text))\n    return _parse_keyword_list(raw)",
           ("tests/test_views.py::TestBuildViews::test_llm_summarizes_only_past_the_threshold",)),
    # A manifest's n_units and dim may equal their minimum of 1.
    Mutant("manifest-count-must-exceed-its-minimum", STORE,
           "value < minimum",
           "value <= minimum",
           ("tests/test_store.py::TestSmallestRoundTrip",)),
)


def run_tests(checkout: Path, tests: tuple[str, ...]) -> tuple[int | None, float]:
    """Pytest's exit code over ``tests`` in ``checkout`` (None on timeout) and the seconds taken."""
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
    start = time.perf_counter()
    try:
        code = subprocess.run(argv, cwd=checkout, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = None
    return code, time.perf_counter() - start


def copy_checkout(tmp: Path, mutant: Mutant | None = None) -> Path:
    """A fresh copy of the checkout under ``tmp``, with ``mutant`` applied."""
    checkout = Path(tempfile.mkdtemp(dir=tmp))
    shutil.copytree(ROOT, checkout, ignore=IGNORED, dirs_exist_ok=True)
    if mutant is not None:
        target = checkout / mutant.path
        target.write_text(target.read_text(encoding="utf-8").replace(mutant.snippet, mutant.replacement),
                          encoding="utf-8")
    return checkout


def main() -> int:
    errors = []
    for mutant in MUTANTS:
        count = (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.snippet)
        if count != 1:
            errors.append(f"{mutant.name}: snippet occurs {count} times in {mutant.path}, not once")
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 2
    start = time.perf_counter()
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        code, seconds = run_tests(copy_checkout(Path(tmp)), tests)
        print(f"{'unmutated':<10} {seconds:6.1f}s  {' '.join(tests)}", flush=True)
        if code != 0:
            print(f"the unmutated checkout fails its tests (pytest exit {code})", file=sys.stderr)
            return 2
        for mutant in MUTANTS:
            code, seconds = run_tests(copy_checkout(Path(tmp), mutant), mutant.tests)
            if code not in (0, 1, None):
                print(f"{mutant.name}: pytest exit {code}; the mutant does not run its tests", file=sys.stderr)
                return 2
            verdict = "survived" if code == 0 else "killed" if code == 1 else "timed out"
            note = f"  (equivalent: {mutant.equivalent})" if mutant.equivalent else ""
            print(f"{verdict:<10} {seconds:6.1f}s  {mutant.name}{note}", flush=True)
            if code == 0 and not mutant.equivalent:
                survivors.append(mutant.name)
    print(f"{len(MUTANTS)} mutants, {len(survivors)} unmarked survivors, {time.perf_counter() - start:.0f}s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
