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
TEST_EVALUATION, TEST_CLI, TEST_CORPUS = "tests/test_evaluation.py", "tests/test_cli.py", "tests/test_corpus.py"

MUTANTS = (
    # The four checks of evaluation.Setup.parse, each dropped in turn.
    Mutant("setup-takes-any-retriever", EVALUATION,
           "kind, provider_name = parse_retriever(retriever)",
           'kind, _, provider_name = retriever.partition(":")',
           (TEST_CLI,)),
    Mutant("setup-takes-any-mode", EVALUATION,
           "views = parse_mode(mode)",
           "views = _MODE_VIEWS.get(mode, (None,))",
           (TEST_CLI,)),
    Mutant("setup-skips-check-views", EVALUATION,
           "        check_views(scheme, views)\n",
           "",
           (TEST_EVALUATION,)),
    Mutant("setup-skips-check-budgets", EVALUATION,
           "budget = check_budgets(views, ks)",
           "budget = per_view_budget if len(views) > 1 else single_budget",
           (TEST_EVALUATION,)),
    # Which budget rule a mode takes: per view when it fuses several views.
    Mutant("budget-rule-always-single", EVALUATION,
           "rule = per_view_budget if len(views) > 1 else single_budget",
           "rule = single_budget",
           (TEST_EVALUATION,)),
    # Whether a setup reads a views file: only for a keyword or summary view.
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
