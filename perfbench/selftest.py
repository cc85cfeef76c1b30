"""Self-test of the benchmark at a tiny size.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs every workload at ``--size tiny``, untraced twice and traced once,
and checks that each prints a well-formed result with every metric that
BENCHMARK.json names, in its unit; that the outputs are correct; that the
output digests agree between the two untraced runs; and that the grid's
batched operations reproduce one ``eval_recall`` call per setup. It sets no
wall-clock bound. Exit code 0 means every check passed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAMES = ("grid", "query", "ingest", "llm")


def run_bench(workload: str, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_result(result: dict, expected_metrics: list[dict], label: str) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys are {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    wanted = {m["name"]: m["unit"] for m in expected_metrics}
    if set(metrics) != set(wanted):
        problems.append(f"{label}: metrics {sorted(set(metrics) ^ set(wanted))} differ from BENCHMARK.json")
    for name, unit in wanted.items():
        metric = metrics.get(name, {})
        if metric.get("unit") != unit:
            problems.append(f"{label}: {name} has unit {metric.get('unit')!r}, want {unit!r}")
        if not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{label}: {name} has no numeric value")
    return problems


def check_grid_batches() -> list[str]:
    """The batched grid gives the same CSV as one eval_recall per setup."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads
    from mcidx import evaluation

    wl = workloads.Grid(3, "tiny", ROOT / ".perfbench" / "selftest-grid")
    wl.setup()
    for i in range(wl.pass_len):
        wl.op(i)
    reports = [
        evaluation.eval_recall(wl.docs, wl.qa, scheme, retriever, mode, workloads.KS,
                               views=wl.views if scheme == "content" else None)
        for scheme, retriever, mode in wl.setups
    ]
    whole = evaluation.RecallReport.merge(reports).to_csv()
    return [] if wl.merged_report().to_csv() == whole else ["grid: batched CSV differs from whole-corpus CSV"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_grid_batches()
    for name in NAMES:
        details_a, result_a = run_bench(name, 0)
        details_b, result_b = run_bench(name, 0)
        _, traced = run_bench(name, 1)
        problems += check_result(result_a, spec["end_to_end"], f"{name} untraced")
        problems += check_result(result_b, spec["end_to_end"], f"{name} untraced (second run)")
        problems += check_result(traced, spec["per_layer"], f"{name} traced")
        if details_a["digests"] != details_b["digests"]:
            problems.append(f"{name}: digests differ between two runs of one seed")
        print(f"{name}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
