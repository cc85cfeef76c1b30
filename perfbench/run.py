"""mcidx benchmark: the grid, query, ingest and llm workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 7     # all four, each in a fresh child process

It imports mcidx from ``src/`` of the checkout it sits in, and from nowhere
else. ``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` runs one untraced and one traced pass of the same work, prints
the per-layer metrics with the tracing overhead, and writes the spans under
``.perfbench/``. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds run metadata, the workload's own named metrics, sample counts and
output digests. Exit code 0 means a result was printed, even an incorrect
one; any other code means no result.
"""

from __future__ import annotations

import os

# Fixed before numpy is first imported (through mcidx). One BLAS thread keeps
# the dense matrix-vector products steady and is at or below nproc anywhere.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAMES = ("grid", "query", "ingest", "llm")
CHILD_TIMEOUT_S = 900

# The machine may be shared: for seconds at a time other tenants slow every
# core by 10-30%, which moved whole-run figures by as much between identical
# runs. So a fixed pure-Python loop (dict counting and a sort, like mcidx's
# own hot paths) is timed before and after every segment of operations and
# every set-up, and those times are scaled by CALIBRATION_NOMINAL_S over the
# mean of the two loop times. Time metrics thus read as on a host where the
# loop takes 10 ms; the raw loop times are reported in the details line.
CALIBRATION_NOMINAL_S = 0.010
_CALIBRATION_WORDS = [f"w{(i * 7919) % 5000}" for i in range(40000)]

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def import_program():
    """Import mcidx from this checkout's src/, or fail."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mcidx

    if Path(mcidx.__file__).resolve().parent != src.resolve() / "mcidx":
        raise ImportError(f"mcidx resolved to {mcidx.__file__}, not to {src}")
    return mcidx


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(mcidx, wl, seed, size) -> dict:
    import numpy
    import requests

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "requests": requests.__version__,
        "mcidx": getattr(mcidx, "__version__", "unknown"),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "seed": seed,
        "size": size,
        "corpus": wl.corpus_size(),
        "clients": 1,
    }


def calibrate() -> float:
    """Seconds the fixed calibration loop takes right now (best of two)."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        counts: dict[str, int] = {}
        for word in _CALIBRATION_WORDS:
            counts[word] = counts.get(word, 0) + 1
        sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        best = min(best, time.perf_counter() - start)
    return best


def drive(wl, seconds: float, calibrations: list[float], tracer=None):
    """Run operations until ``seconds`` passed and the checked work is done.

    Returns the samples with their times corrected for host speed.
    """
    from workloads import Sample

    samples, segment = [], []
    before = calibrate()
    calibrations.append(before)
    start = time.perf_counter()
    i = 0
    while not (i % wl.stop_every == 0 and i >= wl.min_ops and time.perf_counter() - start >= seconds):
        if tracer is not None:
            tracer.request = f"{wl.name}-{i}"
        try:
            segment.append(wl.op(i))
        except Exception:
            traceback.print_exc()
            segment.append(Sample("error", 0.0, 0, False))
        i += 1
        if i % wl.segment == 0:
            after = calibrate()
            calibrations.append(after)
            scale = 2 * CALIBRATION_NOMINAL_S / (before + after)
            samples.extend(replace(s, seconds=s.seconds * scale) for s in segment)
            segment, before = [], after
    return samples


def verify(wl, seed, size):
    """Digests and invariants of the first pass: (attempted, failed, report)."""
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    digests, problems = wl.check()
    recorded = expected["digests"][wl.name] if (seed, size) == (expected["seed"], expected["size"]) else {}
    mismatched = sorted(k for k, v in recorded.items() if digests.get(k) != v)
    for problem in problems + [f"digest {k} differs from the recorded one" for k in mismatched]:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = 1 + len(recorded)
    failed = (1 if problems else 0) + len(mismatched)
    return attempted, failed, {"digests": digests, "digests_checked": sorted(recorded),
                               "problems": problems[:20]}


def run_untraced(wl, seconds, repeats, calibrations):
    setup_times = []
    for _ in range(repeats):
        if setup_times:
            wl.close()
        before = calibrate()
        start = time.perf_counter()
        wl.setup()
        elapsed = time.perf_counter() - start
        after = calibrate()
        calibrations.extend((before, after))
        setup_times.append(elapsed * 2 * CALIBRATION_NOMINAL_S / (before + after))
    return setup_times, drive(wl, seconds, calibrations)


def run_workload(name, seed, size, seconds, trace):
    mcidx = import_program()
    import tracing
    import workloads

    cls = workloads.WORKLOADS[name]
    work = ROOT / ".perfbench" / f"work-{name}-{os.getpid()}"
    wl = cls(seed, size, work / "untraced")
    traced_wl = None
    try:
        wl.workdir.mkdir(parents=True, exist_ok=True)
        calibrations = []
        setup_times, samples = run_untraced(wl, 0 if trace else seconds,
                                            1 if trace else wl.setup_repeats, calibrations)
        ok = [s for s in samples if s.ok]
        attempted, failed, report = verify(wl, seed, size)
        attempted += len(samples)
        failed += len(samples) - len(ok)
        figures = wl.figures(ok)
        details = {
            "workload": name,
            "trace": trace,
            "meta": metadata(mcidx, wl, seed, size),
            "setup_s_samples": setup_times,
            "calibration_ms": {"median": 1000.0 * statistics.median(calibrations),
                               "min": 1000.0 * min(calibrations), "max": 1000.0 * max(calibrations),
                               "count": len(calibrations)},
            "samples": figures["samples"],
            "named": {k: {"value": v, "unit": u} for k, (v, u) in figures["named"].items()},
            **report,
        }
        if not trace:
            values = {
                "setup_s": statistics.median(setup_times),
                "ops_per_s": figures["ops_per_s"],
                "op_p50_ms": figures["op_p50_ms"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
        else:
            wl.close()
            base_seconds = sum(s.seconds for s in samples)
            traced_wl = cls(seed, size, work / "traced")
            traced_wl.workdir.mkdir(parents=True, exist_ok=True)
            tracer = tracing.Tracer()
            tracer.install(tracing.POINTS)
            try:
                tracer.request = f"{name}-setup"
                traced_wl.setup()
                traced = drive(traced_wl, 0, calibrations, tracer)
            finally:
                tracer.uninstall()
            more_attempted, more_failed, traced_report = verify(traced_wl, seed, size)
            if traced_report["digests"] != report["digests"]:
                print("check failed: traced digests differ from untraced ones", file=sys.stderr)
                more_failed += 1
            attempted += more_attempted + 1 + len(traced)
            failed += more_failed + sum(1 for s in traced if not s.ok)
            overhead = sum(s.seconds for s in traced) / base_seconds - 1.0
            conns = traced_wl.conns_per_call() if hasattr(traced_wl, "conns_per_call") else 0.0
            layer = tracing.per_layer_metrics(tracer.spans, conns, overhead)
            metrics = {k: {"value": layer[k], "unit": unit} for k, unit in tracing.PER_LAYER}
            spans_file = tracing.spans_path(ROOT, name, seed)
            tracer.write(spans_file)
            details["spans"] = {"file": str(spans_file.relative_to(ROOT)), "count": len(tracer.spans)}
            details["trace_overhead_frac"] = overhead
    finally:
        wl.close()
        if traced_wl is not None:
            traced_wl.close()
        shutil.rmtree(work, ignore_errors=True)
    details["ops_failed_frac"] = failed / attempted
    return details, {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in a fresh child process, so memory and caches stay per workload."""
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        print(json.dumps({"workload": name, **result}))
        final["correct"] = final["correct"] and result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        final["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(final))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="mcidx benchmark")
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the self-test's size")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    try:
        details, result = run_workload(args.workload, args.seed, args.size, args.seconds, args.trace)
    except Exception:
        traceback.print_exc()
        print(f"workload {args.workload} could not run", file=sys.stderr)
        return 2
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
