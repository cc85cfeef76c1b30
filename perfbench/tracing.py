"""Spans around calls into mcidx layers, and the per-layer metrics they give.

The traced run wraps public functions of mcidx where the calling modules
imported them (``mcidx.evaluation.build_sparse_index``,
``mcidx.fusion.rank_units``, ``mcidx.cli.load_index``, ...), records one span
per call and derives every per-layer metric from those spans after the run.
Nothing inside ``src/`` is changed, and the untraced run patches nothing.
A patch point whose function no longer exists is skipped, so its metrics
read 0 instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time
from pathlib import Path


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "meta")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.meta = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "request": self.request, **self.meta}


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request: str | None = None
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, meta=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # A pool thread with no open span belongs to whatever the main
            # thread is waiting in (views --generator llm fans out this way).
            parent = stack[-1] if stack else (tracer._main_stack[-1] if tracer._main_stack else None)
            span = Span(name, time.perf_counter(), parent, tracer.request)
            tracer.spans.append(span)
            stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.meta["failed"] = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if meta is not None:
                span.meta.update(meta(args, kwargs, result))
            return result

        return traced

    def install(self, points) -> None:
        for name, target, meta in points:
            module_name, _, path = target.partition(":")
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                continue
            wrapped = self.wrap(name, original, meta)
            if owner_path:
                self._set(owner, attr, wrapped)
                continue
            # A module-level function is patched in every mcidx module that
            # imported it, because callers look it up in their own globals.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "mcidx" or mod_name.startswith("mcidx."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.to_dict(i)) + "\n")


def _dir_bytes(directory) -> int:
    return sum(f.stat().st_size for f in Path(directory).iterdir() if f.is_file())


def _views_meta(args, kwargs, result):
    generator = kwargs.get("generator", args[1] if len(args) > 1 else "extractive")
    return {"generator": generator, "sections": len(args[0].sections)}


def _index_kind(index) -> str:
    return "dense" if hasattr(index, "matrix") else index.kind


def _mc_meta(args, kwargs, result):
    view_indexes = args[0]
    used = sum(min(result.k_prime, len(index.unit_ids)) for index in view_indexes.values())
    return {"used": used, "fused": len(result.units), "budget": 3 * result.k_prime}


def _eval_recall_meta(args, kwargs, result):
    docs, qa = args[0], args[1]
    ids = set(docs) if isinstance(docs, dict) else {d.doc_id for d in docs}
    return {"questions": sum(1 for item in qa if item.doc_id in ids)}


# (span name, "module:attribute[.attribute]", meta function or None)
POINTS = (
    ("cli.views", "mcidx.cli:cmd_views", None),
    ("cli.index", "mcidx.cli:cmd_index", None),
    ("cli.retrieve", "mcidx.cli:cmd_retrieve", None),
    ("cli.eval_answers", "mcidx.cli:cmd_eval_answers", None),
    ("corpus.load", "mcidx.corpus:load_corpus_jsonl", None),
    ("chunking.chunk", "mcidx.chunking:chunk_document", None),
    ("views.build", "mcidx.views:build_views", _views_meta),
    ("retrieval.build", "mcidx.retrieval:build_sparse_index",
     lambda a, k, r: {"units": len(r.unit_ids)}),
    ("retrieval.build", "mcidx.retrieval:build_dense_index",
     lambda a, k, r: {"units": len(r.unit_ids)}),
    ("retrieval.rank", "mcidx.retrieval:rank_units",
     lambda a, k, r: {"kind": _index_kind(a[0]), "scored": len(r)}),
    ("fusion.single", "mcidx.fusion:retrieve_single", lambda a, k, r: {"used": len(r)}),
    ("fusion.mc", "mcidx.fusion:retrieve_mc", _mc_meta),
    ("evaluation.eval_recall", "mcidx.evaluation:eval_recall", _eval_recall_meta),
    ("evaluation.context", "mcidx.evaluation:build_doc_context", None),
    ("evaluation.recall", "mcidx.evaluation:recall_of_set", None),
    ("store.save", "mcidx.store:save_index", lambda a, k, r: {"bytes": _dir_bytes(a[1])}),
    ("store.load", "mcidx.store:load_index", None),
    ("providers.llm", "mcidx.providers:HttpLlmClient.generate", None),
    ("providers.http_post", "mcidx.providers:requests.post", None),
    ("providers.embed", "mcidx.providers:MockEmbeddingProvider.embed",
     lambda a, k, r: {"texts": len(a[1])}),
)

# Every per-layer metric with its unit, in report order.
PER_LAYER = (
    ("cli.views_s", "s"), ("cli.views_self_s", "s"),
    ("cli.index_s", "s"), ("cli.index_self_s", "s"),
    ("cli.retrieve_s", "s"), ("cli.retrieve_self_s", "s"),
    ("cli.eval_answers_s", "s"), ("cli.eval_answers_self_s", "s"),
    ("corpus.load_s", "s"), ("corpus.loads", "count"),
    ("chunking.chunk_s", "s"), ("chunking.calls", "count"),
    ("views.extractive_s", "s"), ("views.sections", "count"), ("views.llm_s", "s"),
    ("retrieval.build_s", "s"), ("retrieval.builds", "count"), ("retrieval.units_indexed", "count"),
    ("retrieval.rank_tfidf_ms_p50", "ms"), ("retrieval.rank_bm25_ms_p50", "ms"),
    ("retrieval.rank_dense_ms_p50", "ms"), ("retrieval.rank_calls", "count"),
    ("retrieval.units_scored", "count"), ("retrieval.units_used_per_scored", "ratio"),
    ("fusion.mc_self_ms_p50", "ms"), ("fusion.fused_per_budget", "ratio"),
    ("evaluation.context_s", "s"), ("evaluation.contexts_built", "count"),
    ("evaluation.recall_s", "s"), ("evaluation.rank_calls_per_question", "ratio"),
    ("store.save_s", "s"), ("store.load_s", "s"), ("store.bytes_written", "bytes"),
    ("providers.llm_calls", "count"), ("providers.llm_call_ms_p50", "ms"),
    ("providers.llm_retries", "count"), ("providers.llm_failed", "count"),
    ("providers.conns_per_call", "ratio"),
    ("providers.embed_s", "s"), ("providers.embed_texts", "count"),
    ("trace.overhead_frac", "ratio"),
)


def _union_seconds(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _median_ms(spans) -> float:
    return 1000.0 * statistics.median(s.seconds for s in spans) if spans else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans: list[Span], conns_per_call: float, overhead_frac: float) -> dict:
    """Per-layer metrics (name -> value) from one traced run's spans."""
    by_name: dict[str, list[int]] = {}
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)
        if span.parent is not None:
            children.setdefault(span.parent, []).append(i)

    def of(name):
        return [spans[i] for i in by_name.get(name, ())]

    def total(name):
        return sum(s.seconds for s in of(name))

    def self_seconds(i):
        kids = [(spans[c].start, spans[c].end) for c in children.get(i, ())]
        return spans[i].seconds - _union_seconds(kids)

    def under(i, ancestor_name):
        parent = spans[i].parent
        while parent is not None:
            if spans[parent].name == ancestor_name:
                return True
            parent = spans[parent].parent
        return False

    m = {}
    for command in ("views", "index", "retrieve", "eval_answers"):
        name = f"cli.{command}"
        m[f"{name}_s"] = total(name)
        m[f"{name}_self_s"] = sum(self_seconds(i) for i in by_name.get(name, ()))
    m["corpus.load_s"] = total("corpus.load")
    m["corpus.loads"] = len(of("corpus.load"))
    m["chunking.chunk_s"] = total("chunking.chunk")
    m["chunking.calls"] = len(of("chunking.chunk"))
    views = of("views.build")
    m["views.extractive_s"] = sum(s.seconds for s in views if s.meta.get("generator") == "extractive")
    m["views.sections"] = sum(s.meta.get("sections", 0) for s in views)
    m["views.llm_s"] = sum(s.seconds for s in views if s.meta.get("generator") == "llm")
    builds = of("retrieval.build")
    m["retrieval.build_s"] = sum(s.seconds for s in builds)
    m["retrieval.builds"] = len(builds)
    m["retrieval.units_indexed"] = sum(s.meta.get("units", 0) for s in builds)
    ranks = of("retrieval.rank")
    for kind in ("tfidf", "bm25", "dense"):
        m[f"retrieval.rank_{kind}_ms_p50"] = _median_ms([s for s in ranks if s.meta.get("kind") == kind])
    m["retrieval.rank_calls"] = len(ranks)
    scored = sum(s.meta.get("scored", 0) for s in ranks)
    m["retrieval.units_scored"] = scored
    used = sum(s.meta.get("used", 0) for s in of("fusion.single") + of("fusion.mc"))
    m["retrieval.units_used_per_scored"] = _ratio(used, scored)
    mc_ids = by_name.get("fusion.mc", [])
    m["fusion.mc_self_ms_p50"] = (
        1000.0 * statistics.median(self_seconds(i) for i in mc_ids) if mc_ids else 0.0
    )
    m["fusion.fused_per_budget"] = _ratio(
        sum(spans[i].meta.get("fused", 0) for i in mc_ids),
        sum(spans[i].meta.get("budget", 0) for i in mc_ids),
    )
    m["evaluation.context_s"] = total("evaluation.context")
    m["evaluation.contexts_built"] = len(of("evaluation.context"))
    m["evaluation.recall_s"] = total("evaluation.recall")
    questions = sum(s.meta.get("questions", 0) for s in of("evaluation.eval_recall"))
    eval_ranks = sum(1 for i in by_name.get("retrieval.rank", ()) if under(i, "evaluation.eval_recall"))
    m["evaluation.rank_calls_per_question"] = _ratio(eval_ranks, questions)
    m["store.save_s"] = total("store.save")
    m["store.load_s"] = total("store.load")
    m["store.bytes_written"] = sum(s.meta.get("bytes", 0) for s in of("store.save"))
    calls = of("providers.llm")
    m["providers.llm_calls"] = len(calls)
    m["providers.llm_call_ms_p50"] = _median_ms(calls)
    m["providers.llm_retries"] = max(0, len(of("providers.http_post")) - len(calls))
    m["providers.llm_failed"] = sum(1 for s in calls if s.meta.get("failed"))
    m["providers.conns_per_call"] = conns_per_call
    m["providers.embed_s"] = total("providers.embed")
    m["providers.embed_texts"] = sum(s.meta.get("texts", 0) for s in of("providers.embed"))
    m["trace.overhead_frac"] = overhead_frac
    return m


def spans_path(root: Path, workload: str, seed: int) -> Path:
    return root / ".perfbench" / f"spans-{workload}-seed{seed}.jsonl"
