"""Spans recorded from outside smx, around the calls into its layers.

The tracer replaces public functions at the bindings their callers use
(``smx.pipeline.run_bags`` is what ``pipeline.explain`` calls, for
example) with wrappers that open a span. Spans stay in memory as
dicts with ``name``, ``start``, ``end``, ``parent`` (index of the
enclosing span or None) and any counts the wrapper adds. Nesting is
tracked with one stack, so traced ops must run with ``SMX_THREADS=1``.
"""

from __future__ import annotations

import functools
import logging
import os
import statistics
import time
from contextlib import contextmanager
from typing import Callable

from smx import dataio, evalkit, models, pipeline


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **counts):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = {"name": name, "start": time.perf_counter(), "end": None, "parent": parent, **counts}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def current(self) -> dict | None:
        return self.spans[self._open[-1]] if self._open else None

    def wrap(self, owner, attr: str, name: str, describe: Callable | None = None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call;
        ``describe(args, result)`` returns counts to store on the span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if describe is not None:
                    record.update(describe(args, result))
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


class _DroppedEdges(logging.Handler):
    """Counts the cycle-pruning DEBUG records of ``smx.graphx`` on the open span."""

    def __init__(self, tracer: Tracer):
        super().__init__(logging.DEBUG)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        span = self.tracer.current()
        if record.levelno == logging.DEBUG and "dropping edge" in record.msg and span is not None:
            span["edges_dropped"] = span.get("edges_dropped", 0) + 1
            span["dropped_weight"] = span.get("dropped_weight", 0.0) + float(record.args[2])


def _file_bytes(args, _result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


@contextmanager
def layer_spans(tracer: Tracer):
    """Wrap smx's layer entry points for the duration of the block."""
    wrap = tracer.wrap
    wrap(dataio, "load_csv", "dataio.load_csv", _file_bytes)
    wrap(dataio, "load_zone_config", "dataio.load_zone_config", _file_bytes)
    wrap(models, "load_model", "models.load_model")
    wrap(pipeline, "explain", "pipeline.explain")
    wrap(pipeline, "thread_count", "parallel.thread_count", lambda a, r: {"workers": r})
    wrap(pipeline, "fit_zone_models", "zonecore.fit_zone_models",
         lambda a, r: {"max_zone_width": max(m.width for m in r[0])})
    wrap(pipeline, "build_predicates", "predicates.build_predicates", lambda a, r: {"count": len(r)})
    wrap(pipeline, "run_bags", "engine.run_bags",
         lambda a, r: {"entries": sum(len(b.entries) for b in r), "slots": len(r) * len(a[3])})
    wrap(pipeline, "build_graph", "graphx.build_graph",
         lambda a, r: {"edges_kept": len(r.edges), "kept_weight": sum(r.edges.values())})
    wrap(pipeline, "aggregate_seeds", "graphx.aggregate_seeds")
    wrap(evalkit, "pfi", "evalkit.pfi")
    wrap(evalkit, "stability_study", "evalkit.stability_study")
    wrap(evalkit, "faithfulness_curve", "evalkit.faithfulness_curve")
    for cls in (models.LogisticModel, models.ExternalModel):
        wrap(cls, "predict_proba", "models.predict_proba", lambda a, r: {"rows": len(r)})
    logger = logging.getLogger("smx.graphx")
    handler = _DroppedEdges(tracer)
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield tracer
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
        tracer.unwrap()


# ---------------------------------------------------------------------------
# per-layer metrics from one traced round of ops


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _has_ancestor(spans: list[dict], span: dict, name: str) -> bool:
    parent = span["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


def layer_metrics(spans: list[dict], n_features: int, server: dict) -> dict[str, float]:
    """Per-layer totals over ``spans``; ``server`` sums the model server's reports."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += _duration(span)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def busy(*names):
        return sum(_duration(s) for n in names for s in named(n))

    def self_time(*names):
        return sum(_duration(spans[i]) - child_time[i] for i, s in enumerate(spans) if s["name"] in names)

    def total(name, key):
        return sum(s.get(key, 0) for s in named(name))

    model_spans = named("models.predict_proba")
    calls = len(model_spans)
    rows = sum(s["rows"] for s in model_spans)
    engine_rows = sum(s["rows"] for s in model_spans if _has_ancestor(spans, s, "engine.run_bags"))
    slots = total("engine.run_bags", "slots")
    kept_w = total("graphx.build_graph", "kept_weight")
    dropped_w = total("graphx.build_graph", "dropped_weight")
    models_busy = busy("models.predict_proba")
    op_names = ("cli.explain", "cli.evaluate")
    return {
        "dataio.load_s": busy("dataio.load_csv", "dataio.load_zone_config"),
        "dataio.bytes_read": total("dataio.load_csv", "bytes") + total("dataio.load_zone_config", "bytes"),
        "models.load_s": busy("models.load_model"),
        "zonecore.fit_s": busy("zonecore.fit_zone_models"),
        "zonecore.max_zone_width": max((s["max_zone_width"] for s in named("zonecore.fit_zone_models")), default=0),
        "predicates.build_s": busy("predicates.build_predicates"),
        "predicates.count": max((s["count"] for s in named("predicates.build_predicates")), default=0),
        "engine.run_bags_s": busy("engine.run_bags"),
        "engine.self_s": self_time("engine.run_bags"),
        "engine.entries_scored": total("engine.run_bags", "entries"),
        "engine.retained_ratio": total("engine.run_bags", "entries") / slots if slots else 0.0,
        "engine.cells_gathered": engine_rows * n_features,
        "models.busy_s": models_busy,
        "models.calls": calls,
        "models.rows": rows,
        "models.rows_per_call": rows / calls if calls else 0.0,
        "models.external.request_bytes": server["request_bytes"],
        "models.external.reply_bytes": server["reply_bytes"],
        "models.external.server_busy_s": server["busy_s"],
        "models.external.client_s": models_busy - server["busy_s"] if server["requests"] else 0.0,
        "parallel.workers": max((s["workers"] for s in named("parallel.thread_count")), default=0),
        "graphx.build_s": busy("graphx.build_graph"),
        "graphx.edges_kept": total("graphx.build_graph", "edges_kept"),
        "graphx.edges_dropped": total("graphx.build_graph", "edges_dropped"),
        "graphx.dropped_weight_fraction": dropped_w / (kept_w + dropped_w) if kept_w + dropped_w else 0.0,
        "graphx.lrc_s": busy("graphx.aggregate_seeds"),
        "pipeline.explain_s": busy("pipeline.explain"),
        "pipeline.self_s": self_time("pipeline.explain"),
        "evalkit.pfi_s": busy("evalkit.pfi"),
        "evalkit.pfi_calls": sum(1 for s in model_spans if _has_ancestor(spans, s, "evalkit.pfi")),
        "evalkit.stability_s": busy("evalkit.stability_study"),
        "evalkit.faithfulness_s": busy("evalkit.faithfulness_curve"),
        "cli.self_s": self_time(*op_names),
    }


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over rounds, always one of the measured values."""
    return {key: statistics.median_low(r[key] for r in rounds) for key in rounds[0]}
