"""The benchmark's trace hooks (``benchmarks/spans.py``) wrap smx functions
by name and read fields of what they return. Run them around an explain, a
PFI and a faithfulness curve so a change to those names or fields fails
here, not only in a traced benchmark run."""

import importlib.util
import logging
from pathlib import Path

import pytest

from smx import evalkit, pipeline, synthgen
from smx.dataio import Zone, ZoneConfig, apply_preprocess, fit_preprocess, kennard_stone_split, resolve_zones
from smx.engine import EngineConfig
from smx.models import fit_logistic

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_spans_cover_an_explain_and_a_pfi(spans, monkeypatch):
    monkeypatch.setenv("SMX_THREADS", "1")
    ds = synthgen.generate(synthgen.benchmark_config(3))
    train, test = kennard_stone_split(ds, 0.7)
    state = fit_preprocess(train, "mean_center")
    train, test = apply_preprocess(state, train), apply_preprocess(state, test)
    model = fit_logistic(train)
    zones = synthgen.benchmark_zones()
    zone_sets = {zone.name: idx for zone, idx in zip(zones.zones, resolve_zones(zones, train))}
    tracer = spans.Tracer()
    with spans.layer_spans(tracer):
        wrapped = [(owner, attr) for owner, attr, _ in tracer._patches]
        assert wrapped and all(callable(getattr(owner, attr)) for owner, attr in wrapped)
        result = pipeline.explain(train, zones, model, EngineConfig(bags=3, seeds=(1, 2)))
        evalkit.pfi(model, test.intensities, repeats=1, seed=0)
        order = [zone for zone, ranked in result.zone_order if ranked]
        evalkit.faithfulness_curve(model, test.intensities, order, zone_sets)
    assert tracer._patches == []
    names = {span["name"] for span in tracer.spans}
    assert {"pipeline.explain", "engine.run_bags", "graphx.build_graph", "evalkit.pfi",
            "evalkit.faithfulness_curve"} <= names
    curve_calls = [s for s in tracer.spans if s["name"] == "models.predict_proba"
                   and spans._has_ancestor(tracer.spans, s, "evalkit.faithfulness_curve")]
    assert len(curve_calls) == len(order) + 1
    server = {"request_bytes": 0, "reply_bytes": 0, "busy_s": 0.0, "requests": 0}
    metrics = spans.layer_metrics(tracer.spans, train.intensities.shape[1], server)
    assert metrics["engine.entries_scored"] > 0
    assert metrics["graphx.edges_kept"] > 0
    assert metrics["models.rows"] > 0
    assert metrics["evalkit.pfi_calls"] > 0
    assert metrics["evalkit.faithfulness_s"] > 0


def test_pruning_counters_read_every_dropped_edge(spans, monkeypatch, caplog):
    """An explain that prunes cycles (30 equal-width zones x 9 quantiles): the
    benchmark counts one dropped edge per DEBUG "dropping edge" record and
    reads each dropped weight from it."""
    monkeypatch.setenv("SMX_THREADS", "1")
    train = synthgen.generate(synthgen.benchmark_config(3))
    width = len(train.axis) // 30
    zones = ZoneConfig(
        [Zone(f"Z{k}", float(train.axis[k * width]), float(train.axis[(k + 1) * width - 1]), False) for k in range(30)]
    )
    tracer = spans.Tracer()
    with caplog.at_level(logging.DEBUG, logger="smx.graphx"), spans.layer_spans(tracer):
        pipeline.explain(train, zones, fit_logistic(train), EngineConfig(quantiles=tuple(k / 10 for k in range(1, 10))))
    dropped = [r for r in caplog.records if r.levelno == logging.DEBUG and r.msg.startswith("seed %s: dropping edge")]
    server = {"request_bytes": 0, "reply_bytes": 0, "busy_s": 0.0, "requests": 0}
    metrics = spans.layer_metrics(tracer.spans, train.intensities.shape[1], server)
    assert len(dropped) > 0 and metrics["graphx.edges_dropped"] == len(dropped)
    assert 0.0 < metrics["graphx.dropped_weight_fraction"] < 1.0
