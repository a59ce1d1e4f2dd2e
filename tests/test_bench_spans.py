"""The benchmark's trace hooks (``benchmarks/spans.py``) wrap smx functions
by name and read fields of what they return. Run them around an explain, a
PFI and a faithfulness curve so a change to those names or fields fails
here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

from smx import evalkit, pipeline, synthgen
from smx.dataio import apply_preprocess, fit_preprocess, kennard_stone_split, resolve_zones
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
