"""The benchmark's trace hooks (``benchmarks/spans.py``) wrap smx functions
by name and read fields of what they return. Run them around an explain
and a PFI so a change to those names or fields fails here, not only in
a traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

from smx import evalkit, pipeline, synthgen
from smx.dataio import apply_preprocess, fit_preprocess, kennard_stone_split
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
    tracer = spans.Tracer()
    with spans.layer_spans(tracer):
        wrapped = [(owner, attr) for owner, attr, _ in tracer._patches]
        assert wrapped and all(callable(getattr(owner, attr)) for owner, attr in wrapped)
        pipeline.explain(train, synthgen.benchmark_zones(), model, EngineConfig(bags=3, seeds=(1, 2)))
        evalkit.pfi(model, test.intensities, repeats=1, seed=0)
    assert tracer._patches == []
    names = {span["name"] for span in tracer.spans}
    assert {"pipeline.explain", "engine.run_bags", "graphx.build_graph", "evalkit.pfi"} <= names
    server = {"request_bytes": 0, "reply_bytes": 0, "busy_s": 0.0, "requests": 0}
    metrics = spans.layer_metrics(tracer.spans, train.intensities.shape[1], server)
    assert metrics["engine.entries_scored"] > 0
    assert metrics["graphx.edges_kept"] > 0
    assert metrics["models.rows"] > 0
    assert metrics["evalkit.pfi_calls"] > 0
