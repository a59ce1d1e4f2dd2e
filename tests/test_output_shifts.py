"""``engine.output_shifts`` against the three loops it replaced
(``parent_loops``): the same results bit for bit, the same model calls
and the same external request lines; a model whose outputs are views of
its input; and answers of the wrong shape, refused on every call."""

import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import parent_loops
from smx import engine, evalkit, pipeline
from smx.dataio import resolve_zones
from smx.engine import EngineConfig
from smx.errors import ModelError
from smx.models import CONTINUOUS, PROBABILISTIC, ExternalModel, LogisticModel, RidgeModel, fit_logistic, fit_ridge

STUB = str(Path(__file__).parent / "helpers" / "external_model.py")


@contextmanager
def _model(name, p, rng):
    weights = rng.normal(size=p)
    if name == "ridge":
        yield RidgeModel(weights=weights, intercept=0.1)
    elif name == "logistic":
        yield LogisticModel(weights=0.3 * weights, intercept=-0.2)
    else:
        args = ["sum", str(p)] if name == "external-sum" else ["fixed-proba", str(p), "0.25", "0.75"]
        with ExternalModel([sys.executable, STUB, *args]) as model:
            yield model


def _observe(model, run):
    """``run(model)``, the row count of each model call and the external
    request lines. Calls are counted by replacing the instance's methods."""
    calls, lines = [], []
    for name in ("predict", "predict_proba"):
        if hasattr(model, name):
            setattr(model, name, lambda X, method=getattr(model, name): calls.append(len(X)) or method(X))
    if isinstance(model, ExternalModel):
        model._request = lambda line, send=model._request: lines.append(line) or send(line)
    try:
        return run(model), calls, lines
    finally:
        for name in ("predict", "predict_proba", "_request"):
            model.__dict__.pop(name, None)


def _zones(p, rng):
    """Contiguous zones of random widths over the columns, and one more
    zone of scattered columns that overlaps them."""
    cuts = np.sort(rng.choice(np.arange(1, p), size=min(3, p - 1), replace=False))
    zones = [np.arange(a, b) for a, b in zip([0, *cuts], [*cuts, p])]
    zones.append(np.sort(rng.choice(p, size=max(1, p // 3), replace=False)))
    return {f"z{i}": idx for i, idx in enumerate(zones)}


@pytest.mark.parametrize("n, p, seed", [(12, 5, 0), (40, 17, 1), (73, 30, 2)])
@pytest.mark.parametrize("name", ["ridge", "logistic", "external-sum", "external-proba"])
def test_matches_the_parent_loops(name, n, p, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    zone_sets = _zones(p, rng)
    zone_models = [SimpleNamespace(indices=idx) for idx in zone_sets.values()]
    order = list(rng.permutation(list(zone_sets)))
    with _model(name, p, rng) as model:
        got, calls, lines = _observe(model, lambda m: engine.responses(m, X, zone_models))
        want, want_calls, want_lines = _observe(model, lambda m: parent_loops.responses(m, X, zone_models))
        np.testing.assert_array_equal(got.shifts, want.shifts)
        np.testing.assert_array_equal(got.classes, want.classes)
        assert calls == want_calls == [n] * (len(zone_models) + 1)
        assert lines == want_lines

        for k_max in (None, 2):
            depth = len(order) if k_max is None else k_max
            got, calls, lines = _observe(model, lambda m: evalkit.faithfulness_curve(m, X, order, zone_sets, k_max))
            want, want_calls, want_lines = _observe(
                model, lambda m: parent_loops.faithfulness_curve(m, X, order, zone_sets, k_max)
            )
            assert (got.x, got.y, got.auc) == (want.x, want.y, want.auc)
            assert calls == want_calls == [n] * (depth + 1)
            assert lines == want_lines

        for repeats, pfi_seed in ((1, 0), (3, 5)):
            got, calls, lines = _observe(model, lambda m: evalkit.pfi(m, X, repeats, pfi_seed))
            want, want_calls, want_lines = _observe(model, lambda m: parent_loops.pfi(m, X, repeats, pfi_seed))
            np.testing.assert_array_equal(got, want)
            assert calls == want_calls == [repeats * n] * (1 + p)
            assert lines == want_lines
        assert not isinstance(model, ExternalModel) or len(lines) == 1 + p
    np.testing.assert_array_equal(X, np.random.default_rng(seed).normal(size=(n, p)))


class _Continuous:
    kind = CONTINUOUS

    def __init__(self, predict):
        self.predict = predict


@pytest.mark.parametrize("caller", ["pfi", "responses", "faithfulness_curve"])
def test_outputs_that_view_the_input(caller):
    """A model whose ``predict`` returns ``X[:, 0]``, a view of the matrix
    it is sent, scores as one returning a copy: only column 0 moves it."""
    X = np.random.default_rng(20).normal(size=(20, 3))
    zone_sets = {"c0": np.array([0]), "c1": np.array([1]), "c2": np.array([2])}
    runs = {
        "pfi": lambda model: evalkit.pfi(model, X, repeats=4, seed=2),
        "responses": lambda model: engine.responses(
            model, X, [SimpleNamespace(indices=idx) for idx in zone_sets.values()]
        ).shifts.mean(axis=0),
        "faithfulness_curve": lambda model: np.array(
            evalkit.faithfulness_curve(model, X, ["c1", "c0", "c2"], zone_sets).y
        ),
    }
    view = runs[caller](_Continuous(lambda A: A[:, 0]))
    copy = runs[caller](_Continuous(lambda A: A[:, 0].copy()))
    np.testing.assert_array_equal(view, copy)
    if caller == "faithfulness_curve":
        assert view[0] == 0.0 and view[1] > 0.0 and view[2] == view[1]
    else:
        assert view[0] > 0.0 and view[1] == 0.0 and view[2] == 0.0


# (kind, the wrong answer made from a right one)
WRONG_ANSWERS = {
    "probabilities in one column": (PROBABILISTIC, lambda right: right[:, :1]),
    "continuous outputs in two columns": (CONTINUOUS, lambda right: np.column_stack([right, right])),
    "a probability row short": (PROBABILISTIC, lambda right: right[:-1]),
    "a continuous output short": (CONTINUOUS, lambda right: right[:-1]),
}


@pytest.mark.parametrize("call", [0, 1], ids=["intact call", "edited call"])
@pytest.mark.parametrize("caller", ["explain", "faithfulness_curve", "pfi"])
@pytest.mark.parametrize("wrong", WRONG_ANSWERS)
def test_wrong_shaped_answer_is_a_model_error(small_dataset, small_zones, wrong, caller, call):
    """An answer without one output per row, ``(rows,)`` from ``predict`` or
    ``(rows, 2)`` from ``predict_proba``, is a ``ModelError`` naming the
    method and both shapes, on the intact call or a later one; the matrix
    the model was sent is restored."""
    kind, corrupt = WRONG_ANSWERS[wrong]
    fitted = fit_ridge(small_dataset) if kind == CONTINUOUS else fit_logistic(small_dataset)
    method = "predict" if kind == CONTINUOUS else "predict_proba"
    sent = []

    def answer(X):
        sent.append(len(X))
        right = getattr(fitted, method)(X)
        return corrupt(right) if len(sent) == call + 1 else right

    model = SimpleNamespace(kind=kind, **{method: answer})
    X = small_dataset.intensities.copy()
    zone_sets = dict(zip(small_zones.names(), resolve_zones(small_zones, small_dataset)))
    runs = {
        "explain": lambda: pipeline.explain(small_dataset, small_zones, model, EngineConfig(bags=2, seeds=(1,))),
        "faithfulness_curve": lambda: evalkit.faithfulness_curve(model, X, list(zone_sets), zone_sets),
        "pfi": lambda: evalkit.pfi(model, X, repeats=2, seed=0),
    }
    rows = 2 * len(X) if caller == "pfi" else len(X)
    got = corrupt(getattr(fitted, method)(np.zeros((rows, X.shape[1])))).shape
    want = (rows,) if kind == CONTINUOUS else (rows, 2)
    with pytest.raises(ModelError) as refused:
        runs[caller]()
    assert str(refused.value) == f"model {method} answered {rows} rows with shape {got}, expected {want}"
    assert len(sent) == call + 1
    np.testing.assert_array_equal(X, small_dataset.intensities)
