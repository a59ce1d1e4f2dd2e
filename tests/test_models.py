import dataclasses
import json
import logging
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from smx import dataio, models, synthgen
from smx.dataio import SpectralDataset
from smx.errors import ConfigError, ModelError
from smx.models import (
    ExternalModel,
    LogisticModel,
    RidgeModel,
    fit_logistic,
    fit_ridge,
    load_model,
    save_model,
)

STUB = str(Path(__file__).parent / "helpers" / "external_model.py")


def _capture_lines(model, monkeypatch) -> list[str]:
    """Record every request line ``model`` sends from now on."""
    lines: list[str] = []
    request = model._request

    def recording(line):
        lines.append(line)
        return request(line)

    monkeypatch.setattr(model, "_request", recording)
    return lines


def _dumps_lines(op, X, lines) -> list[str]:
    """The lines ``json.dumps({"op": op, "x": chunk})`` writes for the same
    row chunks as ``lines``."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    expected, start = [], 0
    for line in lines:
        rows = len(json.loads(line)["x"])
        chunk = X[start : start + rows]
        expected.append(json.dumps({"op": op, "x": [list(map(float, r)) for r in chunk]}))
        start += rows
    assert start == X.shape[0]
    return expected


def _special_values():
    nan_bits = np.array([np.nan]).view(np.uint64)[0]
    payload_nan = np.array([nan_bits | np.uint64(1)], dtype=np.uint64).view(np.float64)[0]
    return np.array(
        [
            [np.nan, -np.nan, payload_nan, np.inf],
            [-np.inf, 5e-324, -5e-324, 1.7976931348623157e308],
            [-1.7976931348623157e308, 2.0**53, 1e16, -3.0],
            [1.0, 0.0, 123456789.0, 0.1],
        ]
    )


def _dataset(X, y):
    X = np.asarray(X, dtype=float)
    return SpectralDataset(
        axis=np.arange(1.0, X.shape[1] + 1.0),
        intensities=X,
        labels=y,
        sample_ids=[f"s{i}" for i in range(X.shape[0])],
    )


class TestRidge:
    def test_zero_weights_predict_intercept(self):
        model = RidgeModel(weights=np.zeros(3), intercept=0.7)
        np.testing.assert_array_equal(model.predict(np.ones((4, 3))), np.full(4, 0.7))

    def test_separable_two_points_lambda_zero(self):
        ds = _dataset([[0.0], [1.0]], [0, 1])
        model = fit_ridge(ds, lam=0.0)
        np.testing.assert_allclose(model.predict(ds.intensities), [0.0, 1.0], atol=1e-9)

    def test_large_lambda_shrinks_to_label_mean(self):
        ds = _dataset([[0.0, 1.0], [1.0, 0.0], [2.0, 5.0], [3.0, 2.0]], [0, 0, 1, 1])
        model = fit_ridge(ds, lam=1e12)
        np.testing.assert_allclose(model.predict(ds.intensities), np.full(4, 0.5), atol=1e-6)
        assert np.max(np.abs(model.weights)) < 1e-9

    def test_duplicate_features_regularized_solution(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        ds = _dataset(X, [0, 0, 1, 1])
        model = fit_ridge(ds, lam=1.0)
        # independent closed form: w = (Xc'Xc + I)^-1 Xc'yc
        Xc = X - X.mean(axis=0)
        yc = np.array([0.0, 0.0, 1.0, 1.0]) - 0.5
        expected = np.linalg.inv(Xc.T @ Xc + np.eye(2)) @ Xc.T @ yc
        np.testing.assert_allclose(model.weights, expected, atol=1e-12)
        assert np.all(np.isfinite(model.predict(X)))

    def test_duplicate_features_lambda_zero_rejected(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(ModelError, match="lambda"):
            fit_ridge(_dataset(X, [0, 0, 1, 1]), lam=0.0)

    def test_training_predictions_match_refit_oracle(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 6))
        y = (X[:, 0] > 0).astype(int)
        ds = _dataset(X, y)
        model = fit_ridge(ds, lam=0.5)
        refit = fit_ridge(ds, lam=0.5)
        np.testing.assert_allclose(refit.predict(X), model.predict(X), atol=1e-9)

    def test_empty_matrix_gives_empty_output(self):
        model = RidgeModel(weights=np.ones(3), intercept=0.0)
        assert model.predict(np.zeros((0, 3))).shape == (0,)

    def test_width_mismatch(self):
        model = RidgeModel(weights=np.ones(3), intercept=0.0)
        with pytest.raises(ModelError, match="width"):
            model.predict(np.zeros((2, 4)))

    def test_single_class_rejected(self):
        with pytest.raises(ConfigError, match="both classes"):
            fit_ridge(_dataset([[0.0], [1.0]], [0, 0]))

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, -1.0])
    def test_bad_lambda_rejected(self, lam):
        with pytest.raises(ConfigError, match="lambda"):
            fit_ridge(_dataset([[0.0], [1.0]], [0, 1]), lam=lam)


class TestLogistic:
    def test_zero_model_is_uniform(self):
        model = LogisticModel(weights=np.zeros(4), intercept=0.0)
        np.testing.assert_array_equal(
            model.predict_proba(np.ones((3, 4))), np.full((3, 2), 0.5)
        )

    def test_matches_sigmoid_oracle(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=5)
        model = LogisticModel(weights=w, intercept=0.3)
        X = rng.normal(size=(10, 5))
        z = X @ w + 0.3
        oracle = 1.0 / (1.0 + np.exp(-z))
        np.testing.assert_allclose(model.predict_proba(X)[:, 1], oracle, atol=1e-9)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        model = LogisticModel(weights=rng.normal(size=4) * 20, intercept=-2.0)
        proba = model.predict_proba(rng.normal(size=(50, 4)))
        np.testing.assert_allclose(proba.sum(axis=1), np.ones(50), atol=1e-9)
        assert np.all(proba >= 0) and np.all(proba <= 1)

    def test_separable_1d_reaches_full_accuracy(self):
        X = np.array([[v] for v in (-3.0, -2.5, -2.0, -1.5, -1.0, 1.0, 1.5, 2.0, 2.5, 3.0)])
        y = (X[:, 0] > 0).astype(int)
        model = fit_logistic(_dataset(X, y), l2=1e-3)
        pred = (model.predict_proba(X)[:, 1] > 0.5).astype(int)
        assert np.array_equal(pred, y)

    def test_huge_l2_returns_class_prior(self):
        X = np.random.default_rng(4).normal(size=(20, 3))
        y = np.array([0] * 5 + [1] * 15)
        model = fit_logistic(_dataset(X, y), l2=1e9, max_iters=5000)
        proba = model.predict_proba(X)[:, 1]
        np.testing.assert_allclose(proba, np.full(20, 0.75), atol=1e-3)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(12, 4))
        y = rng.integers(0, 2, 12).astype(float)
        w = rng.normal(size=4) * 0.5
        l2 = 0.1

        def loss(wv):
            z = X @ wv
            return float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * (wv @ wv))

        analytic = X.T @ (1.0 / (1.0 + np.exp(-(X @ w))) - y) / 12 + l2 * w
        step = 1e-6
        for k in range(4):
            e = np.zeros(4)
            e[k] = step
            numeric = (loss(w + e) - loss(w - e)) / (2 * step)
            assert abs(numeric - analytic[k]) / max(abs(analytic[k]), 1e-8) < 1e-4

    def test_deterministic_fit(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(15, 3))
        y = (X[:, 0] > 0).astype(int)
        a = fit_logistic(_dataset(X, y))
        b = fit_logistic(_dataset(X, y))
        assert np.array_equal(a.weights, b.weights) and a.intercept == b.intercept

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"l2": np.nan}, "l2"),
            ({"l2": np.inf}, "l2"),
            ({"l2": -0.5}, "l2"),
            ({"max_iters": 0}, "max_iters"),
            ({"max_iters": -3}, "max_iters"),
            ({"tol": -1e-7}, "tol"),
            ({"tol": np.nan}, "tol"),
            ({"tol": np.inf}, "tol"),
        ],
    )
    def test_bad_hyperparameters_rejected(self, kwargs, name):
        with pytest.raises(ConfigError, match=name):
            fit_logistic(_dataset([[-1.0], [1.0]], [0, 1]), **kwargs)


def _centred(ds):
    return dataio.apply_preprocess(dataio.fit_preprocess(ds, "mean_center"), ds)


def _newton_logistic(X, y, l2):
    """Independent reference: Newton (IRLS) steps on the same loss, with
    the intercept unpenalised, until a step is below 1e-15."""
    n, p = X.shape
    X1 = np.column_stack([X, np.ones(n)])
    penalty = np.append(np.full(p, l2), 0.0)
    theta = np.zeros(p + 1)
    for _ in range(100):
        mu = 1.0 / (1.0 + np.exp(-(X1 @ theta)))
        grad = X1.T @ (mu - y) / n + penalty * theta
        hess = (X1.T * (mu * (1.0 - mu))) @ X1 / n + np.diag(penalty)
        step = np.linalg.solve(hess, grad)
        theta -= step
        if np.max(np.abs(step)) < 1e-15:
            break
    return theta[:p], theta[p]


def _grad_norm(model, ds):
    X, y = ds.intensities, ds.labels.astype(float)
    resid = model.predict_proba(X)[:, 1] - y
    grad = np.append(X.T @ resid / len(y) + model.l2 * model.weights, resid.mean())
    return float(np.linalg.norm(grad))


class TestLogisticSolver:
    def test_benchmark_shape_converges_at_defaults(self, caplog):
        ds = synthgen.generate(synthgen.benchmark_config(42))
        train = _centred(dataio.kennard_stone_split(ds, 0.7)[0])
        assert train.intensities.shape == (169, 300)
        with caplog.at_level(logging.WARNING, logger="smx.models"):
            model = fit_logistic(train)
        assert model.converged and 1 <= model.n_iters < 2000
        assert _grad_norm(model, train) < 1e-7
        assert not caplog.records

    def test_wide_shape_converges_at_defaults(self):
        cfg = synthgen.benchmark_config(42)
        a, b = cfg.classes
        cfg = dataclasses.replace(
            cfg,
            n_points=2048,
            classes=(dataclasses.replace(a, n_samples=1380), dataclasses.replace(b, n_samples=1477)),
        )
        train = _centred(synthgen.generate(cfg))
        assert train.intensities.shape == (2857, 2048)
        model = fit_logistic(train)
        assert model.converged and model.n_iters < 2000
        assert _grad_norm(model, train) < 1e-7

    def test_matches_newton_reference(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 6))
        y = (X[:, 0] + 0.5 * X[:, 1] + rng.normal(size=40) > 0).astype(int)
        model = fit_logistic(_dataset(X, y), l2=0.1)
        weights, intercept = _newton_logistic(X, y.astype(float), 0.1)
        assert model.converged
        np.testing.assert_allclose(model.weights, weights, rtol=0, atol=1e-6)
        assert abs(model.intercept - intercept) < 1e-6

    def test_scaled_intensities_scale_the_weights(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 6))
        y = (X[:, 0] + 0.5 * X[:, 1] + rng.normal(size=40) > 0).astype(int)
        weights, intercept = _newton_logistic(X, y.astype(float), 0.1)
        model = fit_logistic(_dataset(X * 100.0, y), l2=0.1 * 100.0**2)
        assert model.converged
        np.testing.assert_allclose(model.weights * 100.0, weights, rtol=0, atol=1e-6)
        assert abs(model.intercept - intercept) < 1e-6

    @pytest.mark.parametrize("scale", [1e20, 1e160])
    def test_huge_intensities_reach_the_optimum_unconverged(self, scale, caplog):
        # The solver reaches the optimum, but a gradient in these units cannot
        # get below an absolute tol of 1e-7, so the fit says so.
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 6))
        y = (X[:, 0] + 0.5 * X[:, 1] + rng.normal(size=40) > 0).astype(int)
        weights, intercept = _newton_logistic(X, y.astype(float), 0.0)
        with warnings.catch_warnings(), caplog.at_level(logging.WARNING, logger="smx.models"):
            warnings.simplefilter("error")
            model = fit_logistic(_dataset(X * scale, y), l2=0.0)
        assert not model.converged and model.n_iters >= 1
        np.testing.assert_allclose(model.weights * scale, weights, rtol=0, atol=1e-6)
        assert abs(model.intercept - intercept) < 1e-6
        [record] = caplog.records
        assert "tol 1e-07" in record.getMessage()

    def test_iteration_cap_reports_not_converged_and_warns(self, caplog):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 6))
        y = (X[:, 0] > 0).astype(int)
        with caplog.at_level(logging.WARNING, logger="smx.models"):
            model = fit_logistic(_dataset(X, y), max_iters=1)
        assert not model.converged and model.n_iters == 1
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert "tol 1e-07" in record.getMessage() and "after 1 iterations" in record.getMessage()


class TestPersistence:
    def test_ridge_round_trip(self, tmp_path):
        model = RidgeModel(weights=np.array([1.5, -2.0]), intercept=0.25, lam=0.7)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert isinstance(loaded, RidgeModel)
        np.testing.assert_array_equal(loaded.weights, model.weights)
        assert loaded.intercept == model.intercept and loaded.lam == model.lam

    def test_logistic_round_trip(self, tmp_path):
        model = LogisticModel(weights=np.array([0.5]), intercept=-1.0, l2=0.01)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert isinstance(loaded, LogisticModel)
        np.testing.assert_array_equal(loaded.weights, model.weights)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"kind": "mystery"}))
        with pytest.raises(ConfigError, match="unknown model kind"):
            load_model(path)

    @pytest.mark.parametrize("kind", ["ridge", "logistic"])
    @pytest.mark.parametrize(
        "key, text",
        [
            ("weights", "[1.0, null]"),
            ("weights", "[NaN, 1.0]"),
            ("weights", "[1.0, Infinity]"),
            ("weights", "[-Infinity, 1.0]"),
            ("weights", "[true, 1.0]"),
            ("intercept", "null"),
            ("intercept", "NaN"),
            ("intercept", "-Infinity"),
            ("intercept", "false"),
        ],
    )
    def test_non_finite_parameters_rejected(self, tmp_path, kind, key, text):
        """A weight or intercept that is not a finite number is refused, as
        an external model's non-finite reply is."""
        fields = {"weights": "[1.0, 2.0]", "intercept": "0.5", key: text}
        path = tmp_path / "model.json"
        path.write_text(f'{{"kind": "{kind}", "weights": {fields["weights"]}, "intercept": {fields["intercept"]}}}')
        with pytest.raises(ConfigError, match=rf"model.json: bad {kind} model spec: '{key}(\[\d\])?' must be a finite number, got "):
            load_model(path)

    def test_incomplete_spec_rejected(self):
        with pytest.raises(ConfigError, match="ridge"):
            load_model({"kind": "ridge"})

    @pytest.mark.parametrize("text", ["[1, 2]", '"x"', "null", "3"])
    def test_non_object_json_rejected(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="model.json: model JSON must be an object"):
            load_model(path)


class TestExternal:
    def test_fixed_probabilities_parse_exactly(self):
        with ExternalModel([sys.executable, STUB, "fixed-proba", "3", "0.7", "0.3"]) as model:
            assert model.kind == "probabilistic" and model.n_features == 3
            proba = model.predict_proba(np.zeros((4, 3)))
            np.testing.assert_array_equal(proba, np.tile([0.7, 0.3], (4, 1)))

    def test_unnormalized_probabilities_rejected(self):
        with ExternalModel([sys.executable, STUB, "fixed-proba", "2", "0.7", "0.7"]) as model:
            with pytest.raises(ModelError, match="sum to 1"):
                model.predict_proba(np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "args, match",
        [
            (["fixed-proba", "3", "nan", "nan"], "non-finite"),
            (["fixed-proba", "3", "-0.5", "1.5"], r"\[0, 1\]"),
            (["proba-reply", "3", '[["a", "b"]]'], "non-numeric"),
            (["proba-reply", "3", "[[0.5, null]]"], "non-numeric"),
            (["proba-reply", "3", "[[true, false]]"], "non-numeric"),
            (["proba-reply", "3", "[[Infinity, 0.5]]"], "non-finite"),
            (["proba-reply", "3", "[[0.2, 0.3, 0.5]]"], "shape"),
            (["proba-reply", "3", "[1]"], "shape"),
            (["proba-reply", "3", "[[true, 0]]"], "boolean"),
            (["proba-reply", "3", "[[0.0, true]]"], "boolean"),
        ],
    )
    def test_invalid_probabilities_rejected(self, args, match):
        with ExternalModel([sys.executable, STUB, *args]) as model:
            with pytest.raises(ModelError, match=match):
                model.predict_proba(np.zeros((1, 3)))

    @pytest.mark.parametrize(
        "reply, match",
        [
            ('["a", 1]', "non-numeric"),
            ("[null, 1]", "non-numeric"),
            ("[[1, 2], [3]]", "ragged"),
            ("[NaN, 1]", "non-finite"),
            ("[[1], [2]]", "shape"),
            ("[true, 2]", "boolean"),
            ("[1.5, false]", "boolean"),
        ],
    )
    def test_invalid_outputs_rejected(self, reply, match):
        with ExternalModel([sys.executable, STUB, "predict-reply", "2", reply]) as model:
            with pytest.raises(ModelError, match=match):
                model.predict(np.zeros((2, 2)))

    def test_integer_outputs_accepted(self):
        with ExternalModel([sys.executable, STUB, "predict-reply", "2", "[1, -2]"]) as model:
            np.testing.assert_array_equal(model.predict(np.zeros((2, 2))), [1.0, -2.0])

    def test_continuous_row_sums(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(6, 5))
        with ExternalModel([sys.executable, STUB, "sum", "5"]) as model:
            np.testing.assert_allclose(model.predict(X), X.sum(axis=1), atol=1e-12)

    def test_repeat_calls_value_identical(self):
        X = np.random.default_rng(8).normal(size=(3, 2))
        with ExternalModel([sys.executable, STUB, "sum", "2"]) as model:
            np.testing.assert_array_equal(model.predict(X), model.predict(X))

    def test_error_reply_surfaces_message(self):
        with ExternalModel([sys.executable, STUB, "error", "2"]) as model:
            with pytest.raises(ModelError, match="synthetic failure"):
                model.predict(np.zeros((1, 2)))

    def test_process_death_reports_exit(self):
        with ExternalModel([sys.executable, STUB, "die", "2"]) as model:
            with pytest.raises(ModelError, match="exit code|closed its stream"):
                model.predict(np.zeros((1, 2)))

    def test_closed_stream_reports_the_exit_code(self):
        """A child that closes its stream and exits a moment later is waited
        for, so the error gives its exit code, and no child is left running."""
        with ExternalModel([sys.executable, STUB, "slow-exit", "2"]) as model:
            with pytest.raises(ModelError, match=re.escape("closed its stream (exit code 3)")):
                model.predict(np.zeros((1, 2)))
            assert model._proc.poll() == 3

    def test_non_utf8_reply_closes_child(self, tmp_path):
        """A reply holding a Latin-1 byte is a ModelError that quotes it, not a
        UnicodeDecodeError, and the child is stopped."""
        line = b'{"error": "caf\xe9"}\n'
        (tmp_path / "reply").write_bytes(line[:-1])
        reason = "'utf-8' codec can't decode byte 0xe9 in position 14: invalid continuation byte"
        with ExternalModel([sys.executable, STUB, "raw-reply", "3", str(tmp_path / "reply")]) as model:
            with pytest.raises(ModelError, match=re.escape(f"sent an unusable reply ({reason}): {line!r}")) as caught:
                model.predict_proba(np.zeros((1, 3)))
            assert str(caught.value).startswith(f"external model {model.argv} ")
            assert model._proc.poll() is not None

    def test_deeply_nested_reply_closes_child(self, tmp_path):
        """A reply nesting 200,000 lists is a ModelError quoting its first 100
        bytes, not a RecursionError, and the child is stopped."""
        (tmp_path / "reply").write_text("[" * 200_000 + "]" * 200_000)
        with ExternalModel([sys.executable, STUB, "raw-reply", "3", str(tmp_path / "reply")]) as model:
            with pytest.raises(ModelError, match=re.escape("sent an unusable reply (maximum recursion depth exceeded")) as caught:
                model.predict_proba(np.zeros((1, 3)))
            assert str(caught.value).startswith(f"external model {model.argv} ")
            assert str(caught.value).endswith(f"): {b'[' * 100!r}")
            assert model._proc.poll() is not None

    @pytest.mark.parametrize(
        "args, reply, stops",
        [
            (["raw-reply", "3"], b"x" * 1_000_000, True),
            (["raw-reply", "3"], b'{"error": "' + b"e" * 500_000 + b'"}', False),
            (["raw-reply", "3"], b"[" + b"0, " * 333_333 + b"0]", True),
            (["raw-reply", "3"], b'{"error": "caf\xe9"}', True),
            (["raw-reply", "3"], b"[" * 200_000 + b"]" * 200_000, True),
            (["proba-reply", "3", "[[0.5, 0.5], [0.5, 0.5]]"], None, False),
            (["proba-reply", "3", "[[-0.5, 1.5]]"], None, False),
            (["error", "3"], None, False),
        ],
        ids=["malformed-1M", "error-500k", "list-1M", "not-utf8", "too-deep", "wrong-size", "not-probabilities",
             "error-reply"],
    )
    def test_refusal_names_the_model_and_bounds_its_quote(self, tmp_path, args, reply, stops):
        """Every refusal of a reply starts with ``external model <argv>`` and
        quotes at most 100 bytes of what the model sent, however long that
        was. A reply that is no JSON object stops the child; an error reply
        or a bad value leaves it running."""
        if reply is not None:
            (tmp_path / "reply").write_bytes(reply)
            args = [*args, str(tmp_path / "reply")]
        with ExternalModel([sys.executable, STUB, *args]) as model:
            query = model.predict_proba if model.kind == "probabilistic" else model.predict
            with pytest.raises(ModelError) as caught:
                query(np.zeros((1, 3)))
            prefix = f"external model {model.argv} "
            assert str(caught.value).startswith(prefix)
            assert len(str(caught.value)) - len(prefix) < 300
            if reply is not None:
                sent = reply + b"\n"
                assert str(caught.value).endswith(f": {sent[:100]!r}")
            assert (model._proc.poll() is not None) == stops

    def test_unknown_kind_names_the_model(self):
        argv = [sys.executable, STUB, "info-reply", "3", '{"kind": "ordinal", "n_features": 3}']
        with pytest.raises(ModelError) as caught:
            ExternalModel(argv)
        quoted = b'{"kind": "ordinal", "n_features": 3}\n'
        assert str(caught.value) == (
            f"external model {argv} info reply: 'kind' must be 'continuous' or 'probabilistic': {quoted!r}"
        )

    def test_kind_mismatch_rejected(self):
        with ExternalModel([sys.executable, STUB, "sum", "2"]) as model:
            with pytest.raises(ModelError, match="predict_proba"):
                model.predict_proba(np.zeros((1, 2)))

    def test_width_mismatch_rejected(self):
        with ExternalModel([sys.executable, STUB, "sum", "2"]) as model:
            with pytest.raises(ModelError, match="width"):
                model.predict(np.zeros((1, 3)))

    def test_chunked_requests_match_single_request(self, monkeypatch):
        X = np.random.default_rng(9).normal(size=(32, 4))
        with ExternalModel([sys.executable, STUB, "sum", "4"]) as model:
            whole = model.predict(X)
            monkeypatch.setattr(models, "_MAX_REQUEST_BYTES", 256)
            chunked = model.predict(X)
        np.testing.assert_array_equal(whole, chunked)

    def test_request_lines_byte_identical_to_json_dumps(self, monkeypatch):
        rng = np.random.default_rng(10)
        zeros = np.zeros((2, 4))
        cases = [
            np.vstack([zeros, -zeros]),
            np.vstack([-zeros, zeros]),
            np.array([[0.0, -0.0, -0.0, 0.0]]),
            np.array([-0.0, 0.0, 0.0, -0.0]),
            _special_values(),
            np.array([[1.0, 2.0, -7.0, 1e300], [4.0, 0.0, 65536.0, -1.0]]),
            np.array([[1.0, 2.0, 0.5, 0.25], [4.0, 0.0, -2.5, 3.75]]),  # half seen
            rng.normal(size=(5, 4)).astype(np.float32),
            np.asfortranarray(rng.normal(size=(6, 4))),
            rng.normal(size=(8, 9))[::2, 1::2],
        ]
        with ExternalModel([sys.executable, STUB, "sum", "4"]) as shared:
            shared_lines = _capture_lines(shared, monkeypatch)
            for X in cases:
                with ExternalModel([sys.executable, STUB, "sum", "4"]) as fresh:
                    lines = _capture_lines(fresh, monkeypatch)
                    cold = fresh.predict(X)
                    warm = fresh.predict(X)
                assert len(lines) == 2
                assert lines == _dumps_lines("predict", X, lines[:1]) * 2
                np.testing.assert_array_equal(cold, warm)
                shared_lines.clear()
                shared.predict(X)
                assert shared_lines == _dumps_lines("predict", X, shared_lines)

    def test_probability_request_lines_byte_identical(self, monkeypatch):
        X = np.vstack([_special_values(), -_special_values()])
        with ExternalModel([sys.executable, STUB, "fixed-proba", "4", "0.25", "0.75"]) as model:
            lines = _capture_lines(model, monkeypatch)
            model.predict_proba(X)
            model.predict_proba(X)
        assert lines == _dumps_lines("predict_proba", X, lines[:1]) * 2

    def test_wide_matrix_lines_byte_identical(self, monkeypatch):
        width = 256
        X = np.random.default_rng(11).normal(size=(160, width))
        with ExternalModel([sys.executable, STUB, "sum", str(width)]) as model:
            lines = _capture_lines(model, monkeypatch)
            cold = model.predict(X)
            warm = model.predict(X)
        assert lines == _dumps_lines("predict", X, lines[:1]) * 2
        np.testing.assert_array_equal(cold, warm)

    def test_matrix_switches_lines_byte_identical(self, monkeypatch):
        rng = np.random.default_rng(14)
        train, test = rng.normal(size=(30, 20)), rng.normal(size=(20, 20))
        replaced = train.copy()
        replaced[:, :5] = np.median(train[:, :5], axis=0)
        sent = [train, replaced, test, test, train]
        with ExternalModel([sys.executable, STUB, "sum", "20"]) as model:
            lines = _capture_lines(model, monkeypatch)
            for X in sent:
                np.testing.assert_allclose(model.predict(X), X.sum(axis=1), atol=1e-12)
        assert lines == [_dumps_lines("predict", X, [line])[0] for X, line in zip(sent, lines)]

    def test_concurrent_callers_lines_byte_identical(self):
        rng = np.random.default_rng(13)
        base = rng.normal(size=(40, 6))
        replaced, permuted = base.copy(), base.copy()
        replaced[:, 1:4] = np.median(base[:, 1:4], axis=0)
        permuted[:, 5] = rng.permutation(permuted[:, 5])
        # deltas against whichever matrix another thread last wrote in full
        inputs = [base, replaced, permuted, rng.normal(size=(40, 6))]
        results: dict[int, list] = {k: [] for k in range(len(inputs))}
        sent: list[tuple[str, str]] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ExternalModel([sys.executable, STUB, "sum", "6"]) as model:
                request = model._request

                def recording(line):
                    sent.append((threading.current_thread().name, line))
                    return request(line)

                model._request = recording

                def work(k):
                    for _ in range(5):
                        results[k].append(model.predict(inputs[k]))

                threads = [threading.Thread(target=work, args=(k,), name=str(k)) for k in range(len(inputs))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        for k, X in enumerate(inputs):
            assert len(results[k]) == 5
            for y in results[k]:
                np.testing.assert_allclose(y, X.sum(axis=1), atol=1e-12)
        assert len(sent) == 5 * len(inputs)
        for name, line in sent:
            assert line == json.dumps({"op": "predict", "x": inputs[int(name)].tolist()})

    @pytest.mark.parametrize("cap", [1024, 300, 64])
    def test_request_lines_fit_byte_cap(self, monkeypatch, cap):
        X = np.random.default_rng(12).normal(size=(64, 8))
        X[0] = 0.0
        with ExternalModel([sys.executable, STUB, "sum", "8"]) as model:
            whole = model.predict(X)
            monkeypatch.setattr(models, "_MAX_REQUEST_BYTES", cap)
            lines = _capture_lines(model, monkeypatch)
            chunked = model.predict(X)
        np.testing.assert_array_equal(whole, chunked)
        assert lines == _dumps_lines("predict", X, lines)
        start = 0
        for i, line in enumerate(lines):
            rows = len(json.loads(line)["x"])
            assert len(line) + 1 <= cap or rows == 1
            if i + 1 < len(lines):  # the next row would not have fit
                next_row = json.dumps(list(map(float, X[start + rows])))
                assert len(line) + 1 + len(", ") + len(next_row) > cap
            start += rows
        assert len(lines) > 1

    def test_whole_matrix_line_at_byte_cap(self, monkeypatch):
        X = np.random.default_rng(15).normal(size=(6, 3))
        whole = json.dumps({"op": "predict", "x": X.tolist()})
        with ExternalModel([sys.executable, STUB, "sum", "3"]) as model:
            lines = _capture_lines(model, monkeypatch)
            for cap in (len(whole) + 1, len(whole)):  # newline included
                monkeypatch.setattr(models, "_MAX_REQUEST_BYTES", cap)
                model.predict(X)
        assert lines[0] == whole
        assert len(lines) > 2 and lines[1:] == _dumps_lines("predict", X, lines[1:])
        assert all(len(line) + 1 <= len(whole) for line in lines[1:])

    def test_failed_handshake_closes_child(self, monkeypatch):
        started = []
        popen = subprocess.Popen

        def recording(*args, **kwargs):
            started.append(popen(*args, **kwargs))
            return started[-1]

        monkeypatch.setattr(models.subprocess, "Popen", recording)
        with pytest.raises(ModelError, match="no info"):
            ExternalModel([sys.executable, STUB, "error-info", "2"])
        assert len(started) == 1 and started[0].poll() is not None

    @pytest.mark.parametrize(
        "info, key",
        [
            ({"kind": "continuous", "n_features": "3"}, "n_features"),
            ({"kind": "continuous", "n_features": True}, "n_features"),
            ({"kind": "continuous", "n_features": 3.9}, "n_features"),
            ({"kind": "continuous", "n_features": None}, "n_features"),
            ({"kind": "continuous"}, "n_features"),
            ({"kind": "probabilistic", "n_features": 3, "n_classes": "2"}, "n_classes"),
            ({"kind": "probabilistic", "n_features": 3, "n_classes": True}, "n_classes"),
            ({"kind": "probabilistic", "n_features": 3, "n_classes": 2.5}, "n_classes"),
            ({"kind": "probabilistic", "n_features": 3}, "n_classes"),
        ],
        ids=["n_features-text", "n_features-true", "n_features-fraction", "n_features-null", "n_features-missing",
             "n_classes-text", "n_classes-true", "n_classes-fraction", "n_classes-missing"],
    )
    def test_untyped_info_reply_rejected(self, info, key):
        """n_features and n_classes are integers: "300", true and 300.9 are
        not read as 300, 1 and 300. The error quotes the reply."""
        argv = [sys.executable, STUB, "info-reply", "3", json.dumps(info)]
        quoted = (json.dumps(info) + "\n").encode()
        with pytest.raises(ModelError) as caught:
            ExternalModel(argv)
        assert str(caught.value) == f"external model {argv} info reply: '{key}' must be an integer: {quoted!r}"

    def test_integral_info_reply_accepted(self):
        info = {"kind": "probabilistic", "n_features": 3.0, "n_classes": 2.0}
        with ExternalModel([sys.executable, STUB, "info-reply", "3", json.dumps(info)]) as model:
            assert model.n_features == 3 and isinstance(model.n_features, int)

    def test_load_model_external_spec(self):
        spec = {"kind": "external", "argv": [sys.executable, STUB, "sum", "2"]}
        model = load_model(spec)
        try:
            assert model.kind == "continuous"
        finally:
            model.close()


# The request encoder of ``ExternalModel`` before it wrote deltas against
# the last matrix sent in full: a map from each float's 64-bit pattern to
# its JSON text, capped at 2^15 values. Kept verbatim, but for reading the
# byte cap from ``smx.models``, as the reference for request lines.
_MAX_ENCODED_FLOATS = 1 << 15


class _CappedMapEncoder:
    def __init__(self):
        self._lock = threading.Lock()
        self._texts: dict[int, str] = {}

    def _encode_row(self, bits: np.ndarray, values: np.ndarray, first: bool) -> str:
        """The JSON list of one row, as ``json.dumps`` writes it;
        ``first`` marks the first row of a request."""
        keys = bits.tolist()
        texts = list(map(self._texts.get, keys))
        try:
            return "[" + ", ".join(texts) + "]"
        except TypeError:  # some values are not in the map yet
            pass
        missing = [i for i, text in enumerate(texts) if text is None]
        mostly_new = 2 * len(missing) > len(texts)
        if mostly_new:  # one json.dumps of the row beats filling it in
            row = json.dumps(values.tolist())
        else:
            fresh = json.dumps(values[missing].tolist())[1:-1].split(", ")
            for i, text in zip(missing, fresh):
                texts[i] = text
            row = "[" + ", ".join(texts) + "]"
        with self._lock:
            if first and mostly_new and len(self._texts) >= _MAX_ENCODED_FLOATS:
                self._texts.clear()
            room = _MAX_ENCODED_FLOATS - len(self._texts)
            if room > 0:
                if mostly_new:
                    texts = row[1:-1].split(", ")
                self._texts.update((keys[i], texts[i]) for i in missing[:room])
        return row

    def _lines(self, op: str, X: np.ndarray):
        """Yield ``(rows, line)`` for consecutive row chunks of ``X``: the
        request ``json.dumps({"op": op, "x": chunk})`` would write, with
        as many rows as fit in ``_MAX_REQUEST_BYTES``."""
        head = f'{{"op": {json.dumps(op)}, "x": ['
        # size: length of the line holding ``rows``, newline included
        empty = len(head) + len("]}\n") - len(", ")
        bits = X.view(np.uint64)
        rows: list[str] = []
        size = empty
        for i in range(X.shape[0]):
            row = self._encode_row(bits[i], X[i], i == 0)
            if rows and size + len(", ") + len(row) > models._MAX_REQUEST_BYTES:
                yield len(rows), head + ", ".join(rows) + "]}"
                rows, size = [], empty
            rows.append(row)
            size += len(", ") + len(row)
        yield len(rows), head + ", ".join(rows) + "]}"


def _specials_at(X, rng, count):
    """``X`` with ``count`` random cells set to values whose JSON text is
    unusual: signed zeros, NaNs with payloads, infinities and the extremes."""
    specials = np.concatenate([_special_values().ravel(), [0.0, -0.0, -5e-324]])
    X = X.copy()
    flat = X.reshape(-1)
    flat[rng.integers(0, flat.size, count)] = rng.choice(specials, count)
    return X


def _base_matrix(rng, rows, width):
    """Random values, a quarter of them coarsely rounded so that values
    repeat, and a few special values."""
    X = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-3, 4)
    coarse = rng.random(X.shape) < 0.25
    X[coarse] = np.round(X[coarse], 1)
    return _specials_at(X, rng, max(1, X.size // 50))


def _request_sequence(rng, width, steps):
    """Matrices in the order an explain, PFI or faithfulness study might
    send them: zone medians, permuted columns, cumulative zero masks,
    deltas on cells a delta changed, unrelated matrices, shape switches
    and other layouts of the same values. Some arrays are changed in
    place and sent again."""
    base = _base_matrix(rng, 169, width)
    yield base
    for _ in range(steps):
        op = rng.integers(0, 10)
        a = int(rng.integers(0, width))
        b = int(rng.integers(a + 1, width + 1))
        if op == 0:  # zone replaced by its medians
            X = base.copy()
            X[:, a:b] = np.median(base[:, a:b], axis=0)
            yield X
        elif op == 1:  # one permuted column
            X = base.copy()
            X[:, a] = rng.permutation(X[:, a])
            yield X
        elif op == 2:  # cumulative zero masks, zone by zone, in one array
            X = base.copy()
            for start in rng.permutation(np.arange(0, width, max(1, width // 4)))[:4]:
                X[:, start : start + max(1, width // 4)] = 0.0
                yield X
        elif op == 3:  # a delta on cells the previous delta changed
            X = base.copy()
            X[:, a:b] = np.median(base[:, a:b], axis=0)
            yield X
            X = X.copy()
            X[::2, a:b] = -0.0
            X[1::3, max(0, a - 1) : b] = base[1::3, max(0, a - 1) : b]
            yield X
            yield base
        elif op == 4:  # an unrelated matrix of the same shape, then changed in place
            base = _base_matrix(rng, base.shape[0], width)
            yield base
            X = base.copy()
            yield X
            X[:, a] = rng.permutation(X[:, a])
            yield X
        elif op == 5:  # another shape
            base = _base_matrix(rng, int(rng.choice([169, 73, 730])), width)
            yield base
        elif op == 6:  # special values at a few cells, or at most of them
            yield _specials_at(base, rng, int(rng.choice([1, 5, base.size])))
        elif op == 7:  # the same values in another layout
            layout = int(rng.integers(0, 3))
            if layout == 0:
                with np.errstate(over="ignore"):  # the extremes become infinite
                    single = base.astype(np.float32)
                yield single
            elif layout == 1:
                yield np.asfortranarray(base)
            else:
                padded = np.zeros((2 * base.shape[0], width + 3))
                padded[::2, 3:] = base
                yield padded[::2, 3:]
        elif op == 8:  # a single row, as a matrix or a vector
            i = int(rng.integers(0, base.shape[0]))
            yield base[i] if rng.random() < 0.5 else base[i : i + 1]
        else:
            yield base


class TestDeltaEncoding:
    """Request lines of the delta encoder against the capped-map encoder
    it replaced, and against ``json.dumps``."""

    def _check(self, width, matrices, monkeypatch):
        old = _CappedMapEncoder()
        # replies ignore the values, so sums of extremes cannot overflow
        with ExternalModel([sys.executable, STUB, "fixed-proba", str(width), "0.25", "0.75"]) as model:
            lines = _capture_lines(model, monkeypatch)
            for X in matrices:
                model.predict_proba(X)
                X = np.asarray(X, dtype=float)
                X = X[None, :] if X.ndim == 1 else X
                expected = [line for _, line in old._lines("predict_proba", X)]
                assert lines == expected
                assert lines == _dumps_lines("predict_proba", X, lines)
                lines.clear()

    @pytest.mark.parametrize("cap", [None, 2000])
    @pytest.mark.parametrize("width", [1, 12, 40])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_sequences_match_old_encoder(self, monkeypatch, seed, width, cap):
        if cap is not None:
            monkeypatch.setattr(models, "_MAX_REQUEST_BYTES", cap)
        rng = np.random.default_rng([seed, width])
        self._check(width, _request_sequence(rng, width, 20), monkeypatch)

    def test_delta_after_delta_on_the_same_cells(self, monkeypatch):
        rng = np.random.default_rng(21)
        base = rng.normal(size=(20, 10))
        replaced = base.copy()
        replaced[:, 2:6] = np.median(base[:, 2:6], axis=0)
        masked = replaced.copy()
        masked[:, 4:8] = 0.0
        restored = masked.copy()
        restored[:, 2:4] = base[:, 2:4]
        self._check(10, [base, replaced, masked, restored, base, replaced, base], monkeypatch)
