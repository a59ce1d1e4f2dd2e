import math

import numpy as np
import pytest

from smx.artifacts import zone_models_to_json
from smx.errors import ConfigError, PipelineError
from smx.zonecore import (
    ZoneModel,
    _fix_sign,
    fit_zone,
    fit_zone_models,
    score_zone,
    threshold_spectrum,
)


def _svd_ve_oracle(X):
    """Explained variance of the top direction via singular values."""
    Xc = X - X.mean(axis=0)
    s = np.linalg.svd(Xc, compute_uv=False)
    return float(s[0] ** 2 / np.sum(s**2))


class TestFitZone:
    def test_diagonal_line(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        model = fit_zone(X)
        np.testing.assert_allclose(model.loading, [1 / math.sqrt(2)] * 2, atol=1e-12)
        assert model.variance_explained == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            score_zone(model, X), [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12
        )

    def test_variance_on_first_coordinate(self):
        model = fit_zone(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
        np.testing.assert_allclose(model.loading, [1.0, 0.0], atol=1e-12)
        assert model.variance_explained == pytest.approx(1.0, abs=1e-9)

    def test_isotropic_cloud_halves_variance(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        model = fit_zone(X)
        assert model.variance_explained == pytest.approx(0.5, abs=1e-9)
        s = model.loading.sum()
        assert s > 0 or (abs(s) <= 1e-12 and model.loading[np.flatnonzero(model.loading)[0]] > 0)

    def test_rank_one_data_explains_everything(self):
        # two samples: the centered matrix has rank 1, so VE must be 1
        rng = np.random.default_rng(42)
        model = fit_zone(rng.normal(size=(2, 5)))
        assert abs(model.variance_explained - 1.0) < 1e-9

    def test_degenerate_zone_rejected(self):
        with pytest.raises(PipelineError, match="degenerate"):
            fit_zone(np.ones((3, 2)), zone_name="flat")

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            fit_zone(np.array([[1.0, 2.0]]))
        with pytest.raises(ConfigError):
            fit_zone(np.array([[1.0], [2.0]]))

    def test_repeated_fits_bit_identical(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(20, 5))
        a, b = fit_zone(X), fit_zone(X)
        assert np.array_equal(a.loading, b.loading)
        assert a.variance_explained == b.variance_explained

    @pytest.mark.parametrize("trial", range(20))
    def test_properties_on_random_zones(self, trial):
        rng = np.random.default_rng(100 + trial)
        n = int(rng.integers(3, 50))
        d = int(rng.integers(2, 7))
        X = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0, size=d)
        model = fit_zone(X)
        assert abs(np.linalg.norm(model.loading) - 1.0) < 1e-10
        assert abs(model.variance_explained - _svd_ve_oracle(X)) < 1e-8
        s = model.loading.sum()
        assert s >= 0 or abs(s) <= 1e-12

    def test_loading_maximizes_projected_variance(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 4)) * [3.0, 1.0, 0.5, 0.2]
        model = fit_zone(X)
        Xc = X - X.mean(axis=0)
        best = np.var(Xc @ model.loading, ddof=1)
        for _ in range(200):
            u = rng.normal(size=4)
            u /= np.linalg.norm(u)
            assert np.var(Xc @ u, ddof=1) <= best + 1e-8


def _assert_matches_svd(model, X):
    _, _, vt = np.linalg.svd(X - X.mean(axis=0), full_matrices=False)
    assert abs(np.linalg.norm(model.loading) - 1.0) < 1e-10
    assert abs(abs(vt[0] @ model.loading) - 1.0) < 1e-10
    assert abs(model.variance_explained - _svd_ve_oracle(X)) < 1e-10
    s = model.loading.sum()
    assert s > 0 or (abs(s) <= 1e-12 and model.loading[np.flatnonzero(model.loading)[0]] > 0)


# (n, d) on both sides of n = d, across the old 64-point eigh/power-iteration
# boundary and up to realistic spectrum widths.
_WIDTH_SWEEP = [
    (3, 2), (50, 2),
    (30, 64), (64, 64), (100, 64),
    (30, 65), (65, 65), (100, 65),
    (100, 342), (400, 342),
    (50, 4096),
]


class TestExactSolver:
    @pytest.mark.parametrize("n,d", _WIDTH_SWEEP)
    def test_width_sweep_matches_svd(self, n, d):
        rng = np.random.default_rng(1000 * n + d)
        X = rng.normal(size=(n, d)) * np.linspace(3.0, 0.1, d)
        _assert_matches_svd(fit_zone(X), X)

    @pytest.mark.parametrize("n,d", [(20, 300), (300, 20)])
    def test_rank_one_plus_tiny_noise(self, n, d):
        rng = np.random.default_rng(n + d)
        direction = rng.normal(size=d)
        X = np.outer(rng.normal(size=n), direction) + 1e-9 * rng.normal(size=(n, d))
        model = fit_zone(X)
        _assert_matches_svd(model, X)
        assert abs(abs(model.loading @ direction) / np.linalg.norm(direction) - 1.0) < 1e-10
        assert model.variance_explained > 1.0 - 1e-10

    @pytest.mark.parametrize("n,k", [(40, 8), (10, 50)])
    def test_duplicated_columns(self, n, k):
        rng = np.random.default_rng(3 * n + k)
        A = rng.normal(size=(n, k)) * np.linspace(2.0, 0.2, k)
        X = np.hstack([A, A])
        model = fit_zone(X)
        _assert_matches_svd(model, X)
        np.testing.assert_allclose(model.loading[:k], model.loading[k:], atol=1e-12)

    def test_isotropic_wide_background_zone(self):
        # noise-dominated 342-point zone: tiny eigengap, where the former
        # power iteration raised "did not converge"
        X = np.random.default_rng(0).normal(size=(2000, 342))
        _assert_matches_svd(fit_zone(X), X)


# Reference copies of the solver this module replaced: direct eigh for
# zones of at most 64 points, seeded power iteration above that.
def _reference_eigh(Xc, divisor):
    cov = Xc.T @ Xc / divisor
    evals, evecs = np.linalg.eigh(cov)
    lam = float(evals[-1])
    loading = np.array(evecs[:, -1])
    ve = lam / float(evals.sum())
    return loading, ve


def _reference_power_iteration(Xc, divisor):
    d = Xc.shape[1]
    rng = np.random.default_rng(0x5A0E)
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    residual = np.inf
    for _ in range(1000):
        u = Xc.T @ (Xc @ v) / divisor
        norm = np.linalg.norm(u)
        if norm == 0.0:
            raise PipelineError("power iteration hit a zero vector")
        u /= norm
        residual = min(np.linalg.norm(u - v), np.linalg.norm(u + v))
        v = u
        if residual < 1e-10:
            lam = float(np.linalg.norm(Xc @ v) ** 2 / divisor)
            return v, lam
    raise PipelineError(f"power iteration did not converge (residual {residual:.3e})")


def _reference_fit(X, solver):
    X = np.asarray(X, dtype=float)
    mean = X.mean(axis=0)
    Xc = X - mean
    divisor = float(X.shape[0] - 1)
    if solver == "eigh":
        loading, ve = _reference_eigh(Xc, divisor)
    else:
        loading, lam = _reference_power_iteration(Xc, divisor)
        ve = lam / float(np.sum(Xc * Xc) / divisor)
    return _fix_sign(loading), min(max(ve, 0.0), 1.0)


class TestAgainstReplacedSolver:
    @pytest.mark.parametrize("n,d", [(3, 2), (50, 7), (64, 64), (169, 44), (100, 64), (100, 65), (300, 120)])
    def test_d_at_most_n_bit_identical_to_eigh_branch(self, n, d):
        rng = np.random.default_rng(7 * n + d)
        X = rng.normal(size=(n, d)) * rng.uniform(0.1, 3.0, size=d) + rng.normal(size=d)
        model = fit_zone(X)
        loading, ve = _reference_fit(X, "eigh")
        assert np.array_equal(model.loading, loading)
        assert model.variance_explained == ve

    @pytest.mark.parametrize("n,d", [(100, 65), (200, 120), (400, 342)])
    def test_wide_d_at_most_n_agrees_with_power_iteration(self, n, d):
        rng = np.random.default_rng(11 * n + d)
        X = rng.normal(size=(n, d)) * np.linspace(3.0, 0.1, d)
        X[:, 0] *= 2.0  # a clear eigengap so the power iteration converges
        model = fit_zone(X)
        loading, ve = _reference_fit(X, "power")
        np.testing.assert_allclose(model.loading, loading, rtol=0, atol=1e-8)
        assert abs(model.variance_explained - ve) < 1e-8


class TestScore:
    def test_mean_scores_zero(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(10, 3))
        model = fit_zone(X)
        assert score_zone(model, model.mean[None, :])[0] == pytest.approx(0.0, abs=1e-12)

    def test_mean_plus_loading_scores_one(self):
        model = fit_zone(np.random.default_rng(4).normal(size=(10, 3)))
        x = model.mean + model.loading
        assert score_zone(model, x[None, :])[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_explicit_dot_product(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(12, 4))
        model = fit_zone(X)
        x = rng.normal(size=4)
        expected = sum((xi - mi) * wi for xi, mi, wi in zip(x, model.mean, model.loading))
        assert score_zone(model, x[None, :])[0] == pytest.approx(expected, abs=1e-12)

    def test_width_mismatch(self):
        model = fit_zone(np.random.default_rng(6).normal(size=(5, 3)))
        with pytest.raises(ConfigError):
            score_zone(model, np.zeros((2, 4)))

    def test_fitting_scores_are_centered(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(25, 5))
        model = fit_zone(X)
        assert abs(score_zone(model, X).mean()) < 1e-9


class TestThresholdSpectrum:
    def test_tau_zero_gives_zone_mean(self):
        model = fit_zone(np.random.default_rng(9).normal(size=(8, 3)))
        np.testing.assert_array_equal(threshold_spectrum(model, 0.0), model.mean)

    def test_tau_one_offsets_by_loading(self):
        model = fit_zone(np.random.default_rng(10).normal(size=(8, 3)))
        np.testing.assert_allclose(
            threshold_spectrum(model, 1.0) - model.mean, model.loading, atol=1e-15
        )

    @pytest.mark.parametrize("tau", [-3.7, -0.1, 0.25, 12.0])
    def test_round_trip_through_scoring(self, tau):
        model = fit_zone(np.random.default_rng(11).normal(size=(9, 4)))
        profile = threshold_spectrum(model, tau)
        assert score_zone(model, profile[None, :])[0] == pytest.approx(tau, abs=1e-9)


class TestFitAll:
    def test_fit_zone_models_shapes(self, small_dataset, small_zones):
        models, scores = fit_zone_models(small_dataset, small_zones)
        assert [m.zone_name for m in models] == ["left", "signal", "right"]
        assert scores.shape == (12, 3)
        assert np.max(np.abs(scores.mean(axis=0))) < 1e-9

    def test_json_export_is_lossless(self, small_dataset, small_zones):
        import json

        models, _ = fit_zone_models(small_dataset, small_zones)
        parsed = json.loads(zone_models_to_json(models))
        assert [m["name"] for m in parsed] == ["left", "signal", "right"]
        np.testing.assert_array_equal(np.asarray(parsed[1]["loading"]), models[1].loading)
        assert parsed[1]["variance_explained"] == models[1].variance_explained
