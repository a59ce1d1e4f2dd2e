import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

from smx import graphx, pipeline, synthgen
from smx.artifacts import trace_lines
from smx.dataio import SpectralDataset, Zone, ZoneConfig, kennard_stone_split
from smx.engine import (
    ENTRY_DTYPE,
    BagResult,
    MAX_BAGS,
    MAX_QUANTILES,
    EngineConfig,
    _predicted_classes,
    bag_size,
    draw_bag,
    min_support,
    output_shifts,
    responses,
    run_bags,
)
from smx.errors import ConfigError, ModelError
from smx.models import CONTINUOUS, PROBABILISTIC, LogisticModel, RidgeModel, fit_logistic, fit_ridge
from smx.parallel import run_ordered
from smx.predicates import Predicate, PredicateSet, build_predicates
from smx.zonecore import fit_zone_models

from parent_loops import model_outputs, perturb_zone, row_impacts


class TestEngineConfig:
    def test_defaults_match_documented_values(self):
        cfg = EngineConfig()
        assert cfg.bags == 10 and cfg.bag_fraction == 0.8
        assert cfg.quantiles == (0.2, 0.4, 0.6, 0.8)
        assert len(cfg.seeds) == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bags": 0},
            {"bags": MAX_BAGS + 1},
            {"bag_fraction": 0.0},
            {"bag_fraction": 1.5},
            {"min_support_fraction": 0.0},
            {"seeds": ()},
            {"seeds": (1, 1)},
            {"quantiles": ()},
            {"quantiles": (0.0, 0.5)},
            {"quantiles": (0.5, 1.0)},
            {"quantiles": (0.5, 0.4)},
            {"quantiles": (0.5, 0.5)},
            {"quantiles": tuple((k + 1) / (MAX_QUANTILES + 2) for k in range(MAX_QUANTILES + 1))},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            EngineConfig(**kwargs)

    def test_bag_count_bound_is_inclusive(self):
        assert EngineConfig(bags=MAX_BAGS).bags == MAX_BAGS

    def test_quantile_count_bound_is_inclusive(self):
        """Every percentile is allowed. On the widest shipped layout that
        bounds the predicates, and LRC's N x N array, at N = 4,356."""
        levels = tuple((k + 1) / 100 for k in range(MAX_QUANTILES))
        assert EngineConfig(quantiles=levels).quantiles == levels
        layouts = (Path(__file__).parents[1] / "zone_configs").glob("*.json")
        assert 2 * max(len(json.loads(p.read_text())) for p in layouts) * MAX_QUANTILES == 4356


class TestPredicateBound:
    """``prepare`` refuses zones x levels that could give more predicates than
    ``MAX_PREDICATES`` before it fits a zone or asks the model."""

    @staticmethod
    def _case(n_zones, n_levels):
        rng = np.random.default_rng(0)
        ds = SpectralDataset(
            axis=np.arange(1.0, 2 * n_zones + 1),
            intensities=rng.normal(size=(12, 2 * n_zones)),
            labels=np.repeat([0, 1], 6),
            sample_ids=[f"s{i}" for i in range(12)],
        )
        zones = ZoneConfig([Zone(f"z{m}", 2 * m + 1.0, 2 * m + 2.0, True) for m in range(n_zones)])
        return ds, zones, EngineConfig(quantiles=tuple((k + 1) / (n_levels + 1) for k in range(n_levels)))

    def test_refused_just_above_the_bound(self, monkeypatch):
        def untouched(*args):
            raise AssertionError("zones fitted before the bound was checked")

        monkeypatch.setattr(pipeline, "fit_zone_models", untouched)
        ds, zones, cfg = self._case(23, 99)
        message = "23 zones x 99 quantile levels allow 4554 predicates; at most 4356 are allowed"
        with pytest.raises(ConfigError, match=re.escape(message)):
            pipeline.prepare(ds, zones, None, cfg)

    def test_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(pipeline, "MAX_PREDICATES", 2 * 3 * 4)
        ds, zones, cfg = self._case(3, 4)
        model = fit_ridge(ds)
        assert len(pipeline.prepare(ds, zones, model, cfg).predicate_set) <= 24
        with pytest.raises(ConfigError, match="3 zones x 5 quantile levels allow 30 predicates"):
            pipeline.prepare(ds, zones, model, replace(cfg, quantiles=(0.1, 0.3, 0.5, 0.7, 0.9)))


class TestSupportBound:
    """``prepare`` refuses a support floor above the bag size, under which no
    predicate could be retained, before it fits a zone or asks the model."""

    def test_refused_above_the_bag_size(self, monkeypatch):
        def untouched(*args):
            raise AssertionError("zones fitted before the support floor was checked")

        monkeypatch.setattr(pipeline, "fit_zone_models", untouched)
        ds, zones, cfg = TestPredicateBound._case(3, 4)
        message = "min support 7 (min_support_fraction 0.51 of 12 samples) exceeds the bag size 6 (bag_fraction 0.5)"
        with pytest.raises(ConfigError, match=re.escape(message)):
            pipeline.prepare(ds, zones, None, replace(cfg, bag_fraction=0.5, min_support_fraction=0.51))

    def test_floor_equal_to_the_bag_size_runs(self):
        ds, zones, cfg = TestPredicateBound._case(3, 4)
        prepared = pipeline.prepare(ds, zones, fit_ridge(ds), replace(cfg, bag_fraction=0.5, min_support_fraction=0.5))
        assert len(prepared.predicate_set) > 0


class TestDrawBag:
    def test_full_draw_is_permutation(self):
        subset = draw_bag(3, 0, 7, 7)
        assert sorted(subset) == list(range(7))

    def test_fixed_key_is_deterministic(self):
        np.testing.assert_array_equal(draw_bag(5, 2, 20, 10), draw_bag(5, 2, 20, 10))

    def test_different_bags_differ(self):
        assert not np.array_equal(draw_bag(5, 0, 30, 20), draw_bag(5, 1, 30, 20))

    def test_two_of_four_frequencies_uniform(self):
        counts = np.zeros(4)
        for b in range(10_000):
            counts[draw_bag(123, b, 4, 2)] += 1
        np.testing.assert_allclose(counts / 10_000, np.full(4, 0.5), atol=0.02)

    def test_oversized_draw_rejected(self):
        with pytest.raises(ConfigError):
            draw_bag(0, 0, 3, 4)


class _Recording:
    """A model of the given kind answering ``answer(X)``; it keeps a copy
    of every matrix it is sent."""

    def __init__(self, kind, answer):
        self.kind, self.answer, self.sent = kind, answer, []

    def _call(self, X):
        self.sent.append(X.copy())
        return self.answer(X)

    predict = predict_proba = _call


def _probabilities(X):
    """Class-1 probability column 0, class-0 its complement."""
    return np.column_stack([1.0 - X[:, 0], X[:, 0]])


def _shifts(model, X, edits):
    return list(output_shifts(model, X, edits)[1])


class TestPerturb:
    """The edits ``output_shifts`` makes to the matrix it sends."""

    def test_empty_zone_is_identity(self):
        X = np.random.default_rng(0).normal(size=(4, 5))
        model = _Recording(CONTINUOUS, lambda A: A.sum(axis=1))
        (shift,) = _shifts(model, X, [(np.array([], dtype=int), np.zeros(0))])
        np.testing.assert_array_equal(model.sent[1], X)
        np.testing.assert_array_equal(shift, np.zeros(4))

    def test_odd_median(self):
        col = np.array([1.0, 2.0, 100.0])
        assert np.median(col) == 2.0

    def test_even_median_midpoint(self):
        assert np.median(np.array([1.0, 3.0])) == 2.0

    def test_locality_exact(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(6, 8))
        med = rng.normal(size=8)
        zone = np.array([2, 3, 4])
        model = _Recording(CONTINUOUS, lambda A: A.sum(axis=1))
        _shifts(model, X, [(zone, med[zone]), ([7], 0.0)])
        intact, edited, zeroed = model.sent
        np.testing.assert_array_equal(intact, X)
        np.testing.assert_array_equal(np.delete(edited, zone, axis=1), np.delete(X, zone, axis=1))
        np.testing.assert_array_equal(edited[:, zone], np.tile(med[zone], (6, 1)))
        np.testing.assert_array_equal(zeroed[:, :7], X[:, :7])
        np.testing.assert_array_equal(zeroed[:, 7], np.zeros(6))

    def test_out_of_range_rejected(self):
        """Also through ``responses``: a library caller can pass zone
        models fitted on a wider dataset."""
        for columns in ([3], [0, -1], 3, [2, 7]):
            model = _Recording(CONTINUOUS, lambda A: A.sum(axis=1))
            with pytest.raises(ConfigError, match="zone index out of range"):
                _shifts(model, np.zeros((2, 3)), [(columns, 0.0)])
            assert len(model.sent) == 1
            with pytest.raises(ConfigError, match="zone index out of range"):
                responses(model, np.zeros((2, 3)), [SimpleNamespace(indices=np.atleast_1d(columns))])

    @pytest.mark.parametrize("kind", [CONTINUOUS, PROBABILISTIC])
    def test_matrix_unchanged_after_the_call_and_after_a_model_error(self, kind):
        X = np.random.default_rng(2).normal(size=(5, 4))
        before = X.copy()
        answer = (lambda A: A[:, 0]) if kind == CONTINUOUS else _probabilities
        model = _Recording(kind, answer)
        outputs, shifts = output_shifts(model, X, [([0, 1], 9.0), ([2], -3.0)])
        for _ in shifts:
            np.testing.assert_array_equal(X, before)
        np.testing.assert_array_equal(X, before)
        np.testing.assert_array_equal(outputs, answer(before))

        def fail_second(A):
            if len(model.sent) == 2:
                raise ModelError("model failed")
            return answer(A)

        model = _Recording(kind, fail_second)
        with pytest.raises(ModelError):
            _shifts(model, X, [([1, 3], 5.0)])
        np.testing.assert_array_equal(model.sent[1][:, [1, 3]], np.full((5, 2), 5.0))
        np.testing.assert_array_equal(X, before)


class TestImpacts:
    """The per-row shifts ``output_shifts`` yields."""

    def test_identical_vectors_zero(self):
        X = np.random.default_rng(3).uniform(size=(6, 3))
        same = [(1, X[:, 1]), ([0, 2], X[:, [0, 2]])]
        for model in (_Recording(CONTINUOUS, lambda A: A @ [1.0, -2.0, 0.5]), _Recording(PROBABILISTIC, _probabilities)):
            for shift in _shifts(model, X, same):
                np.testing.assert_array_equal(shift, np.zeros(6))

    def test_continuous_direct_value(self):
        (shift,) = _shifts(_Recording(CONTINUOUS, lambda A: A[:, 0].copy()), np.array([[1.0], [0.0]]), [([0], 0.0)])
        assert float(np.mean(shift)) == 0.5

    def test_continuous_absolute_homogeneity(self):
        X = np.array([[1.0, -2.0], [0.5, 3.0], [-1.0, 0.0]])
        w = np.array([0.7, -1.3])
        (a,) = _shifts(RidgeModel(weights=w, intercept=0.0), X, [([0, 1], [0.25, 2.0])])
        (b,) = _shifts(RidgeModel(weights=3 * w, intercept=0.0), X, [([0, 1], [0.25, 2.0])])
        np.testing.assert_allclose(b, 3 * a, rtol=1e-15)

    def test_probabilistic_single_row(self):
        (shift,) = _shifts(_Recording(PROBABILISTIC, _probabilities), np.array([[0.1]]), [([0], 0.4)])
        assert float(shift[0]) == pytest.approx(0.3, abs=1e-15)

    def test_probabilistic_bound_attained(self):
        (shift,) = _shifts(_Recording(PROBABILISTIC, _probabilities), np.array([[0.0]]), [([0], 1.0)])
        assert float(shift[0]) == 1.0


class TestSizing:
    def test_bag_size_rounding(self):
        assert bag_size(169, 0.8) == 135
        assert bag_size(10, 1.0) == 10

    def test_min_support_ceiling(self):
        assert min_support(169, 0.2) == 34
        assert min_support(13, 0.2) == 3


def _toy_problem(seed=0, n=40, signal=2.0):
    """Two zones on 6 variables; only the 'signal' zone separates classes."""
    rng = np.random.default_rng(seed)
    from smx.dataio import SpectralDataset, Zone, ZoneConfig

    labels = np.array([0] * (n // 2) + [1] * (n // 2))
    X = rng.normal(0, 0.3, size=(n, 6))
    X[labels == 1, 0:3] += signal
    ds = SpectralDataset(
        axis=np.arange(1.0, 7.0),
        intensities=X,
        labels=labels,
        sample_ids=[f"s{i}" for i in range(n)],
    )
    zones = ZoneConfig([Zone("signal", 1.0, 3.0, True), Zone("noise", 4.0, 6.0, False)])
    return ds, zones


@pytest.fixture(scope="module")
def benchmark_problem():
    """The paper benchmark: mean-centred Kennard-Stone training part and
    the reference logistic fitted at its defaults."""
    from smx.dataio import apply_preprocess, fit_preprocess

    ds = synthgen.generate(synthgen.benchmark_config())
    train, _ = kennard_stone_split(ds, 0.7)
    train = apply_preprocess(fit_preprocess(train, "mean_center"), train)
    return train, synthgen.benchmark_zones(), fit_logistic(train)


def _run_bags(model, X_train, zone_models, pset, cfg, seed, workers=1):
    """``run_bags`` from the model's responses on ``X_train``."""
    resp = responses(model, X_train, zone_models)
    return run_bags(resp.shifts, resp.classes, zone_models, pset, cfg, seed, workers=workers)


class TestRunBags:
    def test_low_support_predicates_filtered(self):
        ds, zones = _toy_problem()
        zone_models, scores = fit_zone_models(ds, zones)
        pset = build_predicates(scores, zone_models, EngineConfig(quantiles=(0.2, 0.4, 0.6, 0.8)))
        model = fit_logistic(ds, l2=0.1, max_iters=200)
        cfg = EngineConfig(bags=3, min_support_fraction=0.45, seeds=(1,))
        results = _run_bags(model, ds.intensities, zone_models, pset, cfg, seed=1)
        n_min = min_support(ds.n_samples, 0.45)
        for bag in results:
            subset = draw_bag(1, bag.bag_index, ds.n_samples, bag_size(ds.n_samples, 0.8))
            for j in range(len(pset)):
                support = _support(pset, j, subset).size
                present = j in bag.entries["predicate"]
                assert present == (support >= n_min)

    def test_zero_weight_zone_scores_exactly_zero(self):
        ds, zones = _toy_problem()
        zone_models, scores = fit_zone_models(ds, zones)
        pset = build_predicates(scores, zone_models, EngineConfig(quantiles=(0.5,)))
        weights = np.zeros(6)
        weights[0:3] = [1.0, -0.5, 2.0]  # the 'noise' zone columns carry no weight
        model = RidgeModel(weights=weights, intercept=0.3)
        cfg = EngineConfig(bags=4, seeds=(1,), min_support_fraction=0.05)
        results = _run_bags(model, ds.intensities, zone_models, pset, cfg, seed=1)
        noise_preds = {j for j, p in enumerate(pset.predicates) if p.zone_name == "noise"}
        seen = 0
        for bag in results:
            for predicate, impact, raw_impact, _support in bag.entries.tolist():
                if predicate in noise_preds:
                    assert impact == 0.0 and raw_impact == 0.0
                    seen += 1
        assert seen > 0

    def test_normalization_factor_is_zone_width(self):
        ds, zones = _toy_problem()
        zone_models, scores = fit_zone_models(ds, zones)
        pset = build_predicates(scores, zone_models, EngineConfig(quantiles=(0.3, 0.7)))
        model = fit_logistic(ds, l2=0.1, max_iters=200)
        cfg = EngineConfig(bags=2, seeds=(1,))
        for bag in _run_bags(model, ds.intensities, zone_models, pset, cfg, seed=1):
            for predicate, impact, raw_impact, _support in bag.entries.tolist():
                width = zone_models[pset.predicates[predicate].zone_index].width
                assert abs(impact * width - raw_impact) < 1e-12

    def test_ranking_descending_with_stable_ties(self):
        ds, zones = _toy_problem()
        zone_models, scores = fit_zone_models(ds, zones)
        pset = build_predicates(scores, zone_models, EngineConfig(quantiles=(0.2, 0.5, 0.8)))
        model = fit_logistic(ds, l2=0.1, max_iters=200)
        cfg = EngineConfig(bags=3, seeds=(2,))
        for bag in _run_bags(model, ds.intensities, zone_models, pset, cfg, seed=2):
            ranked = bag.entries[["predicate", "impact"]].tolist()
            impacts = [impact for _, impact in ranked]
            assert impacts == sorted(impacts, reverse=True)
            for (j_a, impact_a), (j_b, impact_b) in zip(ranked, ranked[1:]):
                if impact_a == impact_b:
                    assert j_a < j_b

    def test_workers_do_not_change_results(self):
        ds, zones = _toy_problem()
        zone_models, scores = fit_zone_models(ds, zones)
        pset = build_predicates(scores, zone_models, EngineConfig(quantiles=(0.2, 0.4, 0.6, 0.8)))
        model = fit_logistic(ds, l2=0.1, max_iters=200)
        cfg = EngineConfig(bags=6, seeds=(3,))
        serial = _run_bags(model, ds.intensities, zone_models, pset, cfg, seed=3, workers=1)
        threaded = _run_bags(model, ds.intensities, zone_models, pset, cfg, seed=3, workers=4)
        assert _bag_tuples(serial) == _bag_tuples(threaded)

    def test_benchmark_feature1_leads_most_bags(self, benchmark_problem):
        train, zones, model = benchmark_problem
        zone_models, scores = fit_zone_models(train, zones)
        pset = build_predicates(scores, zone_models, EngineConfig(quantiles=(0.2, 0.4, 0.6, 0.8)))
        cfg = EngineConfig()
        results = _run_bags(model, train.intensities, zone_models, pset, cfg, seed=1)
        leading = sum(
            1
            for bag in results
            if bag.entries.size and pset.predicates[bag.entries["predicate"][0]].zone_name == "Feature 1"
        )
        assert leading >= 9

    def test_ridge_impact_respects_linear_bound(self):
        rng = np.random.default_rng(21)
        ds, zones = _toy_problem(seed=4)
        zone_models, scores = fit_zone_models(ds, zones)
        pset = build_predicates(scores, zone_models, EngineConfig(quantiles=(0.4, 0.6)))
        model = RidgeModel(weights=rng.normal(size=6), intercept=0.1)
        medians = np.median(ds.intensities, axis=0)
        cfg = EngineConfig(bags=3, seeds=(5,))
        for bag in _run_bags(model, ds.intensities, zone_models, pset, cfg, seed=5):
            for predicate, impact, _raw, _support in bag.entries.tolist():
                pred = pset.predicates[predicate]
                idx = zone_models[pred.zone_index].indices
                bound = sum(
                    abs(model.weights[j]) * np.max(np.abs(ds.intensities[:, j] - medians[j]))
                    for j in idx
                )
                assert impact <= bound / idx.size + 1e-12

    def test_terminal_class_majority_rule(self):
        ds, zones = _toy_problem(signal=5.0)
        zone_models, scores = fit_zone_models(ds, zones)
        pset = build_predicates(scores, zone_models, EngineConfig(quantiles=(0.5,)))
        model = fit_logistic(ds, l2=0.01, max_iters=500)
        cfg = EngineConfig(bags=4, seeds=(1,), min_support_fraction=0.1)
        for bag in _run_bags(model, ds.intensities, zone_models, pset, cfg, seed=1):
            if bag.entries.size:
                assert bag.terminal_class in (0, 1)
            else:
                assert bag.terminal_class is None

    def test_all_filtered_bag_yields_empty_result(self):
        ds, zones = _toy_problem()
        zone_models, scores = fit_zone_models(ds, zones)
        pset = build_predicates(scores, zone_models, EngineConfig(quantiles=(0.5,)))
        model = fit_logistic(ds, l2=0.1, max_iters=100)
        # bag holds 32 of 40 samples but every predicate needs 36 supporters
        cfg = EngineConfig(bags=2, seeds=(1,), min_support_fraction=0.9)
        results = _run_bags(model, ds.intensities, zone_models, pset, cfg, seed=1)
        assert all(bag.entries.size == 0 and bag.terminal_class is None for bag in results)
        from smx.graphx import build_graph

        graph = build_graph(results, zone_models, pset, seed=1)
        assert graph.edges == {}

    def test_trace_lines_are_valid_json(self):
        ds, zones = _toy_problem()
        zone_models, scores = fit_zone_models(ds, zones)
        pset = build_predicates(scores, zone_models, EngineConfig(quantiles=(0.5,)))
        model = fit_logistic(ds, l2=0.1, max_iters=100)
        cfg = EngineConfig(bags=2, seeds=(1,))
        results = _run_bags(model, ds.intensities, zone_models, pset, cfg, seed=1)
        lines = trace_lines(1, results, pset)
        assert lines
        record = json.loads(lines[0])
        assert set(record) == {
            "seed",
            "bag",
            "predicate",
            "label",
            "support",
            "impact_raw",
            "impact_norm",
        }


class _Entry(NamedTuple):
    """Stand-in for the per-entry object that bags held before they
    became ``ENTRY_DTYPE`` record arrays; the references below build it."""

    predicate: int
    impact: float
    raw_impact: float
    support: int


@dataclass
class _Bag:
    bag_index: int
    entries: list[_Entry] = field(default_factory=list)
    terminal_class: int | None = None


def _rows(entries):
    """(predicate, impact, raw_impact, support) tuples of a bag's record
    array or of a reference's ``_Entry`` list."""
    return entries.tolist() if isinstance(entries, np.ndarray) else [tuple(e) for e in entries]


def _bag_tuples(results):
    return [(bag.bag_index, _rows(bag.entries), bag.terminal_class) for bag in results]


def _as_records(bags):
    """``BagResult``s holding the record arrays of reference bags."""
    return [BagResult(bag.bag_index, np.array(_rows(bag.entries), dtype=ENTRY_DTYPE), bag.terminal_class) for bag in bags]


def _support(pset, j, rows):
    """The rows among ``rows`` that satisfy predicate ``j``, in their order."""
    return rows[pset.indicator[rows, j]]


def _reference_run_bags(model, X_train, zone_models, pset, cfg, seed):
    """The per-predicate scorer the per-zone cache replaced: one model
    call per (bag, retained predicate) on the median-replaced
    satisfying rows of the bag."""
    X = np.asarray(X_train, dtype=float)
    n = X.shape[0]
    n_b = bag_size(n, cfg.bag_fraction)
    n_min = min_support(n, cfg.min_support_fraction)
    medians = np.median(X, axis=0)
    query = model.predict if model.kind == CONTINUOUS else model.predict_proba
    outputs = query(X)
    if model.kind == CONTINUOUS:
        classes = (outputs > 0.5).astype(int)
    else:
        classes = np.where(outputs[:, 1] > outputs[:, 0], 1, 0)
    results = []
    for b in range(cfg.bags):
        subset = draw_bag(seed, b, n, n_b)
        scored = []
        for j, pred in enumerate(pset.predicates):
            sat = _support(pset, j, subset)
            if sat.size < n_min:
                continue
            zm = zone_models[pred.zone_index]
            pert = query(perturb_zone(X[sat], zm.indices, medians))
            raw = float(np.mean(row_impacts(model.kind, outputs[sat], pert)))
            scored.append(_Entry(predicate=j, impact=raw / zm.width, raw_impact=raw, support=int(sat.size)))
        scored.sort(key=lambda e: (-e.impact, e.predicate))
        result = _Bag(bag_index=b, entries=scored)
        if scored:
            sat = _support(pset, scored[-1].predicate, subset)
            ones = int(np.count_nonzero(classes[sat] == 1))
            result.terminal_class = 1 if ones > sat.size - ones else 0
        results.append(result)
    return results


@pytest.fixture
def toy_ridge():
    ds, zones = _toy_problem(seed=4)
    weights = np.random.default_rng(21).normal(size=6)
    return ds, zones, RidgeModel(weights=weights, intercept=0.1)


@pytest.fixture
def toy_logistic():
    ds, zones = _toy_problem()
    return ds, zones, fit_logistic(ds, l2=0.1, max_iters=200)


def _parent_run_bags(model, X_train, zone_models, pset, cfg, seed, workers=1):
    """The per-predicate ``np.mean`` scorer that the masked reduction
    replaced, verbatim apart from the name: it recomputed the responses
    for every seed and scored one predicate at a time."""
    X = np.asarray(X_train, dtype=float)
    n = X.shape[0]
    if pset.indicator.shape[0] != n:
        raise ConfigError("predicate indicator rows must match the training matrix")
    n_b = bag_size(n, cfg.bag_fraction)
    n_min = min_support(n, cfg.min_support_fraction)
    medians = np.median(X, axis=0)
    outputs = model_outputs(model, X)
    classes = _predicted_classes(model.kind, outputs)
    D = np.column_stack(
        [
            row_impacts(model.kind, outputs, model_outputs(model, perturb_zone(X, zm.indices, medians)))
            for zm in zone_models
        ]
    )
    zone_of = [p.zone_index for p in pset.predicates]
    zone_width = [zone_models[m].width for m in zone_of]

    def one_bag(b: int) -> _Bag:
        subset = draw_bag(seed, b, n, n_b)
        scored = []
        for j in range(len(pset)):
            sat = _support(pset, j, subset)
            if sat.size < n_min:
                continue
            raw = float(np.mean(D[sat, zone_of[j]]))
            scored.append(_Entry(predicate=j, impact=raw / zone_width[j], raw_impact=raw, support=int(sat.size)))
        scored.sort(key=lambda e: (-e.impact, e.predicate))
        result = _Bag(bag_index=b, entries=scored)
        if scored:
            last = scored[-1]
            sat = _support(pset, last.predicate, subset)
            ones = int(np.count_nonzero(classes[sat] == 1))
            result.terminal_class = 1 if ones > sat.size - ones else 0
        return result

    return run_ordered(one_bag, list(range(cfg.bags)), workers)


def _assert_same_bags(got, want, cfg):
    assert len(got) == len(want) == cfg.bags
    for g, w in zip(got, want):
        assert g.bag_index == w.bag_index
        assert g.terminal_class == w.terminal_class
        assert [(j, support) for j, _, _, support in _rows(g.entries)] == [(e.predicate, e.support) for e in w.entries]
        # Outputs are of order one and the cache evaluates full rows
        # where the per-predicate reference evaluated bag subsets, so an
        # output may move by one ULP; on a small shift that is more than
        # 1e-12 relative, hence the absolute floor.
        np.testing.assert_allclose(
            g.entries["raw_impact"], [e.raw_impact for e in w.entries], rtol=1e-12, atol=1e-15
        )


class TestPerZoneCache:
    @pytest.mark.parametrize("problem", ["toy_ridge", "toy_logistic", "benchmark_problem"])
    def test_matches_per_predicate_reference(self, problem, request):
        ds, zones, model = request.getfixturevalue(problem)
        zone_models, scores = fit_zone_models(ds, zones)
        pset = build_predicates(scores, zone_models, EngineConfig(quantiles=(0.2, 0.4, 0.6, 0.8)))
        cfg = EngineConfig(min_support_fraction=0.1)
        resp = responses(model, ds.intensities, zone_models)
        for seed in (1, 2):
            got = run_bags(resp.shifts, resp.classes, zone_models, pset, cfg, seed)
            want = _reference_run_bags(model, ds.intensities, zone_models, pset, cfg, seed)
            _assert_same_bags(got, want, cfg)

    @pytest.mark.parametrize("bags", [1, 10])
    @pytest.mark.parametrize("quantiles", [[0.5], [k / 10 for k in range(1, 10)]])
    def test_one_call_per_zone_plus_one(self, bags, quantiles, toy_logistic):
        ds, zones, model = toy_logistic
        rows = []

        class Counting:
            kind = model.kind

            def predict_proba(self, X):
                rows.append(len(X))
                return model.predict_proba(X)

        cfg = EngineConfig(bags=bags, quantiles=tuple(quantiles), seeds=(1, 2, 3, 4), min_support_fraction=0.05)
        result = pipeline.explain(ds, zones, Counting(), cfg)
        assert sum(bag.entries.size for bags_ in result.bag_results.values() for bag in bags_) > bags
        assert rows == [ds.n_samples] * (len(zones.zones) + 1)

    def test_rank_keeps_the_prepared_config(self, toy_logistic):
        """A prepared run is reranked by seeds alone: every other setting is
        the one it was prepared with, and the seeds meet ``EngineConfig``'s rule."""
        ds, zones, model = toy_logistic
        cfg = EngineConfig(bags=3, quantiles=(0.5,), seeds=(1, 2))
        prepared = pipeline.prepare(ds, zones, model, cfg)
        assert pipeline.rank(prepared).predicate_labels() == pipeline.explain(ds, zones, model, cfg).predicate_labels()
        rerun = pipeline.rank(prepared, (7,))
        assert list(rerun.bag_results) == [7] and len(rerun.bag_results[7]) == 3
        with pytest.raises(ConfigError, match="seeds must be distinct"):
            pipeline.rank(prepared, (4, 4))


class TestMaskedReduction:
    @pytest.mark.parametrize("problem", ["toy_ridge", "toy_logistic", "benchmark_problem"])
    @pytest.mark.parametrize("min_support_fraction", [0.05, 0.2, 0.45])
    def test_matches_parent_mean_loop(self, problem, min_support_fraction, request):
        ds, zones, model = request.getfixturevalue(problem)
        zone_models, scores = fit_zone_models(ds, zones)
        pset = build_predicates(scores, zone_models, EngineConfig(quantiles=tuple(k / 10 for k in range(1, 10))))
        cfg = EngineConfig(min_support_fraction=min_support_fraction)
        resp = responses(model, ds.intensities, zone_models)
        for seed in (1, 2, 3):
            got = run_bags(resp.shifts, resp.classes, zone_models, pset, cfg, seed)
            want = _parent_run_bags(model, ds.intensities, zone_models, pset, cfg, seed)
            assert [g.entries[["predicate", "support"]].tolist() for g in got] == [
                [(e.predicate, e.support) for e in w.entries] for w in want
            ]
            assert [g.terminal_class for g in got] == [w.terminal_class for w in want]
            # same shifts, summed in another order: a few ULPs at most
            for g, w in zip(got, want):
                np.testing.assert_allclose(
                    g.entries["raw_impact"], [e.raw_impact for e in w.entries], rtol=1e-12, atol=0
                )
                np.testing.assert_allclose(
                    g.entries["impact"], [e.impact for e in w.entries], rtol=1e-12, atol=0
                )

    def test_responses_shape_checked(self, toy_logistic):
        ds, zones, model = toy_logistic
        zone_models, scores = fit_zone_models(ds, zones)
        pset = build_predicates(scores, zone_models, EngineConfig(quantiles=(0.5,)))
        resp = responses(model, ds.intensities, zone_models)
        with pytest.raises(ConfigError):
            run_bags(resp.shifts[1:], resp.classes[1:], zone_models, pset, EngineConfig(), 1)


def _parent_draw_bag(seed, bag_index, n, n_b):
    """The one-``integers``-call-per-swap loop that ``draw_bag`` replaced."""
    if not (1 <= n_b <= n):
        raise ConfigError(f"bag size {n_b} outside [1, {n}]")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), int(bag_index))))
    idx = np.arange(n)
    for i in range(n_b):
        j = i + int(rng.integers(0, n - i))
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:n_b]


class TestDrawBagAgainstParent:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 169, 1000, 2000, 4096])
    def test_same_bags(self, n):
        for seed in (0, 1, 7, 42, 2**31 + 5):
            for bag in range(3):
                for n_b in sorted({1, max(1, n // 2), bag_size(n, 0.8), n}):
                    got = draw_bag(seed, bag, n, n_b)
                    want = _parent_draw_bag(seed, bag, n, n_b)
                    assert got.dtype == want.dtype
                    np.testing.assert_array_equal(got, want)


# Reference for the directly written ``artifacts.trace_lines``: the
# implementation it replaced, copied verbatim (one ``json.dumps`` a line).
def _reference_trace_lines(seed, results, pset):
    """Bag-level audit trace, one JSON object per retained predicate."""
    lines = []
    for bag in results:
        for entry in bag.entries:
            pred = pset.predicates[entry.predicate]
            lines.append(
                json.dumps(
                    {
                        "seed": seed,
                        "bag": bag.bag_index,
                        "predicate": entry.predicate,
                        "label": pred.key,
                        "support": entry.support,
                        "impact_raw": entry.raw_impact,
                        "impact_norm": entry.impact,
                    },
                    sort_keys=True,
                )
            )
    return lines


class TestTraceLinesAgainstJsonDumps:
    NAMES = ['quote "q"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "Ünïcödé λ", "日本 🙂", ""]
    IMPACTS = [0.1, 1e-320, -0.0, float("nan"), float("inf"), float("-inf"), 1e16, 123456789.0, np.float64(1 / 3)]

    def _pset(self):
        preds = [
            Predicate(zone_index=j, zone_name=name, direction="<=" if j % 2 else ">", tau=tau)
            for j, (name, tau) in enumerate(zip(self.NAMES, [0.1, -2.5e-300, 1e22, float("nan"), -0.0, 2 / 3]))
        ]
        return PredicateSet(predicates=preds, indicator=np.ones((2, len(preds)), dtype=bool))

    def test_special_labels_and_impacts(self):
        pset = self._pset()
        entries = [
            _Entry(predicate=j % len(self.NAMES), impact=imp, raw_impact=self.IMPACTS[-1 - j], support=j + 1)
            for j, imp in enumerate(self.IMPACTS)
        ]
        bags = [_Bag(0, entries[:4], 1), _Bag(1), _Bag(2, entries[4:], 0)]
        got = trace_lines(3, _as_records(bags), pset)
        assert len(got) == len(entries)
        assert got == _reference_trace_lines(3, bags, pset)

    def test_empty_bags_and_no_bags(self):
        pset = self._pset()
        assert trace_lines(1, _as_records([_Bag(0), _Bag(1)]), pset) == []
        assert trace_lines(1, [], pset) == []

    def test_engine_results(self):
        ds, zones = _toy_problem()
        zone_models, scores = fit_zone_models(ds, zones)
        pset = build_predicates(scores, zone_models, EngineConfig(quantiles=(0.25, 0.5, 0.75)))
        model = fit_logistic(ds, l2=0.1, max_iters=100)
        cfg = EngineConfig(bags=4, seeds=(1,))
        resp = responses(model, ds.intensities, zone_models)
        got = trace_lines(1, run_bags(resp.shifts, resp.classes, zone_models, pset, cfg, 1), pset)
        want = _object_run_bags(resp.shifts, resp.classes, zone_models, pset, cfg, 1)
        assert got and got == _reference_trace_lines(1, want, pset)


# The bag scorer and graph accumulation from before bags became record
# arrays, verbatim apart from the stand-in entry type: the same masked
# reduction, one object per retained predicate, and a graph loop over
# those objects. The record arrays must reproduce them exactly.
def _object_run_bags(shifts, classes, zone_models, pset, cfg, seed, workers=1):
    D = np.asarray(shifts, dtype=float)
    classes = np.asarray(classes)
    n = D.shape[0]
    n_b = bag_size(n, cfg.bag_fraction)
    n_min = min_support(n, cfg.min_support_fraction)
    zone_of = np.array([p.zone_index for p in pset.predicates], dtype=int)
    zone_width = np.array([zone_models[m].width for m in zone_of], dtype=float)

    def one_bag(b: int) -> _Bag:
        subset = draw_bag(seed, b, n, n_b)
        I = pset.indicator[subset]
        supports = I.sum(axis=0)
        kept = np.flatnonzero(supports >= n_min)
        raw = np.where(I[:, kept], D[np.ix_(subset, zone_of[kept])], 0.0).sum(axis=0) / supports[kept]
        impact = raw / zone_width[kept]
        order = np.lexsort((kept, -impact))
        result = _Bag(
            bag_index=b,
            entries=[
                _Entry(
                    predicate=int(kept[k]),
                    impact=float(impact[k]),
                    raw_impact=float(raw[k]),
                    support=int(supports[kept[k]]),
                )
                for k in order
            ],
        )
        if kept.size:
            last = kept[order[-1]]
            ones = int(np.count_nonzero(classes[subset][I[:, last]] == 1))
            result.terminal_class = 1 if ones > supports[last] - ones else 0
        return result

    return run_ordered(one_bag, list(range(cfg.bags)), workers)


def _object_build_graph(bag_results, zone_models, pset, seed):
    """The graph's edge dict from the object loop, then the same resolution."""
    n_pred = len(pset)
    ve = [zone_models[p.zone_index].variance_explained for p in pset.predicates]
    acc = {}
    for bag in bag_results:
        entries = bag.entries
        if not entries:
            continue
        for cur, nxt in zip(entries, entries[1:]):
            w = cur.impact * ve[cur.predicate]
            key = (cur.predicate, nxt.predicate)
            acc[key] = acc.get(key, 0.0) + w
        last = entries[-1]
        key = (last.predicate, n_pred + int(bag.terminal_class))
        acc[key] = acc.get(key, 0.0) + last.impact * ve[last.predicate]
    edges = {k: w for k, w in acc.items() if w > 0.0}
    graphx._resolve_bidirectional(edges)
    graphx._break_cycles(edges, seed)
    return edges


def _random_case(rng):
    """A random dataset, contiguous zones, model, quantiles and engine config."""
    from smx.dataio import SpectralDataset, Zone, ZoneConfig

    n, n_zones, width = int(rng.integers(6, 60)), int(rng.integers(1, 7)), int(rng.integers(2, 6))
    p = n_zones * width
    labels = np.arange(n) % 2
    X = rng.normal(size=(n, p)) + np.outer(labels, rng.normal(size=p))
    ds = SpectralDataset(axis=np.arange(1.0, p + 1), intensities=X, labels=labels, sample_ids=[f"s{i}" for i in range(n)])
    zones = ZoneConfig([Zone(f"z{k}", 1.0 + k * width, float((k + 1) * width), bool(k % 2)) for k in range(n_zones)])
    weights = rng.normal(size=p) * (rng.random(p) < 0.7)  # some zones may carry no weight: tied zero impacts
    model = RidgeModel(weights, 0.1) if rng.random() < 0.5 else LogisticModel(weights, -0.2)
    levels = [k / 10 for k in range(1, 10)]
    quantiles = tuple(sorted(rng.choice(levels, size=int(rng.integers(1, 10)), replace=False).tolist()))
    cfg = EngineConfig(
        bags=int(rng.integers(1, 12)),
        bag_fraction=float(rng.uniform(0.2, 1.0)),
        min_support_fraction=float(rng.uniform(0.02, 0.9)),
        quantiles=quantiles,
        seeds=tuple(int(s) for s in rng.choice(1000, size=2, replace=False)),
    )
    return ds, zones, model, cfg


class TestRecordsAgainstObjects:
    def _check(self, ds, zones, model, cfg):
        zone_models, scores = fit_zone_models(ds, zones)
        pset = build_predicates(scores, zone_models, cfg)
        resp = responses(model, ds.intensities, zone_models)
        for seed in cfg.seeds:
            got = run_bags(resp.shifts, resp.classes, zone_models, pset, cfg, seed)
            want = _object_run_bags(resp.shifts, resp.classes, zone_models, pset, cfg, seed)
            assert all(bag.entries.dtype == ENTRY_DTYPE for bag in got)
            assert _bag_tuples(got) == _bag_tuples(want)
            edges = graphx.build_graph(got, zone_models, pset, seed).edges
            assert list(edges.items()) == list(_object_build_graph(want, zone_models, pset, seed).items())
            assert trace_lines(seed, got, pset) == _reference_trace_lines(seed, want, pset)

    def test_random_configs(self):
        rng = np.random.default_rng(2026)
        for _ in range(40):
            self._check(*_random_case(rng))

    def test_many_zones(self, benchmark_problem):
        """30 equal-width zones x 9 quantiles on the benchmark training set."""
        from smx.dataio import Zone, ZoneConfig

        train, _, model = benchmark_problem
        axis, width = train.axis, train.axis.size // 30
        zones = ZoneConfig(
            [Zone(f"Z{k + 1:02d}", float(axis[k * width]), float(axis[(k + 1) * width - 1]), False) for k in range(30)]
        )
        self._check(train, zones, model, EngineConfig(quantiles=tuple(k / 10 for k in range(1, 10))))
