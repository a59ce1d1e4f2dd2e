import itertools
import json
import math
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from smx import dataio, models, synthgen
from smx.errors import ConfigError, PipelineError
from smx.evalkit import (
    MAX_PFI_REPEATS,
    MAX_STABILITY_RUNS,
    EvaluateConfig,
    agreement_curve,
    faithfulness_curve,
    make_curve,
    pfi,
    rbo,
    simplicity_curve,
    stability_study,
    trapezoid_auc,
    wilcoxon_signed_rank,
)
from smx.models import ExternalModel, LogisticModel, RidgeModel

import parent_rules
from parent_loops import model_outputs, row_impacts

STUB = str(Path(__file__).parent / "helpers" / "external_model.py")


def rbo_oracle(a, b, rho, depth):
    """Literal term-by-term evaluation of the extrapolated estimator."""
    k = min(depth, max(len(a), len(b)))
    total = 0.0
    x_d = 0
    for d in range(1, k + 1):
        x_d = len(set(a[:d]) & set(b[:d]))
        total += x_d / d * rho**d
    return (x_d / k) * rho**k + (1 - rho) / rho * total


def wilcoxon_oracle(diffs):
    """Full 2^n sign enumeration with exact rational arithmetic."""
    from scipy.stats import rankdata

    d = np.asarray(diffs, dtype=float)
    d = d[d != 0]
    ranks = rankdata(np.abs(d))
    doubled = np.rint(2 * ranks).astype(int)
    w_plus = int(doubled[d > 0].sum())
    w_minus = int(doubled[d < 0].sum())
    w_obs = min(w_plus, w_minus)
    n = d.size
    count = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for r, s in zip(doubled, signs) if s)
        if w <= w_obs:
            count += 1
    p = Fraction(2 * count, 2**n)
    return w_obs / 2.0, min(p, Fraction(1))


def tie_patterns(n: int, rng) -> dict[str, np.ndarray]:
    """Signed differences of length ``n`` whose |d| tie: all equal, in
    pairs, in triples, and at random among three values."""
    signs = rng.choice([-1.0, 1.0], size=n)
    return {
        "all equal": signs * 2.5,
        "pairs": signs * (np.arange(n) // 2 + 1.0),
        "triples": signs * (np.arange(n) // 3 + 0.5),
        "random": signs * rng.integers(1, 4, size=n),
    }


class TestCurves:
    def test_auc_matches_independent_trapezoid(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = rng.uniform(0, 2, size=int(rng.integers(2, 12)))
            curve = make_curve(y)
            oracle = np.trapezoid(y, dx=1.0) / (len(y) - 1)
            assert abs(curve.auc - oracle) < 1e-12

    def test_auc_adds_trapezoids_left_to_right(self):
        # halves 1, 1e-16, 1e-16: added in order each tiny half rounds away,
        # while a compensated sum (the builtin sum from Python 3.12) keeps them
        halves = [1.0, 1e-16, 1e-16]
        assert math.fsum(halves) != (1.0 + 1e-16) + 1e-16
        assert trapezoid_auc([2.0, 0.0, 2e-16, 0.0]) == ((1.0 + 1e-16) + 1e-16) / 3

    def test_constant_curve_auc_is_value(self):
        assert make_curve([0.4, 0.4, 0.4]).auc == pytest.approx(0.4, abs=1e-15)

    def test_single_point_curve(self):
        curve = make_curve([0.9])
        assert curve.auc == 0.9 and curve.x == [1]

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            trapezoid_auc([])


class TestFaithfulness:
    def _setup(self):
        rng = np.random.default_rng(1)
        X = np.abs(rng.normal(1.0, 0.3, size=(15, 6)))
        zone_sets = {"a": np.array([0, 1]), "b": np.array([2, 3]), "c": np.array([4, 5])}
        return X, zone_sets

    def test_zero_weight_zone_has_zero_first_step(self):
        X, zone_sets = self._setup()
        weights = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 0.5])
        model = RidgeModel(weights=weights, intercept=0.0)
        curve = faithfulness_curve(model, X, ["a", "b", "c"], zone_sets)
        assert curve.y[0] == 0.0
        assert curve.y[1] > 0.0

    def test_no_masking_means_zero_impact(self):
        X, zone_sets = self._setup()
        model = RidgeModel(weights=np.ones(6), intercept=0.0)
        base = model.predict(X)
        assert float(np.mean(np.abs(base - model.predict(X.copy())))) == 0.0

    def test_cumulative_dominates_single_zone_for_positive_model(self):
        X, zone_sets = self._setup()
        model = RidgeModel(weights=np.full(6, 0.7), intercept=0.0)
        cumulative = faithfulness_curve(model, X, ["a", "b", "c"], zone_sets)
        for depth, name in enumerate(["a", "b", "c"]):
            single = faithfulness_curve(model, X, [name], zone_sets)
            assert cumulative.y[depth] >= single.y[0] - 1e-12

    def test_unknown_zone_rejected(self):
        X, zone_sets = self._setup()
        model = RidgeModel(weights=np.ones(6), intercept=0.0)
        with pytest.raises(ConfigError, match="ghost"):
            faithfulness_curve(model, X, ["ghost"], zone_sets)

    def test_k_max_truncates(self):
        X, zone_sets = self._setup()
        model = RidgeModel(weights=np.ones(6), intercept=0.0)
        curve = faithfulness_curve(model, X, ["a", "b", "c"], zone_sets, k_max=2)
        assert curve.x == [1, 2]


class TestAgreement:
    def test_all_plausible_is_one(self):
        curve = agreement_curve(["a", "b", "c"], {"a", "b", "c"})
        assert curve.y == [1.0, 1.0, 1.0]

    def test_mixed_example(self):
        curve = agreement_curve(["good", "bad"], {"good"})
        assert curve.y == [1.0, 0.5]

    def test_none_plausible_is_zero(self):
        curve = agreement_curve(["a", "b"], set())
        assert curve.y == [0.0, 0.0]

    def test_values_are_integer_ratios(self):
        rng = np.random.default_rng(2)
        names = [f"z{i}" for i in range(10)]
        plausible = {n for n in names if rng.random() < 0.5}
        curve = agreement_curve(names, plausible)
        for k, y in zip(curve.x, curve.y):
            assert 0.0 <= y <= 1.0
            assert (y * k) == pytest.approx(round(y * k), abs=1e-12)


class TestSimplicity:
    def test_single_nonzero_concentrates_instantly(self):
        curve = simplicity_curve([0.0, 5.0, 0.0])
        assert curve.y[0] == 1.0

    def test_uniform_twenty(self):
        curve = simplicity_curve(np.ones(20))
        np.testing.assert_allclose(curve.y, np.arange(1, 21) / 20.0, atol=1e-12)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.uniform(0, 1, size=int(rng.integers(1, 40)))
            v[0] = 0.5  # guarantee a positive total
            curve = simplicity_curve(v)
            assert all(b >= a - 1e-12 for a, b in zip(curve.y, curve.y[1:]))
            assert curve.y[-1] <= 1.0 + 1e-12

    def test_zero_total_rejected(self):
        with pytest.raises(ConfigError):
            simplicity_curve([0.0, 0.0])


class TestRbo:
    def test_identical_lists_are_one(self):
        for lst in (["a"], ["a", "b", "c"], list(range(30))):
            assert rbo(lst, lst, rho=0.7, depth=20) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_lists_are_zero(self):
        assert rbo(["a", "b"], ["c", "d"], rho=0.7, depth=10) == 0.0

    def test_swap_example_against_oracle(self):
        got = rbo(["a", "b"], ["b", "a"], rho=0.7, depth=2)
        assert got == pytest.approx(rbo_oracle(["a", "b"], ["b", "a"], 0.7, 2), abs=1e-12)
        assert got == pytest.approx(0.7, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        items = list(range(12))
        a = list(rng.permutation(items))
        b = list(rng.permutation(items))
        assert rbo(a, b) == pytest.approx(rbo(b, a), abs=1e-15)

    @pytest.mark.parametrize("rho", [0.5, 0.7, 0.9])
    def test_random_pairs_match_oracle(self, rho):
        rng = np.random.default_rng(5)
        for _ in range(25):
            universe = list(range(30))
            a = list(rng.permutation(universe))[: int(rng.integers(1, 21))]
            b = list(rng.permutation(universe))[: int(rng.integers(1, 21))]
            got = rbo(a, b, rho=rho, depth=20)
            assert got == pytest.approx(rbo_oracle(a, b, rho, 20), abs=1e-12)
            assert 0.0 <= got <= 1.0 + 1e-12

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigError):
            rbo(["a", "a"], ["a", "b"])

    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.7, 0.9, 0.99])
    def test_matches_parent_rbo_bit_for_bit(self, rho):
        """The overlap at depth d as the intersection of the two top-d sets
        gives the bits of the parent's incremental count: lists of unequal
        lengths, empty ones included, at depths below and above them."""
        rng = np.random.default_rng(int(rho * 100))
        for _ in range(400):
            a = rng.permutation(30)[: int(rng.integers(0, 26))].tolist()
            b = rng.permutation(30)[: int(rng.integers(0, 26))].tolist()
            depth = int(rng.integers(1, 31))
            got, want = rbo(a, b, rho=rho, depth=depth), parent_rules.rbo(a, b, rho=rho, depth=depth)
            assert got.hex() == want.hex(), (a, b, depth)

    @pytest.mark.parametrize(
        "args",
        [(["a", "a"], ["b"]), (["a"], ["b", "b"]), (["a"], ["b"], 0.0), (["a"], ["b"], 1.0), (["a"], ["b"], 0.7, 0)],
    )
    def test_refuses_what_the_parent_refused(self, args):
        messages = []
        for fn in (rbo, parent_rules.rbo):
            with pytest.raises(ConfigError) as caught:
                fn(*args)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]


class TestStability:
    def test_deterministic_stub_all_zero(self):
        result = stability_study(lambda seed: ["a", "b", "c"], list(range(10)))
        assert len(result.instabilities) == 45
        assert result.instabilities == [0.0] * 45
        assert result.median == 0.0

    def test_alternating_stub_is_bimodal(self):
        fwd = ["a", "b", "c", "d"]
        rev = list(reversed(fwd))
        result = stability_study(lambda seed: rev if seed % 2 else fwd, list(range(10)))
        expected_cross = 1.0 - rbo(fwd, rev, rho=0.7, depth=20)
        values = sorted(set(round(v, 12) for v in result.instabilities))
        assert values == sorted({0.0, round(expected_cross, 12)})

    def test_too_few_seeds_rejected(self):
        with pytest.raises(ConfigError):
            stability_study(lambda s: ["a"], [1])


class TestPfi:
    def test_constant_column_zero_importance(self):
        X = np.random.default_rng(6).normal(size=(20, 3))
        X[:, 1] = 4.0
        model = RidgeModel(weights=np.array([1.0, 2.0, 3.0]), intercept=0.0)
        imps = pfi(model, X, repeats=3, seed=1)
        assert imps[1] == 0.0

    def test_zero_weight_variable_zero_importance(self):
        X = np.random.default_rng(7).normal(size=(20, 3))
        model = RidgeModel(weights=np.array([1.0, 0.0, 2.0]), intercept=0.0)
        imps = pfi(model, X, repeats=3, seed=1)
        assert imps[1] == 0.0
        assert imps[0] > 0.0 and imps[2] > 0.0

    def test_single_variable_model_analytic_reduction(self):
        X = np.random.default_rng(8).normal(size=(15, 2))
        model = RidgeModel(weights=np.array([1.0, 0.0]), intercept=0.0)
        imps = pfi(model, X, repeats=4, seed=3)
        expected = 0.0
        for perm in pfi_permutations(seed=3, j=0, repeats=4, m=15):
            expected += float(np.mean(np.abs(X[:, 0] - X[perm, 0])))
        assert imps[0] == pytest.approx(expected / 4, abs=1e-12)

    def test_bit_exact_repeatability(self):
        X = np.random.default_rng(9).normal(size=(10, 4))
        model = RidgeModel(weights=np.arange(4.0), intercept=0.1)
        a = pfi(model, X, repeats=5, seed=11)
        b = pfi(model, X, repeats=5, seed=11)
        np.testing.assert_array_equal(a, b)

    def test_nonnegative(self):
        X = np.random.default_rng(10).normal(size=(12, 3))
        model = RidgeModel(weights=np.array([0.5, -1.0, 2.0]), intercept=0.0)
        assert np.all(pfi(model, X, repeats=2, seed=0) >= 0.0)

    def test_no_rows_refused_before_the_model(self):
        """At the parent a (0, 5) matrix scored NaN with two RuntimeWarnings per column."""

        class Unasked:
            kind = "continuous"

            def predict(self, X):
                raise AssertionError("the model was asked")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="pfi needs at least one test row, got 0"):
                pfi(Unasked(), np.zeros((0, 5)), repeats=2, seed=0)

    def test_no_columns_score_nothing(self):
        model = RidgeModel(weights=np.zeros(0), intercept=0.5)
        imps = pfi(model, np.zeros((4, 0)), repeats=3, seed=1)
        assert imps.shape == (0,)


def pfi_permutations(seed, j, repeats, m):
    """The ``repeats`` row permutations PFI applies to column j: row r of
    one draw from the generator keyed by (seed, j)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), j)))
    return rng.permuted(np.tile(np.arange(m), (repeats, 1)), axis=1)


def reference_pfi(model, X_test, repeats=10, seed=0):
    """The per-copy PFI loop that the stacked ``pfi`` replaced, kept as
    its reference: one model call per (variable, repeat). Its
    permutations come from ``pfi_permutations``."""
    X = np.asarray(X_test, dtype=float)
    m, p = X.shape
    base = model_outputs(model, X)
    out = np.zeros(p)
    work = X.copy()
    for j in range(p):
        acc = 0.0
        column = X[:, j].copy()
        for perm in pfi_permutations(seed, j, repeats, m):
            work[:, j] = column[perm]
            acc += float(np.mean(row_impacts(model.kind, base, model_outputs(model, work))))
        work[:, j] = column
        out[j] = acc / repeats
    return out


# Stacking runs each row's matvec inside a taller matrix, which can move
# outputs by a few ULPs (up to 2.7e-15 seen on the benchmark logistic).
# Relative to the smallest importances that is up to ~3e-10, so the
# comparison has an absolute floor of 1e-14 besides its rtol of 1e-12.
PFI_RTOL = 1e-12
PFI_ATOL = 1e-14


def _toy_matrix(seed, m=23, p=9):
    """Random test rows with a constant column 4; variable 2 gets zero weight."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, p))
    X[:, 4] = 1.5
    weights = rng.normal(size=p)
    weights[2] = 0.0
    return X, weights


@pytest.fixture(scope="module")
def benchmark_logistic():
    ds = synthgen.generate(synthgen.benchmark_config())
    train, test = dataio.kennard_stone_split(ds, 0.7)
    state = dataio.fit_preprocess(train, "mean_center")
    model = models.fit_logistic(dataio.apply_preprocess(state, train))
    return model, dataio.apply_preprocess(state, test).intensities


@pytest.fixture(params=["ridge", "logistic", "benchmark"])
def pfi_problem(request):
    if request.param == "benchmark":
        return request.getfixturevalue("benchmark_logistic")
    X, weights = _toy_matrix(41)
    if request.param == "ridge":
        return RidgeModel(weights=weights, intercept=0.3), X
    return LogisticModel(weights=weights, intercept=-0.2), X


class TestStackedPfi:
    @pytest.mark.parametrize("repeats", [1, 2, 10])
    def test_matches_per_copy_loop(self, pfi_problem, repeats):
        model, X = pfi_problem
        for seed in (0, 1, 17):
            stacked = pfi(model, X, repeats=repeats, seed=seed)
            reference = reference_pfi(model, X, repeats=repeats, seed=seed)
            if repeats == 1:
                np.testing.assert_array_equal(stacked, reference)
            else:
                np.testing.assert_allclose(stacked, reference, rtol=PFI_RTOL, atol=PFI_ATOL)
            np.testing.assert_array_equal(stacked == 0.0, reference == 0.0)

    def test_ignored_variables_score_exactly_zero(self):
        """Shapes where a taller matvec moves unchanged rows by ULPs; the
        intact outputs come from the stacked buffer, so none leak in."""
        for m, p in ((101, 300), (169, 12), (169, 300)):
            X, weights = _toy_matrix(m + p, m=m, p=p)
            for model in (RidgeModel(weights, 0.4), LogisticModel(0.1 * weights, 0.2)):
                imps = pfi(model, X, repeats=10, seed=3)
                assert imps[2] == 0.0 and imps[4] == 0.0
                assert np.count_nonzero(imps) == p - 2

    def test_one_call_per_variable_over_all_repeats(self):
        X, weights = _toy_matrix(42)
        m, p = X.shape
        ridge = RidgeModel(weights=weights, intercept=0.0)
        rows = []

        class Counting:
            kind = ridge.kind

            def predict(self, X):
                rows.append(X.shape[0])
                return ridge.predict(X)

        pfi(Counting(), X, repeats=4, seed=2)
        assert rows == [4 * m] * (1 + p)

    def test_blocks_hold_the_variable_generators_permutations(self):
        """In the matrix sent for variable j, block r's column j is
        ``X[:, j][perm_r]``, perm_r being row r of the (seed, j)
        generator's draw; every other column is the test matrix's."""
        X = np.random.default_rng(45).normal(size=(11, 6))
        m, p = X.shape
        repeats, seed = 5, 9
        ridge = RidgeModel(weights=np.arange(1.0, p + 1), intercept=0.0)
        sent = []

        class Capturing:
            kind = ridge.kind

            def predict(self, X):
                sent.append(X.copy())
                return ridge.predict(X)

        pfi(Capturing(), X, repeats=repeats, seed=seed)
        assert len(sent) == 1 + p
        np.testing.assert_array_equal(sent[0], np.tile(X, (repeats, 1)))
        for j, matrix in enumerate(sent[1:]):
            blocks = matrix.reshape(repeats, m, p)
            for r, perm in enumerate(pfi_permutations(seed, j, repeats, m)):
                np.testing.assert_array_equal(blocks[r, :, j], X[:, j][perm])
                np.testing.assert_array_equal(np.delete(blocks[r], j, axis=1), np.delete(X, j, axis=1))
            assert len({blocks[r, :, j].tobytes() for r in range(repeats)}) > 1

    @pytest.mark.parametrize("repeats, seed", [(0, 0), (-2, 0), (1, -1)])
    def test_invalid_repeats_or_seed_rejected(self, repeats, seed):
        X, weights = _toy_matrix(43)
        with pytest.raises(ConfigError, match="repeats" if repeats < 1 else "seed"):
            pfi(RidgeModel(weights=weights, intercept=0.0), X, repeats=repeats, seed=seed)

    def test_external_requests_match_per_copy_loop(self, monkeypatch):
        """With one repeat an external model receives the very request
        lines the per-copy loop sent; with more, each variable's request
        holds the per-copy loop's requests for that variable, in order."""
        X = np.random.default_rng(44).normal(size=(7, 5))

        def requests(run):
            with ExternalModel([sys.executable, STUB, "sum", "5"]) as model:
                lines = []
                send = model._request
                monkeypatch.setattr(model, "_request", lambda line: lines.append(line) or send(line))
                imps = run(model)
            return lines, imps

        stacked_lines, stacked = requests(lambda model: pfi(model, X, repeats=1, seed=4))
        reference_lines, reference = requests(lambda model: reference_pfi(model, X, repeats=1, seed=4))
        assert len(stacked_lines) == 1 + X.shape[1]
        assert stacked_lines == reference_lines
        np.testing.assert_array_equal(stacked, reference)

        stacked_lines, stacked = requests(lambda model: pfi(model, X, repeats=3, seed=4))
        reference_lines, reference = requests(lambda model: reference_pfi(model, X, repeats=3, seed=4))
        rows = [json.loads(line)["x"] for line in stacked_lines]
        reference_rows = [json.loads(line)["x"] for line in reference_lines]
        assert rows[0] == reference_rows[0] * 3
        assert rows[1:] == [sum(reference_rows[1 + 3 * j : 4 + 3 * j], []) for j in range(X.shape[1])]
        np.testing.assert_allclose(stacked, reference, rtol=PFI_RTOL, atol=PFI_ATOL)


class TestWilcoxon:
    def test_all_positive_n8(self):
        result = wilcoxon_signed_rank([1.0, 2.0, 0.5, 3.0, 1.5, 2.5, 0.1, 4.0])
        assert result.p_exact == Fraction(2, 256)
        assert result.p_value == pytest.approx(0.0078125, abs=0)
        assert round(result.p_value, 3) == 0.008
        assert result.statistic == 0.0

    def test_antisymmetry(self):
        diffs = [1.0, -2.0, 0.5, 3.0, -1.5, 2.5, 0.1, 4.0]
        a = wilcoxon_signed_rank(diffs)
        b = wilcoxon_signed_rank([-d for d in diffs])
        assert a.p_exact == b.p_exact and a.statistic == b.statistic

    def test_w_three_matches_enumeration(self):
        # signs chosen so min(W+, W-) = 3 with ranks 1..8
        diffs = [-1.0, -2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        result = wilcoxon_signed_rank(diffs)
        w, p = wilcoxon_oracle(diffs)
        assert result.statistic == w == 3.0
        assert result.p_exact == p

    @pytest.mark.parametrize("n", [4, 6, 9])
    def test_random_vectors_match_enumeration(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            diffs = rng.integers(-5, 6, size=n).astype(float)
            if np.all(diffs == 0) or np.count_nonzero(diffs) < 4:
                continue
            result = wilcoxon_signed_rank(diffs)
            w, p = wilcoxon_oracle(diffs)
            assert result.p_exact == p
            assert result.statistic == w

    @pytest.mark.parametrize("n", range(4, 13))
    def test_tied_ranks_match_enumeration(self, n):
        for name, diffs in tie_patterns(n, np.random.default_rng(n)).items():
            result = wilcoxon_signed_rank(diffs)
            assert (result.statistic, result.p_exact) == wilcoxon_oracle(diffs), (name, list(diffs))

    @pytest.mark.parametrize("n", range(4, 26))
    def test_matches_parent_counting_loop(self, n):
        """The int64 subset-sum counts give the parent's statistic and exact
        p-value, with ties among few distinct magnitudes and without them."""
        rng = np.random.default_rng(100 + n)
        samples = [rng.choice([-1.0, 1.0], size=n) * rng.integers(1, levels, size=n) for levels in (2, 3, 5, 9)]
        samples += [rng.normal(size=n), np.r_[np.zeros(3), rng.integers(-4, 5, size=n)]]
        for diffs in samples:
            if not 4 <= np.count_nonzero(diffs) <= 25:
                continue
            got, want = wilcoxon_signed_rank(diffs), parent_rules.wilcoxon_signed_rank(diffs)
            assert (got.statistic, got.p_exact, got.p_value, got.n) == (want.statistic, want.p_exact, want.p_value, want.n)

    def test_zeros_dropped_before_ranking(self):
        with_zeros = wilcoxon_signed_rank([0.0, 1.0, -2.0, 3.0, 4.0, 0.0])
        without = wilcoxon_signed_rank([1.0, -2.0, 3.0, 4.0])
        assert with_zeros.p_exact == without.p_exact
        assert with_zeros.n == 4

    def test_all_zero_degenerate(self):
        with pytest.raises(PipelineError, match="degenerate"):
            wilcoxon_signed_rank([0.0, 0.0, 0.0, 0.0])

    def test_too_few_nonzero_rejected(self):
        with pytest.raises(ConfigError):
            wilcoxon_signed_rank([1.0, 2.0, 3.0])

    def test_too_many_rejected(self):
        with pytest.raises(ConfigError):
            wilcoxon_signed_rank(list(range(1, 27)))


class TestEvaluateConfig:
    def test_defaults_are_the_cli_defaults(self):
        cfg = EvaluateConfig()
        assert (cfg.methods, cfg.kmax, cfg.pfi_repeats, cfg.pfi_seed) == (("smx", "pfi"), 0, 10, 0)
        assert (cfg.stability_runs, cfg.rho, cfg.depth) == (10, 0.7, 20)

    def test_counts_at_their_bounds_are_accepted(self):
        cfg = EvaluateConfig(pfi_repeats=MAX_PFI_REPEATS, stability_runs=MAX_STABILITY_RUNS)
        assert (cfg.pfi_repeats, cfg.stability_runs) == (100, 100)

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"methods": ()}, "--methods must name smx, pfi or both, each once; got ''"),
            ({"methods": ("smx", "smx")}, "--methods must name smx, pfi or both, each once; got 'smx,smx'"),
            ({"methods": ("shap",)}, "--methods must name smx, pfi or both, each once; got 'shap'"),
            ({"kmax": -1}, "--kmax must be >= 0 (0 = auto), got -1"),
            ({"pfi_repeats": 0}, "--pfi-repeats must be >= 1, got 0"),
            ({"pfi_repeats": 10**12}, "--pfi-repeats must be at most 100, got 1000000000000"),
            ({"pfi_seed": -1}, "--pfi-seed must be >= 0, got -1"),
            ({"depth": 0}, "--depth must be >= 1, got 0"),
            ({"rho": 0.0}, "--rho must be in (0, 1), got 0.0"),
            ({"stability_runs": 1}, "--stability-runs must be 0 (off) or >= 2, got 1"),
            ({"stability_runs": 101}, "--stability-runs must be at most 100, got 101"),
        ],
    )
    def test_refusal_names_the_flag(self, settings, message):
        with pytest.raises(ConfigError) as info:
            EvaluateConfig(**settings)
        assert str(info.value) == message
