"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the regular suite runs them silently.
"""

import csv
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import rankdata

import smx
from smx import dataio, models, pipeline, synthgen, zonecore
from smx.engine import EngineConfig
from smx.evalkit import pfi, rbo, stability_study, wilcoxon_signed_rank
from smx.graphx import lrc_scores
from smx.models import RidgeModel
from smx.zonecore import fit_zone, score_zone, threshold_spectrum

from test_evalkit import rbo_oracle, tie_patterns
from test_graphx import enumerate_lrc

FEATURES = ["Feature 1", "Feature 2", "Feature 3"]


def check(num: int, ok: bool, text: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


@dataclass
class BenchmarkRun:
    train: dataio.SpectralDataset
    test: dataio.SpectralDataset
    zones: dataio.ZoneConfig
    model: models.LogisticModel
    test_accuracy: float
    result: pipeline.ExplainResult
    explain_seconds: float


@pytest.fixture(scope="session")
def bench() -> BenchmarkRun:
    ds = synthgen.generate(synthgen.benchmark_config())
    train, test = dataio.kennard_stone_split(ds, 0.7)
    state = dataio.fit_preprocess(train, "mean_center")
    train_p = dataio.apply_preprocess(state, train)
    test_p = dataio.apply_preprocess(state, test)
    model = models.fit_logistic(train_p)
    predicted = (model.predict_proba(test_p.intensities)[:, 1] > 0.5).astype(int)
    accuracy = float(np.mean(predicted == test_p.labels))
    zones = synthgen.benchmark_zones()
    start = time.perf_counter()
    result = pipeline.explain(train_p, zones, model, EngineConfig())
    elapsed = time.perf_counter() - start
    return BenchmarkRun(
        train=train_p,
        test=test_p,
        zones=zones,
        model=model,
        test_accuracy=accuracy,
        result=result,
        explain_seconds=elapsed,
    )


def _zone_names(result: pipeline.ExplainResult) -> list[str]:
    return [name for name, _ranked in result.zone_order]


def test_criterion_1_synthetic_ground_truth(bench):
    order = _zone_names(bench.result)
    top = bench.result.predicate_set.predicates[bench.result.ranking.order[0]]
    ok = (
        bench.test_accuracy >= 0.99
        and order[:3] == FEATURES
        and top.zone_name == "Feature 1"
        and bench.explain_seconds < 60.0
    )
    check(
        1,
        ok,
        f"zones={order[:3]}, top predicate '{top.label}', "
        f"test acc {bench.test_accuracy:.3f}, explain {bench.explain_seconds:.1f}s",
    )


def test_criterion_2_ablation_robustness(bench):
    configs = [
        EngineConfig(bags=5),
        EngineConfig(bags=20),
        EngineConfig(bag_fraction=0.7),
        EngineConfig(bag_fraction=0.9),
        EngineConfig(seeds=(1, 2)),
        EngineConfig(seeds=(1, 2, 3, 4, 5, 6)),
    ]
    rank1 = 0
    ordered = 0
    for cfg in configs:
        result = pipeline.explain(bench.train, bench.zones, bench.model, cfg)
        names = _zone_names(result)
        if names[0] == "Feature 1":
            rank1 += 1
        if names[:3] == FEATURES:
            ordered += 1
    ok = rank1 == len(configs) and ordered / len(configs) >= 0.9
    check(
        2,
        ok,
        f"Feature 1 first in {rank1}/{len(configs)} configs, "
        f"[1,2,3] order in {ordered}/{len(configs)}",
    )


def test_criterion_3_lrc_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        order = rng.permutation(n)
        edges = {}
        for _ in range(int(rng.integers(1, 15))):
            i, j = sorted(rng.choice(n, size=2, replace=False))
            edges[(int(order[i]), int(order[j]))] = float(rng.uniform(0.01, 1.0))
        got = lrc_scores(n, edges)
        worst = max(worst, float(np.max(np.abs(got - enumerate_lrc(n, edges)))))
    check(3, worst < 1e-10, f"200 random DAGs, max |lrc - enumeration| = {worst:.2e}")


def test_criterion_4_threshold_round_trip(bench):
    worst = 0.0
    for pred in bench.result.predicate_set.predicates:
        model = bench.result.zone_models[pred.zone_index]
        profile = threshold_spectrum(model, pred.tau)
        recovered = score_zone(model, profile[None, :])[0]
        worst = max(worst, abs(recovered - pred.tau))
    count = len(bench.result.predicate_set.predicates)
    check(4, worst < 1e-9, f"{count} predicates, max |score(profile) - tau| = {worst:.2e}")


def test_criterion_5_pca_properties():
    rng = np.random.default_rng(99)
    worst_norm = 0.0
    worst_ve = 0.0
    signs_ok = True
    for _ in range(100):
        n = int(rng.integers(3, 51))
        d = int(rng.integers(2, 7))
        X = rng.normal(size=(n, d)) * rng.uniform(0.2, 4.0, size=d)
        model = fit_zone(X)
        worst_norm = max(worst_norm, abs(float(np.linalg.norm(model.loading)) - 1.0))
        Xc = X - X.mean(axis=0)
        evals = np.linalg.eigvalsh(Xc.T @ Xc / (n - 1))
        worst_ve = max(worst_ve, abs(model.variance_explained - evals[-1] / evals.sum()))
        s = float(model.loading.sum())
        if s < -1e-12:
            signs_ok = False
        elif abs(s) <= 1e-12:
            nz = np.flatnonzero(model.loading)
            signs_ok = signs_ok and (nz.size == 0 or model.loading[nz[0]] > 0)
    ok = worst_norm < 1e-10 and worst_ve < 1e-8 and signs_ok
    check(
        5,
        ok,
        f"100 random zones: max norm err {worst_norm:.2e}, max VE err {worst_ve:.2e}, "
        f"sign convention {'held' if signs_ok else 'violated'}",
    )


def _enumerated_p(diffs: np.ndarray) -> Fraction:
    """Exact 2^n enumeration with integer arithmetic (vectorized): each sign
    assignment's W+ is a W+ of the first half's ranks plus one of the rest's."""
    d = diffs[diffs != 0.0]
    n = d.size
    doubled = np.rint(2 * rankdata(np.abs(d))).astype(np.int64)
    w_obs = int(min(doubled[d > 0].sum(), doubled[d < 0].sum()))

    def sums(ranks: np.ndarray) -> np.ndarray:
        return ((np.arange(2**ranks.size)[:, None] >> np.arange(ranks.size)) & 1) @ ranks

    rest = np.sort(sums(doubled[n // 2 :]))
    count = int(np.searchsorted(rest, w_obs - sums(doubled[: n // 2]), side="right").sum())
    return min(Fraction(2 * count, 2**n), Fraction(1))


def test_criterion_6_exact_wilcoxon():
    rng = np.random.default_rng(7)
    checked = 0
    for n in range(4, 13):
        for _ in range(50):
            diffs = rng.integers(1, 7, size=n) * rng.choice([-1.0, 1.0], size=n)
            result = wilcoxon_signed_rank(diffs)
            assert result.p_exact == _enumerated_p(np.asarray(diffs)), (n, list(diffs))
            checked += 1
    all_positive = wilcoxon_signed_rank(np.arange(1.0, 9.0))
    exact_ok = all_positive.p_exact == Fraction(2, 256)
    reported_ok = round(all_positive.p_value, 3) == 0.008
    check(
        6,
        checked == 450 and exact_ok and reported_ok,
        f"{checked} vectors match enumeration; n=8 all-positive p = "
        f"{all_positive.p_value} (reported {round(all_positive.p_value, 3)})",
    )


def test_tied_wilcoxon_matches_enumeration_up_to_n25():
    """Average ranks of tied |d| against scipy's rankdata, at every n the exact test takes."""
    rng = np.random.default_rng(30)
    for n in range(4, 26):
        for name, diffs in tie_patterns(n, rng).items():
            assert wilcoxon_signed_rank(diffs).p_exact == _enumerated_p(diffs), (n, name, list(diffs))


def test_criterion_7_rbo_oracle():
    rng = np.random.default_rng(17)
    worst = 0.0
    rhos = [0.5, 0.7, 0.9]
    for trial in range(100):
        rho = rhos[trial % 3]
        universe = list(range(40))
        a = list(rng.permutation(universe))[: int(rng.integers(1, 21))]
        b = list(rng.permutation(universe))[: int(rng.integers(1, 21))]
        worst = max(worst, abs(rbo(a, b, rho=rho, depth=20) - rbo_oracle(a, b, rho, 20)))
    identity_ok = rbo(list("abcdef"), list("abcdef")) == pytest.approx(1.0, abs=1e-12)
    disjoint_ok = rbo(list("abc"), list("xyz")) == 0.0
    check(
        7,
        worst < 1e-12 and identity_ok and disjoint_ok,
        f"100 list pairs, max |rbo - oracle| = {worst:.2e}; identity=1, disjoint=0",
    )


def test_criterion_8_thread_count_determinism(bench, tmp_path):
    train_csv = tmp_path / "train.csv"
    dataio.save_csv(bench.train, train_csv)
    zones_json = tmp_path / "zones.json"
    zones_json.write_text(dataio.zone_config_json(bench.zones))
    model_json = tmp_path / "model.json"
    models.save_model(bench.model, model_json)
    outputs = {}
    for threads in ("1", "8"):
        out = tmp_path / f"out_{threads}"
        env = dict(os.environ, SMX_THREADS=threads)
        # the child imports this process's smx, also when only pytest's pythonpath found it
        package_root = os.path.dirname(os.path.dirname(smx.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "smx",
                "explain",
                "--train",
                str(train_csv),
                "--zones",
                str(zones_json),
                "--model",
                str(model_json),
                "--out",
                str(out),
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = {
            p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
        }
    same = outputs["1"] == outputs["8"]
    names = [str(k) for k in outputs["1"]]
    interesting = [n for n in names if "ranking" in n or "graph" in n or "trace" in n]
    check(8, same, f"{len(names)} files byte-identical across SMX_THREADS=1/8 "
                   f"(incl. {len(interesting)} ranking/graph/trace files)")


def test_rankings_agree_across_blas_thread_counts(bench, tmp_path):
    """Outputs are byte-identical only for a fixed BLAS thread count, but the
    zone and predicate orders agree across counts. "Wide" has more channels
    than the train set has rows, so its PCA takes the n x n Gram product
    ``Xc @ Xc.T``, a product whose bits can move with the thread count."""
    zones = dataio.ZoneConfig([
        dataio.Zone("Wide", 1.0, 400.0, True),
        dataio.Zone("Feature 3", 460.0, 539.9, True),
        dataio.Zone("Background 4", 539.9, 600.0, False),
    ])
    assert dataio.resolve_zones(zones, bench.train)[0].size > bench.train.n_samples
    dataio.save_csv(bench.train, tmp_path / "train.csv")
    (tmp_path / "zones.json").write_text(dataio.zone_config_json(zones))
    models.save_model(bench.model, tmp_path / "model.json")
    package_root = os.path.dirname(os.path.dirname(smx.__file__))
    orders = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)  # read when numpy loads in the child
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        out = tmp_path / f"out_{threads}"
        argv = ["explain", "--train", "train.csv", "--zones", "zones.json", "--model", "model.json", "--out", str(out)]
        proc = subprocess.run([sys.executable, "-m", "smx", *argv], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        orders[threads] = {
            column: [row[column] for row in csv.DictReader((out / name).read_text().splitlines())]
            for name, column in (("zone_ranking.csv", "zone"), ("predicate_ranking.csv", "predicate"))
        }
    assert orders["1"] == orders["2"]
    assert orders["1"]["zone"][0] == "Wide"


def test_criterion_9_pfi_sanity():
    rng = np.random.default_rng(31)
    p = 12
    weights = rng.uniform(0.5, 2.0, size=p)
    zero_vars = [2, 5, 9]
    weights[zero_vars] = 0.0
    model = RidgeModel(weights=weights, intercept=0.4)
    X = rng.normal(size=(40, p))
    importances = pfi(model, X, repeats=10, seed=3)
    zeros_ok = all(importances[j] == 0.0 for j in zero_vars)
    positives_ok = all(
        importances[j] > 0.0 for j in range(p) if j not in zero_vars
    )
    check(
        9,
        zeros_ok and positives_ok,
        f"zero-weight vars {zero_vars} scored exactly 0; all others strictly positive",
    )


def test_criterion_10_stability(bench):
    cfg = EngineConfig()

    def smx_runner(seed: int):
        rerun = EngineConfig(seeds=pipeline.derive_seeds(seed, len(cfg.seeds)))
        return pipeline.explain(bench.train, bench.zones, bench.model, rerun).predicate_labels()

    def pfi_runner(seed: int):
        imps = pfi(bench.model, bench.test.intensities, repeats=10, seed=seed)
        return list(np.argsort(-imps, kind="stable"))

    seeds = list(range(10))
    smx_res = stability_study(smx_runner, seeds, rho=0.7, depth=20)
    pfi_res = stability_study(pfi_runner, seeds, rho=0.7, depth=20)
    ok = smx_res.median < 0.2 and smx_res.median <= pfi_res.median
    check(
        10,
        ok,
        f"median instability smx={smx_res.median:.4f} (45 pairs), pfi={pfi_res.median:.4f}",
    )


def test_prepared_reruns_match_fresh_explains(bench):
    """``rank`` on one prepared training set ranks a rerun's seeds exactly
    as a fresh ``explain`` does."""
    cfg = EngineConfig()
    prepared = pipeline.prepare(bench.train, bench.zones, bench.model, cfg)
    for base in (0, 3, 9):
        rerun = EngineConfig(seeds=pipeline.derive_seeds(base, len(cfg.seeds)))
        ranked = pipeline.rank(prepared, rerun.seeds)
        fresh = pipeline.explain(bench.train, bench.zones, bench.model, rerun)
        assert ranked.predicate_labels() == fresh.predicate_labels()
        assert ranked.zone_order == fresh.zone_order
        assert [g.edges for g in ranked.graphs] == [g.edges for g in fresh.graphs]
