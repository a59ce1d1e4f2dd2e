"""Explanation-quality harness: top-k masking faithfulness, domain
alignment, simplicity, rank-biased overlap instability, a permutation
feature importance baseline and exact Wilcoxon signed-rank testing.

Curves map depths 1..k onto the unit interval for their AUC, so a
constant curve of value v has AUC v regardless of depth.

``evaluate_dataset`` scores one dataset under an ``EvaluateConfig`` and
``compare`` tests the methods' metrics across datasets: ``smx evaluate``
is these two calls between reading its manifests and writing its report.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from . import pipeline
from .dataio import resolve_zones
from .engine import output_shifts
from .errors import ConfigError, PipelineError
from .graphx import zone_ranking

METHODS = ("smx", "pfi")
# PFI's work buffer holds pfi_repeats copies of the test matrix, and a
# stability study reruns its explainer stability_runs times and scores
# every pair of runs: both are refused far beyond what a study needs, at
# 10 times their defaults, rather than run out of memory or time.
MAX_PFI_REPEATS = 100
MAX_STABILITY_RUNS = 100


@dataclass(frozen=True)
class EvaluateConfig:
    """``evaluate_dataset``'s settings, each checked here; a refusal names
    the ``smx evaluate`` flag of its setting."""

    methods: tuple[str, ...] = METHODS
    kmax: int = 0
    pfi_repeats: int = 10
    pfi_seed: int = 0
    stability_runs: int = 10
    rho: float = 0.7
    depth: int = 20

    def __post_init__(self):
        methods = self.methods
        if not methods or len(set(methods)) < len(methods) or not set(methods) <= set(METHODS):
            raise ConfigError(f"--methods must name smx, pfi or both, each once; got {','.join(map(str, methods))!r}")
        runs = self.stability_runs
        for flag, value, ok, rule in (
            ("--kmax", self.kmax, self.kmax >= 0, ">= 0 (0 = auto)"),
            ("--pfi-repeats", self.pfi_repeats, self.pfi_repeats >= 1, ">= 1"),
            ("--pfi-repeats", self.pfi_repeats, self.pfi_repeats <= MAX_PFI_REPEATS, f"at most {MAX_PFI_REPEATS}"),
            ("--pfi-seed", self.pfi_seed, self.pfi_seed >= 0, ">= 0"),
            ("--depth", self.depth, self.depth >= 1, ">= 1"),
            ("--rho", self.rho, 0.0 < self.rho < 1.0, "in (0, 1)"),
            ("--stability-runs", runs, runs == 0 or runs >= 2, "0 (off) or >= 2"),
            ("--stability-runs", runs, runs <= MAX_STABILITY_RUNS, f"at most {MAX_STABILITY_RUNS}"),
        ):
            if not ok:
                raise ConfigError(f"{flag} must be {rule}, got {value}")


@dataclass
class EvalCurve:
    x: list[int]
    y: list[float]
    auc: float


def trapezoid_auc(y: Sequence[float]) -> float:
    """Trapezoidal integral of y over depths rescaled to [0, 1]."""
    y = [float(v) for v in y]
    if not y:
        raise ConfigError("cannot integrate an empty curve")
    if len(y) == 1:
        return y[0]
    total = 0.0
    for a, b in zip(y, y[1:]):
        total += (a + b) / 2.0  # left to right: the builtin sum is compensated from Python 3.12
    return total / (len(y) - 1)


def make_curve(y: Sequence[float]) -> EvalCurve:
    y = [float(v) for v in y]
    return EvalCurve(x=list(range(1, len(y) + 1)), y=y, auc=trapezoid_auc(y))


def faithfulness_curve(
    model,
    X_test: np.ndarray,
    zone_order: Sequence[str],
    zone_sets: Mapping[str, np.ndarray],
    k_max: int | None = None,
) -> EvalCurve:
    """Impact of cumulatively zero-masking the top-k ranked zones.

    Masking happens in the preprocessed space the model was trained on;
    the impact metric follows the model kind (mean absolute output
    difference, or mean absolute probability shift).
    """
    if not zone_order:
        raise ConfigError("zone ranking is empty")
    for name in zone_order:
        if name not in zone_sets:
            raise ConfigError(f"ranked zone '{name}' is not in the zone config")
    depth = len(zone_order) if k_max is None else min(int(k_max), len(zone_order))
    edits = ((np.concatenate([zone_sets[name] for name in zone_order[: k + 1]]), 0.0) for k in range(depth))
    _, shifts = output_shifts(model, np.array(X_test, dtype=float), edits)
    return make_curve([float(np.mean(shift)) for shift in shifts])


def agreement_curve(zone_order: Sequence[str], plausible: set[str]) -> EvalCurve:
    """Cumulative fraction of top-k zones that are expert-plausible."""
    if not zone_order:
        raise ConfigError("zone ranking is empty")
    hits = 0
    ys = []
    for k, name in enumerate(zone_order, start=1):
        hits += 1 if name in plausible else 0
        ys.append(hits / k)
    return make_curve(ys)


def simplicity_curve(importances: Sequence[float], top_n: int = 20) -> EvalCurve:
    """Cumulative share of total importance held by the k largest entries.

    Shorter importance vectors are padded with zeros so curves from
    different methods are comparable at the same depth.
    """
    v = np.asarray(importances, dtype=float)
    if v.size == 0:
        raise ConfigError("importances are empty")
    if np.any(v < 0):
        raise ConfigError("importances must be non-negative")
    total = float(v.sum())
    if total <= 0:
        raise ConfigError("importances sum to zero; nothing to normalize")
    shares = np.sort(v)[::-1] / total
    if shares.size < top_n:
        shares = np.concatenate([shares, np.zeros(top_n - shares.size)])
    ys = np.cumsum(shares[:top_n])
    return make_curve(ys)


def rbo(list_a: Sequence, list_b: Sequence, rho: float = 0.7, depth: int = 20) -> float:
    """Extrapolated rank-biased overlap truncated at ``depth``.

    1.0 for identical rankings, 0.0 for disjoint ones; 1 - rbo is the
    instability score used by the stability study.
    """
    if not (0.0 < rho < 1.0):
        raise ConfigError("rbo rho must be in (0, 1)")
    if depth < 1:
        raise ConfigError("rbo depth must be >= 1")
    a = list(list_a)
    b = list(list_b)
    if len(set(a)) != len(a) or len(set(b)) != len(b):
        raise ConfigError("rbo inputs must not contain duplicate items")
    if not a or not b:
        return 0.0
    k = min(depth, max(len(a), len(b)))
    weighted = 0.0
    for d in range(1, k + 1):
        overlap = len(set(a[:d]).intersection(b[:d]))  # the items both rankings hold in their top d
        weighted += (overlap / d) * rho**d
    return (overlap / k) * rho**k + (1.0 - rho) / rho * weighted


@dataclass
class StabilityResult:
    instabilities: list[float]  # one value per seed pair
    median: float


def stability_study(
    runner: Callable[[int], Sequence],
    seeds: Sequence[int],
    rho: float = 0.7,
    depth: int = 20,
) -> StabilityResult:
    """Rerun an explainer per seed and score all pairwise 1 - rbo values."""
    if len(seeds) < 2:
        raise ConfigError("stability study needs at least 2 seeds")
    rankings = [list(runner(int(s))) for s in seeds]
    values = [1.0 - rbo(a, b, rho=rho, depth=depth) for a, b in itertools.combinations(rankings, 2)]
    return StabilityResult(instabilities=values, median=float(np.median(values)))


# numpy.random.SeedSequence's hash constants and pool size, and PCG64's
# 128-bit LCG multiplier, as numpy's bit_generator.pyx and pcg64.h define them.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _pcg64_states(seed: int, count: int) -> list[tuple[int, int]]:
    """The ``(state, inc)`` that ``np.random.PCG64(np.random.SeedSequence(
    entropy=(seed, j)))`` holds, for each j in ``range(count)``.

    SeedSequence hashes its entropy words, the seed's little-endian uint32
    words and then j, into a pool of four words, and PCG64 takes its
    128-bit seed and stream from eight words drawn from that pool. All of
    it is uint32 arithmetic, done here for every j at once. PCG64's two
    seeding steps of its 128-bit LCG follow in Python ints.
    """
    entropy = []
    while True:
        entropy.append(np.full(count, seed & _MASK32, dtype=np.uint32))
        seed >>= 32
        if not seed:
            break
    entropy.append(np.arange(count, dtype=np.uint32))
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    # a pool wider than the entropy hashes zeros into its last words
    entropy += [np.zeros(count, dtype=np.uint32)] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    drawn = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        drawn.append((value ^ (value >> 16)).astype(np.uint64))
    # four uint64 words, low half first: the seed's high and low, the stream's high and low
    words = [(drawn[2 * k] | drawn[2 * k + 1] << np.uint64(32)).tolist() for k in range(4)]
    states = []
    for seed_hi, seed_lo, stream_hi, stream_lo in zip(*words):
        inc = (stream_hi << 65 | stream_lo << 1 | 1) & _MASK128
        states.append(((((seed_hi << 64 | seed_lo) + inc) * _PCG64_MULTIPLIER + inc) & _MASK128, inc))
    return states


def pfi(model, X_test: np.ndarray, repeats: int = 10, seed: int = 0) -> np.ndarray:
    """Permutation feature importance from prediction shift.

    Per variable, the impact between intact predictions and predictions
    with that column permuted, averaged over seeded repeats. Variable j
    draws all ``repeats`` permutations of its column in one call (row r
    of ``permuted`` over a ``repeats x m`` index array) from the PCG64
    generator that ``np.random.default_rng(np.random.SeedSequence(
    entropy=(seed, j)))`` would build, so results are independent of
    evaluation order. Those generators are not built: ``_pcg64_states``
    derives every variable's PCG64 state in one vectorised pass, and one
    reused generator is set to each in turn.

    The repeats are stacked: a work buffer holds ``repeats`` copies of
    the test matrix, and per variable block r gets the r-th permutation
    of that column. The model is called once on the intact buffer and
    then once per variable: 1 + p calls of ``repeats * m`` rows, and the
    buffer costs ``repeats`` times the test matrix's memory. Intact and
    permuted outputs of a row come from calls of one shape, so a row the
    permutation leaves unchanged shifts by exactly zero, and a variable
    the model ignores scores exactly zero. A test matrix with no rows is
    refused.
    """
    if repeats < 1:
        raise ConfigError(f"pfi repeats must be >= 1, got {repeats}")
    if seed < 0:
        raise ConfigError(f"pfi seed must be >= 0, got {seed}")
    X = np.asarray(X_test, dtype=float)
    m, p = X.shape
    if m == 0:
        raise ConfigError("pfi needs at least one test row, got 0")
    rows = np.broadcast_to(np.arange(m), (repeats, m))
    bit_generator = np.random.PCG64(0)  # any seed: every variable sets its own state
    rng = np.random.Generator(bit_generator)

    def edits():
        for j, (state, inc) in enumerate(_pcg64_states(int(seed), p)):
            bit_generator.state = {
                "bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0
            }
            yield j, X[:, j][rng.permuted(rows, axis=1)].ravel()

    _, shifts = output_shifts(model, np.tile(X, (repeats, 1)), edits())  # the stacked work buffer
    sums = np.empty((p, repeats))
    for j, shift in enumerate(shifts):
        sums[j] = shift.reshape(repeats, m).sum(axis=1)
    means = sums / m  # as np.mean computes each repeat's mean: its sum, then one division
    total = np.zeros(p)
    for r in range(repeats):
        total += means[:, r]  # sequential, in repeat order: a pairwise sum rounds differently
    return total / repeats


@dataclass
class WilcoxonResult:
    statistic: float
    p_value: float
    p_exact: Fraction
    n: int


def wilcoxon_signed_rank(diffs: Sequence[float]) -> WilcoxonResult:
    """Exact two-sided Wilcoxon signed-rank test for small samples.

    Zero differences are dropped; |differences| get average ranks on
    ties, counted as integers at twice their value (a tie run at sorted
    positions [s, e) gets s + e + 1, so no half rank is ever rounded).
    W = min(W+, W-) and the p-value is the exact two-sided tail over all
    2^n equiprobable sign assignments of the observed rank multiset
    (doubling the one-sided tail, capped at 1).
    """
    d = np.asarray(diffs, dtype=float)
    if d.size == 0 or not np.all(np.isfinite(d)):
        raise ConfigError("differences must be a non-empty finite sequence")
    d = d[d != 0.0]
    if d.size == 0:
        raise PipelineError("degenerate sample: all differences are zero")
    n = int(d.size)
    if n < 4:
        raise ConfigError(f"need at least 4 nonzero differences, got {n}")
    if n > 25:
        raise ConfigError(f"exact test supports at most 25 differences, got {n}")
    order = np.argsort(np.abs(d))
    ranked = np.abs(d)[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    ends = np.r_[starts[1:], n]
    doubled = np.empty(n, dtype=np.int64)
    doubled[order] = np.repeat(starts + ends + 1, ends - starts)
    w_plus = int(doubled[d > 0].sum())
    w_minus = int(doubled[d < 0].sum())
    w_obs = min(w_plus, w_minus)

    # distribution of 2*W+ over sign assignments, as subset-sum counts (each at most 2^25)
    counts = np.zeros(int(doubled.sum()) + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled.tolist():
        counts[r:] = counts[r:] + counts[:-r]  # every doubled rank is >= 2
    tail = int(counts[: w_obs + 1].sum())
    p = Fraction(2 * tail, 2**n)
    if p > 1:
        p = Fraction(1)
    return WilcoxonResult(
        statistic=w_obs / 2.0, p_value=float(p), p_exact=p, n=n
    )


def evaluate_dataset(train, test, zones, model, engine_cfg, cfg: EvaluateConfig) -> dict:
    """``{"depth", "methods"}``: per method its zone ranking, its curves to
    the common depth and its stability. smx ranks ``train`` under the
    ``EngineConfig`` ``engine_cfg``, PFI scores ``test``; each stability
    study reuses the main run for the stability seed that repeats it."""
    zone_sets = dict(zip(zones.names(), resolve_zones(zones, train)))
    channel_zones = np.full(train.n_variables, None, dtype=object)
    for name, idx in zone_sets.items():
        channel_zones[idx] = name

    orders: dict[str, list[tuple[str, bool]]] = {}
    importances: dict[str, np.ndarray] = {}
    if "smx" in cfg.methods:
        prepared = pipeline.prepare(train, zones, model, engine_cfg)
        result = pipeline.rank(prepared)
        orders["smx"], importances["smx"] = result.zone_order, result.ranking.mean_lrc
    if "pfi" in cfg.methods:
        imps = pfi(model, test.intensities, repeats=cfg.pfi_repeats, seed=cfg.pfi_seed)
        orders["pfi"], importances["pfi"] = zone_ranking(imps, channel_zones, zones.names()), imps
    rankings = {name: [zone for zone, ranked in order if ranked] for name, order in orders.items()}
    per_method = {m: {"zone_ranking": [{"zone": z, "ranked": r} for z, r in order]} for m, order in orders.items()}

    depth = min(len(r) for r in rankings.values())
    if cfg.kmax:
        depth = min(depth, cfg.kmax)
    if depth < 1:
        raise PipelineError("a method produced an empty zone ranking; nothing to evaluate")

    for name in cfg.methods:
        section = per_method[name]
        ranked = rankings[name][:depth]
        section["faithfulness"] = asdict(faithfulness_curve(model, test.intensities, ranked, zone_sets, depth))
        section["alignment"] = asdict(agreement_curve(ranked, zones.plausible_names()))
        section["simplicity"] = asdict(simplicity_curve(importances[name]))

    def smx_runner(seed: int):
        seeds = pipeline.derive_seeds(seed, len(prepared.cfg.seeds))
        ranked = result if seeds == prepared.cfg.seeds else pipeline.rank(prepared, seeds)  # result: the main run
        return ranked.predicate_labels()

    def pfi_runner(seed: int):
        if seed == cfg.pfi_seed:
            imps = importances["pfi"]  # the main run above, same seed and repeats
        else:
            imps = pfi(model, test.intensities, repeats=cfg.pfi_repeats, seed=seed)
        return list(np.argsort(-imps, kind="stable"))

    for name, runner in (("smx", smx_runner), ("pfi", pfi_runner)):
        if cfg.stability_runs >= 2 and name in cfg.methods:
            res = stability_study(runner, list(range(cfg.stability_runs)), rho=cfg.rho, depth=cfg.depth)
            per_method[name]["stability"] = {"instabilities": res.instabilities, "median": res.median}

    return {"depth": depth, "methods": per_method}


def compare(entries: Sequence[dict], methods: Sequence[str]) -> list[dict]:
    """Wilcoxon rows of each other method minus smx over ``entries``
    (``evaluate_dataset`` results) per metric, for 4 or more datasets
    where both have it; a sample the test refuses gets a ``note``."""

    def value(section: dict, metric: str) -> float | None:
        if metric == "stability_median":
            return section.get("stability", {}).get("median")
        return section[metric.removesuffix("_auc")]["auc"]

    others = [m for m in methods if m != "smx"] if "smx" in methods else []
    comparisons = []
    for metric in ("faithfulness_auc", "alignment_auc", "simplicity_auc", "stability_median"):
        for other in others:
            pairs = [(value(e["methods"][other], metric), value(e["methods"]["smx"], metric)) for e in entries]
            diffs = [a - b for a, b in pairs if a is not None and b is not None]
            if len(diffs) < 4:
                continue  # the exact test needs at least 4 paired values
            row: dict = {"metric": metric, "pair": f"{other}-smx", "n": len(diffs)}
            row["median_diff"] = float(np.median(diffs))
            try:
                test = wilcoxon_signed_rank(diffs)
                row["statistic"] = test.statistic
                row["p_value"] = test.p_value
            except (ConfigError, PipelineError) as exc:
                row["note"] = str(exc)
            comparisons.append(row)
    return comparisons
