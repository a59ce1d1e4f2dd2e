"""The rules that ``evalkit``, ``engine`` and ``dataio`` now compute
another way, their code kept verbatim as references: ``rbo``'s
incremental overlap, ``wilcoxon_signed_rank``'s pure-Python counting
loop, ``fit_preprocess`` / ``apply_preprocess`` with one branch per
preprocessing method and the ``_savgol_rows`` helper they called, and
``pfi`` with one ``SeedSequence`` generator per variable, a Python loop
over each variable's repeat means, and the ``output_shifts`` it called,
which summed the class shifts with ``diff.sum(axis=1)``. Tests compare
the library with them bit for bit on seeded random inputs."""

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from smx.dataio import (
    MEAN_CENTER,
    POISSON_THEN_CENTER,
    PreprocessState,
    SpectralDataset,
    preprocess_setting,
)
from smx.errors import ConfigError, ModelError, PipelineError
from smx.evalkit import WilcoxonResult
from smx.models import CONTINUOUS, PROBABILISTIC


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
    seen_a: set = set()
    seen_b: set = set()
    overlap = 0
    weighted = 0.0
    x_k = 0
    for d in range(1, k + 1):
        if d <= len(a):
            item = a[d - 1]
            if item in seen_b:
                overlap += 1
            seen_a.add(item)
        if d <= len(b):
            item = b[d - 1]
            if item in seen_a:
                overlap += 1
            seen_b.add(item)
        weighted += (overlap / d) * rho**d
        x_k = overlap
    return (x_k / k) * rho**k + (1.0 - rho) / rho * weighted


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

    # distribution of 2*W+ over sign assignments, by exact counting
    max_sum = int(doubled.sum())
    counts = [0] * (max_sum + 1)
    counts[0] = 1
    for r in doubled:
        r = int(r)
        for s in range(max_sum, r - 1, -1):
            if counts[s - r]:
                counts[s] += counts[s - r]
    tail = sum(counts[: w_obs + 1])
    p = Fraction(2 * tail, 2**n)
    if p > 1:
        p = Fraction(1)
    return WilcoxonResult(
        statistic=w_obs / 2.0, p_value=float(p), p_exact=p, n=n
    )


def fit_preprocess(
    ds: SpectralDataset, method: str, window: int | None = None, order: int | None = None
) -> PreprocessState:
    """Learn preprocessing parameters from ``ds`` only, for the setting
    ``preprocess_setting`` checks."""
    savgol = preprocess_setting(method, window, order)
    if ds.n_samples == 0:
        raise ConfigError("cannot fit preprocessing on an empty dataset")
    X = ds.intensities
    if method == MEAN_CENTER:
        return PreprocessState(method=method, column_means=X.mean(axis=0))
    if method == POISSON_THEN_CENTER:
        raw_means = X.mean(axis=0)
        bad = np.flatnonzero(raw_means <= 0)
        if bad.size:
            raise ConfigError(
                f"poisson scaling requires positive column means; column {int(bad[0])} "
                f"has mean {float(raw_means[bad[0]])!r}"
            )
        scales = np.sqrt(raw_means)
        scaled = X / scales
        return PreprocessState(method=method, column_means=scaled.mean(axis=0), poisson_scales=scales)
    if savgol[0] > ds.n_variables:
        raise ConfigError("savgol window exceeds the number of variables")
    state = PreprocessState(method=method, column_means=np.zeros(ds.n_variables), savgol=savgol)
    smoothed = _savgol_rows(X, state)
    state.column_means = smoothed.mean(axis=0)
    return state


def _savgol_rows(X: np.ndarray, state: PreprocessState) -> np.ndarray:
    from scipy.signal import savgol_filter  # imported here so that only savgol preprocessing loads scipy.signal

    window, order = state.savgol
    # mirror padding keeps the output length at p
    return savgol_filter(X, window_length=window, polyorder=order, axis=1, mode="mirror")


def apply_preprocess(state: PreprocessState, ds: SpectralDataset) -> SpectralDataset:
    """Transform ``ds`` with parameters learned at fit time."""
    if ds.n_variables != state.column_means.size:
        raise ConfigError(f"dataset width {ds.n_variables} does not match fitted width {state.column_means.size}")
    X = ds.intensities
    if state.method == MEAN_CENTER:
        out = X - state.column_means
    elif state.method == POISSON_THEN_CENTER:
        out = X / state.poisson_scales - state.column_means
    else:
        out = _savgol_rows(X, state) - state.column_means
    return SpectralDataset(
        axis=ds.axis, intensities=out, labels=ds.labels, sample_ids=list(ds.sample_ids)
    )


def output_shifts(model, X: np.ndarray, edits: Iterable) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """The model's outputs on ``X``, and an iterator that makes one model
    call per edit ``(columns, values)``, on ``X`` with ``X[:, columns] =
    values``, and yields each row's shift from the intact outputs: the
    absolute difference of continuous outputs, or the class-averaged
    absolute probability shift. ``X`` is edited in place; each edit is
    undone before its shift is yielded or the model's error propagates.
    The intact outputs are copied: they may be views of ``X``."""
    if model.kind not in (CONTINUOUS, PROBABILISTIC):
        raise ModelError(f"unknown model kind {model.kind!r}")
    continuous = model.kind == CONTINUOUS
    ask = model.predict if continuous else model.predict_proba
    X = np.asarray(X, dtype=float)
    outputs = np.array(ask(X))

    def shifts():
        for columns, values in edits:
            cols = np.asarray(columns, dtype=int)
            if cols.size and (cols.min() < 0 or cols.max() >= X.shape[1]):
                raise ConfigError("zone index out of range")
            saved = X[:, cols].copy()
            X[:, cols] = values
            try:
                diff = np.abs(outputs - ask(X))
            finally:
                X[:, cols] = saved
            yield diff if continuous else diff.sum(axis=1) / diff.shape[1]

    return outputs, shifts()


def pfi(model, X_test: np.ndarray, repeats: int = 10, seed: int = 0) -> np.ndarray:
    """Permutation feature importance from prediction shift.

    Per variable, the impact between intact predictions and predictions
    with that column permuted, averaged over seeded repeats. Each
    (seed, variable) pair keys its own generator, which draws all
    ``repeats`` permutations of that column in one call (row r of
    ``rng.permuted`` over a ``repeats x m`` index array), so results
    are independent of evaluation order.

    The repeats are stacked: a work buffer holds ``repeats`` copies of
    the test matrix, and per variable block r gets the r-th permutation
    of that column. The model is called once on the intact buffer and
    then once per variable: 1 + p calls of ``repeats * m`` rows, and the
    buffer costs ``repeats`` times the test matrix's memory. Intact and
    permuted outputs of a row come from calls of one shape, so a row the
    permutation leaves unchanged shifts by exactly zero, and a variable
    the model ignores scores exactly zero.
    """
    if repeats < 1:
        raise ConfigError(f"pfi repeats must be >= 1, got {repeats}")
    if seed < 0:
        raise ConfigError(f"pfi seed must be >= 0, got {seed}")
    X = np.asarray(X_test, dtype=float)
    m, p = X.shape
    rows = np.broadcast_to(np.arange(m), (repeats, m))
    rngs = (np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), j))) for j in range(p))
    edits = ((j, X[:, j][rng.permuted(rows, axis=1)].ravel()) for j, rng in enumerate(rngs))
    _, shifts = output_shifts(model, np.tile(X, (repeats, 1)), edits)  # the stacked work buffer
    out = np.zeros(p)
    for j, shift in enumerate(shifts):
        acc = 0.0
        for mean in shift.reshape(repeats, m).mean(axis=1).tolist():
            acc += mean  # sequential, in repeat order: a pairwise sum rounds differently
        out[j] = acc / repeats
    return out
