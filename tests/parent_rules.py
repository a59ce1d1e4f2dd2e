"""The rules that ``evalkit``, ``engine``, ``dataio``, ``models``, ``graphx``
and ``artifacts`` now compute another way, their code kept verbatim as
references: ``rbo``'s incremental overlap, ``wilcoxon_signed_rank``'s
pure-Python counting loop, ``fit_preprocess`` / ``apply_preprocess`` with
one branch per preprocessing method and the ``_savgol_rows`` helper they
called, and ``pfi`` with one ``SeedSequence`` generator per variable, a
Python loop over each variable's repeat means, and the ``output_shifts`` it
called, which summed the class shifts with ``diff.sum(axis=1)``. Then the
graph stage and its writers before their per-edge costs were cut:
``run_bags``, which gathered each bag's shift block with ``np.ix_``;
``_sigmoid`` with a boolean-mask scatter and the logistic ``predict_proba``
that stacked its columns; ``_break_cycles`` with a finished set, a depth
dict and a key lambda; ``lrc_scores`` with a second ``argsort``;
``trace_lines`` with one call per float of the ``_json_float`` it used; and
``to_dot`` / ``to_json``, which labelled and sorted each graph on their
own. Tests compare the library with them bit for bit on seeded random
inputs."""

import json
import logging
import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from smx.artifacts import _dot_string, _json_list, node_label

from smx.dataio import (
    MEAN_CENTER,
    POISSON_THEN_CENTER,
    PreprocessState,
    SpectralDataset,
    preprocess_setting,
)
from smx.engine import ENTRY_DTYPE, BagResult, EngineConfig, bag_size, draw_bag, min_support
from smx.errors import ConfigError, ModelError, PipelineError
from smx.evalkit import WilcoxonResult
from smx.graphx import ExplanationGraph
from smx.models import CONTINUOUS, PROBABILISTIC
from smx.parallel import run_ordered
from smx.predicates import PredicateSet
from smx.zonecore import ZoneModel

# the parent ``_break_cycles`` logs here; tests compare its records with ``smx.graphx``'s
logger = logging.getLogger("parent_rules.graphx")


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


def run_bags(
    shifts: np.ndarray,
    classes: np.ndarray,
    zone_models: Sequence[ZoneModel],
    pset: PredicateSet,
    cfg: EngineConfig,
    seed: int,
    workers: int = 1,
) -> list[BagResult]:
    """Run all bags for one seed from a training set's ``Responses`` and
    return results in bag order.

    The terminal class of a bag is the majority predicted class (from
    the original, unperturbed predictions) among the samples satisfying
    the last-ranked predicate; ties go to class 0.
    """
    D = np.asarray(shifts, dtype=float)
    classes = np.asarray(classes)
    n = D.shape[0]
    if pset.indicator.shape[0] != n or classes.shape[0] != n:
        raise ConfigError("predicate indicator and class rows must match the response rows")
    n_b = bag_size(n, cfg.bag_fraction)
    n_min = min_support(n, cfg.min_support_fraction)
    zone_of = np.array([p.zone_index for p in pset.predicates], dtype=int)
    zone_width = np.array([zone_models[m].width for m in zone_of], dtype=float)

    def one_bag(b: int) -> BagResult:
        subset = draw_bag(seed, b, n, n_b)
        I = pset.indicator[subset]
        supports = I.sum(axis=0)
        kept = np.flatnonzero(supports >= n_min)
        raw = np.where(I[:, kept], D[np.ix_(subset, zone_of[kept])], 0.0).sum(axis=0) / supports[kept]
        impact = raw / zone_width[kept]
        order = np.lexsort((kept, -impact))
        entries = np.empty(kept.size, ENTRY_DTYPE)
        entries["predicate"] = kept[order]
        entries["impact"] = impact[order]
        entries["raw_impact"] = raw[order]
        entries["support"] = supports[entries["predicate"]]
        terminal = None
        if kept.size:
            last = entries["predicate"][-1]
            ones = int(np.count_nonzero(classes[subset][I[:, last]] == 1))
            terminal = 1 if ones > supports[last] - ones else 0
        return BagResult(b, entries, terminal)

    return run_ordered(one_bag, list(range(cfg.bags)), workers)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_predict_proba(self, X: np.ndarray) -> np.ndarray:
    """``LogisticModel.predict_proba``; ``self`` is the model."""
    p1 = _sigmoid(self.decision(X))
    return np.column_stack([1.0 - p1, p1])


def _break_cycles(edges: dict[tuple[int, int], float], seed: int) -> None:
    successors: dict[int, list[int]] = {}
    for u, v in sorted(edges):
        successors.setdefault(u, []).append(v)
    finished: set[int] = set()
    total_weight = sum(edges.values())
    dropped, dropped_weight = 0, 0.0
    for root in sorted(successors):
        if root in finished:
            continue
        # path[k] is on the current DFS path at depth k; iters[k] walks its successors
        path, iters, depth = [root], [iter(successors[root])], {root: 0}
        while path:
            node = path[-1]
            for nxt in iters[-1]:
                if nxt in finished or (node, nxt) not in edges:
                    continue
                if nxt not in depth:
                    depth[nxt] = len(path)
                    path.append(nxt)
                    iters.append(iter(successors.get(nxt, ())))
                    break
                cycle = list(zip(path[depth[nxt] :], path[depth[nxt] + 1 :] + [nxt]))
                victim = min(cycle, key=lambda e: (edges[e], e))
                logger.debug("seed %s: dropping edge %s (weight %g)", seed, victim, edges[victim])
                dropped += 1
                dropped_weight += edges.pop(victim)
                # resume at the victim's source: the nodes above it are unvisited
                # again, while finished nodes reach only finished nodes and stay acyclic
                keep = depth[victim[0]] + 1
                for gone in path[keep:]:
                    del depth[gone]
                del path[keep:], iters[keep:]
                break
            else:
                finished.add(node)
                del depth[node]
                path.pop()
                iters.pop()
    if dropped:
        logger.info(
            "seed %s: %d lightest edge(s), %.2g%% of the edge weight, removed to "
            "break directed cycles that survived pair resolution",
            seed,
            dropped,
            100.0 * dropped_weight / total_weight,
        )


def lrc_scores(node_count: int, edges: dict[tuple[int, int], float]) -> np.ndarray:
    """Local Reaching Centrality for every node of a resolved graph.

    For each reachable node the contribution is the total weight of the
    hop-count-shortest path (ties broken by maximum total weight)
    divided by its edge count; the sum is normalized by node_count - 1.

    One breadth-first search runs for all sources at once. The frontier
    holds (source, node, best weight) triples, grouped by source and, per
    source, in discovery order. A level expands every triple through the
    edges in CSR layout (per source node, in the order ``edges`` yields
    them), drops pairs already reached, and keeps one triple per new
    (source, node) pair: one stable sort of ``source * node_count +
    node`` puts each pair's first candidate at the head of its group,
    which fixes the pair's discovery order, and ``np.maximum.reduceat``
    gives its heaviest candidate. Each source's contributions are added
    to its total in discovery order, level by level (``np.add.at`` adds
    in index order), which is the left-to-right sum of a per-source
    search, so scores are bit-identical to one. Memory: an N x N bool
    array of reached pairs (N² bytes) plus arrays the size of one level.
    """
    pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= node_count):
        raise ConfigError(f"edge endpoint outside the {node_count} graph nodes")
    out = np.zeros(node_count)
    if node_count < 2 or not pairs.size:
        return out
    by_source = np.argsort(pairs[:, 0], kind="stable")
    heads = np.zeros(node_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs[:, 0], minlength=node_count), out=heads[1:])
    tails = pairs[by_source, 1]
    weights = np.fromiter(edges.values(), dtype=float, count=len(pairs))[by_source]
    reached = np.eye(node_count, dtype=bool).ravel()
    src = np.arange(node_count)
    node, best = src, np.zeros(node_count)
    depth = 0
    while src.size:
        depth += 1
        degree = heads[node + 1] - heads[node]
        ends = np.cumsum(degree)
        # candidates in frontier order, each node's edges in CSR order
        parent = np.repeat(np.arange(src.size), degree)
        edge = np.arange(ends[-1]) + np.repeat(heads[node] - (ends - degree), degree)
        keys = src[parent] * node_count + tails[edge]
        fresh = ~reached[keys]
        keys, cand = keys[fresh], best[parent[fresh]] + weights[edge[fresh]]
        if not keys.size:
            break
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
        first = order[starts]
        found = np.argsort(first)
        keys, best = keys[first[found]], np.maximum.reduceat(cand[order], starts)[found]
        reached[keys] = True
        src, node = np.divmod(keys, node_count)
        np.add.at(out, src, best / depth)
    return out / (node_count - 1)


def _json_float(x: float) -> str:
    """``json.dumps`` text of one float: its repr, or NaN / Infinity / -Infinity."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


def trace_lines(seed: int, results: Sequence[BagResult], pset: PredicateSet) -> list[str]:
    """Bag-level audit trace, one JSON object per retained predicate.

    Each line is the text of ``json.dumps(record, sort_keys=True)``,
    written directly: labels go through ``json.dumps`` once each and
    floats through ``_json_float``."""
    labels = [json.dumps(p.key) for p in pset.predicates]
    return [
        f'{{"bag": {bag.bag_index}, "impact_norm": {_json_float(impact)}, '
        f'"impact_raw": {_json_float(raw)}, "label": {labels[j]}, '
        f'"predicate": {j}, "seed": {seed}, "support": {support}}}'
        for bag in results
        for j, impact, raw, support in bag.entries.tolist()
    ]


def to_dot(graph: ExplanationGraph, pset: PredicateSet) -> str:
    """DOT text with predicate labels at 2 decimals and weights at 4."""
    lines = ["digraph explanation {"]
    for node in sorted({n for e in graph.edges for n in e}):
        lines.append(f"  n{node} [label={_dot_string(node_label(node, pset))}];")
    for (u, v), w in sorted(graph.edges.items()):
        lines.append(f'  n{u} -> n{v} [label="{w:.4f}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(graph: ExplanationGraph, pset: PredicateSet) -> str:
    """Lossless JSON twin of the DOT export.

    The text is that of ``json.dumps(payload, indent=2, sort_keys=True)``
    with payload ``{"seed", "nodes": [{"id", "label"}], "edges":
    [{"source", "target", "weight"}]}``, written directly: labels go
    through ``json.dumps`` once each and weights through ``_json_float``."""
    edges = [
        f'    {{\n      "source": {u},\n      "target": {v},\n      "weight": {_json_float(w)}\n    }}'
        for (u, v), w in sorted(graph.edges.items())
    ]
    nodes = [
        f'    {{\n      "id": {i},\n      "label": {json.dumps(node_label(i, pset))}\n    }}'
        for i in range(graph.node_count)
    ]
    return f'{{\n  "edges": {_json_list(edges)},\n  "nodes": {_json_list(nodes)},\n  "seed": {graph.seed}\n}}\n'
