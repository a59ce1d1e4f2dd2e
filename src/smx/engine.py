"""Stochastic bag generation, median-replacement zone perturbation and
impact scoring: the core ranking loop.

Per bag, every predicate with enough support inside the bag has its
zone replaced by full-training-set column medians for the satisfying
samples; the mean change in model output over those samples, divided by
the zone width, is the predicate's normalized impact.

``output_shifts`` is the one place a model's output is compared with
its intact output: the zone responses below, ``evalkit``'s faithfulness
curve and its PFI all ask the model through it.

Because the replacement values are full-training medians, a sample's
perturbed output depends only on the zone, not on the seed, the bag or
the predicate. ``responses`` therefore evaluates the model once on the
training matrix and once per zone with that zone median-replaced for
every sample, and keeps the per-sample shifts ``D[i, m]`` with the
predicted classes: zones + 1 model calls per training set, however
many seeds, bags and predicates are ranked from it. ``run_bags`` scores
one bag as one masked reduction over ``D``: a predicate's impact is the
mean of its zone's column over its satisfying bag samples. Bags are
pure functions of (seed, bag_index, D), so any parallel schedule yields
identical results.

A bag's ranking is one ``ENTRY_DTYPE`` record array, a row per retained
predicate in rank order (impact descending, ties to the lower index):
``predicate``, ``impact`` (normalized), ``raw_impact`` and ``support``
(satisfying bag samples). The graph and the trace read its columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, ModelError
from .models import CONTINUOUS, PROBABILISTIC
from .parallel import run_ordered
from .predicates import PredicateSet
from .zonecore import ZoneModel

DEFAULT_QUANTILES = (0.2, 0.4, 0.6, 0.8)
DEFAULT_SEEDS = (1, 2, 3, 4)
# Every bag's ranking is held in memory and written to the bag trace, so a
# count far beyond what a ranking needs is refused up front rather than
# run out of memory: 100 times the default.
MAX_BAGS = 1000
# Every percentile is allowed; pipeline.MAX_PREDICATES bounds the
# predicate count that zones and levels give together.
MAX_QUANTILES = 99


@dataclass(frozen=True)
class EngineConfig:
    bags: int = 10
    bag_fraction: float = 0.8
    min_support_fraction: float = 0.2
    quantiles: tuple[float, ...] = DEFAULT_QUANTILES
    seeds: tuple[int, ...] = DEFAULT_SEEDS

    def __post_init__(self):
        if not 1 <= self.bags <= MAX_BAGS:
            raise ConfigError(f"bag count must be in [1, {MAX_BAGS}], got {self.bags}")
        q = self.quantiles
        if not q:
            raise ConfigError("quantile set is empty")
        if len(q) > MAX_QUANTILES:
            raise ConfigError(f"at most {MAX_QUANTILES} quantile levels are allowed, got {len(q)}")
        if any(not (0.0 < level < 1.0) for level in q):
            raise ConfigError("quantile levels must lie in (0, 1)")
        if any(b <= a for a, b in zip(q, q[1:])):
            raise ConfigError("quantile levels must be strictly increasing")
        if not (0.0 < self.bag_fraction <= 1.0):
            raise ConfigError("bag_fraction must be in (0, 1]")
        if not (0.0 < self.min_support_fraction < 1.0):
            raise ConfigError("min_support_fraction must be in (0, 1)")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        if any(s < 0 for s in self.seeds):
            raise ConfigError("seeds must be non-negative")


ENTRY_DTYPE = np.dtype(
    [("predicate", np.int64), ("impact", np.float64), ("raw_impact", np.float64), ("support", np.int64)]
)


@dataclass
class BagResult:
    bag_index: int
    entries: np.ndarray  # ENTRY_DTYPE records in rank order
    terminal_class: int | None  # None when no predicate is retained


def draw_bag(seed: int, bag_index: int, n: int, n_b: int) -> np.ndarray:
    """Uniform n_b-subset of range(n) via partial Fisher-Yates, keyed on
    (seed, bag_index); reproducible across runs and thread schedules.
    Swap i exchanges positions i and ``targets[i]``, all targets drawn
    in one call."""
    if not (1 <= n_b <= n):
        raise ConfigError(f"bag size {n_b} outside [1, {n}]")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), int(bag_index))))
    steps = np.arange(n_b)
    targets = steps + rng.integers(0, n - steps)
    idx = list(range(n))
    for i, j in enumerate(targets.tolist()):
        idx[i], idx[j] = idx[j], idx[i]
    return np.array(idx[:n_b])


def output_shifts(model, X: np.ndarray, edits: Iterable) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """The model's outputs on ``X``, and an iterator that makes one model
    call per edit ``(columns, values)``, on ``X`` with ``X[:, columns] =
    values``, and yields each row's shift from the intact outputs: the
    absolute difference of continuous outputs, or the class-averaged
    absolute probability shift. ``X`` is edited in place; each edit is
    undone before its shift is yielded or the model's error propagates.
    The intact outputs are copied: they may be views of ``X``. Every
    answer must hold one output per row, ``(rows,)`` from ``predict`` or
    ``(rows, 2)`` from ``predict_proba``, or ``ModelError`` is raised."""
    if model.kind not in (CONTINUOUS, PROBABILISTIC):
        raise ModelError(f"unknown model kind {model.kind!r}")
    continuous = model.kind == CONTINUOUS
    method = "predict" if continuous else "predict_proba"
    query = getattr(model, method)
    X = np.asarray(X, dtype=float)
    shape = (X.shape[0],) if continuous else (X.shape[0], 2)

    def ask():
        answer = np.asarray(query(X))
        if answer.shape != shape:
            raise ModelError(f"model {method} answered {X.shape[0]} rows with shape {answer.shape}, expected {shape}")
        return answer

    outputs = np.array(ask())

    def shifts():
        for columns, values in edits:
            cols = np.asarray(columns, dtype=int)
            if cols.size and (cols.min() < 0 or cols.max() >= X.shape[1]):
                raise ConfigError("zone index out of range")
            saved = X[:, cols].copy()
            X[:, cols] = values
            try:
                diff = np.abs(outputs - ask())
            finally:
                X[:, cols] = saved
            yield diff if continuous else (diff[:, 0] + diff[:, 1]) / 2

    return outputs, shifts()


def _predicted_classes(kind: str, outputs: np.ndarray) -> np.ndarray:
    if kind == CONTINUOUS:
        return (outputs > 0.5).astype(int)
    return np.where(outputs[:, 1] > outputs[:, 0], 1, 0)


def bag_size(n: int, bag_fraction: float) -> int:
    return min(n, max(1, int(round(bag_fraction * n))))


def min_support(n: int, min_support_fraction: float) -> int:
    return int(math.ceil(min_support_fraction * n))


@dataclass(frozen=True)
class Responses:
    """How the model responds on one training set: ``shifts[i, m]`` is
    sample i's output shift when zone m is median-replaced, and
    ``classes[i]`` its predicted class on the unperturbed row."""

    shifts: np.ndarray  # n x zones
    classes: np.ndarray  # n


def responses(model, X_train: np.ndarray, zone_models: Sequence[ZoneModel]) -> Responses:
    """Query the model on the full training matrix ``len(zone_models) + 1``
    times: once intact and once per zone median-replaced."""
    X = np.array(X_train, dtype=float)  # output_shifts edits it
    medians = np.median(X, axis=0)
    # clipped: a zone index outside X reaches output_shifts' range check, not an IndexError
    edits = ((zm.indices, medians.take(zm.indices, mode="clip")) for zm in zone_models)
    outputs, shifts = output_shifts(model, X, edits)
    return Responses(shifts=np.column_stack(list(shifts)), classes=_predicted_classes(model.kind, outputs))


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
        # C-ordered, as np.ix_ gave it: the column sums then run in the same order
        block = np.ascontiguousarray(D[subset][:, zone_of[kept]])
        raw = np.where(I[:, kept], block, 0.0).sum(axis=0) / supports[kept]
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
