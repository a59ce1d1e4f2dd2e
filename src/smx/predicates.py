"""Quantile thresholds over zone scores and the predicate set they induce.

Each zone/quantile pair yields two complementary rules (score <= tau and
score > tau); duplicates from tied quantile values are dropped keeping
the first occurrence, so at most 2*M*K predicates survive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ConfigError
from .zonecore import ZoneModel

if TYPE_CHECKING:
    from .engine import EngineConfig

LE = "<="
GT = ">"


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation empirical quantile at level q in (0, 1)."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ConfigError("quantile of an empty sequence")
    if not np.all(np.isfinite(v)):
        raise ConfigError("quantile input contains non-finite values")
    if not (0.0 < q < 1.0):
        raise ConfigError("quantile level must be in (0, 1)")
    v = np.sort(v)
    h = (v.size - 1) * q
    lo = int(np.floor(h))
    if lo == v.size - 1:
        return float(v[lo])
    frac = h - lo
    return float(v[lo] + frac * (v[lo + 1] - v[lo]))


@dataclass(frozen=True)
class Predicate:
    zone_index: int
    zone_name: str
    direction: str  # LE or GT
    tau: float

    @property
    def label(self) -> str:
        return f"{self.zone_name} {self.direction} {self.tau:.2f}"

    @property
    def key(self) -> str:
        """Full-precision identity string, stable across runs."""
        return f"{self.zone_name} {self.direction} {format(self.tau, '.17g')}"


@dataclass
class PredicateSet:
    """Ordered predicates (zone-major, quantile-minor, <= before >) plus the
    n-by-N boolean matrix marking which training samples satisfy each one."""

    predicates: list[Predicate]
    indicator: np.ndarray

    def __len__(self) -> int:
        return len(self.predicates)


def build_predicates(scores: np.ndarray, zone_models: Sequence[ZoneModel], cfg: EngineConfig) -> PredicateSet:
    """Enumerate and deduplicate predicates over the training score matrix,
    at the quantile levels of ``cfg``."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2 or scores.shape[1] != len(zone_models):
        raise ConfigError("score matrix width must equal the number of zone models")

    predicates: list[Predicate] = []
    columns: list[np.ndarray] = []
    seen: set[tuple[str, str, float]] = set()
    for m, model in enumerate(zone_models):
        t = scores[:, m]
        for q in cfg.quantiles:
            tau = quantile(t, q)
            for direction in (LE, GT):
                ident = (model.zone_name, direction, tau)
                if ident in seen:
                    continue
                seen.add(ident)
                predicates.append(Predicate(zone_index=m, zone_name=model.zone_name, direction=direction, tau=tau))
                columns.append(t <= tau if direction == LE else t > tau)
    return PredicateSet(predicates=predicates, indicator=np.column_stack(columns))
