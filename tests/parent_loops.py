"""The three loops that ``engine.output_shifts`` replaced, their code kept
verbatim as references: ``responses`` (engine), ``faithfulness_curve`` and
``pfi`` (evalkit), with the ``perturb_zone``, ``row_impacts`` and
``model_outputs`` helpers they called. Tests compare the library with
them bit for bit, and the per-predicate and per-copy references in
``test_engine`` and ``test_evalkit`` build on the helpers."""

from typing import Mapping, Sequence

import numpy as np

from smx.engine import Responses
from smx.errors import ConfigError, ModelError
from smx.evalkit import EvalCurve, make_curve
from smx.models import CONTINUOUS, PROBABILISTIC
from smx.zonecore import ZoneModel


def perturb_zone(X: np.ndarray, zone_indices: np.ndarray, medians: np.ndarray) -> np.ndarray:
    """Replace the zone's columns with training medians; all else untouched."""
    X = np.asarray(X, dtype=float)
    zone_indices = np.asarray(zone_indices, dtype=int)
    if zone_indices.size and (zone_indices.min() < 0 or zone_indices.max() >= X.shape[1]):
        raise ConfigError("zone index out of range")
    out = X.copy()
    out[:, zone_indices] = medians[zone_indices]
    return out


def row_impacts(kind: str, orig: np.ndarray, pert: np.ndarray) -> np.ndarray:
    """Per-sample output shift: the absolute difference of continuous
    outputs, or the class-averaged absolute probability shift."""
    diff = np.abs(np.asarray(orig) - np.asarray(pert))
    if kind == CONTINUOUS:
        return diff
    return diff.sum(axis=1) / diff.shape[1]


def model_outputs(model, X: np.ndarray) -> np.ndarray:
    """``predict`` of a continuous model, ``predict_proba`` of a probabilistic one."""
    if model.kind == CONTINUOUS:
        return model.predict(X)
    if model.kind == PROBABILISTIC:
        return model.predict_proba(X)
    raise ModelError(f"unknown model kind {model.kind!r}")


def _predicted_classes(kind: str, outputs: np.ndarray) -> np.ndarray:
    if kind == CONTINUOUS:
        return (outputs > 0.5).astype(int)
    return np.where(outputs[:, 1] > outputs[:, 0], 1, 0)


def responses(model, X_train: np.ndarray, zone_models: Sequence[ZoneModel]) -> Responses:
    """Query the model on the full training matrix ``len(zone_models) + 1``
    times: once intact and once per zone median-replaced."""
    X = np.asarray(X_train, dtype=float)
    medians = np.median(X, axis=0)
    outputs = model_outputs(model, X)
    shifts = np.column_stack(
        [
            row_impacts(model.kind, outputs, model_outputs(model, perturb_zone(X, zm.indices, medians)))
            for zm in zone_models
        ]
    )
    return Responses(shifts=shifts, classes=_predicted_classes(model.kind, outputs))


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
    X = np.asarray(X_test, dtype=float)
    depth = len(zone_order) if k_max is None else min(int(k_max), len(zone_order))
    base = model_outputs(model, X)
    masked = X.copy()
    ys = []
    for k in range(depth):
        masked[:, np.asarray(zone_sets[zone_order[k]], dtype=int)] = 0.0
        ys.append(float(np.mean(row_impacts(model.kind, base, model_outputs(model, masked)))))
    return make_curve(ys)


def pfi(model, X_test: np.ndarray, repeats: int = 10, seed: int = 0) -> np.ndarray:
    """Permutation feature importance from prediction shift (stacked
    repeats, one generator per (seed, variable))."""
    if repeats < 1:
        raise ConfigError(f"pfi repeats must be >= 1, got {repeats}")
    if seed < 0:
        raise ConfigError(f"pfi seed must be >= 0, got {seed}")
    X = np.asarray(X_test, dtype=float)
    m, p = X.shape
    blocks = np.broadcast_to(X, (repeats, m, p)).copy()
    work = blocks.reshape(repeats * m, p)
    base = model_outputs(model, work)
    rows = np.broadcast_to(np.arange(m), (repeats, m))
    out = np.zeros(p)
    for j in range(p):
        column = X[:, j]
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), j)))
        blocks[:, :, j] = column[rng.permuted(rows, axis=1)]
        impacts = row_impacts(model.kind, base, model_outputs(model, work))
        acc = 0.0
        for mean in impacts.reshape(repeats, m).mean(axis=1).tolist():
            acc += mean  # sequential, in repeat order: a pairwise sum rounds differently
        blocks[:, :, j] = column
        out[j] = acc / repeats
    return out
