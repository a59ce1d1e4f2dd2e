"""Per-zone one-component PCA: loadings, scores, explained variance and
threshold back-projection.

A zone model summarises one spectral zone by its column means, the unit
loading of the dominant covariance eigenvector (divisor n-1) and the
fraction of variance that direction explains. Every zone is solved
exactly by one symmetric eigen-decomposition (``numpy.linalg.eigh``) of
the smaller Gram form of the centred zone: the d x d covariance when
d <= n, otherwise the n x n sample Gram matrix, whose top eigenvector u
gives the loading Xc.T @ u / ||Xc.T @ u||. Loading signs follow a fixed
convention so every fit is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import SpectralDataset, ZoneConfig, resolve_zones
from .errors import ConfigError, PipelineError


@dataclass
class ZoneModel:
    zone_name: str
    indices: np.ndarray
    mean: np.ndarray
    loading: np.ndarray
    variance_explained: float

    @property
    def width(self) -> int:
        return int(self.indices.size)


def _fix_sign(w: np.ndarray) -> np.ndarray:
    """Sum of entries >= 0; on a zero sum the first nonzero entry is positive."""
    s = float(w.sum())
    if abs(s) <= 1e-12:
        nz = np.flatnonzero(w)
        if nz.size and w[nz[0]] < 0:
            return -w
        return w
    return -w if s < 0 else w


def fit_zone(X_zone: np.ndarray, zone_name: str = "", indices: np.ndarray | None = None) -> ZoneModel:
    """Fit the one-component PCA summary of a zone sub-matrix.

    Raises on all-identical rows: quantile predicates over a constant
    score column would be vacuous.
    """
    X = np.asarray(X_zone, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2 or X.shape[1] < 2:
        raise ConfigError("zone matrix must be 2-D with at least 2 samples and 2 variables")
    if not np.all(np.isfinite(X)):
        raise ConfigError("zone matrix contains non-finite entries")
    n, d = X.shape
    mean = X.mean(axis=0)
    Xc = X - mean
    divisor = float(n - 1)
    total_var = float(np.sum(Xc * Xc) / divisor)
    if total_var == 0.0:
        raise PipelineError(f"degenerate zone '{zone_name}': all samples identical")

    if d <= n:
        evals, evecs = np.linalg.eigh(Xc.T @ Xc / divisor)
        loading = np.array(evecs[:, -1])
    else:
        evals, evecs = np.linalg.eigh(Xc @ Xc.T / divisor)
        loading = Xc.T @ evecs[:, -1]
        loading /= np.linalg.norm(loading)
    ve = float(evals[-1]) / float(evals.sum())

    loading = _fix_sign(loading)
    ve = min(max(ve, 0.0), 1.0)
    if indices is None:
        indices = np.arange(d)
    return ZoneModel(
        zone_name=zone_name,
        indices=np.asarray(indices, dtype=int),
        mean=mean,
        loading=loading,
        variance_explained=ve,
    )


def score_zone(model: ZoneModel, X_zone: np.ndarray) -> np.ndarray:
    """Project centred zone rows onto the loading: t_i = (x_i - mean) @ w."""
    X = np.asarray(X_zone, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != model.mean.size:
        raise ConfigError(
            f"zone width mismatch: expected {model.mean.size}, got {X.shape[1]}"
        )
    return (X - model.mean) @ model.loading


def threshold_spectrum(model: ZoneModel, tau: float) -> np.ndarray:
    """Back-project a score threshold onto the zone's channels, in the space
    the zone model was fitted in: mean + tau * loading."""
    if not np.isfinite(tau):
        raise ConfigError(f"threshold tau must be finite, got {tau}")
    return model.mean + float(tau) * model.loading


def fit_zone_models(
    ds: SpectralDataset, cfg: ZoneConfig
) -> tuple[list[ZoneModel], np.ndarray]:
    """Fit every configured zone on ``ds`` and return (models, n-by-M score matrix)."""
    sets = resolve_zones(cfg, ds)
    models = []
    columns = []
    for zone, idx in zip(cfg.zones, sets):
        model = fit_zone(ds.intensities[:, idx], zone_name=zone.name, indices=idx)
        models.append(model)
        columns.append(score_zone(model, ds.intensities[:, idx]))
    return models, np.column_stack(columns)
