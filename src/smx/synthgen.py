"""Two-class synthetic spectra with known ground truth.

Each spectrum is a superposition of Gaussian peaks plus white noise;
per-sample amplitudes and widths are drawn from normal distributions so
classes differ in expectation but overlap sample to sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import SpectralDataset, Zone, ZoneConfig, json_object, read_json
from .errors import ConfigError


@dataclass(frozen=True)
class PeakSpec:
    """One Gaussian peak: center plus amplitude/width sampling moments."""

    center: float
    amp_mean: float
    amp_std: float
    width_mean: float
    width_std: float


@dataclass(frozen=True)
class ClassSpec:
    label: int
    name: str
    n_samples: int
    peaks: tuple[PeakSpec, ...]
    noise_std: float


@dataclass(frozen=True)
class SyntheticConfig:
    n_points: int
    axis_range: tuple[float, float]
    classes: tuple[ClassSpec, ...]
    seed: int

    def validate(self) -> None:
        lo, hi = self.axis_range
        if self.n_points < 2:
            raise ConfigError("n_points must be at least 2")
        if not lo < hi:
            raise ConfigError("axis_range must satisfy low < high")
        if not self.classes:
            raise ConfigError("at least one class is required")
        labels = [c.label for c in self.classes]
        if len(set(labels)) != len(labels) or not set(labels) <= {0, 1}:
            raise ConfigError("class labels must be distinct values from {0, 1}")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        for cls in self.classes:
            if cls.n_samples < 1:
                raise ConfigError(f"class '{cls.name}': n_samples must be >= 1")
            if cls.noise_std < 0:
                raise ConfigError(f"class '{cls.name}': noise_std must be >= 0")
            for pk in cls.peaks:
                if pk.amp_std < 0 or pk.width_std < 0:
                    raise ConfigError(f"class '{cls.name}': std fields must be >= 0")
                if not (lo <= pk.center <= hi):
                    raise ConfigError(
                        f"class '{cls.name}': peak center {pk.center} outside axis range"
                    )


def generate(cfg: SyntheticConfig) -> SpectralDataset:
    """Draw the dataset described by ``cfg``; bit-identical for a fixed seed.

    Widths sampled at or below zero are redrawn until positive, since a
    non-positive Gaussian width is undefined.
    """
    cfg.validate()
    lo, hi = cfg.axis_range
    axis = np.linspace(lo, hi, cfg.n_points)
    rng = np.random.default_rng(cfg.seed)

    rows = []
    labels = []
    ids = []
    for cls in cfg.classes:
        for i in range(cls.n_samples):
            y = np.zeros(cfg.n_points)
            for pk in cls.peaks:
                amp = rng.normal(pk.amp_mean, pk.amp_std)
                width = rng.normal(pk.width_mean, pk.width_std)
                while width <= 0:
                    width = rng.normal(pk.width_mean, pk.width_std)
                y += amp * np.exp(-((axis - pk.center) ** 2) / (2.0 * width**2))
            if cls.noise_std > 0:
                y = y + rng.normal(0.0, cls.noise_std, cfg.n_points)
            rows.append(y)
            labels.append(cls.label)
            ids.append(f"{cls.name}_{i + 1:04d}")
    return SpectralDataset(
        axis=axis, intensities=np.asarray(rows), labels=np.asarray(labels), sample_ids=ids
    )


def benchmark_config(seed: int = 42) -> SyntheticConfig:
    """The default two-class benchmark: 116 + 126 samples, 300 points on [1, 600].

    Class A carries a strong discriminative peak near 150, a weaker one
    near 300, and a shared non-discriminative peak near 500.
    """
    class_a = ClassSpec(
        label=0,
        name="A",
        n_samples=116,
        noise_std=0.08,
        peaks=(
            PeakSpec(center=150.0, amp_mean=2.50, amp_std=0.30, width_mean=15.0, width_std=2.0),
            PeakSpec(center=300.0, amp_mean=2.00, amp_std=0.30, width_mean=15.0, width_std=2.0),
            PeakSpec(center=500.0, amp_mean=0.50, amp_std=0.30, width_mean=15.0, width_std=2.0),
        ),
    )
    class_b = ClassSpec(
        label=1,
        name="B",
        n_samples=126,
        noise_std=0.10,
        peaks=(
            PeakSpec(center=150.0, amp_mean=0.10, amp_std=0.005, width_mean=15.0, width_std=2.0),
            PeakSpec(center=300.0, amp_mean=0.80, amp_std=0.30, width_mean=14.0, width_std=1.5),
            PeakSpec(center=500.0, amp_mean=0.45, amp_std=0.30, width_mean=15.0, width_std=2.0),
        ),
    )
    return SyntheticConfig(
        n_points=300, axis_range=(1.0, 600.0), classes=(class_a, class_b), seed=seed
    )


def benchmark_zones() -> ZoneConfig:
    """Zone layout matching the benchmark: three peak zones between backgrounds."""
    return ZoneConfig(
        [
            Zone("Background 1", 1.0, 101.0, False),
            Zone("Feature 1", 101.0, 193.3, True),
            Zone("Background 2", 193.3, 255.42, False),
            Zone("Feature 2", 255.42, 341.57, True),
            Zone("Background 3", 341.57, 460.0, False),
            Zone("Feature 3", 460.0, 539.9, True),
            Zone("Background 4", 539.9, 600.0, False),
        ]
    )


def load_config(path: str | Path) -> SyntheticConfig:
    """Read a ``SyntheticConfig`` from a JSON object of its fields, classes
    and their peaks as nested objects, and validate it."""
    cfg = json_object(read_json(path, "synthetic config file"), SyntheticConfig, f"{path}: bad synthetic config")
    cfg.validate()
    return cfg
