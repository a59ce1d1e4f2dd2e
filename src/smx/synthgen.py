"""Two-class synthetic spectra with known ground truth.

Each spectrum is a superposition of Gaussian peaks plus white noise;
per-sample amplitudes and widths are drawn from normal distributions so
classes differ in expectation but overlap sample to sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import SpectralDataset, Zone, ZoneConfig, json_object, naming, read_json
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


# A dataset is drawn whole in memory: at most 4 times the widest shipped
# layout's 2,048 channels and 10,000 samples a class (a 1.3 GB matrix).
MAX_POINTS = 8192
MAX_CLASS_SAMPLES = 10_000
# Draws of a non-positive width after which a peak is refused.
MAX_WIDTH_DRAWS = 1000


@dataclass(frozen=True)
class SyntheticConfig:
    """A synthetic dataset's description, checked when it is made."""

    n_points: int
    axis_range: tuple[float, float]
    classes: tuple[ClassSpec, ...]
    seed: int

    def __post_init__(self):
        lo, hi = self.axis_range
        if self.n_points < 2:
            raise ConfigError("n_points must be at least 2")
        if self.n_points > MAX_POINTS:
            raise ConfigError(f"n_points must be at most {MAX_POINTS}, got {self.n_points}")
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
            if cls.n_samples > MAX_CLASS_SAMPLES:
                raise ConfigError(f"class '{cls.name}': n_samples must be at most {MAX_CLASS_SAMPLES}")
            if cls.noise_std < 0:
                raise ConfigError(f"class '{cls.name}': noise_std must be >= 0")
            for k, pk in enumerate(cls.peaks):
                if pk.amp_std < 0 or pk.width_std < 0:
                    raise ConfigError(f"class '{cls.name}': std fields must be >= 0")
                if not (lo <= pk.center <= hi):
                    raise ConfigError(f"class '{cls.name}': peak center {pk.center} outside axis range")
                if pk.width_std == 0 and pk.width_mean <= 0:
                    raise ConfigError(f"class '{cls.name}': peaks[{k}] can never draw a positive width")


def generate(cfg: SyntheticConfig) -> SpectralDataset:
    """Draw the dataset described by ``cfg``; bit-identical for a fixed seed.

    Widths sampled at or below zero are redrawn until positive, since a
    non-positive Gaussian width is undefined; a peak that draws
    ``MAX_WIDTH_DRAWS`` in a row at or below zero raises ``ConfigError``.
    """
    lo, hi = cfg.axis_range
    axis = np.linspace(lo, hi, cfg.n_points)
    rng = np.random.default_rng(cfg.seed)

    rows = []
    labels = []
    ids = []
    for cls in cfg.classes:
        for i in range(cls.n_samples):
            y = np.zeros(cfg.n_points)
            for k, pk in enumerate(cls.peaks):
                amp = rng.normal(pk.amp_mean, pk.amp_std)
                for _ in range(MAX_WIDTH_DRAWS):
                    width = rng.normal(pk.width_mean, pk.width_std)
                    if width > 0:
                        break
                else:
                    raise ConfigError(f"class '{cls.name}': peaks[{k}] drew {MAX_WIDTH_DRAWS} non-positive widths")
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
    and their peaks as nested objects."""
    raw = read_json(path, "synthetic config file")
    with naming(path):
        return json_object(raw, SyntheticConfig, "bad synthetic config")
