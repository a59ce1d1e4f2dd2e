import dataclasses
import json
import math

import numpy as np
import pytest

from smx import synthgen
from smx.dataio import resolve_zones
from smx.cli import main
from smx.errors import ConfigError
from smx.synthgen import ClassSpec, PeakSpec, SyntheticConfig, benchmark_config, generate


def _degenerate_config():
    """One noiseless peak on a grid that contains 150 and 165 exactly."""
    peak = PeakSpec(center=150.0, amp_mean=2.0, amp_std=0.0, width_mean=15.0, width_std=0.0)
    cls_a = ClassSpec(label=0, name="A", n_samples=3, peaks=(peak,), noise_std=0.0)
    cls_b = ClassSpec(label=1, name="B", n_samples=2, peaks=(), noise_std=0.0)
    return SyntheticConfig(n_points=301, axis_range=(0.0, 300.0), classes=(cls_a, cls_b), seed=9)


class TestGenerate:
    def test_benchmark_dimensions(self):
        ds = generate(benchmark_config())
        assert ds.n_samples == 116 + 126 == 242
        assert ds.n_variables == 300
        assert ds.axis[0] == 1.0 and ds.axis[-1] == 600.0
        assert np.count_nonzero(ds.labels == 0) == 116
        assert np.count_nonzero(ds.labels == 1) == 126

    def test_gaussian_center_value_exact(self):
        ds = generate(_degenerate_config())
        at_center = np.flatnonzero(ds.axis == 150.0)[0]
        assert ds.intensities[0, at_center] == 2.0

    def test_gaussian_one_sigma_value(self):
        ds = generate(_degenerate_config())
        at_165 = np.flatnonzero(ds.axis == 165.0)[0]
        expected = 2.0 * math.exp(-((165.0 - 150.0) ** 2) / (2.0 * 15.0**2))
        assert ds.intensities[0, at_165] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.21306, abs=1e-5)

    def test_same_seed_bit_identical(self):
        a = generate(benchmark_config())
        b = generate(benchmark_config())
        assert np.array_equal(a.intensities, b.intensities)
        assert a.sample_ids == b.sample_ids

    def test_different_seed_differs(self):
        a = generate(benchmark_config(seed=1))
        b = generate(benchmark_config(seed=2))
        assert not np.array_equal(a.intensities, b.intensities)

    def test_zero_noise_class_rows_identical_and_analytic(self):
        ds = generate(_degenerate_config())
        rows = ds.intensities[ds.labels == 0]
        assert np.array_equal(rows[0], rows[1]) and np.array_equal(rows[0], rows[2])
        analytic = 2.0 * np.exp(-((ds.axis - 150.0) ** 2) / (2.0 * 15.0**2))
        np.testing.assert_array_equal(rows[0], analytic)
        assert np.array_equal(ds.intensities[ds.labels == 1], np.zeros((2, 301)))

    def test_feature1_class_means_separated(self):
        ds = generate(benchmark_config())
        zones = synthgen.benchmark_zones()
        idx = resolve_zones(zones, ds)[1]  # Feature 1
        per_sample = ds.intensities[:, idx].mean(axis=1)
        a = per_sample[ds.labels == 0]
        b = per_sample[ds.labels == 1]
        se = math.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
        assert (a.mean() - b.mean()) / se > 10.0

    def test_ids_are_class_prefixed(self):
        ds = generate(_degenerate_config())
        assert ds.sample_ids[0] == "A_0001" and ds.sample_ids[-1] == "B_0002"


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = benchmark_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        assert synthgen.load_config(path) == cfg

    def test_center_outside_range_rejected(self):
        peak = PeakSpec(center=700.0, amp_mean=1.0, amp_std=0.0, width_mean=5.0, width_std=0.0)
        cls = ClassSpec(label=0, name="A", n_samples=2, peaks=(peak,), noise_std=0.0)
        with pytest.raises(ConfigError, match="outside axis range"):
            SyntheticConfig(n_points=10, axis_range=(0.0, 600.0), classes=(cls,), seed=0)

    def test_negative_std_rejected(self):
        peak = PeakSpec(center=5.0, amp_mean=1.0, amp_std=-0.1, width_mean=5.0, width_std=0.0)
        cls = ClassSpec(label=0, name="A", n_samples=2, peaks=(peak,), noise_std=0.0)
        with pytest.raises(ConfigError, match="std"):
            SyntheticConfig(n_points=10, axis_range=(0.0, 10.0), classes=(cls,), seed=0)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("n_points",), 1e12, f"n_points must be at most {synthgen.MAX_POINTS}, got 1000000000000"),
            (("classes", 1, "n_samples"), 10**9, f"class 'B': n_samples must be at most {synthgen.MAX_CLASS_SAMPLES}"),
            (("classes", 0, "peaks", 2, "width_std"), 0, "class 'A': peaks[2] can never draw a positive width"),
        ],
        ids=["n_points", "n_samples", "width"],
    )
    def test_unbounded_config_exit_2_before_drawing(self, tmp_path, capsys, path, value, message):
        """A config that could exhaust memory or never draw a width is refused
        when it is read, before any array is allocated."""
        doc = dataclasses.asdict(benchmark_config())
        doc["classes"][0]["peaks"][2]["width_mean"] = -1.0
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        assert main(["synth", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out.csv")]) == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_bounds_are_inclusive(self):
        cfg = dataclasses.replace(benchmark_config(), n_points=synthgen.MAX_POINTS)
        classes = tuple(dataclasses.replace(c, n_samples=synthgen.MAX_CLASS_SAMPLES) for c in cfg.classes)
        assert dataclasses.replace(cfg, classes=classes).n_points == synthgen.MAX_POINTS

    def test_width_redraws_are_capped(self, tmp_path, capsys):
        """A width that is positive only with vanishing probability ends the
        draw with exit 2 naming the class and the peak; it used to loop on."""
        doc = dataclasses.asdict(benchmark_config())
        doc["classes"][1]["peaks"][1].update(width_mean=-1000.0, width_std=0.001)
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        assert main(["synth", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert f"class 'B': peaks[1] drew {synthgen.MAX_WIDTH_DRAWS} non-positive widths" in err

    def test_redraws_keep_the_random_stream(self):
        """Widths that often draw non-positive give the values of an uncapped
        redraw loop bit for bit."""
        peak = PeakSpec(center=30.0, amp_mean=1.0, amp_std=0.3, width_mean=0.5, width_std=2.0)
        cls = ClassSpec(label=0, name="A", n_samples=40, peaks=(peak, peak), noise_std=0.1)
        cfg = SyntheticConfig(n_points=60, axis_range=(1.0, 60.0), classes=(cls,), seed=3)
        axis = np.linspace(1.0, 60.0, 60)
        rng = np.random.default_rng(3)
        rows = []
        for _ in range(cls.n_samples):
            y = np.zeros(60)
            for pk in cls.peaks:
                amp = rng.normal(pk.amp_mean, pk.amp_std)
                width = rng.normal(pk.width_mean, pk.width_std)
                while width <= 0:
                    width = rng.normal(pk.width_mean, pk.width_std)
                y += amp * np.exp(-((axis - pk.center) ** 2) / (2.0 * width**2))
            rows.append(y + rng.normal(0.0, cls.noise_std, 60))
        assert np.array_equal(generate(cfg).intensities, np.asarray(rows))

    def test_benchmark_zone_names(self):
        names = synthgen.benchmark_zones().names()
        assert names[1] == "Feature 1" and names[3] == "Feature 2" and names[5] == "Feature 3"
