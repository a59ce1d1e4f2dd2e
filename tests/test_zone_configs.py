from pathlib import Path

import numpy as np
import pytest

from smx.dataio import SpectralDataset, load_zone_config, resolve_zones
from smx.synthgen import benchmark_config

CONFIG_DIR = Path(__file__).resolve().parents[1] / "zone_configs"

# The channel grids the layouts are written for: GRS detector channels
# 1-1,024, XRF channels of 20 eV (0.02-40.96 keV), and the axis
# ``smx synth`` generates for the synthetic layout.
_SYNTH = benchmark_config()
GRIDS = {
    "grs": np.arange(1, 1025, dtype=float),
    "xrf": np.round(np.arange(1, 2049) * 0.02, 2),
    "synthetic": np.linspace(*_SYNTH.axis_range, _SYNTH.n_points),
}


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_example_zone_configs_validate(path):
    cfg = load_zone_config(path)
    assert cfg.zones
    assert cfg.plausible_names()


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_layout_resolves_on_its_instrument_grid(path):
    """Touching zones share boundary channels on these grids; each such
    channel goes to exactly one zone, the one starting there."""
    cfg = load_zone_config(path)
    axis = GRIDS[path.stem.rsplit("_", 1)[-1]]
    ds = SpectralDataset(axis=axis, intensities=np.zeros((2, axis.size)), labels=[0, 1], sample_ids=["a", "b"])
    sets = resolve_zones(cfg, ds)
    shared = {z.end for z in cfg.zones} & {z.start for z in cfg.zones} & set(axis.tolist())
    assert shared or path.stem == "synthetic"
    owner = np.full(axis.size, -1)
    covered = np.zeros(axis.size, dtype=bool)
    for m, (zone, idx) in enumerate(zip(cfg.zones, sets)):
        assert idx.size >= 2
        assert np.all(owner[idx] == -1)
        assert np.all((axis[idx] >= zone.start) & (axis[idx] <= zone.end))
        owner[idx] = m
        covered |= (axis >= zone.start) & (axis <= zone.end)
    assert np.array_equal(owner >= 0, covered)
    for m, zone in enumerate(cfg.zones):
        if zone.start in shared:
            assert owner[np.flatnonzero(axis == zone.start)] == [m]

def test_synthetic_layout_matches_builtin():
    from smx.synthgen import benchmark_zones

    cfg = load_zone_config(CONFIG_DIR / "synthetic.json")
    assert cfg.zones == benchmark_zones().zones
