import numpy as np
import pytest

from smx.engine import EngineConfig
from smx.errors import ConfigError
from smx.predicates import GT, LE, build_predicates, quantile
from smx.zonecore import ZoneModel


def _stub_zone(name, width=2):
    return ZoneModel(
        zone_name=name,
        indices=np.arange(width),
        mean=np.zeros(width),
        loading=np.eye(width)[0],
        variance_explained=1.0,
    )


class TestQuantile:
    def test_median_of_odd_list(self):
        assert quantile([1, 2, 3, 4, 5], 0.5) == 3.0

    def test_quarter_interpolation(self):
        # h = (5-1)*0.25 = 1.0 exactly, so the value is v[1]
        assert quantile([1, 2, 3, 4, 5], 0.25) == 2.0

    def test_constant_list(self):
        for q in (0.1, 0.5, 0.9):
            assert quantile([5, 5, 5, 5], q) == 5.0

    def test_interpolates_between_order_stats(self):
        # h = 3*0.4 = 1.2 -> 2 + 0.2*(3-2)
        assert quantile([1, 2, 3, 4], 0.4) == pytest.approx(2.2, abs=1e-15)

    def test_matches_sorted_input(self):
        assert quantile([4, 1, 3, 2, 5], 0.25) == quantile([1, 2, 3, 4, 5], 0.25)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            quantile([], 0.5)

    def test_bad_level_rejected(self):
        with pytest.raises(ConfigError):
            quantile([1.0, 2.0], 0.0)


class TestBuildPredicates:
    def test_single_zone_indicator_partition(self):
        scores = np.array([[1.0], [2.0], [3.0]])
        pset = build_predicates(scores, [_stub_zone("z")], EngineConfig(quantiles=(0.5,)))
        assert [p.direction for p in pset.predicates] == [LE, GT]
        assert pset.predicates[0].tau == 2.0
        np.testing.assert_array_equal(pset.indicator[:, 0], [True, True, False])
        np.testing.assert_array_equal(pset.indicator[:, 1], [False, False, True])

    def test_default_q_bounds_predicate_count(self):
        rng = np.random.default_rng(0)
        zones = [_stub_zone(f"z{m}") for m in range(3)]
        scores = rng.normal(size=(30, 3))
        pset = build_predicates(scores, zones, EngineConfig(quantiles=(0.2, 0.4, 0.6, 0.8)))
        assert len(pset) <= 8 * 3
        assert len(pset) == 24  # continuous scores: no ties, all survive

    def test_constant_scores_collapse_to_two(self):
        scores = np.zeros((10, 1))
        pset = build_predicates(scores, [_stub_zone("flat")], EngineConfig(quantiles=(0.2, 0.4, 0.6, 0.8)))
        assert len(pset) == 2
        assert {p.direction for p in pset.predicates} == {LE, GT}

    def test_complement_columns_cover_everything(self):
        rng = np.random.default_rng(1)
        zones = [_stub_zone(f"z{m}") for m in range(2)]
        pset = build_predicates(rng.normal(size=(25, 2)), zones, EngineConfig(quantiles=(0.3, 0.7)))
        by_key = {(p.zone_name, p.tau, p.direction): i for i, p in enumerate(pset.predicates)}
        for (zone, tau, direction), i in by_key.items():
            if direction != LE:
                continue
            j = by_key[(zone, tau, GT)]
            both = pset.indicator[:, i] | pset.indicator[:, j]
            neither = pset.indicator[:, i] & pset.indicator[:, j]
            assert both.all() and not neither.any()
            assert pset.indicator[:, i].sum() + pset.indicator[:, j].sum() == 25

    def test_gt_supports_nested_by_tau(self):
        rng = np.random.default_rng(2)
        pset = build_predicates(rng.normal(size=(40, 1)), [_stub_zone("z")], EngineConfig(quantiles=(0.2, 0.5, 0.8)))
        gts = sorted(
            (p.tau, i) for i, p in enumerate(pset.predicates) if p.direction == GT
        )
        for (lo_tau, lo_i), (hi_tau, hi_i) in zip(gts, gts[1:]):
            assert lo_tau < hi_tau
            hi_support = set(np.flatnonzero(pset.indicator[:, hi_i]))
            lo_support = set(np.flatnonzero(pset.indicator[:, lo_i]))
            assert hi_support <= lo_support

    def test_rebuild_bit_identical(self):
        rng = np.random.default_rng(3)
        zones = [_stub_zone("z")]
        scores = rng.normal(size=(15, 1))
        a = build_predicates(scores, zones, EngineConfig(quantiles=(0.25, 0.75)))
        b = build_predicates(scores, zones, EngineConfig(quantiles=(0.25, 0.75)))
        assert [p.tau for p in a.predicates] == [p.tau for p in b.predicates]
        assert np.array_equal(a.indicator, b.indicator)

    def test_ordering_zone_major_quantile_minor(self):
        rng = np.random.default_rng(4)
        zones = [_stub_zone("first"), _stub_zone("second")]
        pset = build_predicates(rng.normal(size=(20, 2)), zones, EngineConfig(quantiles=(0.4, 0.6)))
        names = [p.zone_name for p in pset.predicates]
        assert names == ["first"] * 4 + ["second"] * 4
        first = pset.predicates[:4]
        assert [p.direction for p in first] == [LE, GT, LE, GT]
        assert first[0].tau == first[1].tau < first[2].tau == first[3].tau

    def test_invalid_q_rejected(self):
        """Levels come from an ``EngineConfig``, which refuses bad ones."""
        for levels in [(), (0.8, 0.2), (0.5, 1.0)]:
            with pytest.raises(ConfigError):
                EngineConfig(quantiles=levels)
