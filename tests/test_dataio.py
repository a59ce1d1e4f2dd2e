import csv
import io
import json
import math

import numpy as np
import pytest

from smx import dataio
from smx.dataio import (
    SpectralDataset,
    Zone,
    ZoneConfig,
    apply_preprocess,
    fit_preprocess,
    kennard_stone_split,
    load_csv,
    load_zone_config,
    resolve_zones,
    save_csv,
    save_zone_config,
)
from smx.errors import ConfigError, FormatError


def _write(tmp_path, text, name="ds.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        path = _write(
            tmp_path,
            "id,label,1.0,2.0,3.0,4.0\n"
            "a,0,1,2,3,4\n"
            "b,1,5,6,7,8\n"
            "c,0,9,10,11,12\n",
        )
        ds = load_csv(path)
        assert ds.n_samples == 3 and ds.n_variables == 4
        assert ds.sample_ids == ["a", "b", "c"]
        assert list(ds.labels) == [0, 1, 0]
        np.testing.assert_array_equal(ds.intensities[1], [5.0, 6.0, 7.0, 8.0])

    def test_axis_not_increasing(self, tmp_path):
        path = _write(tmp_path, "id,label,2.0,1.0\na,0,1,2\n")
        with pytest.raises(FormatError, match="axis not strictly increasing"):
            load_csv(path)

    def test_non_numeric_cell_reports_row_and_column(self, tmp_path):
        path = _write(tmp_path, "id,label,1.0,2.0\na,0,1,oops\n")
        with pytest.raises(FormatError, match=r"line 2, column 4"):
            load_csv(path)

    def test_duplicate_sample_id(self, tmp_path):
        path = _write(tmp_path, "id,label,1.0,2.0\na,0,1,2\na,1,3,4\n")
        with pytest.raises(FormatError, match="duplicate sample id"):
            load_csv(path)

    def test_bad_label(self, tmp_path):
        path = _write(tmp_path, "id,label,1.0,2.0\na,2,1,2\n")
        with pytest.raises(FormatError, match="label"):
            load_csv(path)

    def test_round_trip_bytes_and_values(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(7, 5)) * np.logspace(-8, 8, 5)
        ds = SpectralDataset(
            axis=np.sort(rng.uniform(0, 100, 5)),
            intensities=values,
            labels=rng.integers(0, 2, 7),
            sample_ids=[f"r{i}" for i in range(7)],
        )
        first = tmp_path / "first.csv"
        save_csv(ds, first)
        loaded = load_csv(first)
        np.testing.assert_array_equal(loaded.intensities, ds.intensities)
        np.testing.assert_array_equal(loaded.axis, ds.axis)
        second = tmp_path / "second.csv"
        save_csv(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_ids_needing_quotes_round_trip(self, tmp_path, monkeypatch):
        ids = ["a,b", 'c"d', "e\nf", "g\rh", "plain"]
        ds = SpectralDataset(
            axis=[1.0, 2.0], intensities=np.arange(10.0).reshape(5, 2), labels=[0, 1, 0, 1, 1], sample_ids=ids
        )
        text = dataio.dataset_csv_text(ds)
        assert text.splitlines(keepends=True)[1:3] == ['"a,b",0,0,1\n', '"c""d",1,2,3\n']
        assert text.endswith("\nplain,1,8,9\n")
        readers = []
        real = csv.reader
        monkeypatch.setattr(dataio.csv, "reader", lambda *a: readers.append(a) or real(*a))
        save_csv(ds, tmp_path / "ids.csv")
        loaded = load_csv(tmp_path / "ids.csv")
        assert len(readers) == 1  # quoted files are read by csv.reader
        assert loaded.sample_ids == ids
        np.testing.assert_array_equal(loaded.intensities, ds.intensities)
        np.testing.assert_array_equal(loaded.labels, ds.labels)

    def test_csv_text_matches_per_value_reference(self):
        rng = np.random.default_rng(11)
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                   1.7976931348623157e308, -1.7976931348623157e308, 1e300, -1e-300, 0.1]
        for n, p in ((1, 1), (5, 7), (40, 300)):
            values = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-320, 309, size=(n, p))
            values.flat[rng.integers(0, n * p, size=min(n * p, 3 * len(special)))] = rng.choice(
                special, size=min(n * p, 3 * len(special))
            )
            ds = SpectralDataset(
                axis=np.arange(1.0, p + 1.0),
                intensities=np.zeros((n, p)),
                labels=rng.integers(0, 2, n),
                sample_ids=[f"r{i}" for i in range(n)],
            )
            ds.intensities = values  # the writer formats any float, finite or not
            ds.axis = np.sort(rng.normal(size=p) * 1e-310)
            lines = ["id,label," + ",".join(dataio._fmt(v) for v in ds.axis)]
            for i in range(n):
                cells = ",".join(dataio._fmt(v) for v in ds.intensities[i])
                lines.append(f"{ds.sample_ids[i]},{int(ds.labels[i])},{cells}")
            assert dataio.dataset_csv_text(ds) == "\n".join(lines) + "\n"

    def test_cells_parse_as_python_float(self, tmp_path):
        cells = ["1_000", " 1.5", "1e-400", "-0", "\uff11\uff12", "\u0663", "1e5_0", ".5", "1.",
                 "-4.9e-324", "  -1.5e-3  ", "1.7976931348623157e308", "0.1", "-2.5E+10"]
        rng = np.random.default_rng(12)
        cells += [repr(v) for v in (rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, size=40)).tolist()]
        cells += ["%.17g" % v for v in rng.normal(size=40).tolist()]
        p = len(cells)
        header = "id,label," + ",".join(str(k) for k in range(1, p + 1))
        rows = [f"a,0,{','.join(cells)}", f"b,1,{','.join(reversed(cells))}"]
        ds = load_csv(_write(tmp_path, header + "\n" + "\n".join(rows) + "\n"))
        expected = np.array([[float(c) for c in cells], [float(c) for c in reversed(cells)]])
        assert ds.intensities.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("cell", ["Infinity", "-inf", "nan", "1e400"])
    def test_non_finite_cells_parse_then_fail_validation(self, tmp_path, cell):
        path = _write(tmp_path, f"id,label,1.0,2.0\na,0,1,{cell}\n")
        with pytest.raises(FormatError, match="non-finite"):
            load_csv(path)

    def test_non_numeric_cell_exact_message(self, tmp_path):
        path = _write(tmp_path, "id,label,1.0,2.0,3.0\na,0,1,2,3\nb,1,4,5_,oops\n")
        with pytest.raises(FormatError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: line 3, column 4: non-numeric cell '5_'"

    def test_bad_cell_reported_before_later_column_count_error(self, tmp_path):
        path = _write(tmp_path, "id,label,1.0,2.0\na,0,1,2\nb,1,x,4\nc,0,5,6\nd,1,7\n")
        with pytest.raises(FormatError, match=r"line 3, column 3: non-numeric cell 'x'"):
            load_csv(path)


class TestKennardStone:
    def test_one_dimensional_example(self):
        # class values {0, 10, 5, 2}: first pair (0, 10), then 5 since
        # min-dist 5 beats 2's min-dist 2 (checked by hand enumeration)
        ds = SpectralDataset(
            axis=[1.0],
            intensities=np.array([[0.0], [10.0], [5.0], [2.0], [0.0], [9.0]]),
            labels=[0, 0, 0, 0, 1, 1],
            sample_ids=list("abcdef"),
        )
        train, test = kennard_stone_split(ds, 0.75)
        class0_train = [sid for sid, lab in zip(train.sample_ids, train.labels) if lab == 0]
        assert class0_train == ["a", "b", "c"]
        assert set(test.sample_ids) & {"a", "b", "c", "d"} == {"d"}

    def test_two_samples_per_class_keeps_one_of_pair(self):
        ds = SpectralDataset(
            axis=[1.0],
            intensities=np.array([[0.0], [4.0], [10.0], [11.0]]),
            labels=[0, 0, 1, 1],
            sample_ids=list("abcd"),
        )
        train, test = kennard_stone_split(ds, 0.5)
        assert train.n_samples == 2 and test.n_samples == 2
        assert sorted(np.bincount(train.labels, minlength=2)) == [1, 1]

    def test_duplicate_points_tie_break_lowest_index(self):
        ds = SpectralDataset(
            axis=[1.0],
            intensities=np.array([[0.0], [0.0], [10.0], [10.0], [1.0], [2.0]]),
            labels=[0, 0, 0, 0, 1, 1],
            sample_ids=list("abcdef"),
        )
        train, _ = kennard_stone_split(ds, 0.75)
        class0_train = [sid for sid, lab in zip(train.sample_ids, train.labels) if lab == 0]
        # first pair (a, c); third pick ties between b and d at distance 0 -> b
        assert class0_train == ["a", "b", "c"]

    def test_matches_bruteforce_maxmin_oracle(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(9, 4))
        ds = SpectralDataset(
            axis=[1.0, 2.0, 3.0, 4.0],
            intensities=np.vstack([X, rng.normal(size=(2, 4))]),
            labels=[0] * 9 + [1, 1],
            sample_ids=[f"s{i}" for i in range(11)],
        )
        train, _ = kennard_stone_split(ds, 0.6)
        got = [int(sid[1:]) for sid, lab in zip(train.sample_ids, train.labels) if lab == 0]

        # independent oracle: plain-python max-min selection
        def dist(a, b):
            return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))

        best, pair = -1.0, None
        for i in range(9):
            for j in range(i + 1, 9):
                d = dist(X[i], X[j])
                if d > best:
                    best, pair = d, [i, j]
        expect = list(pair)
        while len(expect) < round(0.6 * 9):
            cand_best, cand = -1.0, None
            for k in range(9):
                if k in expect:
                    continue
                dmin = min(dist(X[k], X[s]) for s in expect)
                if dmin > cand_best:
                    cand_best, cand = dmin, k
            expect.append(cand)
        assert sorted(got) == sorted(expect)

    def test_deterministic(self, small_dataset):
        a_train, a_test = kennard_stone_split(small_dataset, 0.7)
        b_train, b_test = kennard_stone_split(small_dataset, 0.7)
        assert a_train.sample_ids == b_train.sample_ids
        np.testing.assert_array_equal(a_test.intensities, b_test.intensities)

    def test_small_class_rejected(self):
        ds = SpectralDataset(
            axis=[1.0],
            intensities=np.array([[0.0], [1.0], [2.0]]),
            labels=[0, 0, 1],
            sample_ids=list("abc"),
        )
        with pytest.raises(ConfigError, match="fewer than 2"):
            kennard_stone_split(ds, 0.5)

    def test_bad_fraction(self, small_dataset):
        with pytest.raises(ConfigError):
            kennard_stone_split(small_dataset, 1.0)


class TestPreprocess:
    def test_poisson_scale_from_constant_column(self):
        ds = SpectralDataset(
            axis=[1.0, 2.0],
            intensities=np.array([[4.0, 1.0], [4.0, 2.0], [4.0, 3.0]]),
            labels=[0, 1, 0],
            sample_ids=list("abc"),
        )
        state = fit_preprocess(ds, "poisson_then_center")
        assert state.poisson_scales[0] == pytest.approx(2.0, abs=0)

    def test_mean_center_stores_mean(self):
        ds = SpectralDataset(
            axis=[1.0],
            intensities=np.array([[1.0], [2.0], [3.0]]),
            labels=[0, 1, 0],
            sample_ids=list("abc"),
        )
        state = fit_preprocess(ds, "mean_center")
        assert state.column_means[0] == 2.0

    def test_savgol_records_window_and_order(self, small_dataset):
        # the default window (15) exceeds this toy width, so use 7
        state = fit_preprocess(small_dataset, "savgol_then_center", savgol_window=7, savgol_order=2)
        assert state.savgol == (7, 2)

    def test_savgol_paper_default_shape(self):
        rng = np.random.default_rng(0)
        ds = SpectralDataset(
            axis=np.arange(20.0),
            intensities=rng.normal(size=(4, 20)),
            labels=[0, 0, 1, 1],
            sample_ids=list("abcd"),
        )
        state = fit_preprocess(ds, "savgol_then_center", savgol_window=15, savgol_order=2)
        assert state.savgol == (15, 2)

    def test_poisson_zero_mean_column_names_column(self):
        ds = SpectralDataset(
            axis=[1.0, 2.0],
            intensities=np.array([[1.0, 0.0], [2.0, 0.0]]),
            labels=[0, 1],
            sample_ids=list("ab"),
        )
        with pytest.raises(ConfigError, match="column 1"):
            fit_preprocess(ds, "poisson_then_center")

    def test_centering_zeroes_training_columns(self, small_dataset):
        for method in ("mean_center", "poisson_then_center"):
            ds = small_dataset
            if method == "poisson_then_center":
                ds = SpectralDataset(
                    axis=ds.axis,
                    intensities=np.abs(ds.intensities) + 1.0,
                    labels=ds.labels,
                    sample_ids=ds.sample_ids,
                )
            state = fit_preprocess(ds, method)
            out = apply_preprocess(state, ds)
            assert np.max(np.abs(out.intensities.mean(axis=0))) < 1e-12

    def test_savgol_keeps_exact_quadratic_interior(self):
        j = np.arange(20.0)
        row = j**2
        ds = SpectralDataset(
            axis=j + 1.0,
            intensities=np.vstack([row, row + 1.0]),
            labels=[0, 1],
            sample_ids=["a", "b"],
        )
        state = fit_preprocess(ds, "savgol_then_center", savgol_window=5, savgol_order=2)
        state.column_means = np.zeros(20)  # isolate the smoothing stage
        out = apply_preprocess(state, ds)
        np.testing.assert_allclose(out.intensities[0][2:-2], row[2:-2], atol=1e-9)

    def test_poisson_scaling_before_centering(self):
        state = dataio.PreprocessState(
            method="poisson_then_center",
            column_means=np.zeros(1),
            poisson_scales=np.array([2.0]),
        )
        ds = SpectralDataset(
            axis=[1.0], intensities=np.array([[4.0], [8.0]]), labels=[0, 1], sample_ids=["a", "b"]
        )
        np.testing.assert_array_equal(apply_preprocess(state, ds).intensities, [[2.0], [4.0]])

    def test_scaling_stage_is_exactly_linear_for_pow2(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(6, 4))
        state = dataio.PreprocessState(
            method="poisson_then_center",
            column_means=np.zeros(4),
            poisson_scales=rng.uniform(0.5, 3.0, 4),
        )
        ds = SpectralDataset(axis=np.arange(4.0), intensities=X, labels=[0, 1] * 3, sample_ids=list("abcdef"))
        ds2 = SpectralDataset(axis=np.arange(4.0), intensities=2.0 * X, labels=[0, 1] * 3, sample_ids=list("abcdef"))
        np.testing.assert_array_equal(
            apply_preprocess(state, ds2).intensities, 2.0 * apply_preprocess(state, ds).intensities
        )

    def test_width_mismatch(self, small_dataset):
        state = fit_preprocess(small_dataset, "mean_center")
        narrow = SpectralDataset(
            axis=small_dataset.axis[:4],
            intensities=small_dataset.intensities[:, :4],
            labels=small_dataset.labels,
            sample_ids=small_dataset.sample_ids,
        )
        with pytest.raises(ConfigError, match="width"):
            apply_preprocess(state, narrow)

    def test_state_dict_round_trip(self, small_dataset):
        positive = SpectralDataset(
            axis=small_dataset.axis,
            intensities=np.abs(small_dataset.intensities) + 1.0,
            labels=small_dataset.labels,
            sample_ids=small_dataset.sample_ids,
        )
        for method in ("mean_center", "poisson_then_center"):
            state = fit_preprocess(positive, method)
            clone = dataio.PreprocessState.from_dict(state.to_dict())
            np.testing.assert_array_equal(clone.column_means, state.column_means)
            assert clone.method == state.method
            if state.poisson_scales is not None:
                np.testing.assert_array_equal(clone.poisson_scales, state.poisson_scales)

    def test_test_transform_uses_training_parameters(self, small_dataset):
        state = fit_preprocess(small_dataset, "mean_center")
        shifted = SpectralDataset(
            axis=small_dataset.axis,
            intensities=small_dataset.intensities + 5.0,
            labels=small_dataset.labels,
            sample_ids=small_dataset.sample_ids,
        )
        out = apply_preprocess(state, shifted)
        np.testing.assert_allclose(out.intensities.mean(axis=0), np.full(8, 5.0), atol=1e-12)


class TestZones:
    def test_benchmark_feature1_zone_is_contiguous(self):
        axis = np.linspace(1.0, 600.0, 300)
        ds = SpectralDataset(
            axis=axis,
            intensities=np.zeros((2, 300)) + [[0.0], [1.0]],
            labels=[0, 1],
            sample_ids=["a", "b"],
        )
        cfg = ZoneConfig([Zone("Feature 1", 101.0, 193.3, True)])
        (idx,) = resolve_zones(cfg, ds)
        assert np.array_equal(idx, np.arange(idx[0], idx[-1] + 1))
        assert axis[idx[0]] >= 101.0 and axis[idx[-1]] <= 193.3
        assert axis[idx[0] - 1] < 101.0 and axis[idx[-1] + 1] > 193.3

    def test_single_point_zone_rejected(self):
        ds = SpectralDataset(
            axis=[1.0, 2.0, 3.0],
            intensities=np.zeros((2, 3)) + [[0.0], [1.0]],
            labels=[0, 1],
            sample_ids=["a", "b"],
        )
        cfg = ZoneConfig([Zone("narrow", 1.9, 2.1, True)])
        with pytest.raises(ConfigError, match="narrow"):
            resolve_zones(cfg, ds)

    def test_overlapping_zones_rejected(self):
        with pytest.raises(ConfigError, match="overlap"):
            ZoneConfig([Zone("a", 1.0, 2.0, True), Zone("b", 1.5, 3.0, True)])

    def test_shared_boundary_allowed_unless_axis_point_hits_it(self):
        cfg = ZoneConfig([Zone("a", 1.0, 2.0, True), Zone("b", 2.0, 3.0, True)])
        ds = SpectralDataset(
            axis=[1.0, 1.5, 2.5, 3.0],
            intensities=np.zeros((2, 4)) + [[0.0], [1.0]],
            labels=[0, 1],
            sample_ids=["a", "b"],
        )
        sets = resolve_zones(cfg, ds)
        assert [list(s) for s in sets] == [[0, 1], [2, 3]]
        collider = SpectralDataset(
            axis=[1.0, 2.0, 2.5, 3.0],
            intensities=np.zeros((2, 4)) + [[0.0], [1.0]],
            labels=[0, 1],
            sample_ids=["a", "b"],
        )
        with pytest.raises(ConfigError, match="boundary"):
            resolve_zones(cfg, collider)

    def test_disjoint_union_bounded_by_p(self, small_dataset, small_zones):
        sets = resolve_zones(small_zones, small_dataset)
        merged = np.concatenate(sets)
        assert np.unique(merged).size == merged.size <= small_dataset.n_variables

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError, match="unique"):
            ZoneConfig([Zone("a", 1.0, 2.0, True), Zone("a", 3.0, 4.0, True)])

    def test_json_round_trip(self, tmp_path, small_zones):
        path = tmp_path / "zones.json"
        save_zone_config(small_zones, path)
        loaded = load_zone_config(path)
        assert loaded.zones == small_zones.zones
        assert loaded.plausible_names() == {"signal"}

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "zones.json"
        path.write_text(json.dumps({"not": "a list"}))
        with pytest.raises(FormatError):
            load_zone_config(path)


class TestCsvFields:
    @pytest.mark.parametrize(
        "text, field",
        [
            ("peak one", "peak one"),
            ("Z01", "Z01"),
            ("a,b", '"a,b"'),
            ('K"a"', '"K""a"""'),
            ("two\nlines", '"two\nlines"'),
            ('Fe K"a", Kb', '"Fe K""a"", Kb"'),
        ],
    )
    def test_quoted_only_when_needed(self, text, field):
        assert dataio._csv_field(text) == field
        assert next(csv.reader(io.StringIO(dataio._csv_field(text) + "\n"))) == [text]

    def test_always_quoted(self):
        assert dataio._csv_quote("Z01 <= 1.00") == '"Z01 <= 1.00"'
        assert next(csv.reader(io.StringIO(dataio._csv_quote('a "b", c') + "\n"))) == ['a "b", c']
