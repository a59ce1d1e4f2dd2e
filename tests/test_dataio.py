import csv
import io
import json
import math

import numpy as np
import pytest

from smx import artifacts, dataio, synthgen
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
    zone_config_json,
)
from smx.errors import ConfigError, FormatError, ModelError, PipelineError

import parent_rules


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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_axis_value(self, tmp_path, value):
        for header in (f"1,{value}", f"{value},1"):
            with pytest.raises(FormatError, match=rf"line 1, column \d: non-finite axis value '{value}'"):
                load_csv(_write(tmp_path, f"id,label,{header}\na,0,1,2\n"))
        with pytest.raises(FormatError, match="axis contains non-finite entries"):
            SpectralDataset(axis=[1.0, float(value)], intensities=[[1.0, 2.0]], labels=[0], sample_ids=["a"])

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
            lines = ["id,label," + ",".join(artifacts._fmt(v) for v in ds.axis)]
            for i in range(n):
                cells = ",".join(artifacts._fmt(v) for v in ds.intensities[i])
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

    def test_identical_rows_give_a_full_class_share(self):
        # every class-0 distance is 0: the first pair is rows 0 and 1, not row 0 twice
        ds = SpectralDataset(
            axis=[1.0, 2.0],
            intensities=np.vstack([np.ones((5, 2)), np.arange(10.0).reshape(5, 2)]),
            labels=[0] * 5 + [1] * 5,
            sample_ids=list("abcdefghij"),
        )
        train, _ = kennard_stone_split(ds, 0.6)
        assert train.labels.tolist() == [0, 0, 0, 1, 1, 1]
        assert train.sample_ids[:3] == ["a", "b", "c"]

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
        state = fit_preprocess(small_dataset, "savgol_then_center", window=7, order=2)
        assert state.savgol == (7, 2)

    def test_savgol_paper_default_shape(self):
        rng = np.random.default_rng(0)
        ds = SpectralDataset(
            axis=np.arange(20.0),
            intensities=rng.normal(size=(4, 20)),
            labels=[0, 0, 1, 1],
            sample_ids=list("abcd"),
        )
        state = fit_preprocess(ds, "savgol_then_center", window=15, order=2)
        assert state.savgol == (15, 2)

    def test_savgol_defaults(self):
        ds = SpectralDataset(
            axis=np.arange(20.0),
            intensities=np.random.default_rng(0).normal(size=(4, 20)),
            labels=[0, 0, 1, 1],
            sample_ids=list("abcd"),
        )
        assert fit_preprocess(ds, "savgol_then_center").savgol == (15, 2)
        assert fit_preprocess(ds, "savgol_then_center", order=3).savgol == (15, 3)
        assert fit_preprocess(ds, "savgol_then_center", window=7).savgol == (7, 2)

    @pytest.mark.parametrize("params", [{"window": 15}, {"order": 2}])
    @pytest.mark.parametrize("method", ["mean_center", "poisson_then_center"])
    def test_savgol_settings_refused_for_other_methods(self, small_dataset, method, params):
        with pytest.raises(ConfigError, match=f"applies only to savgol_then_center, not {method}"):
            fit_preprocess(small_dataset, method, **params)

    def test_poisson_zero_mean_column_names_column(self):
        ds = SpectralDataset(
            axis=[1.0, 2.0],
            intensities=np.array([[1.0, 0.0], [2.0, 0.0]]),
            labels=[0, 1],
            sample_ids=list("ab"),
        )
        with pytest.raises(ConfigError, match="column 1") as exc:
            fit_preprocess(ds, "poisson_then_center")
        assert str(exc.value).endswith("has mean 0.0")  # a plain number, not np.float64(0.0)
        assert "np.float64" not in str(exc.value)

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
        state = fit_preprocess(ds, "savgol_then_center", window=5, order=2)
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

    @pytest.mark.parametrize("method", ["mean_center", "poisson_then_center"])
    def test_input_units_invert_apply_preprocess(self, method):
        """A profile mapped into input units at some channels comes back
        through ``apply_preprocess`` at those channels."""
        raw = synthgen.generate(synthgen.benchmark_config(42))
        # the offset makes every column mean positive, as Poisson scaling needs
        ds = SpectralDataset(raw.axis, raw.intensities + 1.0, raw.labels, raw.sample_ids)
        state = fit_preprocess(ds, method)
        idx = np.arange(40, 90)
        profile = np.random.default_rng(3).normal(size=idx.size)
        row = dataio.to_input_units(state, np.zeros(ds.n_variables), np.arange(ds.n_variables))
        row[idx] = dataio.to_input_units(state, profile, idx)
        back = apply_preprocess(state, SpectralDataset(ds.axis, row[None, :], [0], ["x"])).intensities[0]
        np.testing.assert_allclose(back[idx], profile, rtol=1e-12, atol=1e-12)

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
            saved = json.loads(json.dumps(state.to_dict()))
            np.testing.assert_array_equal(saved["column_means"], state.column_means)
            assert saved["method"] == state.method
            if state.poisson_scales is not None:
                np.testing.assert_array_equal(saved["poisson_scales"], state.poisson_scales)

    @pytest.mark.parametrize(
        "method, window, order",
        [("mean_center", None, None), ("poisson_then_center", None, None), ("savgol_then_center", None, None),
         *(("savgol_then_center", w, o) for w, o in ((3, 0), (3, 2), (5, 1), (7, 3), (15, 2), (21, 4), (39, 6)))],
    )
    def test_matches_parent_branches(self, method, window, order):
        """One uncentred transform gives the parent's per-method branches bit
        for bit: the fitted state, and the train and test matrices applied."""
        rng = np.random.default_rng(sum(map(ord, method)) + (window or 0) * 10 + (order or 0))
        X = rng.lognormal(size=(23, 40)) * rng.uniform(0.01, 100.0, size=40)
        train = SpectralDataset(np.arange(40.0), X[:15], [0, 1] * 7 + [0], [f"r{i}" for i in range(15)])
        test = SpectralDataset(np.arange(40.0), X[15:], [0, 1] * 4, [f"t{i}" for i in range(8)])
        got, want = fit_preprocess(train, method, window, order), parent_rules.fit_preprocess(train, method, window, order)
        assert (got.method, got.savgol) == (want.method, want.savgol)
        for field in ("column_means", "poisson_scales"):
            a, b = getattr(got, field), getattr(want, field)
            assert (a is None) == (b is None)
            if a is not None:
                np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))
        for ds in (train, test):
            np.testing.assert_array_equal(
                apply_preprocess(got, ds).intensities.view(np.uint64),
                parent_rules.apply_preprocess(want, ds).intensities.view(np.uint64),
            )

    @pytest.mark.parametrize("method, window, column", [("poisson_then_center", None, -2.0), ("savgol_then_center", 9, 1.0)])
    def test_refuses_what_the_parent_refused(self, method, window, column):
        """A non-positive Poisson column mean and a Savitzky-Golay window wider
        than the data give the parent's refusal, word for word."""
        ds = SpectralDataset(np.arange(5.0), np.full((3, 5), column), [0, 1, 0], list("abc"))
        messages = []
        for fit in (fit_preprocess, parent_rules.fit_preprocess):
            with pytest.raises(ConfigError) as caught:
                fit(ds, method, window)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]

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

        def resolve(axis):
            ds = SpectralDataset(
                axis=axis,
                intensities=np.zeros((2, len(axis))) + [[0.0], [1.0]],
                labels=[0, 1],
                sample_ids=["a", "b"],
            )
            return [list(s) for s in resolve_zones(cfg, ds)]

        assert resolve([1.0, 1.5, 2.5, 3.0]) == [[0, 1], [2, 3]]
        # the point on the shared boundary goes to "b", the zone starting there
        assert resolve([1.0, 1.5, 2.0, 2.5, 3.0]) == [[0, 1], [2, 3, 4]]
        # which leaves "a" a single point here
        with pytest.raises(ConfigError, match="zone 'a' covers 1 axis point"):
            resolve([1.0, 2.0, 2.5, 3.0])

    def test_disjoint_union_bounded_by_p(self, small_dataset, small_zones):
        sets = resolve_zones(small_zones, small_dataset)
        merged = np.concatenate(sets)
        assert np.unique(merged).size == merged.size <= small_dataset.n_variables

    def test_zones_kept_in_axis_order(self):
        a, b, c = Zone("a", 1.0, 2.0, True), Zone("b", 2.0, 3.0, False), Zone("c", 5.0, 6.0, True)
        assert ZoneConfig([c, a, b]).zones == [a, b, c]

    @pytest.mark.parametrize(
        "key, value, rule",
        [
            ("plausible", "false", "true or false"),
            ("plausible", 0, "true or false"),
            ("plausible", None, "true or false"),
            ("name", 5, "a string"),
            ("name", None, "a string"),
            ("start", "1", "a finite number"),
            ("start", True, "a finite number"),
            ("start", math.nan, "a finite number"),
            ("end", math.inf, "a finite number"),
            pytest.param("end", 10**400, "a finite number", id="end-10**400-a finite number"),
        ],
    )
    def test_untyped_entry_value_rejected(self, tmp_path, key, value, rule):
        entry = {"name": "b", "start": 3.0, "end": 4.0, "plausible": True, key: value}
        path = tmp_path / "zones.json"
        path.write_text(json.dumps([{"name": "a", "start": 1.0, "end": 2.0, "plausible": False}, entry]))
        with pytest.raises(FormatError, match=f"zones.json: bad zone entry 1: '{key}' must be {rule}, got "):
            load_zone_config(path)

    @pytest.mark.parametrize("entry", [{"name": "a", "start": 1.0, "end": 2.0}, ["a", 1.0, 2.0, True]])
    def test_malformed_entry_rejected(self, tmp_path, entry):
        path = tmp_path / "zones.json"
        path.write_text(json.dumps([entry]))
        with pytest.raises(FormatError, match="zones.json: bad zone entry 0: "):
            load_zone_config(path)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError, match="unique"):
            ZoneConfig([Zone("a", 1.0, 2.0, True), Zone("a", 3.0, 4.0, True)])

    def test_json_round_trip(self, tmp_path, small_zones):
        path = tmp_path / "zones.json"
        path.write_text(zone_config_json(small_zones))
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
        assert dataio.csv_field(text) == field
        assert next(csv.reader(io.StringIO(dataio.csv_field(text) + "\n"))) == [text]

    def test_always_quoted(self):
        assert dataio.csv_quote("Z01 <= 1.00") == '"Z01 <= 1.00"'
        assert next(csv.reader(io.StringIO(dataio.csv_quote('a "b", c') + "\n"))) == ['a "b", c']


class TestReadInput:
    def test_text_read_as_utf8_with_line_ends_kept(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_bytes("a\r\nb\rc\né".encode())
        assert dataio.read_input(path, "test file") == "a\r\nb\rc\né"

    def test_path_holding_a_nul_is_a_config_error(self, tmp_path):
        """A manifest entry can name such a path; open() refuses it with a ValueError."""
        with pytest.raises(ConfigError, match="cannot read test file .*embedded null"):
            dataio.read_input(f"{tmp_path}/a\0b", "test file")

    def test_json_nested_too_deeply_is_a_format_error(self, tmp_path):
        """json.loads raises RecursionError here, not JSONDecodeError."""
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        with pytest.raises(FormatError, match=f"{path}: invalid JSON in test file"):
            dataio.read_json(path, "test file")


class TestNaming:
    @pytest.mark.parametrize("error", [ConfigError, FormatError, PipelineError, ModelError])
    def test_prefixes_the_path_and_keeps_the_class(self, error):
        with pytest.raises(error) as info:
            with dataio.naming("data/a.csv"):
                raise error("axis not strictly increasing")
        assert type(info.value) is error and str(info.value) == "data/a.csv: axis not strictly increasing"

    def test_no_path_leaves_the_error_as_it_is(self):
        raised = ConfigError("zone config is empty")
        with pytest.raises(ConfigError) as info:
            with dataio.naming(None):
                raise raised
        assert info.value is raised

    def test_other_exceptions_pass_through(self):
        with pytest.raises(ValueError, match="^x$"):
            with dataio.naming("a.json"):
                raise ValueError("x")
