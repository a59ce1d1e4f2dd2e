import csv
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smx
from smx import cli, dataio, evalkit, models, synthgen, zonecore
from smx.cli import main
from smx.dataio import Zone, ZoneConfig, _fmt
from smx.engine import EngineConfig
from smx.predicates import build_predicates
from smx.synthgen import ClassSpec, PeakSpec, SyntheticConfig


def small_config(seed=5):
    """A 50-sample, 60-point miniature of the benchmark layout."""
    cls_a = ClassSpec(
        label=0,
        name="A",
        n_samples=25,
        noise_std=0.08,
        peaks=(
            PeakSpec(center=15.0, amp_mean=2.0, amp_std=0.2, width_mean=3.0, width_std=0.3),
            PeakSpec(center=35.0, amp_mean=1.2, amp_std=0.2, width_mean=3.0, width_std=0.3),
        ),
    )
    cls_b = ClassSpec(
        label=1,
        name="B",
        n_samples=25,
        noise_std=0.10,
        peaks=(
            PeakSpec(center=15.0, amp_mean=0.3, amp_std=0.05, width_mean=3.0, width_std=0.3),
            PeakSpec(center=35.0, amp_mean=0.6, amp_std=0.2, width_mean=3.0, width_std=0.3),
        ),
    )
    return SyntheticConfig(n_points=60, axis_range=(1.0, 60.0), classes=(cls_a, cls_b), seed=seed)


SMALL_ZONES = [
    {"name": "lead-in", "start": 1.0, "end": 8.0, "plausible": False},
    {"name": "peak one", "start": 9.0, "end": 21.0, "plausible": True},
    {"name": "gap", "start": 22.0, "end": 28.0, "plausible": False},
    {"name": "peak two", "start": 29.0, "end": 41.0, "plausible": True},
    {"name": "tail", "start": 42.0, "end": 60.0, "plausible": False},
]


def build_small_case(root: Path, seed=5):
    """synth -> split -> preprocess -> train, returning all artifact paths."""
    root.mkdir(parents=True, exist_ok=True)
    cfg = small_config(seed)
    ds = synthgen.generate(cfg)
    train, test = dataio.kennard_stone_split(ds, 0.7)
    state = dataio.fit_preprocess(train, "mean_center")
    dataio.save_csv(dataio.apply_preprocess(state, train), root / "train.csv")
    dataio.save_csv(dataio.apply_preprocess(state, test), root / "test.csv")
    (root / "zones.json").write_text(json.dumps(SMALL_ZONES))
    model = models.fit_logistic(dataio.apply_preprocess(state, train), l2=0.01, max_iters=500)
    models.save_model(model, root / "model.json")
    return root


def _save_other_axis(ds, path, shift, width=None):
    """``ds`` saved with its axis moved by ``shift`` and cut to ``width`` points."""
    width = width or ds.n_variables
    dataio.save_csv(
        dataio.SpectralDataset(
            axis=ds.axis[:width] + shift, intensities=ds.intensities[:, :width],
            labels=ds.labels, sample_ids=ds.sample_ids,
        ),
        path,
    )


def write_manifest(root: Path, name: str, engine=None) -> Path:
    manifest = {
        "name": name,
        "train": "train.csv",
        "test": "test.csv",
        "zones": "zones.json",
        "model": "model.json",
        "engine": engine or {"bags": 5, "seeds": [1, 2]},
    }
    path = root / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2))
    return path


class TestSynth:
    def test_default_benchmark_dimensions(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["synth", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 242
        assert len(lines[0].split(",")) == 2 + 300

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["synth", "--out", str(a)])
        main(["synth", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_zones_out(self, tmp_path):
        out = tmp_path / "d.csv"
        zpath = tmp_path / "z.json"
        main(["synth", "--out", str(out), "--zones-out", str(zpath)])
        zones = dataio.load_zone_config(zpath)
        assert "Feature 1" in zones.names()

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n_points": 10}))
        code = main(["synth", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_zero_noise_config_deterministic(self, tmp_path):
        cfg = small_config()
        quiet = SyntheticConfig(
            n_points=cfg.n_points,
            axis_range=cfg.axis_range,
            classes=tuple(
                ClassSpec(c.label, c.name, c.n_samples, c.peaks, 0.0) for c in cfg.classes
            ),
            seed=1,
        )
        cpath = tmp_path / "cfg.json"
        synthgen.save_config(quiet, cpath)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["synth", "--config", str(cpath), "--out", str(a)])
        main(["synth", "--config", str(cpath), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestPipelineCommands:
    def test_split_preprocess_train(self, tmp_path):
        raw = tmp_path / "raw.csv"
        cpath = tmp_path / "cfg.json"
        synthgen.save_config(small_config(), cpath)
        main(["synth", "--config", str(cpath), "--out", str(raw)])
        assert (
            main(
                [
                    "split",
                    "--input",
                    str(raw),
                    "--train-fraction",
                    "0.7",
                    "--out-train",
                    str(tmp_path / "tr.csv"),
                    "--out-test",
                    str(tmp_path / "te.csv"),
                ]
            )
            == 0
        )
        train = dataio.load_csv(tmp_path / "tr.csv")
        test = dataio.load_csv(tmp_path / "te.csv")
        assert train.n_samples + test.n_samples == 50
        assert (
            main(
                [
                    "preprocess",
                    "--method",
                    "mean_center",
                    "--train",
                    str(tmp_path / "tr.csv"),
                    "--out-train",
                    str(tmp_path / "trc.csv"),
                    "--test",
                    str(tmp_path / "te.csv"),
                    "--out-test",
                    str(tmp_path / "tec.csv"),
                    "--state",
                    str(tmp_path / "state.json"),
                ]
            )
            == 0
        )
        centered = dataio.load_csv(tmp_path / "trc.csv")
        assert np.max(np.abs(centered.intensities.mean(axis=0))) < 1e-9
        assert (
            main(
                [
                    "train",
                    "--train",
                    str(tmp_path / "trc.csv"),
                    "--model",
                    "logistic",
                    "--out",
                    str(tmp_path / "model.json"),
                ]
            )
            == 0
        )
        spec = json.loads((tmp_path / "model.json").read_text())
        assert spec["kind"] == "logistic" and len(spec["weights"]) == 60

    @pytest.mark.parametrize(
        "test_args, message",
        [
            (["--test", "raw.csv"], "--out-test"),
            (["--test", "bad.csv", "--out-test", "te.csv"], "bad.csv"),
        ],
    )
    def test_preprocess_failure_exit_2_no_outputs(self, tmp_path, capsys, test_args, message):
        dataio.save_csv(synthgen.generate(small_config()), tmp_path / "raw.csv")
        (tmp_path / "bad.csv").write_text("not,a,dataset\n")
        code = main(
            [
                "preprocess",
                "--method",
                "mean_center",
                "--train",
                str(tmp_path / "raw.csv"),
                "--out-train",
                str(tmp_path / "tr.csv"),
                "--state",
                str(tmp_path / "state.json"),
                *(str(tmp_path / a) if a.endswith(".csv") else a for a in test_args),
            ]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv", "raw.csv"]

    @pytest.mark.parametrize("shift, width", [(1000.0, None), (0.0, 59)], ids=["shifted", "narrower"])
    def test_preprocess_test_axis_differs_exit_2_no_outputs(self, tmp_path, capsys, shift, width):
        raw = synthgen.generate(small_config())
        dataio.save_csv(raw, tmp_path / "raw.csv")
        _save_other_axis(raw, tmp_path / "other.csv", shift, width)
        code = main(
            ["preprocess", "--method", "mean_center", "--train", str(tmp_path / "raw.csv"),
             "--out-train", str(tmp_path / "tr.csv"), "--test", str(tmp_path / "other.csv"),
             "--out-test", str(tmp_path / "te.csv"), "--state", str(tmp_path / "state.json")]
        )
        assert code == 2
        assert "other.csv: axis differs from the train axis" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["other.csv", "raw.csv"]


    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--model", "ridge", "--lam", "nan"], "lambda"),
            (["--model", "ridge", "--lam", "inf"], "lambda"),
            (["--model", "logistic", "--l2", "nan"], "l2"),
            (["--model", "logistic", "--max-iters", "-3"], "max_iters"),
            (["--model", "logistic", "--max-iters", "0"], "max_iters"),
            (["--model", "logistic", "--tol", "-1"], "tol"),
            (["--model", "logistic", "--tol", "nan"], "tol"),
        ],
    )
    def test_train_bad_hyperparameter_exit_2_no_model(self, tmp_path, capsys, flags, name):
        dataio.save_csv(synthgen.generate(small_config()), tmp_path / "train.csv")
        out = tmp_path / "model.json"
        code = main(["train", "--train", str(tmp_path / "train.csv"), "--out", str(out), *flags])
        assert code == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, converged, warned",
        [([], True, False), (["--max-iters", "1"], False, True)],
    )
    def test_train_warns_on_stderr_only_when_not_converged(self, tmp_path, flags, converged, warned):
        # the README walkthrough's training set
        train = dataio.kennard_stone_split(synthgen.generate(synthgen.benchmark_config(42)), 0.7)[0]
        train = dataio.apply_preprocess(dataio.fit_preprocess(train, "mean_center"), train)
        dataio.save_csv(train, tmp_path / "train.csv")
        # a child process, so that the warning meets Python's default logging setup
        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(smx.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "smx", "train", "--train", str(tmp_path / "train.csv"),
             "--model", "logistic", "--out", str(tmp_path / "model.json"), *flags],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert f"converged={converged}" in proc.stdout
        if warned:
            assert "logistic fit stopped with gradient norm" in proc.stderr
            assert "after 1 iterations" in proc.stderr
        else:
            assert proc.stderr == ""


@pytest.fixture(scope="module")
def explain_case(tmp_path_factory):
    return build_small_case(tmp_path_factory.mktemp("case"))


@pytest.fixture(scope="module")
def eval_case(tmp_path_factory):
    root = build_small_case(tmp_path_factory.mktemp("eval"))
    write_manifest(root, "small")
    return root


class TestExplain:
    def test_outputs_and_top_predicate(self, explain_case, tmp_path):
        case = explain_case
        out = tmp_path / "out"
        code = main(["explain", "--manifest", str(write_manifest(case, "small")), "--out", str(out)])
        assert code == 0
        ranking = (out / "predicate_ranking.csv").read_text().splitlines()
        assert ranking[0].startswith("rank,predicate,zone,direction,tau,lrc_mean")
        assert "peak one" in ranking[1]
        zone_rank = (out / "zone_ranking.csv").read_text().splitlines()
        assert zone_rank[1].startswith("1,peak one,")
        for seed in (1, 2):
            assert (out / f"graph_seed_{seed}.dot").exists()
            assert (out / f"graph_seed_{seed}.json").exists()
        assert (out / "bag_trace.jsonl").exists()
        assert (out / "zone_models.json").exists()
        table = (out / "threshold_spectra.csv").read_text().splitlines()
        assert table[0] == "predicate,label,axis,value"
        # one profile per ranked predicate
        assert {row.split(",", 1)[0] for row in table[1:]} == {str(j) for j in range(len(ranking) - 1)}
        assert not (out / "threshold_spectra").exists()

    def test_zone_name_with_quotes_and_commas_round_trips(self, explain_case, tmp_path):
        """Zone names are RFC 4180 fields in every CSV that holds them."""
        name = 'Fe K"a", Kb'
        zones = [dict(z, name=name) if z["name"] == "peak one" else z for z in SMALL_ZONES]
        (tmp_path / "zones.json").write_text(json.dumps(zones))
        out = tmp_path / "out"
        manifest = str(write_manifest(explain_case, "small"))
        assert main(["explain", "--manifest", manifest, "--zones", str(tmp_path / "zones.json"), "--out", str(out)]) == 0

        def rows(file_name):
            with open(out / file_name, newline="") as fh:
                return list(csv.reader(fh))

        zone_rows = rows("zone_ranking.csv")
        assert {len(row) for row in zone_rows} == {3}
        assert zone_rows[1][1] == name
        pred_rows = rows("predicate_ranking.csv")
        assert {len(row) for row in pred_rows} == {8}  # 6 columns and one per seed
        labels = {row[1] for row in pred_rows[1:] if row[2] == name}
        assert len(labels) == 2 * len(EngineConfig().quantiles)
        assert all(label.startswith(name + " ") for label in labels)
        table = rows("threshold_spectra.csv")
        assert {len(row) for row in table} == {4}
        assert {row[1] for row in table[1:] if row[1].startswith(name)} == labels

    def test_rerun_byte_identical(self, explain_case, tmp_path):
        manifest = write_manifest(explain_case, "small")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["explain", "--manifest", str(manifest), "--out", str(out_a)])
        main(["explain", "--manifest", str(manifest), "--out", str(out_b)])
        for rel in sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file()):
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel

    @pytest.mark.parametrize("min_support, retained", [("0.2", True), ("0.99", False)])
    def test_every_bag_trace_line_parses(self, explain_case, tmp_path, min_support, retained):
        """At 0.99 no bag of 28 samples reaches the 35-sample support floor,
        so no predicate is retained and the trace is an empty file."""
        out = tmp_path / "out"
        manifest = write_manifest(explain_case, "small")
        assert main(["explain", "--manifest", str(manifest), "--min-support", min_support, "--out", str(out)]) == 0
        text = (out / "bag_trace.jsonl").read_text()
        records = [json.loads(line) for line in text.splitlines()]
        assert bool(records) == retained
        assert text == "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)

    def test_missing_zone_file_exit_2(self, explain_case, tmp_path, capsys):
        case = explain_case
        manifest = {
            "train": str(case / "train.csv"),
            "zones": str(case / "nope.json"),
            "model": str(case / "model.json"),
        }
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(manifest))
        code = main(["explain", "--manifest", str(mpath), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "zones" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "engine, key",
        [
            ({"bags": "ten"}, "bags"),
            ({"bag_fraction": [0.8]}, "bag_fraction"),
            ({"seeds": 3}, "seeds"),
            ({"seeds": "12"}, "seeds"),
            ({"seeds": [1, "two"]}, "seeds"),
            ({"quantiles": "0.5"}, "quantiles"),
            ({"quantiles": [0.5, None]}, "quantiles"),
            ([5], "engine"),
        ],
    )
    def test_malformed_engine_value_exit_2_no_outputs(self, explain_case, tmp_path, capsys, engine, key):
        case = explain_case
        manifest = {
            "train": str(case / "train.csv"),
            "zones": str(case / "zones.json"),
            "model": str(case / "model.json"),
            "engine": engine,
        }
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(manifest))
        out = tmp_path / "out"
        code = main(["explain", "--manifest", str(mpath), "--out", str(out)])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "engine",
        [{"replacement": "median"}, {"replacement": "mean"}, {"bag": 3}, {"bags": 3, "seed": [9]}],
        ids=["replacement", "replacement-mean", "bag", "seed"],
    )
    def test_unknown_manifest_engine_key_exit_2_no_outputs(self, explain_case, tmp_path, capsys, engine):
        """Only the keys smx reads are accepted: a typo or a removed knob is
        refused rather than run at the defaults."""
        case = explain_case
        manifest = {
            "train": str(case / "train.csv"),
            "zones": str(case / "zones.json"),
            "model": str(case / "model.json"),
            "engine": engine,
        }
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(manifest))
        out = tmp_path / "out"
        code = main(["explain", "--manifest", str(mpath), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert all(key in err for key in engine if key != "bags")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]

    @pytest.mark.parametrize(
        "entries, key",
        [
            ({"engine": {"bags": 2.7}}, "bags"),
            ({"engine": {"bags": True}}, "bags"),
            ({"engine": {"seeds": [1.9, 3.2]}}, "seeds"),
            ({"engine": {"seeds": [1, False]}}, "seeds"),
            ({"engine": {"seeds": [1, float("inf")]}}, "seeds"),
            ({"preprocess": {"method": "savgol_then_center", "window": 15.5}}, "window"),
            ({"preprocess": {"method": "savgol_then_center", "order": True}}, "order"),
            ({"preprocess": {"method": "savgol_then_center", "window": "wide"}}, "window"),
        ],
    )
    def test_non_integral_manifest_integer_exit_2_no_outputs(self, explain_case, tmp_path, capsys, entries, key):
        case = explain_case
        manifest = {
            "train": str(case / "train.csv"),
            "zones": str(case / "zones.json"),
            "model": str(case / "model.json"),
            **entries,
        }
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(manifest))
        out = tmp_path / "out"
        code = main(["explain", "--manifest", str(mpath), "--out", str(out)])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_integral_manifest_numbers_accepted(self, explain_case, tmp_path):
        case = explain_case
        manifest = {
            "train": str(case / "train.csv"),
            "zones": str(case / "zones.json"),
            "model": str(case / "model.json"),
            "engine": {"bags": 3.0, "seeds": [4, 7.0]},
            "preprocess": {"method": "savgol_then_center", "window": 7.0, "order": 2},
        }
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(manifest))
        out = tmp_path / "out"
        assert main(["explain", "--manifest", str(mpath), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("graph_seed_*.json")) == ["graph_seed_4.json", "graph_seed_7.json"]
        bags = {json.loads(line)["bag"] for line in (out / "bag_trace.jsonl").read_text().splitlines()}
        assert bags == {0, 1, 2}

    def test_model_width_mismatch_exit_1_no_partial_outputs(self, explain_case, tmp_path, capsys):
        case = explain_case
        narrow = models.RidgeModel(weights=np.zeros(3), intercept=0.0)
        models.save_model(narrow, tmp_path / "narrow.json")
        out = tmp_path / "out"
        code = main(
            [
                "explain",
                "--train",
                str(case / "train.csv"),
                "--zones",
                str(case / "zones.json"),
                "--model",
                str(tmp_path / "narrow.json"),
                "--out",
                str(out),
            ]
        )
        assert code == 1
        assert "width" in capsys.readouterr().err
        assert not out.exists() or not any(out.rglob("*"))

    def test_engine_flags_override_manifest(self, explain_case, tmp_path):
        manifest = write_manifest(explain_case, "small")
        out = tmp_path / "o"
        code = main(
            [
                "explain",
                "--manifest",
                str(manifest),
                "--out",
                str(out),
                "--seeds",
                "7",
                "--bags",
                "3",
                "--bag-fraction",
                "0.9",
                "--quantiles",
                "0.25,0.75",
                "--min-support",
                "0.15",
            ]
        )
        assert code == 0
        assert (out / "graph_seed_7.dot").exists()
        trace = [json.loads(l) for l in (out / "bag_trace.jsonl").read_text().splitlines()]
        assert {t["bag"] for t in trace} <= {0, 1, 2}


def _reference_threshold_spectrum_csv(spectrum, axis, indices):
    """The per-predicate ``threshold_spectra/predicate_NNN.csv`` text that
    explain wrote before the single table, kept as the reference."""
    lines = ["axis,value"]
    for j, v in zip(indices, spectrum.profile):
        lines.append(f"{_fmt(axis[j])},{_fmt(v)}")
    return "\n".join(lines) + "\n"


MANY_QUANTILES = tuple(k / 10 for k in range(1, 10))


@pytest.fixture(scope="module", params=["walkthrough", "many-zones"])
def benchmark_explain(request, tmp_path_factory):
    """``smx explain`` at seed 42 on the README walkthrough (benchmark zones,
    CLI defaults) and on 30 equal-width zones x 9 quantiles; returns
    (inputs directory, --out, quantiles)."""
    root = tmp_path_factory.mktemp(request.param)
    train = dataio.kennard_stone_split(synthgen.generate(synthgen.benchmark_config(42)), 0.7)[0]
    train = dataio.apply_preprocess(dataio.fit_preprocess(train, "mean_center"), train)
    dataio.save_csv(train, root / "train.csv")
    models.save_model(models.fit_logistic(train), root / "model.json")
    quantiles, flags = EngineConfig().quantiles, []
    zones = synthgen.benchmark_zones()
    if request.param == "many-zones":
        axis, width = train.axis, train.axis.size // 30
        zones = ZoneConfig(
            [Zone(f"Z{k + 1:02d}", float(axis[k * width]), float(axis[(k + 1) * width - 1]), False) for k in range(30)]
        )
        quantiles, flags = MANY_QUANTILES, ["--quantiles", ",".join(map(str, MANY_QUANTILES))]
    dataio.save_zone_config(zones, root / "zones.json")
    out = root / "out"
    argv = ["explain", "--train", str(root / "train.csv"), "--zones", str(root / "zones.json"),
            "--model", str(root / "model.json"), *flags, "--out", str(out)]
    assert main(argv) == 0
    return root, out, quantiles


class TestThresholdTable:
    def test_groups_equal_the_per_predicate_files(self, benchmark_explain):
        """Split by ``predicate``, the table gives every predicate's old
        file body byte for byte, in predicate-set order."""
        root, out, quantiles = benchmark_explain
        train = dataio.load_csv(root / "train.csv")
        zone_models, scores = zonecore.fit_zone_models(train, dataio.load_zone_config(root / "zones.json"))
        pset = build_predicates(scores, zone_models, quantiles)
        text = (out / "threshold_spectra.csv").read_text()
        header, *rows = text.removesuffix("\n").split("\n")
        assert header == "predicate,label,axis,value"
        groups = [
            (prefix, [row[len(prefix) + 1 :] for row in group])
            for prefix, group in itertools.groupby(rows, key=lambda row: row.rsplit(",", 2)[0])
        ]
        assert [prefix for prefix, _ in groups] == [f'{j},"{p.label}"' for j, p in enumerate(pset.predicates)]
        for (_, lines), pred in zip(groups, pset.predicates):
            zm = zone_models[pred.zone_index]
            spectrum = zonecore.threshold_spectrum(zm, pred.tau)
            want = _reference_threshold_spectrum_csv(spectrum, train.axis, zm.indices)
            assert "\n".join(["axis,value", *lines]) + "\n" == want
            assert zonecore.threshold_spectrum_csv(spectrum, train.axis, zm.indices) == want

    def test_file_list(self, benchmark_explain):
        """Five files plus one DOT and one JSON graph per seed, no directory."""
        _, out, _ = benchmark_explain
        seeds = EngineConfig().seeds
        graphs = [f"graph_seed_{seed}.{ext}" for seed in seeds for ext in ("dot", "json")]
        names = ["bag_trace.jsonl", "predicate_ranking.csv", "threshold_spectra.csv", "zone_models.json",
                 "zone_ranking.csv", *graphs]
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        assert all(p.is_file() for p in out.iterdir())
        assert len(names) == 13


class TestThresholdSpectrum:
    def _argv(self, case, tau, out):
        return ["threshold-spectrum", "--train", str(case / "train.csv"), "--zones", str(case / "zones.json"),
                "--zone", "peak two", f"--tau={tau}", "--out", str(out)]

    def test_fits_only_the_named_zone(self, explain_case, tmp_path, monkeypatch):
        """One fit on success, none for a refused tau; the CSV is the one the
        full zone fit gives."""
        train = dataio.load_csv(explain_case / "train.csv")
        zones = dataio.load_zone_config(explain_case / "zones.json")
        zone_models, _ = zonecore.fit_zone_models(train, zones)
        model = zone_models[zones.names().index("peak two")]
        expected = zonecore.threshold_spectrum_csv(zonecore.threshold_spectrum(model, 0.75), train.axis, model.indices)
        calls = []
        fit_zone = zonecore.fit_zone

        def counting(*args, **kwargs):
            calls.append(kwargs.get("zone_name"))
            return fit_zone(*args, **kwargs)

        monkeypatch.setattr(zonecore, "fit_zone", counting)
        out = tmp_path / "s.csv"
        assert main(self._argv(explain_case, 0.75, out)) == 0
        assert calls == ["peak two"]
        assert out.read_text() == expected
        calls.clear()
        assert main(self._argv(explain_case, "nan", tmp_path / "n.csv")) == 2
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv"]

    def test_writes_profile(self, tmp_path):
        case = build_small_case(tmp_path / "case")
        out = tmp_path / "spectrum.csv"
        code = main(
            [
                "threshold-spectrum",
                "--train",
                str(case / "train.csv"),
                "--zones",
                str(case / "zones.json"),
                "--zone",
                "peak one",
                "--tau",
                "1.5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "axis,value"
        assert len(lines) > 2

    def test_unknown_zone_exit_2(self, tmp_path, capsys):
        case = build_small_case(tmp_path / "case")
        code = main(
            [
                "threshold-spectrum",
                "--train",
                str(case / "train.csv"),
                "--zones",
                str(case / "zones.json"),
                "--zone",
                "nope",
                "--tau",
                "0.0",
                "--out",
                str(tmp_path / "s.csv"),
            ]
        )
        assert code == 2
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
    def test_non_finite_tau_exit_2_no_output(self, tmp_path, capsys, tau):
        case = build_small_case(tmp_path / "case")
        out = tmp_path / "s.csv"
        code = main(
            [
                "threshold-spectrum",
                "--train",
                str(case / "train.csv"),
                "--zones",
                str(case / "zones.json"),
                "--zone",
                "peak one",
                f"--tau={tau}",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        assert "tau" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "preprocess, key",
    [
        ({"window": 5}, "method"),
        ("savgol_then_center", "preprocess"),
        (["savgol_then_center"], "preprocess"),
        (5, "preprocess"),
    ],
)
@pytest.mark.parametrize("command", ["explain", "evaluate"])
def test_malformed_manifest_preprocess_exit_2_no_outputs(eval_case, tmp_path, capsys, command, preprocess, key):
    manifest = json.loads((eval_case / "manifest.json").read_text())
    manifest.update(
        {name: str(eval_case / manifest[name]) for name in ("train", "test", "zones", "model")},
        preprocess=preprocess,
    )
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    out = tmp_path / "out"
    code = main([command, "--manifest", str(mpath), "--out", str(out)])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("top_level", ["[1, 2]", '"x"', "null", "3"])
@pytest.mark.parametrize("command", ["explain", "evaluate"])
def test_non_object_manifest_exit_2_no_outputs(tmp_path, capsys, command, top_level):
    mpath = tmp_path / "m.json"
    mpath.write_text(top_level)
    out = tmp_path / "out"
    code = main([command, "--manifest", str(mpath), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(mpath) in err and "JSON object" in err
    assert not out.exists()


@pytest.mark.parametrize("text", ["[1, 2]", '"x"', "null", "3"])
def test_non_object_model_file_exit_2_no_outputs(explain_case, tmp_path, capsys, text):
    mpath = tmp_path / "m.json"
    mpath.write_text(text)
    out = tmp_path / "out"
    code = main(
        ["explain", "--train", str(explain_case / "train.csv"), "--zones", str(explain_case / "zones.json"),
         "--model", str(mpath), "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert str(mpath) in err and "must be an object" in err
    assert not out.exists()


class TestManifestState:
    """Which entries came from flags, and the manifest's directory, are
    not manifest entries: a manifest holding keys of the same names
    changes neither, and other ``_``-prefixed keys are accepted."""

    def _case(self, explain_case, tmp_path, **extra):
        root = tmp_path / "case"
        root.mkdir()
        for name in ("train.csv", "zones.json", "model.json"):
            (root / name).write_bytes((explain_case / name).read_bytes())
        manifest = {
            "train": "train.csv",
            "zones": "zones.json",
            "model": "model.json",
            "engine": {"bags": 3, "seeds": [1]},
            "_comment": "accepted",
            **extra,
        }
        mpath = root / "m.json"
        mpath.write_text(json.dumps(manifest))
        return mpath

    @pytest.mark.parametrize("flag_keys", [5, ["train", "zones", "model", "out"], "train"])
    def test_flag_keys_entry_ignored(self, explain_case, tmp_path, monkeypatch, capsys, flag_keys):
        mpath = self._case(explain_case, tmp_path, _flag_keys=flag_keys, _base="/nonexistent", output_dir="out")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        # the relative entries resolve against the manifest's directory
        assert main(["explain", "--manifest", str(mpath)]) == 0
        assert (mpath.parent / "out" / "predicate_ranking.csv").exists()
        assert capsys.readouterr().err == ""
        assert list(elsewhere.iterdir()) == []

    def test_flag_keys_entry_with_a_path_flag(self, explain_case, tmp_path, monkeypatch):
        mpath = self._case(explain_case, tmp_path, _flag_keys=5)
        monkeypatch.chdir(tmp_path)
        assert main(["explain", "--manifest", str(mpath), "--out", "o"]) == 0
        assert (tmp_path / "o" / "predicate_ranking.csv").exists()


class TestEvaluate:
    @pytest.mark.parametrize("shift, width", [(1000.0, None), (0.0, 59)], ids=["shifted", "narrower"])
    def test_test_axis_differs_exit_2_before_model_loads(self, eval_case, tmp_path, capsys, monkeypatch, shift, width):
        """Zones are resolved on the train axis; a test set on another axis
        would have them mask other channels."""
        _save_other_axis(dataio.load_csv(eval_case / "test.csv"), tmp_path / "other.csv", shift, width)
        manifest = json.loads((eval_case / "manifest.json").read_text())
        manifest.update({key: str(eval_case / manifest[key]) for key in ("train", "zones", "model")})
        manifest["test"] = str(tmp_path / "other.csv")
        (tmp_path / "m.json").write_text(json.dumps(manifest))

        def refuse(*args, **kwargs):
            raise AssertionError("a model was loaded before the test axis was checked")

        monkeypatch.setattr(models, "load_model", refuse)
        out = tmp_path / "report"
        assert main(["evaluate", "--manifest", str(tmp_path / "m.json"), "--out", str(out)]) == 2
        assert "other.csv: axis differs from the train axis" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json", "other.csv"]

    def test_two_method_report_sections(self, eval_case, tmp_path):
        case = eval_case
        out = tmp_path / "report"
        code = main(
            [
                "evaluate",
                "--manifest",
                str(case / "manifest.json"),
                "--methods",
                "smx,pfi",
                "--out",
                str(out),
                "--stability-runs",
                "4",
                "--pfi-repeats",
                "3",
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        for method in ("smx", "pfi"):
            section = report["datasets"][0]["methods"][method]
            assert {"faithfulness", "alignment", "simplicity", "stability"} <= set(section)
            assert section["stability"]["median"] >= 0.0
        assert report["comparisons"] == []  # single dataset: too few pairs to test
        curves = list((out / "curves").glob("*.csv"))
        assert len(curves) == 6

    def test_single_method_no_comparisons(self, eval_case, tmp_path):
        case = eval_case
        out = tmp_path / "report"
        code = main(
            [
                "evaluate",
                "--manifest",
                str(case / "manifest.json"),
                "--methods",
                "smx",
                "--out",
                str(out),
                "--stability-runs",
                "0",
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["comparisons"] == []
        assert "pfi" not in report["datasets"][0]["methods"]

    def test_eight_dataset_batch_wilcoxon_n8(self, tmp_path):
        manifests = []
        for k in range(8):
            root = build_small_case(tmp_path / f"d{k}", seed=100 + k)
            manifests.append(str(write_manifest(root, f"variant{k}")))
        out = tmp_path / "report"
        code = main(
            [
                "evaluate",
                "--manifest",
                *manifests,
                "--methods",
                "smx,pfi",
                "--out",
                str(out),
                "--stability-runs",
                "0",
                "--pfi-repeats",
                "3",
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["datasets"]) == 8
        assert report["comparisons"], "expected pairwise tests for the batch"
        for row in report["comparisons"]:
            assert row["n"] == 8
            assert row["pair"] == "pfi-smx"
            assert "median_diff" in row
        metrics = {row["metric"] for row in report["comparisons"]}
        assert {"faithfulness_auc", "alignment_auc", "simplicity_auc"} <= metrics

    def test_smx_stability_study_makes_no_model_calls(self, eval_case, tmp_path, monkeypatch):
        """A default ``--methods smx`` evaluate queries the model only for
        its first ranking (zones + 1 calls) and its faithfulness curve."""
        calls = []
        phase = ["other"]
        load_model = models.load_model
        faithfulness_curve = evalkit.faithfulness_curve

        class Counting:
            def __init__(self, model):
                self.model = model
                self.kind = model.kind

            def predict_proba(self, X):
                calls.append(phase[0])
                return self.model.predict_proba(X)

        def curve(*args, **kwargs):
            phase[0] = "faithfulness"
            try:
                return faithfulness_curve(*args, **kwargs)
            finally:
                phase[0] = "other"

        monkeypatch.setattr(models, "load_model", lambda spec: Counting(load_model(spec)))
        monkeypatch.setattr(evalkit, "faithfulness_curve", curve)
        out = tmp_path / "report"
        code = main(["evaluate", "--manifest", str(eval_case / "manifest.json"), "--methods", "smx", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())["datasets"][0]
        assert len(report["methods"]["smx"]["stability"]["instabilities"]) == 45
        assert calls.count("faithfulness") == report["depth"] + 1
        assert calls.count("other") == len(SMALL_ZONES) + 1

    @pytest.mark.parametrize(
        "flags, flag",
        [
            (["--pfi-repeats", "0"], "--pfi-repeats"),
            (["--pfi-repeats", "-2"], "--pfi-repeats"),
            (["--pfi-seed", "-1"], "--pfi-seed"),
            (["--kmax", "-1"], "--kmax"),
            (["--depth", "0"], "--depth"),
            (["--rho", "1.0"], "--rho"),
            (["--stability-runs", "1"], "--stability-runs"),
            (["--stability-runs", "-1"], "--stability-runs"),
            (["--stability-runs", "-10"], "--stability-runs"),
        ],
    )
    def test_invalid_flag_exit_2_before_model_load(self, eval_case, tmp_path, capsys, monkeypatch, flags, flag):
        def load_model(spec):
            raise AssertionError("a model was loaded before the flags were checked")

        monkeypatch.setattr(models, "load_model", load_model)
        out = tmp_path / "report"
        code = main(["evaluate", "--manifest", str(eval_case / "manifest.json"), "--out", str(out), *flags])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("pfi_seed, pfi_runs", [(0, 10), (7, 10), (10, 11), (23, 11)])
    def test_pfi_stability_reuses_main_run(self, eval_case, tmp_path, monkeypatch, pfi_seed, pfi_runs):
        """The stability seed equal to ``--pfi-seed`` takes the main PFI run's
        importances, and the instabilities match a study that recomputes them."""
        pfi = evalkit.pfi
        seeds = []

        def counting(model, X_test, repeats=10, seed=0):
            seeds.append(seed)
            return pfi(model, X_test, repeats=repeats, seed=seed)

        monkeypatch.setattr(evalkit, "pfi", counting)
        out = tmp_path / "report"
        code = main(
            ["evaluate", "--manifest", str(eval_case / "manifest.json"), "--methods", "pfi",
             "--pfi-seed", str(pfi_seed), "--out", str(out)]
        )
        assert code == 0
        assert len(seeds) == pfi_runs
        assert sorted(seeds) == sorted({pfi_seed, *range(10)})
        model = models.load_model(eval_case / "model.json")
        X = dataio.load_csv(eval_case / "test.csv").intensities
        recomputed = evalkit.stability_study(
            lambda seed: list(np.argsort(-pfi(model, X, repeats=10, seed=seed), kind="stable")), list(range(10))
        )
        stability = json.loads((out / "report.json").read_text())["datasets"][0]["methods"]["pfi"]["stability"]
        assert stability == {"instabilities": recomputed.instabilities, "median": recomputed.median}

    @pytest.mark.parametrize(
        "names",
        [[""], ["."], [".."], ["../../escaped"], ["sub/name"], ["a\\b"], ["small", "small"]],
        ids=["empty", "dot", "dotdot", "escaping", "slash", "backslash", "repeated"],
    )
    def test_unusable_dataset_name_exit_2_before_loading(self, eval_case, tmp_path, capsys, monkeypatch, names):
        """Curve files are named after datasets: a name that is no plain file
        name, or that two manifests share, is refused before any load."""
        manifests = []
        for k, name in enumerate(names):
            manifest = json.loads((eval_case / "manifest.json").read_text())
            manifest.update({key: str(eval_case / manifest[key]) for key in ("train", "test", "zones", "model")})
            manifest["name"] = name
            path = tmp_path / f"m{k}.json"
            path.write_text(json.dumps(manifest))
            manifests.append(str(path))

        def refuse(*args, **kwargs):
            raise AssertionError("data or a model was loaded before the dataset names were checked")

        monkeypatch.setattr(dataio, "load_csv", refuse)
        monkeypatch.setattr(models, "load_model", refuse)
        out = tmp_path / "deep" / "report"
        code = main(["evaluate", "--manifest", *manifests, "--out", str(out)])
        assert code == 2
        assert repr(names[-1]) in capsys.readouterr().err
        assert not (tmp_path / "deep").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"m{k}.json" for k in range(len(names))]

    def test_unknown_engine_key_in_any_manifest_exit_2_before_loading(self, eval_case, tmp_path, capsys, monkeypatch):
        manifests = []
        for k, engine in enumerate([{"bags": 5}, {"bags": 5, "seed": [1]}]):
            manifest = json.loads((eval_case / "manifest.json").read_text())
            manifest.update({key: str(eval_case / manifest[key]) for key in ("train", "test", "zones", "model")})
            manifest.update(name=f"d{k}", engine=engine)
            manifests.append(tmp_path / f"m{k}.json")
            manifests[-1].write_text(json.dumps(manifest))

        def refuse(*args, **kwargs):
            raise AssertionError("data was loaded before every manifest's engine keys were checked")

        monkeypatch.setattr(dataio, "load_csv", refuse)
        out = tmp_path / "report"
        assert main(["evaluate", "--manifest", *map(str, manifests), "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_unnamed_manifests_sharing_a_train_stem_exit_2(self, eval_case, tmp_path, capsys):
        manifest = json.loads((eval_case / "manifest.json").read_text())
        del manifest["name"]
        manifest.update({key: str(eval_case / manifest[key]) for key in ("train", "test", "zones", "model")})
        paths = []
        for k in range(2):
            paths.append(tmp_path / f"m{k}.json")
            paths[-1].write_text(json.dumps(manifest))
        out = tmp_path / "report"
        code = main(["evaluate", "--manifest", *map(str, paths), "--methods", "smx", "--out", str(out)])
        assert code == 2
        assert "'train'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_method_exit_2(self, eval_case, tmp_path, capsys):
        case = eval_case
        code = main(
            [
                "evaluate",
                "--manifest",
                str(case / "manifest.json"),
                "--methods",
                "shap",
                "--out",
                str(tmp_path / "r"),
            ]
        )
        assert code == 2
        assert "shap" in capsys.readouterr().err


def _tree(root: Path) -> dict:
    """Relative path -> bytes of every file under ``root``."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _leftovers(root: Path) -> list[str]:
    """Temp or set-aside siblings that a publish step left behind."""
    return [p.name for p in root.rglob("*") if ".tmp" in p.name or ".old-" in p.name]


class TestOutputDirectories:
    """explain and evaluate replace --out whole; the file commands publish
    all of their files or none."""

    def _explain(self, case, out, *flags):
        return main(["explain", "--manifest", str(write_manifest(case, "small")), "--out", str(out), *flags])

    def _evaluate(self, case, out, *flags):
        argv = ["evaluate", "--manifest", str(case / "manifest.json"), "--out", str(out)]
        return main([*argv, "--stability-runs", "0", "--pfi-repeats", "2", *flags])

    def test_explain_rerun_leaves_exactly_the_new_files(self, explain_case, tmp_path):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert self._explain(explain_case, out, "--seeds", "1,2,3") == 0
        assert (out / "graph_seed_3.json").exists()
        assert self._explain(explain_case, out, "--seeds", "1,2", "--quantiles", "0.5") == 0
        assert self._explain(explain_case, fresh, "--seeds", "1,2", "--quantiles", "0.5") == 0
        assert _tree(out) == _tree(fresh)
        assert not (out / "graph_seed_3.json").exists()
        table = (out / "threshold_spectra.csv").read_text().splitlines()[1:]
        assert len({row.split(",", 1)[0] for row in table}) == 10  # 5 zones x 1 quantile x 2 directions
        assert _leftovers(tmp_path) == []

    def test_explain_rerun_replaces_per_predicate_spectra(self, explain_case, tmp_path):
        """Earlier versions wrote threshold_spectra/predicate_NNN.csv; a rerun
        into such an --out replaces it like any other output of explain."""
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert self._explain(explain_case, out) == 0
        (out / "threshold_spectra.csv").unlink()
        (out / "threshold_spectra").mkdir()
        for j in range(20):
            (out / "threshold_spectra" / f"predicate_{j:03d}.csv").write_text("axis,value\n1,2\n")
        assert self._explain(explain_case, out) == 0
        assert self._explain(explain_case, fresh) == 0
        assert _tree(out) == _tree(fresh)
        assert not (out / "threshold_spectra").exists()
        assert _leftovers(tmp_path) == []

    def test_evaluate_rerun_leaves_no_stale_curves(self, eval_case, tmp_path):
        out, fresh = tmp_path / "report", tmp_path / "fresh"
        assert self._evaluate(eval_case, out, "--methods", "smx,pfi") == 0
        assert len(list((out / "curves").iterdir())) == 6
        assert self._evaluate(eval_case, out, "--methods", "smx") == 0
        assert self._evaluate(eval_case, fresh, "--methods", "smx") == 0
        assert _tree(out) == _tree(fresh)
        assert sorted(p.name for p in (out / "curves").iterdir()) == [
            f"small__smx__{metric}.csv" for metric in ("alignment", "faithfulness", "simplicity")
        ]
        assert _leftovers(tmp_path) == []

    def test_failed_rerun_leaves_previous_outputs_intact(self, explain_case, tmp_path, capsys):
        out = tmp_path / "out"
        assert self._explain(explain_case, out) == 0
        before = _tree(out)
        models.save_model(models.RidgeModel(weights=np.zeros(3), intercept=0.0), tmp_path / "narrow.json")
        code = self._explain(explain_case, out, "--model", str(tmp_path / "narrow.json"), "--seeds", "5")
        assert code == 1
        assert "width" in capsys.readouterr().err
        assert _tree(out) == before
        assert _leftovers(tmp_path) == []

    def test_failed_swap_restores_previous_outputs(self, explain_case, tmp_path, capsys, monkeypatch):
        """If the new directory cannot be renamed in, the old one is renamed
        back and the run exits 2 naming --out."""
        out = tmp_path / "out"
        assert self._explain(explain_case, out) == 0
        before = _tree(out)
        rename = cli.os.rename

        def refuse_stage(src, dst):
            if ".tmp-" in Path(src).name:
                raise OSError(28, "No space left on device")
            rename(src, dst)

        monkeypatch.setattr(cli.os, "rename", refuse_stage)
        assert self._explain(explain_case, out, "--seeds", "5") == 2
        assert str(out) in capsys.readouterr().err
        assert _tree(out) == before
        assert _leftovers(tmp_path) == []

    @pytest.mark.parametrize("command", ["explain", "evaluate", "preprocess", "train"])
    def test_output_below_a_file_exit_2_creates_nothing(self, eval_case, tmp_path, capsys, command):
        (tmp_path / "blocker").write_text("a file, not a directory\n")
        target = tmp_path / "blocker" / "x"
        train = str(eval_case / "train.csv")
        argv = {
            "explain": ["explain", "--manifest", str(eval_case / "manifest.json"), "--out", str(target)],
            "evaluate": ["evaluate", "--manifest", str(eval_case / "manifest.json"), "--out", str(target)],
            "preprocess": ["preprocess", "--method", "mean_center", "--train", train, "--out-train", str(target)],
            "train": ["train", "--train", train, "--model", "ridge", "--out", str(target)],
        }[command]
        assert main(argv) == 2
        assert str(target) in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]

    @pytest.mark.parametrize(
        "command, owned, foreign",
        [
            ("explain", "threshold_spectra/predicate_000.csv", "notes.txt"),
            ("explain", "threshold_spectra/predicate_000.csv", "threshold_spectra/notes.txt"),
            ("explain", "graph_seed_1.json", "report.json"),
            ("evaluate", "curves/small__smx__alignment.csv", "notes.txt"),
            ("evaluate", "curves/small__smx__alignment.csv", "curves/sub/x.csv"),
            ("evaluate", "report.json", "graph_seed_1.json"),
        ],
    )
    def test_foreign_entry_in_out_refused_before_loading(
        self, eval_case, tmp_path, capsys, monkeypatch, command, owned, foreign
    ):
        out = tmp_path / "out"
        for name in (owned, foreign):
            (out / name).parent.mkdir(parents=True, exist_ok=True)
            (out / name).write_text("keep me\n")
        before = _tree(out)

        def refuse(*args, **kwargs):
            raise AssertionError("data or a model was loaded before --out was checked")

        monkeypatch.setattr(dataio, "load_csv", refuse)
        monkeypatch.setattr(models, "load_model", refuse)
        assert main([command, "--manifest", str(eval_case / "manifest.json"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out) in err
        assert _tree(out) == before

    def test_preprocess_unwritable_out_test_leaves_no_out_train(self, tmp_path, capsys):
        dataio.save_csv(synthgen.generate(small_config()), tmp_path / "raw.csv")
        (tmp_path / "blocker").write_text("a file\n")
        code = main(
            ["preprocess", "--method", "mean_center", "--train", str(tmp_path / "raw.csv"),
             "--out-train", str(tmp_path / "tr.csv"), "--test", str(tmp_path / "raw.csv"),
             "--out-test", str(tmp_path / "blocker" / "te.csv")]
        )
        assert code == 2
        assert str(tmp_path / "blocker" / "te.csv") in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "raw.csv"]
