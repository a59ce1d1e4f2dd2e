import csv
import dataclasses
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smx
from smx import cli, dataio, engine, evalkit, models, pipeline, synthgen, zonecore
from smx.cli import main
from smx.artifacts import _fmt
from smx.dataio import Zone, ZoneConfig
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
        cpath.write_text(json.dumps(dataclasses.asdict(quiet)))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["synth", "--config", str(cpath), "--out", str(a)])
        main(["synth", "--config", str(cpath), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestPipelineCommands:
    def test_split_preprocess_train(self, tmp_path):
        raw = tmp_path / "raw.csv"
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps(dataclasses.asdict(small_config())))
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
            (["--out-test", "te.csv"], "--test"),
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
        "flags",
        [
            ["--model", "logistic", "--lam", "-3"],
            ["--model", "logistic", "--lam", "1"],
            ["--model", "ridge", "--l2", "0.1"],
            ["--model", "ridge", "--max-iters", "5"],
            ["--model", "ridge", "--tol", "1e-3"],
        ],
        ids=lambda flags: " ".join(flags[1:3]),
    )
    def test_train_refuses_the_other_models_flags(self, tmp_path, capsys, flags):
        """Checked before the train file is read: this one does not exist."""
        out = tmp_path / "model.json"
        code = main(["train", "--train", str(tmp_path / "missing.csv"), "--out", str(out), *flags])
        assert code == 2
        assert f"{flags[2]} does not apply to --model {flags[1]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["split", "--input", "missing.csv", "--train-fraction", "2"], "train_fraction must be in (0, 1)"),
            (["split", "--input", "missing.csv", "--train-fraction", "0"], "train_fraction must be in (0, 1)"),
            (["train", "--model", "ridge", "--train", "missing.csv", "--lam", "-1"],
             "ridge lambda must be finite and >= 0, got -1.0"),
            (["train", "--model", "logistic", "--train", "missing.csv", "--l2", "nan"],
             "logistic l2 must be finite and >= 0, got nan"),
            (["train", "--model", "logistic", "--train", "missing.csv", "--max-iters", "0"],
             "logistic max_iters must be >= 1, got 0"),
            (["train", "--model", "logistic", "--train", "missing.csv", "--tol", "-1"],
             "logistic tol must be finite and >= 0, got -1.0"),
        ],
        ids=lambda value: " ".join(value[:1] + value[-2:]) if isinstance(value, list) else None,
    )
    def test_split_and_train_settings_refused_before_input_is_read(self, tmp_path, capsys, monkeypatch, argv, message):
        """A flag's refusal wins over the missing input file, which is never opened."""
        monkeypatch.chdir(tmp_path)
        outs = ["--out-train", "a.csv", "--out-test", "b.csv"] if argv[0] == "split" else ["--out", "m.json"]
        assert main([*argv, *outs]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

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


def test_explain_and_evaluate_load_no_scipy(explain_case, tmp_path):
    """Only split, a logistic fit and savgol preprocessing use scipy: a fresh
    interpreter that imports the evaluation harness (which must not load
    the CLI or argparse), then the CLI, explains with a builtin model and
    evaluates one manifest, then four (whose Wilcoxon rows need average
    ranks), has loaded no scipy module after any of these steps."""
    files = {key: str(explain_case / f"{key}.{ext}") for key, ext in
             [("train", "csv"), ("test", "csv"), ("zones", "json"), ("model", "json")]}
    for k in range(4):
        manifest = {"name": f"d{k}", **files, "engine": {"bags": 3, "seeds": [1]}}
        (tmp_path / f"m{k}.json").write_text(json.dumps(manifest))
    script = """
import json
import sys

def check(step):
    loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
    assert not loaded, f"after {step}: {len(loaded)} scipy modules, {loaded[:4]} ..."

import smx.evalkit
assert "smx.cli" not in sys.modules and "argparse" not in sys.modules, "import smx.evalkit loaded the CLI"
check("import smx.evalkit")
import smx.cli
check("import smx.cli")
assert smx.cli.main(["explain", "--manifest", "m0.json", "--out", "explained"]) == 0
check("explain")
assert smx.cli.main(["evaluate", "--manifest", "m0.json", "--out", "one"]) == 0
check("evaluate of one manifest")
assert smx.cli.main(["evaluate", "--manifest", "m0.json", "m1.json", "m2.json", "m3.json", "--out", "four"]) == 0
check("evaluate of four manifests")
with open("four/report.json") as fh:
    assert any("statistic" in row for row in json.load(fh)["comparisons"])
"""
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(smx.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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
        """Every bag holds all 36 samples. At 0.99 no predicate covers all 36,
        the support floor, so none is retained and the trace is an empty file
        (a floor above the bag size is refused before the run)."""
        out = tmp_path / "out"
        manifest = write_manifest(explain_case, "small")
        argv = ["--min-support", min_support, "--bag-fraction", "1", "--out", str(out)]
        assert main(["explain", "--manifest", str(manifest), *argv]) == 0
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

    @pytest.mark.parametrize("source", ["flag", "manifest"])
    def test_bag_count_over_the_bound_exit_2_before_any_load(self, explain_case, tmp_path, capsys, monkeypatch,
                                                             source):
        """A bag count no run could hold is refused up front: no file is
        loaded and no bag is drawn, where it used to end in a MemoryError."""
        manifest = {key: str(explain_case / f"{key}.json") for key in ("zones", "model")}
        manifest["train"] = str(explain_case / "train.csv")
        flags = ["--bags", "1000000000000"] if source == "flag" else []
        if source == "manifest":
            manifest["engine"] = {"bags": 1e12}
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(manifest))

        def refuse(*args, **kwargs):
            raise AssertionError("loaded a file or ran a bag")

        for module, name in ((dataio, "load_csv"), (dataio, "load_zone_config"), (models, "load_model"),
                             (engine, "run_bags")):
            monkeypatch.setattr(module, name, refuse)
        out = tmp_path / "out"
        assert main(["explain", "--manifest", str(mpath), *flags, "--out", str(out)]) == 2
        assert "bag count must be in [1, 1000], got 1000000000000" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]

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


def _reference_threshold_spectrum_csv(profile, axis, indices):
    """The per-predicate ``threshold_spectra/predicate_NNN.csv`` text that
    explain wrote before the single table, kept as the reference."""
    lines = ["axis,value"]
    for j, v in zip(indices, profile):
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
    (root / "zones.json").write_text(dataio.zone_config_json(zones))
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
        pset = build_predicates(scores, zone_models, EngineConfig(quantiles=tuple(quantiles)))
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
            want = _reference_threshold_spectrum_csv(zonecore.threshold_spectrum(zm, pred.tau), train.axis, zm.indices)
            assert "\n".join(["axis,value", *lines]) + "\n" == want

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

    def test_zone_listing_order_changes_no_byte(self, benchmark_explain, tmp_path):
        """Zones are kept in axis order, so the same zones listed reversed or
        shuffled give the artifacts of the ascending listing."""
        root, out, quantiles = benchmark_explain
        zones = json.loads((root / "zones.json").read_text())
        rng = np.random.default_rng(3)
        for k, order in enumerate([zones[::-1], *(list(rng.permutation(zones)) for _ in range(2))]):
            assert order != zones
            (tmp_path / f"zones_{k}.json").write_text(json.dumps(order))
            argv = ["explain", "--train", str(root / "train.csv"), "--zones", str(tmp_path / f"zones_{k}.json"),
                    "--model", str(root / "model.json"), "--quantiles", ",".join(map(str, quantiles)),
                    "--out", str(tmp_path / f"out_{k}")]
            assert main(argv) == 0
            assert _changed_files(_tree(tmp_path / f"out_{k}"), _tree(out)) == []


def _walkthrough_raw_train() -> dataio.SpectralDataset:
    """The README walkthrough's train split at seed 42, before preprocessing."""
    return dataio.kennard_stone_split(synthgen.generate(synthgen.benchmark_config(42)), 0.7)[0]


class TestInputUnits:
    """With a preprocess entry, threshold spectra are mapped back into the
    units of the train file."""

    @pytest.mark.parametrize("method", ["mean_center", "savgol_then_center"])
    def test_top_predicate_lies_between_the_raw_class_means(self, method):
        """At its zone's most class-separating channel, the top predicate's
        threshold spectrum lies between the measured class means."""
        raw = _walkthrough_raw_train()
        state = dataio.fit_preprocess(raw, method)
        train = dataio.apply_preprocess(state, raw)
        result = pipeline.explain(train, synthgen.benchmark_zones(), models.fit_logistic(train), EngineConfig())
        top = result.predicate_set.predicates[result.ranking.order[0]]
        zm = result.zone_models[top.zone_index]
        profile = dataio.to_input_units(state, zonecore.threshold_spectrum(zm, top.tau), zm.indices)
        X = raw.intensities[:, zm.indices]
        a, b = X[raw.labels == 0].mean(axis=0), X[raw.labels == 1].mean(axis=0)
        c = int(np.argmax(np.abs(a - b)))
        assert min(a[c], b[c]) < profile[c] < max(a[c], b[c])

    @pytest.mark.parametrize("method", ["mean_center", "savgol_then_center"])
    def test_explain_maps_only_the_table(self, tmp_path, method):
        """Explaining the raw file with ``--preprocess`` writes every file of
        the explain of the preprocessed file byte for byte, except the table,
        whose values are the preprocessed table's mapped into input units."""
        raw = _walkthrough_raw_train()
        state = dataio.fit_preprocess(raw, method)
        train = dataio.apply_preprocess(state, raw)
        dataio.save_csv(raw, tmp_path / "raw.csv")
        dataio.save_csv(train, tmp_path / "train.csv")
        models.save_model(models.fit_logistic(train), tmp_path / "model.json")
        (tmp_path / "zones.json").write_text(dataio.zone_config_json(synthgen.benchmark_zones()))
        common = ["--zones", str(tmp_path / "zones.json"), "--model", str(tmp_path / "model.json")]
        assert main(["explain", "--train", str(tmp_path / "raw.csv"), "--preprocess", method, *common,
                     "--out", str(tmp_path / "raw_out")]) == 0
        assert main(["explain", "--train", str(tmp_path / "train.csv"), *common, "--out", str(tmp_path / "out")]) == 0
        mapped, ref = _tree(tmp_path / "raw_out"), _tree(tmp_path / "out")
        tables = [list(csv.reader(t.pop("threshold_spectra.csv").decode().splitlines())) for t in (mapped, ref)]
        assert _changed_files(mapped, ref) == []
        assert [row[:3] for row in tables[0]] == [row[:3] for row in tables[1]]
        axis = np.array([float(row[2]) for row in tables[1][1:]])
        channels = np.searchsorted(raw.axis, axis)
        np.testing.assert_array_equal(raw.axis[channels], axis)
        values, model_space = (np.array([float(row[3]) for row in table[1:]]) for table in tables)
        np.testing.assert_array_equal(values, dataio.to_input_units(state, model_space, channels))
        assert not np.array_equal(values, model_space)


@pytest.mark.parametrize(
    "preprocess, key",
    [
        ({"window": 5}, "method"),
        ("savgol_then_center", "preprocess"),
        (["savgol_then_center"], "preprocess"),
        (5, "preprocess"),
        ({"method": "savgol_then_center", "windw": 31}, "windw"),
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


@pytest.mark.parametrize("weights, intercept", [("[null, 1.0]", "0.5"), ("[1.0, NaN]", "0.5"), ("[1.0, 2.0]", "Infinity")])
def test_non_finite_model_file_exit_2_no_outputs(explain_case, tmp_path, capsys, weights, intercept):
    """A builtin model with a weight or intercept that is not a finite number
    is refused before any ranking, instead of leaving every zone unranked."""
    mpath = tmp_path / "m.json"
    mpath.write_text(f'{{"kind": "logistic", "weights": {weights}, "intercept": {intercept}}}')
    out = tmp_path / "out"
    code = main(
        ["explain", "--train", str(explain_case / "train.csv"), "--zones", str(explain_case / "zones.json"),
         "--model", str(mpath), "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"{mpath}: bad logistic model spec: '" in err and "' must be a finite number, got " in err
    assert not out.exists()


def test_untyped_zone_value_exit_2_no_outputs(explain_case, tmp_path, capsys):
    """A quoted "false" is no JSON boolean: it would have counted as plausible."""
    zones = json.loads((explain_case / "zones.json").read_text())
    zones[0]["plausible"] = "false"
    (tmp_path / "zones.json").write_text(json.dumps(zones))
    out = tmp_path / "out"
    code = main(
        ["explain", "--train", str(explain_case / "train.csv"), "--zones", str(tmp_path / "zones.json"),
         "--model", str(explain_case / "model.json"), "--out", str(out)]
    )
    assert code == 2
    assert f"{tmp_path / 'zones.json'}: bad zone entry 0: 'plausible' must be true or false" in capsys.readouterr().err
    assert not out.exists()


def test_threshold_spectrum_command_is_gone(capsys):
    """explain's threshold_spectra.csv is the one place threshold spectra are written."""
    with pytest.raises(SystemExit) as exc:
        main(["threshold-spectrum", "--help"])
    assert exc.value.code == 2
    assert "invalid choice: 'threshold-spectrum'" in capsys.readouterr().err


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
        mpath = self._case(explain_case, tmp_path, _flag_keys=flag_keys, _base="/nonexistent", out="out")
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

    @pytest.mark.parametrize("command", ["explain"])
    def test_test_entry_not_loaded(self, explain_case, tmp_path, monkeypatch, command):
        """explain uses no test set: a manifest's ``test`` entry is not
        read, so one on another axis is no error."""
        mpath = self._case(explain_case, tmp_path, test="other.csv")
        _save_other_axis(dataio.load_csv(explain_case / "train.csv"), mpath.parent / "other.csv", 1000.0)
        loaded = []
        load_csv = dataio.load_csv

        def counting(path):
            loaded.append(Path(path).name)
            return load_csv(path)

        monkeypatch.setattr(dataio, "load_csv", counting)
        assert main([command, "--manifest", str(mpath), "--out", str(tmp_path / "out")]) == 0
        assert loaded == ["train.csv"]


_SAVGOL = "savgol_then_center"
_EXPLAIN = ["explain", "--manifest", "m.json"]
_SAVGOL_ONLY = "a savgol window or order applies only to savgol_then_center, not mean_center"


def _engine(**keys):
    return {"engine": {"bags": 3, "seeds": [1], **keys}}


# name -> (argv, manifest entries, expected); see test_flag_surface.
FLAG_SURFACE = {
    "explain --test": ([*_EXPLAIN, "--test", "test.csv"], {}, "unrecognized arguments: --test"),
    "output_dir": (_EXPLAIN, {"out": None, "output_dir": "run"}, "m.json: unknown manifest key(s): output_dir"),
    "--train": ([*_EXPLAIN, "--train", "train.csv"], {"train": "missing.csv"}, {}),
    "--zones": ([*_EXPLAIN, "--zones", "zones.json"], {"zones": "missing.json"}, {}),
    "--model": ([*_EXPLAIN, "--model", "model.json"], {"model": "missing.json"}, {}),
    "--out": ([*_EXPLAIN, "--out", "run"], {"out": "elsewhere"}, {}),
    "--preprocess": (
        [*_EXPLAIN, "--preprocess", _SAVGOL],
        {"preprocess": {"method": "mean_center"}},
        {"preprocess": {"method": _SAVGOL}},
    ),
    "--preprocess keeps the window": (
        [*_EXPLAIN, "--preprocess", _SAVGOL],
        {"preprocess": {"method": _SAVGOL, "window": 31}},
        {"preprocess": {"method": _SAVGOL, "window": 31}},
    ),
    "--window": (
        [*_EXPLAIN, "--window", "31"],
        {"preprocess": {"method": _SAVGOL, "window": 15}},
        {"preprocess": {"method": _SAVGOL, "window": 31}},
    ),
    "--order": (
        [*_EXPLAIN, "--order", "3"],
        {"preprocess": {"method": _SAVGOL}},
        {"preprocess": {"method": _SAVGOL, "order": 3}},
    ),
    "--bags": ([*_EXPLAIN, "--bags", "4"], {}, _engine(bags=4)),
    "--bag-fraction": ([*_EXPLAIN, "--bag-fraction", "0.6"], {}, _engine(bag_fraction=0.6)),
    "--min-support": ([*_EXPLAIN, "--min-support", "0.3"], {}, _engine(min_support_fraction=0.3)),
    "--quantiles": ([*_EXPLAIN, "--quantiles", "0.3,0.7"], {}, _engine(quantiles=[0.3, 0.7])),
    "--seeds": ([*_EXPLAIN, "--seeds", "2,5"], {}, _engine(seeds=[2, 5])),
    "--window without a method": ([*_EXPLAIN, "--window", "31"], {}, "preprocess lacks its 'method'"),
    "--window over mean_center": (
        [*_EXPLAIN, "--window", "7"], {"preprocess": {"method": "mean_center"}}, _SAVGOL_ONLY
    ),
    "--order with --preprocess mean_center": (
        [*_EXPLAIN, "--preprocess", "mean_center", "--order", "2"], {}, _SAVGOL_ONLY
    ),
    "manifest order with mean_center": (_EXPLAIN, {"preprocess": {"method": "mean_center", "order": 2}}, _SAVGOL_ONLY),
    "preprocess --window with mean_center": (
        ["preprocess", "--method", "mean_center", "--train", "train.csv", "--out-train", "p.csv", "--window", "4",
         "--order", "9"],
        {},
        _SAVGOL_ONLY,
    ),
}


@pytest.mark.parametrize("argv, entries, expected", FLAG_SURFACE.values(), ids=FLAG_SURFACE.keys())
def test_flag_surface(explain_case, tmp_path, monkeypatch, capsys, argv, entries, expected):
    """Each command takes only the flags it reads, and a given flag replaces
    exactly the one manifest entry it names. ``argv`` runs in a directory
    holding the explain case's files and ``m.json``, their manifest with
    ``entries`` over its own (None removes one). ``expected`` is either the
    entries of a flagless manifest whose explain writes the same bytes, or
    the message of an exit 2 that writes nothing."""
    monkeypatch.chdir(tmp_path)
    for name in ("train.csv", "zones.json", "model.json"):
        (tmp_path / name).write_bytes((explain_case / name).read_bytes())

    def write_manifest(name, entries):
        manifest = {"train": "train.csv", "zones": "zones.json", "model": "model.json", "out": "run", **_engine()}
        manifest.update(entries)
        (tmp_path / name).write_text(json.dumps({key: value for key, value in manifest.items() if value is not None}))

    write_manifest("m.json", entries)
    inputs = sorted(os.listdir())
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses an unknown flag
        code = exc.code
    if isinstance(expected, str):
        assert code == 2
        assert expected in capsys.readouterr().err
        assert sorted(os.listdir()) == inputs
        return
    assert code == 0
    write_manifest("ref.json", {**expected, "out": "ref"})
    assert main(["explain", "--manifest", "ref.json"]) == 0
    assert _changed_files(_tree(tmp_path / "run"), _tree(tmp_path / "ref")) == []
    assert sorted(os.listdir()) == sorted([*inputs, "ref", "ref.json", "run"])


# name -> (manifest entries holding one invalid setting, its message); see
# test_settings_refused_before_any_file_is_read.
BAD_SETTINGS = {
    "no quantiles": ({"engine": {"quantiles": []}}, "quantile set is empty"),
    "quantile 0": ({"engine": {"quantiles": [0.0, 0.5]}}, "quantile levels must lie in (0, 1)"),
    "quantile 1": ({"engine": {"quantiles": [0.5, 1.0]}}, "quantile levels must lie in (0, 1)"),
    "decreasing quantiles": ({"engine": {"quantiles": [0.5, 0.4]}}, "quantile levels must be strictly increasing"),
    "too many quantiles": (
        {"engine": {"quantiles": [k / (engine.MAX_QUANTILES + 2) for k in range(1, engine.MAX_QUANTILES + 2)]}},
        f"at most {engine.MAX_QUANTILES} quantile levels are allowed, got {engine.MAX_QUANTILES + 1}",
    ),
    "unknown method": ({"preprocess": {"method": "smooth"}}, "unknown preprocessing method 'smooth'"),
    "window on mean_center": ({"preprocess": {"method": "mean_center", "window": 5}}, _SAVGOL_ONLY),
    "order on poisson": (
        {"preprocess": {"method": "poisson_then_center", "order": 2}},
        "a savgol window or order applies only to savgol_then_center, not poisson_then_center",
    ),
    "even window": ({"preprocess": {"method": _SAVGOL, "window": 4}}, "savgol window must be an odd integer >= 3"),
    "window 1": ({"preprocess": {"method": _SAVGOL, "window": 1}}, "savgol window must be an odd integer >= 3"),
    "order = window": (
        {"preprocess": {"method": _SAVGOL, "window": 5, "order": 5}}, "savgol order must satisfy 0 <= order < window"
    ),
}


@pytest.mark.parametrize("command", ["explain", "evaluate", "evaluate pfi"])
@pytest.mark.parametrize("entries, message", BAD_SETTINGS.values(), ids=BAD_SETTINGS.keys())
def test_settings_refused_before_any_file_is_read(tmp_path, capsys, command, entries, message):
    """Every engine and preprocess setting of every manifest is checked
    before any file is read: with input files that do not exist, the run
    exits 2 with the setting's message. evaluate's first manifest is valid,
    so its missing files would be read first if the check came later."""

    def manifest(name, **more):
        missing = {key: f"missing_{key}" for key in ("train", "test", "zones", "model")}
        (tmp_path / f"{name}.json").write_text(json.dumps({"name": name, **missing, **more}))
        return str(tmp_path / f"{name}.json")

    out = str(tmp_path / "out")
    if command == "explain":
        argv = ["explain", "--manifest", manifest("bad", **entries), "--out", out]
    else:
        argv = ["evaluate", "--manifest", manifest("good"), manifest("bad", **entries), "--out", out]
        argv += ["--methods", "pfi"] if command == "evaluate pfi" else []
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "cannot read" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["bad.json"] + ["good.json"] * (command != "explain"))


PREPROCESS_FLAGS = {
    name: (entries["preprocess"], message)
    for name, (entries, message) in BAD_SETTINGS.items()
    if entries.get("preprocess", {}).get("method") in dataio.PREPROCESS_METHODS  # the flag refuses others
}


@pytest.mark.parametrize("setting, message", PREPROCESS_FLAGS.values(), ids=PREPROCESS_FLAGS.keys())
def test_preprocess_setting_refused_before_train_is_read(tmp_path, capsys, setting, message):
    argv = ["preprocess", "--train", str(tmp_path / "missing.csv"), "--out-train", str(tmp_path / "p.csv")]
    argv += [arg for key, value in setting.items() for arg in (f"--{key}", str(value))]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "cannot read" not in err
    assert list(tmp_path.iterdir()) == []


def test_explain_help_metavars_are_plain(capsys):
    """Each flag's value is shown by a plain name, and its help names the
    manifest entry it replaces."""
    with pytest.raises(SystemExit):
        main(["explain", "--help"])
    text = capsys.readouterr().out
    usage = text.split("\n\n")[0]
    metavars = [word for word in usage.replace("[", " ").replace("]", " ").split() if not word.startswith("-")]
    assert "WINDOW" in metavars and "QUANTILES" in metavars
    assert [m for m in metavars if "." in m] == []
    assert "replaces the manifest's preprocess.window" in text


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
            (["--methods", "smx", "--pfi-repeats", "7"], "--pfi-repeats"),
            (["--methods", "smx", "--pfi-seed", "0"], "--pfi-seed"),
            (["--stability-runs", "0", "--rho", "0.2"], "--rho"),
            (["--stability-runs", "0", "--depth", "20"], "--depth"),
            (["--methods", "smx", "--stability-runs", "0", "--pfi-repeats", "7", "--pfi-seed", "3",
              "--rho", "0.2", "--depth", "3"], "--pfi-repeats"),
            # counts above their bounds, refused before any buffer or run is made
            (["--pfi-repeats", str(evalkit.MAX_PFI_REPEATS + 1)], "--pfi-repeats"),
            (["--methods", "pfi", "--stability-runs", "0", "--pfi-repeats", "1000000000000"], "--pfi-repeats"),
            (["--stability-runs", str(evalkit.MAX_STABILITY_RUNS + 1)], "--stability-runs"),
            (["--methods", "smx", "--stability-runs", "1000000000000"], "--stability-runs"),
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

    @pytest.mark.parametrize("seeds, ranks", [([1, 2], 10), ([5, 6], 11)])
    def test_smx_stability_reuses_main_run(self, eval_case, tmp_path, monkeypatch, seeds, ranks):
        """The stability seed whose derived engine seeds equal the manifest's
        (seed 0 for seeds 1, 2) takes the main ranking, and the
        instabilities match a study that recomputes every ranking."""
        manifest = json.loads((eval_case / "manifest.json").read_text())
        manifest.update({key: str(eval_case / manifest[key]) for key in ("train", "test", "zones", "model")})
        manifest["engine"]["seeds"] = seeds
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        rank = pipeline.rank
        calls = []

        def counting(prepared, seeds=None):
            calls.append(seeds)
            return rank(prepared, seeds)

        monkeypatch.setattr(pipeline, "rank", counting)
        out = tmp_path / "report"
        assert main(["evaluate", "--manifest", str(tmp_path / "m.json"), "--out", str(out)]) == 0
        assert len(calls) == ranks
        cfg = EngineConfig(bags=manifest["engine"]["bags"], seeds=tuple(seeds))
        prepared = pipeline.prepare(
            dataio.load_csv(eval_case / "train.csv"),
            dataio.load_zone_config(eval_case / "zones.json"),
            models.load_model(eval_case / "model.json"),
            cfg,
        )
        recomputed = evalkit.stability_study(
            lambda seed: rank(prepared, pipeline.derive_seeds(seed, len(seeds))).predicate_labels(),
            list(range(10)),
        )
        stability = json.loads((out / "report.json").read_text())["datasets"][0]["methods"]["smx"]["stability"]
        assert stability == {"instabilities": recomputed.instabilities, "median": recomputed.median}

    @pytest.mark.parametrize(
        "names",
        [[""], ["."], [".."], ["../../escaped"], ["sub/name"], ["a\\b"], ["a\x00b"], ["small", "small"]],
        ids=["empty", "dot", "dotdot", "escaping", "slash", "backslash", "nul", "repeated"],
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

    def test_library_protocol_matches_report(self, tmp_path):
        """``evaluate_dataset`` per dataset, named, then ``compare``: the
        datasets and Wilcoxon rows of a four-manifest ``smx evaluate``."""
        roots = [build_small_case(tmp_path / f"d{k}", seed=200 + k) for k in range(4)]
        manifests = [str(write_manifest(root, f"variant{k}")) for k, root in enumerate(roots)]
        flags = ["--stability-runs", "3", "--pfi-repeats", "2", "--kmax", "3"]
        assert main(["evaluate", "--manifest", *manifests, *flags, "--out", str(tmp_path / "report")]) == 0
        report = json.loads((tmp_path / "report" / "report.json").read_text())

        cfg = evalkit.EvaluateConfig(stability_runs=3, pfi_repeats=2, kmax=3)
        entries = []
        for k, root in enumerate(roots):
            entry = evalkit.evaluate_dataset(
                dataio.load_csv(root / "train.csv"),
                dataio.load_csv(root / "test.csv"),
                dataio.load_zone_config(root / "zones.json"),
                models.load_model(root / "model.json"),
                EngineConfig(bags=5, seeds=(1, 2)),
                cfg,
            )
            entries.append({"name": f"variant{k}", **entry})
        comparisons = evalkit.compare(entries, cfg.methods)
        assert entries == report["datasets"]
        assert comparisons == report["comparisons"]
        assert any("statistic" in row for row in comparisons)

    def test_unknown_method_exit_2(self, eval_case, tmp_path, capsys, monkeypatch):
        """An unknown or a repeated method is refused before any load."""

        def refuse(*args, **kwargs):
            raise AssertionError("data or a model was loaded before --methods was checked")

        monkeypatch.setattr(dataio, "load_csv", refuse)
        monkeypatch.setattr(models, "load_model", refuse)
        for methods in ("shap", "smx,smx,pfi"):
            code = main(["evaluate", "--manifest", str(eval_case / "manifest.json"), "--methods", methods,
                         "--out", str(tmp_path / "r")])
            assert code == 2
            assert methods in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def _tree(root: Path) -> dict:
    """Relative path -> bytes of every file under ``root``."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _changed_files(tree: dict, ref: dict) -> list[str]:
    """Files of two ``_tree`` results that only one holds or whose bytes
    differ (a short failure report, where comparing the dicts diffs all bytes)."""
    return sorted(name for name in tree.keys() | ref.keys() if tree.get(name) != ref.get(name))


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
        return main([*argv, "--stability-runs", "0", *flags])

    def test_explain_rerun_leaves_exactly_the_new_files(self, explain_case, tmp_path):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert self._explain(explain_case, out, "--seeds", "1,2,3") == 0
        assert (out / "graph_seed_3.json").exists()
        assert self._explain(explain_case, out, "--seeds", "1,2", "--quantiles", "0.5") == 0
        assert self._explain(explain_case, fresh, "--seeds", "1,2", "--quantiles", "0.5") == 0
        assert _changed_files(_tree(out), _tree(fresh)) == []
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
        assert _changed_files(_tree(out), _tree(fresh)) == []
        assert not (out / "threshold_spectra").exists()
        assert _leftovers(tmp_path) == []

    def test_evaluate_rerun_leaves_no_stale_curves(self, eval_case, tmp_path):
        out, fresh = tmp_path / "report", tmp_path / "fresh"
        assert self._evaluate(eval_case, out, "--methods", "smx,pfi", "--pfi-repeats", "2") == 0
        assert len(list((out / "curves").iterdir())) == 6
        assert self._evaluate(eval_case, out, "--methods", "smx") == 0
        assert self._evaluate(eval_case, fresh, "--methods", "smx") == 0
        assert _changed_files(_tree(out), _tree(fresh)) == []
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
        assert _changed_files(_tree(out), before) == []
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
        assert _changed_files(_tree(out), before) == []
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
        assert _changed_files(_tree(out), before) == []

    def test_manifest_out_holding_nul_exit_2_before_loading(self, eval_case, tmp_path, capsys, monkeypatch):
        """A manifest's string can hold a NUL, which no path can: such an out
        is refused before any load, and nothing is written."""
        manifest = json.loads((eval_case / "manifest.json").read_text())
        manifest.update({key: str(eval_case / manifest[key]) for key in ("train", "test", "zones", "model")})
        (tmp_path / "m.json").write_text(json.dumps({**manifest, "out": "o\x00ut"}))

        def refuse(*args, **kwargs):
            raise AssertionError("data or a model was loaded before out was checked")

        monkeypatch.setattr(dataio, "load_csv", refuse)
        monkeypatch.setattr(models, "load_model", refuse)
        assert main(["explain", "--manifest", str(tmp_path / "m.json")]) == 2
        out = repr(str(tmp_path / "o\x00ut"))
        assert capsys.readouterr().err == f"error: cannot write output directory {out}: a path cannot hold a NUL character\n"
        assert os.listdir(tmp_path) == ["m.json"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["synth", "--out", "dup.csv", "--zones-out", "dup.csv"],
            ["split", "--input", "raw.csv", "--out-train", "dup.csv", "--out-test", "./dup.csv"],
            ["preprocess", "--method", "mean_center", "--train", "raw.csv", "--out-train", "dup.csv",
             "--test", "raw.csv", "--out-test", "sub/../dup.csv"],
            ["preprocess", "--method", "mean_center", "--train", "raw.csv", "--out-train", "dup.csv",
             "--state", "dup.csv"],
        ],
        ids=["synth", "split", "preprocess-out-test", "preprocess-state"],
    )
    def test_two_outputs_naming_one_file_exit_2_writes_nothing(self, tmp_path, capsys, monkeypatch, argv):
        dataio.save_csv(synthgen.generate(small_config()), tmp_path / "raw.csv")
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert "dup.csv: two outputs of this command name the same file" in capsys.readouterr().err
        assert sorted(os.listdir()) == ["raw.csv", "sub"]
        assert os.listdir("sub") == []

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


def _manifest_naming(work: Path, case: Path, **entries) -> str:
    """``work/m.json``: a manifest of ``case``'s files, ``entries`` replacing some."""
    manifest = {key: str(case / f"{key}.{ext}") for key, ext in
                (("train", "csv"), ("test", "csv"), ("zones", "json"), ("model", "json"))}
    manifest.update({key: str(value) for key, value in entries.items()}, engine={"bags": 3, "seeds": [1]})
    (work / "m.json").write_text(json.dumps(manifest))
    return str(work / "m.json")


# Every command's file inputs: (command, input) -> (is JSON, argv builder). The
# builder takes the good case directory, the broken input, the output directory
# and a work directory that may hold a manifest naming the broken input.
INPUTS = {
    ("synth", "--config"): (True, lambda c, bad, out, w: ["synth", "--config", bad, "--out", out / "d.csv"]),
    ("split", "--input"): (
        False, lambda c, bad, out, w: ["split", "--input", bad, "--out-train", out / "a.csv", "--out-test", out / "b.csv"]
    ),
    ("preprocess", "--train"): (
        False, lambda c, bad, out, w: ["preprocess", "--method", "mean_center", "--train", bad, "--out-train", out / "a.csv"]
    ),
    ("preprocess", "--test"): (
        False,
        lambda c, bad, out, w: ["preprocess", "--method", "mean_center", "--train", c / "train.csv",
                                "--out-train", out / "a.csv", "--test", bad, "--out-test", out / "b.csv"],
    ),
    ("train", "--train"): (False, lambda c, bad, out, w: ["train", "--train", bad, "--model", "ridge", "--out", out / "m.json"]),
    ("explain", "--manifest"): (True, lambda c, bad, out, w: ["explain", "--manifest", bad, "--out", out]),
    ("explain", "--train"): (False, lambda c, bad, out, w: ["explain", "--manifest", _manifest_naming(w, c, train=bad), "--out", out]),
    ("explain", "--zones"): (True, lambda c, bad, out, w: ["explain", "--manifest", _manifest_naming(w, c), "--zones", bad, "--out", out]),
    ("explain", "--model"): (True, lambda c, bad, out, w: ["explain", "--manifest", _manifest_naming(w, c, model=bad), "--out", out]),
    ("evaluate", "--manifest"): (True, lambda c, bad, out, w: ["evaluate", "--manifest", bad, "--out", out]),
    ("evaluate", "test"): (False, lambda c, bad, out, w: ["evaluate", "--manifest", _manifest_naming(w, c, test=bad), "--out", out]),
    ("evaluate", "model"): (True, lambda c, bad, out, w: ["evaluate", "--manifest", _manifest_naming(w, c, model=bad), "--out", out]),
}


def _break(path: Path, fault: str) -> None:
    if fault == "directory":
        path.mkdir()
    elif fault == "not utf-8":
        path.write_bytes(b'{"id": "\xff"}\n')
    elif fault == "invalid json":
        path.write_text('{"train": "train.csv",\n')
    elif fault == "field over the csv limit":
        path.write_text(f"id,label,1,2\n\"{'a' * (csv.field_size_limit() + 1)}\",0,1,2\n")


@pytest.mark.parametrize(
    "command, flag, fault",
    [
        (command, flag, fault)
        for (command, flag), (is_json, _) in INPUTS.items()
        for fault in ("missing", "directory", "not utf-8", "invalid json" if is_json else "field over the csv limit")
    ],
)
def test_unreadable_input_exit_2_names_file(explain_case, tmp_path, capsys, command, flag, fault):
    """A missing, unreadable, non-UTF-8 or malformed input exits 2 with the
    file named, and writes nothing."""
    bad, out = tmp_path / "bad", tmp_path / "out"
    _break(bad, fault)
    argv = INPUTS[command, flag][1](explain_case, bad, out, tmp_path)
    assert main([str(arg) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err, err
    assert set(os.listdir(tmp_path)) <= {"bad", "m.json"}


def _edit_cell(case: Path, name: str, text: str, line: int = 1) -> str:
    """The case's CSV ``name`` with the first value of its line ``line``
    (0: the header, whose values are the axis) written as ``text``."""
    lines = (case / name).read_text().split("\n")
    cells = lines[line].split(",")
    lines[line] = ",".join([*cells[:2], text, *cells[3:]])
    return "\n".join(lines)


def _one_class(case: Path, name: str) -> str:
    """The case's CSV ``name`` with every sample labelled 0."""
    return re.sub(r"^([^,\n]*),1,", r"\1,0,", (case / name).read_text(), flags=re.MULTILINE)


def _zones(*spans) -> list[dict]:
    return [{"name": name, "start": start, "end": end, "plausible": True} for name, start, end in spans]


_IN_EXPLAIN = ["explain", "--manifest", "m.json", "--out", "out"]
_IN_EVALUATE = ["evaluate", "--manifest", "good.json", "m.json", "--out", "out"]  # good.json is valid
_RIDGE = {"kind": "ridge", "weights": [0.0] * 60, "intercept": 0.0}
_BAD_ENGINE = {
    "no bags": ({"engine": {"bags": 0}}, f"bag count must be in [1, {engine.MAX_BAGS}], got 0"),
    "bag fraction 0": ({"engine": {"bag_fraction": 0.0}}, "bag_fraction must be in (0, 1]"),
    "min support 1": ({"engine": {"min_support_fraction": 1.0}}, "min_support_fraction must be in (0, 1)"),
    "no seeds": ({"engine": {"seeds": []}}, "at least one seed is required"),
    "repeated seeds": ({"engine": {"seeds": [1, 1]}}, "seeds must be distinct"),
    "negative seed": ({"engine": {"seeds": [-1]}}, "seeds must be non-negative"),
    "unknown engine key": ({"engine": {"bagz": 3}}, "unknown engine key(s) in manifest: bagz"),
    "preprocess without method": (
        {"preprocess": {"window": 5}}, "preprocess lacks its 'method' (the manifest's preprocess method or --preprocess)"
    ),
}

# name -> (argv, files written over the explain case's, the file the refusal
# names, the rest of its message). Files are the case's train.csv, test.csv,
# zones.json and model.json, good.json (a valid manifest of them) and m.json,
# its copy holding the row's entries. A file's content is text, bytes, a JSON
# value, or a function of the case directory giving its text.
NAMED_REFUSALS = {
    "train values": (
        _IN_EXPLAIN, {"train.csv": lambda case: _edit_cell(case, "train.csv", "nan")},
        "train.csv", "intensities contain non-finite entries",
    ),
    "test values": (
        _IN_EVALUATE, {"test.csv": lambda case: _edit_cell(case, "test.csv", "-inf")},
        "test.csv", "intensities contain non-finite entries",
    ),
    "empty zone config": (_IN_EXPLAIN, {"zones.json": []}, "zones.json", "zone config is empty"),
    "repeated zone name": (
        _IN_EXPLAIN, {"zones.json": _zones(("a", 1, 20), ("a", 30, 40))}, "zones.json", "zone names must be unique"
    ),
    "empty zone": (_IN_EXPLAIN, {"zones.json": _zones(("a", 20, 20))}, "zones.json", "zone 'a': start must be < end"),
    "overlapping zones": (
        _IN_EXPLAIN, {"zones.json": _zones(("a", 1, 30), ("b", 20, 40))}, "zones.json", "zones 'a' and 'b' overlap"
    ),
    "zone covering one channel": (
        _IN_EXPLAIN, {"zones.json": _zones(("a", 1, 30), ("b", 31, 31.5))},
        "zones.json", "zone 'b' covers 1 axis point(s); at least 2 required",
    ),
    "zones on another axis": (
        _IN_EVALUATE, {"zones.json": _zones(("a", 1000, 2000))},
        "zones.json", "zone 'a' covers 0 axis point(s); at least 2 required",
    ),
    **{
        f"evaluate manifest: {name}": (_IN_EVALUATE, {"m.json": entries}, "m.json", message)
        for name, (entries, message) in {**BAD_SETTINGS, **_BAD_ENGINE}.items()
    },
    "repeated dataset name": (
        _IN_EVALUATE, {"m.json": {"name": "good"}}, "m.json", "dataset name 'good' is used by more than one manifest"
    ),
    **{
        f"{argv[0]} misspelled manifest section": (
            argv, {"m.json": {"preprocesing": {"method": "mean_center"}, "_note": 1, "outdir": "o"}},
            "m.json", "unknown manifest key(s): outdir, preprocesing",
        )
        for argv in (_IN_EXPLAIN, _IN_EVALUATE)
    },
    "explain manifest setting": (
        _IN_EXPLAIN, {"m.json": {"engine": {"quantiles": [0.5, 0.4]}}},
        "m.json", "quantile levels must be strictly increasing",
    ),
    "explain manifest setting, a flag in the other section": (
        [*_IN_EXPLAIN, "--preprocess", "mean_center"], {"m.json": {"engine": {"seeds": []}}},
        "m.json", "at least one seed is required",
    ),
    **{
        f"{argv[0]} inline model spec": (
            argv, {"m.json": {"model": {**_RIDGE, "lambda": True}}},
            "m.json", "bad ridge model spec: 'lambda' must be a finite number, got True",
        )
        for argv in (_IN_EXPLAIN, _IN_EVALUATE)
    },
    **{
        f"{argv[0]} axis {value}": (
            argv, {"train.csv": lambda case, value=value: _edit_cell(case, "train.csv", value, line=0)},
            "train.csv", f"line 1, column 3: non-finite axis value '{value}'",
        )
        for argv in (_IN_EXPLAIN, ["preprocess", "--method", "mean_center", "--train", "train.csv", "--out-train", "o.csv"])
        for value in ("nan", "inf", "-inf")
    },
    "one-class train data": (
        ["train", "--model", "ridge", "--train", "train.csv", "--out", "m.out.json"],
        {"train.csv": lambda case: _one_class(case, "train.csv")},
        "train.csv", "training data must contain both classes",
    ),
    "one-class split input": (
        ["split", "--input", "train.csv", "--out-train", "a.csv", "--out-test", "b.csv"],
        {"train.csv": lambda case: _one_class(case, "train.csv")},
        "train.csv", "class 1 has fewer than 2 samples",
    ),
    "synthetic config bounds": (
        ["synth", "--config", "cfg.json", "--out", "d.csv"],
        {"cfg.json": {**dataclasses.asdict(small_config()), "n_points": 10**12}},
        "cfg.json", "n_points must be at most 8192, got 1000000000000",
    ),
}

# Refusals pinned to their exact text, in the same form. The file is None
# where the message takes no "<file>: " prefix: a flag's value, and
# "cannot read <what> <path>", which names the file in its own words.
PINNED_REFUSALS = {
    "csv cell": (
        _IN_EXPLAIN, {"train.csv": lambda case: _edit_cell(case, "train.csv", "x")},
        "train.csv", "line 2, column 3: non-numeric cell 'x'",
    ),
    "csv axis": (
        _IN_EXPLAIN, {"train.csv": lambda case: _edit_cell(case, "train.csv", "9", line=0)},
        "train.csv", "axis not strictly increasing",
    ),
    "csv not utf-8": (
        _IN_EXPLAIN, {"train.csv": b"id,label,1,2\na\xff,0,1,2\n"},
        "train.csv", "dataset file is not UTF-8 text (byte 14: invalid start byte)",
    ),
    "test axis": (
        _IN_EVALUATE, {"test.csv": lambda case: _edit_cell(case, "test.csv", "0.5", line=0)},
        "test.csv", "axis differs from the train axis",
    ),
    "bad zone entry": (
        _IN_EXPLAIN, {"zones.json": [{"name": "a", "start": "1", "end": 2.0, "plausible": True}]},
        "zones.json", "bad zone entry 0: 'start' must be a finite number, got '1'",
    ),
    "zones not an array": (_IN_EXPLAIN, {"zones.json": {"a": 1}}, "zones.json", "zone config must be a JSON array"),
    "invalid JSON": (
        _IN_EXPLAIN, {"zones.json": "["}, "zones.json", "invalid JSON in zones file (Expecting value: line 1 column 2 (char 1))"
    ),
    "bad manifest entry": (
        _IN_EVALUATE, {"m.json": {"train": 5}}, "m.json", "bad manifest entry: 'train' must be a string, got 5"
    ),
    "manifest not an object": (_IN_EVALUATE, {"m.json": "[1]"}, "m.json", "manifest must be a JSON object, got [1]"),
    "model file spec": (
        _IN_EXPLAIN, {"model.json": {**_RIDGE, "intercept": None}},
        "model.json", "bad ridge model spec: 'intercept' must be a finite number, got None",
    ),
    "model file kind": (_IN_EXPLAIN, {"model.json": {"kind": "mystery"}}, "model.json", "unknown model kind 'mystery'"),
    "model file not an object": (_IN_EXPLAIN, {"model.json": 3}, "model.json", "model JSON must be an object, got 3"),
    "synthetic config entry": (
        ["synth", "--config", "cfg.json", "--out", "d.csv"], {"cfg.json": {"n_points": "x"}},
        "cfg.json", "bad synthetic config: 'n_points' must be an integer, got 'x'",
    ),
    "unreadable file": (
        _IN_EXPLAIN, {"m.json": {"train": "missing.csv"}}, None, "cannot read dataset file missing.csv: No such file or directory"
    ),
    "flag in the same section": ([*_IN_EXPLAIN, "--quantiles", "0.5,0.4"], {}, None, "quantile levels must be strictly increasing"),
    "more predicates than LRC is sized for": (
        [*_IN_EXPLAIN, "--quantiles", ",".join(str(k / 100) for k in range(1, 100))],
        {"zones.json": _zones(*((f"z{m}", 2 * m + 1, 2 * m + 2) for m in range(23)))},
        None, f"23 zones x 99 quantile levels allow 4554 predicates; at most {pipeline.MAX_PREDICATES} are allowed",
    ),
    "support no bag can reach": (
        [*_IN_EXPLAIN, "--bag-fraction", "0.1", "--min-support", "0.5"], {}, None,
        "min support 18 (min_support_fraction 0.5 of 36 samples) exceeds the bag size 4 (bag_fraction 0.1): "
        "no predicate could be retained",
    ),
    "train flag": (
        ["train", "--model", "ridge", "--train", "train.csv", "--lam", "-1", "--out", "m.out.json"], {},
        None, "ridge lambda must be finite and >= 0, got -1.0",
    ),
    "split flag": (
        ["split", "--input", "train.csv", "--train-fraction", "1", "--out-train", "a.csv", "--out-test", "b.csv"], {},
        None, "train_fraction must be in (0, 1)",
    ),
    "flag without a manifest": (
        ["explain", "--train", "train.csv", "--zones", "zones.json", "--model", "model.json", "--bags", "0", "--out", "out"],
        {}, None, f"bag count must be in [1, {engine.MAX_BAGS}], got 0",
    ),
}


@pytest.mark.parametrize(
    "argv, files, named, message",
    [*NAMED_REFUSALS.values(), *PINNED_REFUSALS.values()],
    ids=[*NAMED_REFUSALS, *(f"pinned: {name}" for name in PINNED_REFUSALS)],
)
def test_refusal_names_its_file(explain_case, tmp_path, monkeypatch, capsys, argv, files, named, message):
    """A refusal of what an input file holds exits 2 as ``error: <file>:
    <message>`` and writes nothing; a refusal of a flag's value names no file."""
    monkeypatch.chdir(tmp_path)
    for name in ("train.csv", "test.csv", "zones.json", "model.json"):
        (tmp_path / name).write_bytes((explain_case / name).read_bytes())
    manifest = {"train": "train.csv", "test": "test.csv", "zones": "zones.json", "model": "model.json", **_engine()}
    (tmp_path / "good.json").write_text(json.dumps({**manifest, "name": "good"}))
    for name, content in {"m.json": {}, **files}.items():
        content = content(explain_case) if callable(content) else content
        if name == "m.json" and isinstance(content, dict):
            content = {**manifest, "name": "m", **content}
        if not isinstance(content, (str, bytes)):
            content = json.dumps(content)
        (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    inputs = sorted(os.listdir())
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"error: {message}\n" if named is None else f"error: {named}: {message}\n")
    assert sorted(os.listdir()) == inputs


def test_external_model_failure_names_no_file(explain_case, tmp_path, monkeypatch, capsys):
    """A model spec is read in its file's scope, but an external model that
    fails to start is no refusal of the file: exit 1, its own message."""
    monkeypatch.chdir(tmp_path)
    argv = [str(tmp_path / "no-such-program")]
    (tmp_path / "ext.json").write_text(json.dumps({"kind": "external", "argv": argv}))
    code = main(["explain", "--train", str(explain_case / "train.csv"), "--zones", str(explain_case / "zones.json"),
                 "--model", "ext.json", "--out", "out"])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: failed to start external model {argv}: ")
    assert os.listdir() == ["ext.json"]


def test_external_model_stderr_reaches_smx_stderr(explain_case, tmp_path, monkeypatch, capfd):
    """An external model writes to smx's own stderr: the traceback of a server
    that raises is shown beside smx's error, the run exits 1, and no child is
    left running."""
    started = []
    popen = subprocess.Popen

    def recording(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(models.subprocess, "Popen", recording)
    helper = str(Path(__file__).parent / "helpers" / "external_model.py")
    (tmp_path / "external.json").write_text(json.dumps({"kind": "external", "argv": [sys.executable, helper, "raise", "60"]}))
    out = tmp_path / "out"
    code = main(["explain", "--train", str(explain_case / "train.csv"), "--zones", str(explain_case / "zones.json"),
                 "--model", str(tmp_path / "external.json"), "--out", str(out)])
    assert code == 1
    err = capfd.readouterr().err
    assert "RuntimeError: weights file is stale\n" in err
    assert err.endswith("closed its stream (exit code 1)\n")
    assert len(started) == 1 and started[0].poll() == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["explain", "evaluate", "evaluate pfi"])
def test_unreachable_support_refused_before_the_model_starts(explain_case, tmp_path, monkeypatch, capsys, command):
    """A support floor above the bag size is refused (exit 2) once the train
    rows are known and before an external model is started. An evaluate
    that ranks no smx does not read the engine settings, and runs."""
    started = []
    popen = subprocess.Popen

    def recording(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(models.subprocess, "Popen", recording)
    helper = str(Path(__file__).parent / "helpers" / "external_model.py")
    spec = {"kind": "external", "argv": [sys.executable, helper, "sum", "60"]}
    (tmp_path / "ext.json").write_text(json.dumps(spec))
    out = tmp_path / "out"
    if command == "explain":
        argv = ["explain", "--train", str(explain_case / "train.csv"), "--zones", str(explain_case / "zones.json"),
                "--model", str(tmp_path / "ext.json"), "--bag-fraction", "0.1", "--min-support", "0.5"]
    else:
        mpath = _manifest_naming(tmp_path, explain_case)
        manifest = json.loads(Path(mpath).read_text())
        manifest["engine"].update(bag_fraction=0.1, min_support_fraction=0.5)
        Path(mpath).write_text(json.dumps({**manifest, "model": spec}))
        methods = ["--methods", "pfi"] if command == "evaluate pfi" else []
        argv = ["evaluate", "--manifest", mpath, *methods, "--stability-runs", "0"]
    code = main([*argv, "--out", str(out)])
    if command == "evaluate pfi":
        assert code == 0 and len(started) == 1
        return
    assert code == 2
    named = "" if command == "explain" else f"{mpath}: "  # evaluate reads the engine settings from the manifest only
    assert capsys.readouterr().err == (
        f"error: {named}min support 18 (min_support_fraction 0.5 of 36 samples) exceeds the bag size 4 "
        "(bag_fraction 0.1): no predicate could be retained\n"
    )
    assert started == []
    assert not out.exists()


def test_unreachable_support_of_a_later_manifest_refused_before_any_evaluation(
    explain_case, tmp_path, monkeypatch, capsys
):
    """With several manifests, each one's engine settings are checked before
    the first dataset is evaluated, and the refusal names its manifest."""
    evaluated = []
    monkeypatch.setattr(evalkit, "evaluate_dataset", lambda *args: evaluated.append(args) or {})
    paths = []
    for name, engine in (("good", {"bags": 3, "seeds": [1]}), ("bad", {"bag_fraction": 0.1, "min_support_fraction": 0.5})):
        manifest = {key: str(explain_case / f"{key}.{ext}") for key, ext in
                    (("train", "csv"), ("test", "csv"), ("zones", "json"), ("model", "json"))}
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({**manifest, "name": name, "engine": engine}))
    out = tmp_path / "out"
    assert main(["evaluate", "--manifest", *map(str, paths), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {paths[1]}: min support 18 (min_support_fraction 0.5 of 36 samples) exceeds the bag size 4 "
        "(bag_fraction 0.1): no predicate could be retained\n"
    )
    assert evaluated == []
    assert not out.exists()

def _column_set(case: Path, name: str, text: str) -> str:
    """The case's CSV ``name`` with the first intensity of every row written as ``text``."""
    lines = (case / name).read_text().rstrip("\n").split("\n")
    rows = [",".join([*cells[:2], text, *cells[3:]]) for cells in (line.split(",") for line in lines[1:])]
    return "\n".join([lines[0], *rows, ""])


def _rows(case: Path, name: str, count: int) -> str:
    """The header and the first ``count`` rows of the case's CSV ``name``."""
    return "\n".join((case / name).read_text().split("\n")[: 1 + count]) + "\n"


_QUANTILES_99 = [k / 100 for k in range(1, 100)]
_ZONES_23 = _zones(*((f"z{m}", 2 * m + 1, 2 * m + 2) for m in range(23)))
_ONE_ROW_FILE = {"one.csv": lambda case: _rows(case, "train.csv", 1)}
_SUPPORT = (
    "min support 18 (min_support_fraction 0.5 of 36 samples) exceeds the bag size 4 (bag_fraction 0.1): "
    "no predicate could be retained"
)
_BOUND = f"23 zones x 99 quantile levels allow 4554 predicates; at most {pipeline.MAX_PREDICATES} are allowed"
_WIDE_WINDOW = "savgol window exceeds the number of variables"
_POISSON = "poisson scaling requires positive column means; column 0 has mean -1.0"
_ONE_ROW = "ranking needs at least 2 train samples, got 1"

# name -> (command, entries over m.json's (None removes one), flags, files
# written over the case's, the file the refusal names, the rest of its
# message); see test_refused_before_the_model_starts.
REFUSED_BEFORE_THE_MODEL = {
    **{
        f"{command} without {key}": (
            command, {key: None}, [], {}, "m.json", f"manifest is missing required entry '{key}'"
        )
        for command, keys in (
            ("explain", ("out", "train", "zones", "model")), ("evaluate", ("train", "test", "zones", "model"))
        )
        for key in keys
    },
    **{
        f"{command} {what} in the manifest": (command, entries, [], files, "m.json", message)
        for command in ("explain", "evaluate")
        for what, entries, files, message in (
            ("support floor", {"engine": {"bag_fraction": 0.1, "min_support_fraction": 0.5}}, {}, _SUPPORT),
            ("predicate bound", {"engine": {"quantiles": _QUANTILES_99}}, {"zones.json": _ZONES_23}, _BOUND),
            ("savgol window", {"preprocess": {"method": _SAVGOL, "window": 61}}, {}, _WIDE_WINDOW),
            (
                "poisson mean", {"preprocess": {"method": "poisson_then_center"}},
                {"train.csv": lambda case: _column_set(case, "train.csv", "-1")}, _POISSON,
            ),
        )
    },
    "support floor by flag": ("explain", {}, ["--bag-fraction", "0.1", "--min-support", "0.5"], {}, None, _SUPPORT),
    "support floor in the manifest, another engine flag": (
        "explain", {"engine": {"bag_fraction": 0.1, "min_support_fraction": 0.5}}, ["--bags", "3"], {}, None, _SUPPORT
    ),
    "predicate bound by flag": (
        "explain", {}, ["--quantiles", ",".join(map(str, _QUANTILES_99))], {"zones.json": _ZONES_23}, None, _BOUND
    ),
    "savgol window by flag": ("explain", {}, ["--preprocess", _SAVGOL, "--window", "61"], {}, None, _WIDE_WINDOW),
    "savgol window in the manifest, method by flag": (
        "explain", {"preprocess": {"method": _SAVGOL, "window": 61}}, ["--preprocess", _SAVGOL], {}, None, _WIDE_WINDOW
    ),
    "poisson mean by flag": (
        "explain", {}, ["--preprocess", "poisson_then_center"],
        {"train.csv": lambda case: _column_set(case, "train.csv", "-1")}, None, _POISSON,
    ),
    **{
        f"{command} one-row train": (command, {"train": "one.csv"}, [], _ONE_ROW_FILE, "one.csv", _ONE_ROW)
        for command in ("explain", "evaluate")
    },
    "one-row train by flag": ("explain", {}, ["--train", "one.csv"], _ONE_ROW_FILE, "one.csv", _ONE_ROW),
}


@pytest.mark.parametrize(
    "command, entries, flags, files, named, message", REFUSED_BEFORE_THE_MODEL.values(), ids=REFUSED_BEFORE_THE_MODEL
)
def test_refused_before_the_model_starts(
    explain_case, tmp_path, monkeypatch, capsys, command, entries, flags, files, named, message
):
    """A refusal of a manifest's entry or setting names the manifest, whether
    it is found alone or against the data, and one of a value a flag gave
    names no file. Each comes before an external model starts, and before
    evaluate scores its first dataset: ``evaluate`` runs good.json, a valid
    manifest, before m.json. A missing entry is refused before any CSV is
    read."""
    started, read, evaluated = [], [], []
    monkeypatch.setattr(models.subprocess, "Popen", lambda *args, **kwargs: started.append(args))
    load_csv = dataio.load_csv
    monkeypatch.setattr(dataio, "load_csv", lambda path: read.append(path) or load_csv(path))
    monkeypatch.setattr(evalkit, "evaluate_dataset", lambda *args: evaluated.append(args) or {})
    monkeypatch.chdir(tmp_path)
    for name in ("train.csv", "test.csv", "zones.json"):
        (tmp_path / name).write_bytes((explain_case / name).read_bytes())
    for name, content in files.items():
        content = content(explain_case) if callable(content) else content
        (tmp_path / name).write_text(content if isinstance(content, str) else json.dumps(content))
    helper = str(Path(__file__).parent / "helpers" / "external_model.py")
    manifest = {
        "train": "train.csv", "test": "test.csv", "zones": "zones.json", **_engine(),
        "model": {"kind": "external", "argv": [sys.executable, helper, "sum", "60"]},
    }
    if command == "explain":
        manifest["out"] = "out"
    (tmp_path / "good.json").write_text(json.dumps({**manifest, "name": "good"}))
    manifest = {**manifest, "name": "m", **entries}
    (tmp_path / "m.json").write_text(json.dumps({key: value for key, value in manifest.items() if value is not None}))
    if command == "explain":
        argv = ["explain", "--manifest", "m.json", *flags]
    else:
        argv = ["evaluate", "--manifest", "good.json", "m.json", *flags, "--out", "out"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"error: {message}\n" if named is None else f"error: {named}: {message}\n")
    assert started == [] and evaluated == []
    assert not (tmp_path / "out").exists()
    if message.startswith("manifest is missing"):
        assert read == []


def test_one_row_train_runs_a_pfi_only_evaluate(explain_case, tmp_path):
    """PFI scores the test set alone, so an evaluate that ranks no smx takes
    a one-row train set."""
    (tmp_path / "one.csv").write_text(_rows(explain_case, "train.csv", 1))
    mpath = _manifest_naming(tmp_path, explain_case, train=tmp_path / "one.csv")
    out = tmp_path / "out"
    assert main(["evaluate", "--manifest", mpath, "--methods", "pfi", "--stability-runs", "0", "--out", str(out)]) == 0
    assert out.is_dir()


@pytest.mark.parametrize(
    "reply, message",
    [
        (b'{"error": "caf\xe9"}', "sent an unusable reply ('utf-8' codec can't decode byte 0xe9"),
        (b"[" * 200_000 + b"]" * 200_000, "sent an unusable reply (maximum recursion depth exceeded"),
    ],
    ids=["not-utf8", "nested-too-deep"],
)
@pytest.mark.parametrize("command", ["explain", "evaluate"])
def test_unreadable_external_reply_exit_1(explain_case, tmp_path, monkeypatch, capsys, command, reply, message):
    """An external reply that is not UTF-8, or nests too deep to parse, ends the
    run with one error line and no traceback: exit 1, no outputs, and the child
    has exited."""
    started = []
    popen = subprocess.Popen

    def recording(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(models.subprocess, "Popen", recording)
    helper = str(Path(__file__).parent / "helpers" / "external_model.py")
    (tmp_path / "reply").write_bytes(reply)
    spec = {"kind": "external", "argv": [sys.executable, helper, "raw-reply", "60", str(tmp_path / "reply")]}
    case = {name: str(explain_case / f"{name}.csv") for name in ("train", "test")}
    (tmp_path / "m.json").write_text(json.dumps({**case, "zones": str(explain_case / "zones.json"), "model": spec}))
    out = tmp_path / "out"
    code = main([command, "--manifest", str(tmp_path / "m.json"), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: external model ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert started and all(proc.poll() is not None for proc in started)
    assert not out.exists()


def test_untyped_info_reply_exit_1_no_outputs(explain_case, tmp_path, capsys):
    """An external model whose info reply gives n_features as text is a model fault (exit 1)."""
    helper = str(Path(__file__).parent / "helpers" / "external_model.py")
    reply = json.dumps({"kind": "continuous", "n_features": "60"})
    spec = {"kind": "external", "argv": [sys.executable, helper, "info-reply", "60", reply]}
    (tmp_path / "external.json").write_text(json.dumps(spec))
    out = tmp_path / "out"
    code = main(["explain", "--train", str(explain_case / "train.csv"), "--zones", str(explain_case / "zones.json"),
                 "--model", str(tmp_path / "external.json"), "--out", str(out)])
    assert code == 1
    sent = (reply + "\n").encode()
    assert capsys.readouterr().err.endswith(f"info reply: 'n_features' must be an integer: {sent!r}\n")
    assert not out.exists()


def test_runs_close_their_external_models(explain_case, tmp_path, monkeypatch):
    """explain and evaluate stop the model server they start, whether the run
    succeeds or fails."""
    loaded = []
    load_model = models.load_model

    def recording(spec):
        loaded.append(load_model(spec))
        return loaded[-1]

    monkeypatch.setattr(models, "load_model", recording)
    helper = str(Path(__file__).parent / "helpers" / "external_model.py")
    spec = {"kind": "external", "argv": [sys.executable, helper, "fixed-proba", "60", "0.25", "0.75"]}
    mpath = _manifest_naming(tmp_path, explain_case)
    (tmp_path / "ext.json").write_text(json.dumps(spec))
    (tmp_path / "err.json").write_text(json.dumps({**spec, "argv": [sys.executable, helper, "error", "60"]}))
    flags = ["--model", str(tmp_path / "ext.json")]
    assert main(["explain", "--manifest", mpath, *flags, "--out", str(tmp_path / "o1")]) == 0
    # the server answers its first predict with an error
    assert main(["explain", "--manifest", mpath, "--model", str(tmp_path / "err.json"), "--out", str(tmp_path / "o2")]) == 1
    manifest = json.loads(Path(mpath).read_text())
    Path(mpath).write_text(json.dumps({**manifest, "model": spec}))
    # a constant model ranks no zone, so the evaluate fails after using its model
    assert main(["evaluate", "--manifest", mpath, "--out", str(tmp_path / "o3"), "--stability-runs", "0"]) == 1
    assert len(loaded) == 3
    assert [model._proc.poll() is not None for model in loaded] == [True] * 3
