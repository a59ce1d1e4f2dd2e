"""Typed values in every JSON input: the manifest (its file entries,
``name``, ``preprocess`` and ``engine``), builtin model files, zone configs
and synthetic configs, read by ``explain``, ``evaluate`` and ``synth``.

As ``tests/test_csv_reader.py`` does for CSV text, seeded cases mutate one
value by type: a string for a number, a bool for a number, ``null``,
``NaN`` and ``Infinity`` tokens, a nested list, an integer beyond float64,
a fraction for an integer. A run exits 0 only if every value has its
documented type; otherwise it exits 2, names the file, prints no
traceback and writes nothing."""

import copy
import json
import random
from pathlib import Path

import pytest

from smx.cli import main

SYNTH = {
    "n_points": 40,
    "axis_range": [1.0, 40.0],
    "seed": 7,
    "classes": [
        {"label": 0, "name": "A", "n_samples": 12, "noise_std": 0.05,
         "peaks": [{"center": 10.0, "amp_mean": 2.0, "amp_std": 0.2, "width_mean": 2.0, "width_std": 0.2}]},
        {"label": 1, "name": "B", "n_samples": 12, "noise_std": 0.05,
         "peaks": [{"center": 10.0, "amp_mean": 0.5, "amp_std": 0.1, "width_mean": 2.0, "width_std": 0.2},
                   {"center": 30.0, "amp_mean": 1.0, "amp_std": 0.1, "width_mean": 3.0, "width_std": 0.3}]},
    ],
}
ZONES = [
    {"name": "left", "start": 1.0, "end": 8.0, "plausible": False},
    {"name": "peak", "start": 8.0, "end": 14.0, "plausible": True},
    {"name": "right", "start": 14.0, "end": 40.0, "plausible": False},
]


def _manifest(data: Path) -> dict:
    return {
        "name": "small",
        "train": str(data / "train.csv"),
        "test": str(data / "test.csv"),
        "zones": "zones.json",
        "model": "model.json",
        "out": "out",
        "preprocess": {"method": "savgol_then_center", "window": 5, "order": 2},
        "engine": {"bags": 3, "bag_fraction": 0.8, "min_support_fraction": 0.2, "quantiles": [0.3, 0.7],
                   "seeds": [1, 2]},
    }


@pytest.fixture(scope="module")
def data(tmp_path_factory) -> Path:
    """The CSVs and model files every case reads, made by synth, split and train."""
    root = tmp_path_factory.mktemp("data")
    (root / "synth.json").write_text(json.dumps(SYNTH))
    for argv in (
        ["synth", "--config", "synth.json", "--out", "all.csv"],
        ["split", "--input", "all.csv", "--out-train", "train.csv", "--out-test", "test.csv"],
        ["train", "--train", "train.csv", "--model", "logistic", "--out", "model.json"],
        ["train", "--train", "train.csv", "--model", "ridge", "--out", "ridge.json"],
    ):
        assert main([argv[0], *(str(root / a) if a.endswith((".csv", ".json")) else a for a in argv[1:])]) == 0
    return root


def _documents(data: Path) -> dict:
    return {
        "manifest.json": _manifest(data),
        "zones.json": ZONES,
        "model.json": json.loads((data / "model.json").read_text()),
        "ridge.json": json.loads((data / "ridge.json").read_text()),
        "synth.json": SYNTH,
    }


# The commands that read each document, run in a case directory holding all of them.
COMMANDS = {
    "manifest.json": ["explain", "evaluate"],
    "zones.json": ["explain", "evaluate"],
    "model.json": ["explain", "evaluate"],
    "ridge.json": ["explain ridge"],
    "synth.json": ["synth"],
}


def _argv(command: str, case: Path) -> list[str]:
    return {
        "explain": ["explain", "--manifest", str(case / "manifest.json")],
        "explain ridge": ["explain", "--manifest", str(case / "manifest.json"), "--model", str(case / "ridge.json")],
        "evaluate": ["evaluate", "--manifest", str(case / "manifest.json"), "--out", str(case / "report"),
                     "--stability-runs", "0", "--pfi-repeats", "1"],
        "synth": ["synth", "--config", str(case / "synth.json"), "--out", str(case / "synth.csv")],
    }[command]


def _sites(value, path=()):
    """(path, value) of every value below the top of a JSON document, of a
    list's first three items only (a model's weights are all alike)."""
    if path:
        yield path, value
    children = value.items() if isinstance(value, dict) else enumerate(value[:3]) if isinstance(value, list) else ()
    for key, child in children:
        yield from _sites(child, (*path, key))


BIG = 10**400  # an integer no float64 holds


def _mutations(value) -> list:
    """Values of another type than ``value``'s: an int stands for an integer
    entry, a float for a number, a list for a list, a dict for an object."""
    if isinstance(value, bool):
        return ["true", 1, None, [value]]
    if isinstance(value, str):
        return [5, True, None, [value]]
    if isinstance(value, (int, float)):
        found = [str(value), True, False, None, float("nan"), float("inf"), float("-inf"), [value], BIG, -BIG]
        return found + [value + 0.5] if isinstance(value, int) else found
    if isinstance(value, list):
        return ["x", 1.0, None, {"0": value}]
    return ["x", 1.0, None, [value]]


def _set(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _run(case: Path, documents: dict, command: str, capsys):
    for name, doc in documents.items():
        (case / name).write_text(json.dumps(doc))
    before = sorted(p.name for p in case.iterdir())
    code = main(_argv(command, case))
    return code, capsys.readouterr().err, before, sorted(p.name for p in case.iterdir())


def _all_cases(data: Path):
    for name, doc in _documents(data).items():
        for path, value in _sites(doc):
            for mutated in _mutations(value):
                yield name, path, mutated


def _assert_refused(tmp_path, data, capsys, name, path, value, command):
    documents = _documents(data)
    documents[name] = _set(documents[name], path, value)
    case = tmp_path / "case"
    case.mkdir(parents=True)
    code, err, before, after = _run(case, documents, command, capsys)
    label = f"{command}: {name} {list(path)} = {value!r}"
    assert code == 2, label
    assert f"{case / name}: " in err, (label, err)
    assert "Traceback" not in err, label
    assert after == before, label  # nothing written, not even an output directory
    return err


OUTPUT = {"explain": "out", "explain ridge": "out", "evaluate": "report", "synth": "synth.csv"}


def test_unmutated_inputs_run(tmp_path, data, capsys):
    for command, output in OUTPUT.items():
        case = tmp_path / command.replace(" ", "_")
        case.mkdir()
        code, err, before, after = _run(case, _documents(data), command, capsys)
        assert code == 0, (command, err)
        assert sorted(set(after) - set(before)) == [output]


def test_seeded_mutations_exit_2_naming_the_file(tmp_path, data, capsys):
    cases = list(_all_cases(data))
    rng = random.Random(20261019)
    picked = rng.sample(cases, 250)
    for k, (name, path, value) in enumerate(picked):
        _assert_refused(tmp_path / str(k), data, capsys, name, path, value, rng.choice(COMMANDS[name]))
    assert len(cases) > 600 and {name for name, _, _ in picked} == set(COMMANDS)


def _equivalent(value):
    """``value`` with integers written as floats and integral floats as integers."""
    if isinstance(value, dict):
        return {key: _equivalent(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_equivalent(v) for v in value]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    return float(value) if isinstance(value, int) else int(value) if value.is_integer() else value


@pytest.mark.parametrize("command", sorted(OUTPUT))
def test_integral_numbers_either_way_change_no_byte(tmp_path, data, capsys, command):
    """``3.0`` is an integer and ``1`` a number: the outputs are the same bytes."""
    trees = []
    for k, documents in enumerate((_documents(data), {n: _equivalent(d) for n, d in _documents(data).items()})):
        case = tmp_path / str(k)
        case.mkdir()
        code, err, _, _ = _run(case, documents, command, capsys)
        assert code == 0, err
        output = case / OUTPUT[command]
        files = sorted(output.rglob("*")) if output.is_dir() else [output]
        trees.append({p.relative_to(case).as_posix(): p.read_bytes() for p in files if p.is_file()})
    assert len(trees[0]) > 0 and sorted(trees[0]) == sorted(trees[1])
    assert [name for name in trees[0] if trees[0][name] != trees[1][name]] == []


# Each of these exited 0 before the readers were typed.
PINNED = [
    ("manifest.json", ("engine", "bag_fraction"), True, "explain", "'engine.bag_fraction' must be a finite number"),
    ("manifest.json", ("engine", "min_support_fraction"), "0.2", "explain",
     "'engine.min_support_fraction' must be a finite number"),
    ("manifest.json", ("engine", "quantiles"), ["0.5"], "evaluate", "'engine.quantiles[0]' must be a finite number"),
    ("manifest.json", ("out",), 5, "explain", "'out' must be a string, got 5"),
    ("manifest.json", ("name",), 5, "evaluate", "'name' must be a string, got 5"),
    ("manifest.json", ("preprocess", "method"), 1, "explain", "'preprocess.method' must be a string"),
    ("model.json", ("l2",), True, "explain", "bad logistic model spec: 'l2' must be a finite number, got True"),
    ("model.json", ("l2",), float("nan"), "explain", "'l2' must be a finite number, got nan"),
    ("model.json", ("l2",), "0.5", "evaluate", "'l2' must be a finite number, got '0.5'"),
    ("ridge.json", ("lambda",), True, "explain ridge", "bad ridge model spec: 'lambda' must be a finite number"),
    ("synth.json", ("seed",), 1.9, "synth", "bad synthetic config: 'seed' must be an integer, got 1.9"),
    ("synth.json", ("classes", 0, "label"), True, "synth", "'classes[0].label' must be an integer, got True"),
    ("synth.json", ("classes", 1, "name"), 5, "synth", "'classes[1].name' must be a string, got 5"),
    ("synth.json", ("classes", 0, "n_samples"), "3", "synth", "'classes[0].n_samples' must be an integer, got '3'"),
    ("synth.json", ("axis_range",), ["1", 600], "synth", "'axis_range[0]' must be a finite number, got '1'"),
    ("synth.json", ("axis_range",), [1.0, 20.0, 40.0], "synth", "'axis_range' must be a list of 2 finite numbers"),
    ("synth.json", ("classes", 1, "peaks", 1, "center"), "30", "synth",
     "'classes[1].peaks[1].center' must be a finite number"),
]


@pytest.mark.parametrize("name, path, value, command, message", PINNED, ids=[f"{p[0]}-{'.'.join(map(str, p[1]))}-{p[2]!r}" for p in PINNED])
def test_pinned_value_exit_2(tmp_path, data, capsys, name, path, value, command, message):
    err = _assert_refused(tmp_path, data, capsys, name, path, value, command)
    assert message in err
