"""Command-line surface: synth, split, preprocess, train, explain and
evaluate.

``explain`` and ``evaluate`` write the files ``artifacts`` spells; evaluate's
protocol, settings and rules are ``evalkit``'s (``EvaluateConfig``).

Exit codes: 0 success, 1 pipeline/model error, 2 usage/config error
(an unwritable output path included). Outputs are published only after
the full computation succeeds. ``explain`` and ``evaluate`` write into a
fresh hidden sibling of ``--out`` that then replaces the whole directory,
so a rerun leaves exactly its own files and a failed run the previous
ones; an ``--out`` holding anything else is refused before any load.
The other commands write every file to a temp sibling, then rename all.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import artifacts, dataio, evalkit, models, pipeline, synthgen
from .engine import EngineConfig
from .errors import ConfigError, FormatError, SmxError


def _write_files(outputs) -> None:
    """Write each (path, text) to a temp sibling, then rename them all into
    place, so a failed write leaves none of the new files behind. Outputs
    naming one file are refused before anything is written."""
    for k, (path, _) in enumerate(outputs):
        if os.path.realpath(path) in [os.path.realpath(earlier) for earlier, _ in outputs[:k]]:
            raise ConfigError(f"cannot write {path}: two outputs of this command name the same file")
    staged: list[tuple[Path, Path]] = []
    try:
        for path, text in outputs:
            path = Path(path)
            tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
            staged.append((tmp, path))
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(text)
        for tmp, path in staged:
            os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        for tmp, _ in staged:
            if tmp.exists():
                tmp.unlink()


def _replace_dir(out: Path, files) -> None:
    """Write ``files``, (path relative to ``out``, text) pairs, into a fresh hidden sibling
    that then replaces ``out`` whole: the old directory is renamed aside, the new one in (the
    old one back if that fails), and the old one removed. On any failure ``out`` is untouched."""
    target = Path(os.path.realpath(out))
    stage, old = (target.with_name(f".{target.name}.{tag}-{os.getpid()}") for tag in ("tmp", "old"))
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        stage.mkdir()
        for rel, text in files:
            path = stage / rel
            path.parent.mkdir(exist_ok=True)
            path.write_text(text)
        if target.exists():
            os.rename(target, old)
        try:
            os.rename(stage, target)
        except OSError:
            if old.exists():
                os.rename(old, target)
            raise
        shutil.rmtree(old, ignore_errors=True)
    except OSError as exc:
        raise ConfigError(f"cannot write output directory {out}: {exc.strerror or exc}") from exc
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _check_out_dir(out: Path, owns) -> None:
    """Refuse an ``--out`` that cannot be a directory, or that holds anything
    ``owns`` does not match: a run replaces it whole. Runs before any load."""
    if "\0" in str(out):  # a manifest's string can hold one; no file name can
        raise ConfigError(f"cannot write output directory {str(out)!r}: a path cannot hold a NUL character")
    existing = next(p for p in (out, *out.absolute().parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"cannot write output directory {out}: {existing} is not a directory")
    foreign = sorted(p.relative_to(out).as_posix() for p in out.rglob("*"))
    foreign = [rel for rel in foreign if not owns.fullmatch(rel)]
    if foreign:
        raise ConfigError(f"{out} holds {foreign[0]!r}, which this command does not write; use a new or empty --out")


def _parse_list(text: str, cast, what: str) -> tuple:
    try:
        return tuple(cast(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated {what}, got {text!r}") from exc


# ---------------------------------------------------------------------------
# manifest handling

# Manifest entries naming files; relative ones resolve against the manifest's directory.
_FILE_ENTRIES = ("train", "test", "zones", "model", "out")

# explain's flags besides --manifest: the one manifest entry each replaces when
# given (a file entry, or "section.key" for a key of the preprocess or engine
# object), and its argparse settings. A flag's path resolves against the
# working directory.
_OVERRIDES = {
    "--train": ("train", {"type": Path}),
    "--zones": ("zones", {"type": Path}),
    "--model": ("model", {"type": Path}),
    "--preprocess": ("preprocess.method", {"choices": dataio.PREPROCESS_METHODS}),
    "--window": ("preprocess.window", {"type": int}),
    "--order": ("preprocess.order", {"type": int}),
    "--bags": ("engine.bags", {"type": int}),
    "--bag-fraction": ("engine.bag_fraction", {"type": float}),
    "--min-support": ("engine.min_support_fraction", {"type": float}),
    "--quantiles": ("engine.quantiles", {"type": lambda text: _parse_list(text, float, "numbers")}),
    "--seeds": ("engine.seeds", {"type": lambda text: _parse_list(text, int, "integers")}),
    "--out": ("out", {"type": Path}),
}


# The keys of the manifest's objects and the type each value is read as.
_SECTIONS = {"preprocess": {"method": str, "window": int, "order": int}, "engine": get_type_hints(EngineConfig)}


def _load_manifest(mpath, required, args=None) -> dict:
    """The manifest file ``mpath`` (none: an empty manifest), then each
    ``_OVERRIDES`` flag given in ``args`` replaces its one entry. In the
    file, file entries and ``name`` must be strings (``model`` may be a
    spec object), the preprocess and engine objects hold only their
    ``_SECTIONS`` keys, each of its type, and any other key starts with
    ``_``. The preprocess entry comes out as an object, empty if unset, and
    the engine entry as an ``EngineConfig``. Both settings, a model spec
    object and the ``required`` entries are checked before any file is
    read. ``_named`` maps each section to the file a refusal in it names,
    here and in ``_load_data``: the manifest, or none if a flag set it."""
    mpath, where = Path(mpath) if mpath else None, "bad manifest entry"
    manifest = dataio.read_json(mpath, "manifest file") if mpath else {}
    with dataio.naming(mpath):
        if not isinstance(manifest, dict):
            raise ConfigError(f"manifest must be a JSON object, got {manifest!r}")
        known = (*_FILE_ENTRIES, "name", *_SECTIONS)
        unknown = sorted(key for key in manifest if key not in known and not key.startswith("_"))
        if unknown:  # a misspelled section would otherwise drop its settings without a word
            raise ConfigError(f"unknown manifest key(s): {', '.join(unknown)}")
        for key in (*_FILE_ENTRIES, "name"):
            if key in manifest and not (key == "model" and isinstance(manifest[key], dict)):  # a model spec
                value = dataio.json_value(manifest[key], str, where, key, ConfigError)
                manifest[key] = value if key == "name" else mpath.parent / value
        for section, hints in _SECTIONS.items():
            entries = dataio.json_value(manifest.get(section, {}), dict, where, section, ConfigError)
            unknown = sorted(set(entries) - set(hints))
            if unknown:
                raise ConfigError(f"unknown {section} key(s) in manifest: {', '.join(unknown)}")
            manifest[section] = {
                key: dataio.json_value(value, hints[key], where, f"{section}.{key}", ConfigError)
                for key, value in entries.items()
            }
        if isinstance(manifest.get("model"), dict) and not (args and args.model):  # a spec no flag replaces
            models.model_spec(manifest["model"])
    named = manifest["_named"] = dict.fromkeys(_SECTIONS, mpath)
    for entry, _ in _OVERRIDES.values() if args else ():
        section, _, key = entry.rpartition(".")
        if (value := getattr(args, entry)) is not None:
            (manifest[section] if section else manifest)[key] = value
            named[section] = None
    with dataio.naming(named["preprocess"]):
        if manifest["preprocess"]:
            if "method" not in manifest["preprocess"]:
                raise ConfigError("preprocess lacks its 'method' (the manifest's preprocess method or --preprocess)")
            dataio.preprocess_setting(**manifest["preprocess"])
    with dataio.naming(named["engine"]):
        manifest["engine"] = EngineConfig(**manifest["engine"])
    with dataio.naming(mpath):
        for key in required:
            if key not in manifest:
                raise ConfigError(f"manifest is missing required entry '{key}'")
    return manifest


@contextlib.contextmanager
def _loaded_model(manifest: dict):
    """The manifest's model, closed on exit if it is an external one."""
    model = models.load_model(manifest["model"])  # a file path or a spec object
    try:
        yield model
    finally:
        if isinstance(model, models.ExternalModel):
            model.close()


def _load_test(train: dataio.SpectralDataset, path) -> dataio.SpectralDataset:
    """The test set at ``path``, refused unless its axis is the train axis:
    zones resolved on the train axis must mask the same test channels."""
    test = dataio.load_csv(path)
    with dataio.naming(path):
        if not np.array_equal(test.axis, train.axis):
            raise ConfigError("axis differs from the train axis")
    return test


def _load_data(manifest: dict, need_test: bool, ranks: bool):
    """(train, test, zones, state): the data preprocessed by ``state``, the
    preprocessing fitted on train, or as read with no preprocess entry
    (state None). Checked before any model starts: each zone must cover
    enough train channels, and a run that ``ranks`` with smx needs two
    train samples and settings ``pipeline.explain_setting`` accepts."""
    train = dataio.load_csv(manifest["train"])
    if ranks and train.n_samples < 2:
        with dataio.naming(manifest["train"]):
            raise ConfigError(f"ranking needs at least 2 train samples, got {train.n_samples}")
    test = _load_test(train, manifest["test"]) if need_test else None
    zones = dataio.load_zone_config(manifest["zones"])
    with dataio.naming(manifest["zones"]):  # a zone covering too few train channels is the zone config's fault
        dataio.resolve_zones(zones, train)
    named, pre, state = manifest["_named"], manifest["preprocess"], None
    if pre:
        with dataio.naming(named["preprocess"]):
            state = dataio.fit_preprocess(train, **pre)
        train = dataio.apply_preprocess(state, train)
        if test is not None:
            test = dataio.apply_preprocess(state, test)
    if ranks:
        with dataio.naming(named["engine"]):
            pipeline.explain_setting(train, zones, manifest["engine"])
    return train, test, zones, state


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args) -> int:
    cfg = synthgen.load_config(args.config) if args.config else synthgen.benchmark_config()
    outputs = [(args.out, dataio.dataset_csv_text(synthgen.generate(cfg)))]
    if args.zones_out:
        outputs.append((args.zones_out, dataio.zone_config_json(synthgen.benchmark_zones())))
    _write_files(outputs)
    return 0


def cmd_split(args) -> int:
    dataio.split_setting(args.train_fraction)
    ds = dataio.load_csv(args.input)
    with dataio.naming(args.input):  # a class too small to split is the file's fault
        train, test = dataio.kennard_stone_split(ds, args.train_fraction)
    _write_files([(args.out_train, dataio.dataset_csv_text(train)), (args.out_test, dataio.dataset_csv_text(test))])
    return 0


def cmd_preprocess(args) -> int:
    if bool(args.test) != bool(args.out_test):
        raise ConfigError("--test and --out-test go together: give both or neither")
    dataio.preprocess_setting(args.method, args.window, args.order)
    train = dataio.load_csv(args.train)
    test = _load_test(train, args.test) if args.test else None
    state = dataio.fit_preprocess(train, args.method, args.window, args.order)
    outputs = [(args.out_train, dataio.dataset_csv_text(dataio.apply_preprocess(state, train)))]
    if test is not None:
        outputs.append((args.out_test, dataio.dataset_csv_text(dataio.apply_preprocess(state, test))))
    if args.state:
        outputs.append((args.state, json.dumps(state.to_dict(), indent=2) + "\n"))
    _write_files(outputs)
    return 0


def cmd_train(args) -> int:
    ridge = args.model == "ridge"
    own = ("lam",) if ridge else ("l2", "max_iters", "tol")  # keywords of the model's fit function
    params = {key: value for key in ("lam", "l2", "max_iters", "tol") if (value := getattr(args, key)) is not None}
    foreign = [key for key in params if key not in own]
    if foreign:
        raise ConfigError(f"--{foreign[0].replace('_', '-')} does not apply to --model {args.model}")
    models.fit_setting(**params)
    train = dataio.load_csv(args.train)
    with dataio.naming(args.train):  # checked before the fit, which would blame no file
        models.require_both_classes(train)
    model = (models.fit_ridge if ridge else models.fit_logistic)(train, **params)
    extra = "" if ridge else f" converged={model.converged} iters={model.n_iters}"
    X = train.intensities
    scores = model.predict(X) if ridge else model.predict_proba(X)[:, 1]
    acc = float(np.mean((scores > 0.5) == train.labels))
    _write_files([(args.out, models.model_json(model))])
    print(f"trained {args.model}: train accuracy {acc:.4f}{extra}")
    return 0


def cmd_explain(args) -> int:
    manifest = _load_manifest(args.manifest, ("out", "train", "zones", "model"), args)
    _check_out_dir(manifest["out"], artifacts.EXPLAIN_OWNS)
    train, _test, zones, state = _load_data(manifest, need_test=False, ranks=True)
    with _loaded_model(manifest) as model:
        result = pipeline.explain(train, zones, model, manifest["engine"])
    _replace_dir(manifest["out"], artifacts.explain_files(result, train.axis, state))
    return 0


# ---------------------------------------------------------------------------
# evaluation harness

def _dataset_name(manifest: dict) -> str:
    """The manifest's ``name``, or its train file's stem when it has none."""
    return manifest["name"] if "name" in manifest else manifest["train"].stem


def _check_dataset_names(mpaths: list[str], manifests: list[dict]) -> None:
    """Curve files are named after datasets: each name must be a distinct,
    plain file-name part."""
    seen: set[str] = set()
    for mpath, manifest in zip(mpaths, manifests):
        with dataio.naming(Path(mpath)):
            name = _dataset_name(manifest)
            if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
                raise ConfigError(f"dataset name {name!r} cannot name curve files (empty, '.', '..', '/', '\\' or NUL)")
            if name in seen:
                raise ConfigError(f"dataset name {name!r} is used by more than one manifest")
        seen.add(name)


def cmd_evaluate(args) -> int:
    fields = dataclasses.fields(evalkit.EvaluateConfig)  # each is the dest of its flag
    given = {f.name: value for f in fields if (value := getattr(args, f.name)) is not None}
    cfg = evalkit.EvaluateConfig(**given)
    pfi_run = ("pfi" in cfg.methods, "--methods includes pfi")
    study = (cfg.stability_runs != 0, "--stability-runs is not 0")
    for key, (read, when) in (("pfi_repeats", pfi_run), ("pfi_seed", pfi_run), ("rho", study), ("depth", study)):
        if key in given and not read:  # a flag the run would not read
            raise ConfigError(f"--{key.replace('_', '-')} is only read when {when}")
    _check_out_dir(Path(args.out), artifacts.EVALUATE_OWNS)
    manifests = [_load_manifest(mpath, ("train", "test", "zones", "model")) for mpath in args.manifest]
    _check_dataset_names(args.manifest, manifests)
    # read and check every dataset first, so that a later manifest's refusal comes before any evaluation
    loaded = [_load_data(manifest, need_test=True, ranks="smx" in cfg.methods) for manifest in manifests]
    datasets = []
    for manifest, (train, test, zones, _state) in zip(manifests, loaded):
        with _loaded_model(manifest) as model:
            entry = evalkit.evaluate_dataset(train, test, zones, model, manifest["engine"], cfg)
        datasets.append({"name": _dataset_name(manifest), **entry})
    report = {"methods": cfg.methods, "datasets": datasets, "comparisons": evalkit.compare(datasets, cfg.methods)}
    _replace_dir(Path(args.out), artifacts.evaluate_files(report))
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smx",
        description="Zone-based post-hoc explanations for binary spectral classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic benchmark dataset")
    p.add_argument("--config", help="synthetic config JSON (defaults to the built-in benchmark)")
    p.add_argument("--out", required=True, help="output dataset CSV")
    p.add_argument("--zones-out", help="also write the benchmark zone config JSON here")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="per-class Kennard-Stone train/test split")
    p.add_argument("--input", required=True)
    p.add_argument("--train-fraction", type=float, default=0.7)
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("preprocess", help="fit preprocessing on train and apply it")
    p.add_argument("--method", required=True, choices=dataio.PREPROCESS_METHODS)
    p.add_argument("--train", required=True)
    p.add_argument("--out-train", required=True)
    p.add_argument("--test")
    p.add_argument("--out-test")
    p.add_argument("--state", help="write fitted parameters to this JSON file")
    p.add_argument("--window", type=int, help="Savitzky-Golay window (savgol_then_center only)")
    p.add_argument("--order", type=int, help="Savitzky-Golay order (savgol_then_center only)")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="fit a builtin reference model")
    p.add_argument("--train", required=True)
    p.add_argument("--model", required=True, choices=("ridge", "logistic"))
    p.add_argument("--out", required=True)
    p.add_argument("--lam", type=float, help="ridge regularization")
    p.add_argument("--l2", type=float, help="logistic regularization")
    p.add_argument("--max-iters", type=int, help="logistic iteration cap")
    p.add_argument("--tol", type=float, help="logistic gradient-norm tolerance")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("explain", help="run the full explanation pipeline")
    p.add_argument("--manifest", help="JSON manifest; a given flag replaces the one entry it names")
    for flag, (entry, settings) in _OVERRIDES.items():
        metavar = None if "choices" in settings else flag[2:].replace("-", "_").upper()
        p.add_argument(flag, dest=entry, metavar=metavar, help=f"replaces the manifest's {entry}", **settings)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("evaluate", help="score explanation quality for smx/pfi")
    p.add_argument("--manifest", nargs="+", required=True, help="one or more dataset manifests")
    p.add_argument("--methods", type=lambda text: _parse_list(text, str.strip, "method names"))
    p.add_argument("--out", required=True, help="report output directory")
    p.add_argument("--kmax", type=int, help="cap the masking depth (0 = auto)")
    p.add_argument("--stability-runs", type=int, dest="stability_runs")
    p.add_argument("--rho", type=float)
    p.add_argument("--depth", type=int)
    p.add_argument("--pfi-repeats", type=int, dest="pfi_repeats")
    p.add_argument("--pfi-seed", type=int, dest="pfi_seed")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # --quantiles and --seeds raise ConfigError here
        return args.func(args)
    except SmxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, FormatError)) else 1


if __name__ == "__main__":
    sys.exit(main())
