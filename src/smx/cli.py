"""Command-line surface: synth, split, preprocess, train, explain,
evaluate and threshold-spectrum.

``explain`` writes into ``--out`` the predicate and zone rankings, the
zone models, one DOT and one JSON graph per seed, the bag trace and one
``threshold_spectra.csv`` table holding every predicate's threshold
spectrum, a row per (predicate, zone channel).

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
import re
import shutil
import sys
from pathlib import Path

import numpy as np

from . import dataio, evalkit, graphx, models, pipeline, synthgen, zonecore
from .dataio import _fmt
from .engine import EngineConfig, trace_lines
from .errors import ConfigError, FormatError, PipelineError, SmxError


def _write_files(outputs) -> None:
    """Write each (path, text) to a temp sibling, then rename them all into
    place, so a failed write leaves none of the new files behind."""
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


@contextlib.contextmanager
def _replacing_dir(out: Path):
    """Yield a fresh hidden sibling of ``out`` to write into. On success it
    replaces ``out`` whole: the old directory is renamed aside, the new one
    renamed in (or the old one back if that fails), then the old one is
    removed. On any failure the sibling is removed and ``out`` is untouched."""
    target = Path(os.path.realpath(out))
    stage, old = (target.with_name(f".{target.name}.{tag}-{os.getpid()}") for tag in ("tmp", "old"))
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        stage.mkdir()
        yield stage
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


# What explain and evaluate write, as paths relative to --out. Explain also
# owns threshold_spectra/predicate_NNN.csv, the one-file-per-predicate
# layout of earlier versions, so that a rerun replaces such an --out.
_EXPLAIN_OWNS = re.compile(
    r"predicate_ranking\.csv|zone_ranking\.csv|zone_models\.json|bag_trace\.jsonl"
    r"|graph_seed_\d+\.(dot|json)|threshold_spectra(\.csv|/predicate_\d+\.csv)?"
)
_EVALUATE_OWNS = re.compile(r"report\.json|curves(/[^/]+\.csv)?")


def _check_out_dir(out: Path, owns: re.Pattern) -> None:
    """Refuse an ``--out`` that cannot be a directory, or that holds anything
    ``owns`` does not match: a run replaces it whole. Runs before any load."""
    existing = next(p for p in (out, *out.absolute().parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"cannot write output directory {out}: {existing} is not a directory")
    foreign = sorted(p.relative_to(out).as_posix() for p in out.rglob("*"))
    foreign = [rel for rel in foreign if not owns.fullmatch(rel)]
    if foreign:
        raise ConfigError(f"{out} holds {foreign[0]!r}, which this command does not write; use a new or empty --out")


def _parse_list(text: str, cast, what: str) -> list:
    try:
        return [cast(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated {what}, got {text!r}") from exc


# ---------------------------------------------------------------------------
# manifest handling

class _Manifest(dict):
    """A manifest's entries. Relative file entries resolve against ``base``,
    the manifest's directory, except those of ``flag_keys``, set by flags."""

    base: Path | None = None
    flag_keys: frozenset[str] = frozenset()

    def resolve(self, key: str, value) -> Path:
        path = Path(str(value))
        if self.base is not None and key not in self.flag_keys and not path.is_absolute():
            path = self.base / path
        return path


def _load_manifest(args) -> _Manifest:
    """Merge an optional manifest file with direct flags (flags win)."""
    manifest = _Manifest()
    if getattr(args, "manifest", None):
        mpath = Path(args.manifest)
        if not mpath.exists():
            raise ConfigError(f"manifest not found: {mpath}")
        try:
            entries = json.loads(mpath.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{mpath}: invalid JSON ({exc})") from exc
        if not isinstance(entries, dict):
            raise ConfigError(f"{mpath}: manifest must be a JSON object, got {entries!r}")
        manifest = _Manifest(entries)
        manifest.base = mpath.parent
    for key in ("train", "test", "zones", "model", "out"):
        flag = getattr(args, key, None)
        if flag is not None:
            manifest[key] = flag
            manifest.flag_keys |= {key}
    if getattr(args, "preprocess", None):
        manifest["preprocess"] = {
            "method": args.preprocess,
            "window": args.window,
            "order": args.order,
        }
    pre = manifest.get("preprocess")
    if pre is not None and not isinstance(pre, dict):
        raise ConfigError(f"manifest preprocess must be a JSON object, got {pre!r}")
    if pre and "method" not in pre:
        raise ConfigError("manifest preprocess lacks its 'method' key")
    engine = manifest.get("engine", {})
    if not isinstance(engine, dict):
        raise ConfigError(f"manifest engine must be a JSON object, got {engine!r}")
    engine = dict(engine)
    for flag, key in (
        ("bags", "bags"),
        ("bag_fraction", "bag_fraction"),
        ("min_support", "min_support_fraction"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            engine[key] = value
    if getattr(args, "quantiles", None) is not None:
        engine["quantiles"] = _parse_list(args.quantiles, float, "numbers")
    if getattr(args, "seeds", None) is not None:
        engine["seeds"] = _parse_list(args.seeds, int, "integers")
    manifest["engine"] = engine
    return manifest


def _integer(value) -> int:
    """``int(value)``, refusing what it would round or reinterpret: JSON
    booleans and non-integral numbers."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("expected an integer")
    return int(value)


def _list_of(cast):
    def parse(values):
        if not isinstance(values, list):
            raise TypeError("expected a JSON list")
        return tuple(cast(v) for v in values)

    return parse


_ENGINE_KEYS = {
    "bags": _integer,
    "bag_fraction": float,
    "min_support_fraction": float,
    "quantiles": _list_of(float),
    "seeds": _list_of(_integer),
}


def _cast(section: str, key: str, cast, value):
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {section} value {key}={value!r}: {exc}") from exc


def _manifest_engine(manifest: _Manifest) -> EngineConfig:
    """EngineConfig from the manifest's engine keys; unset keys keep its defaults."""
    engine = manifest.get("engine", {})
    unknown = sorted(set(engine) - set(_ENGINE_KEYS))
    if unknown:
        raise ConfigError(f"unknown engine key(s) in manifest: {', '.join(unknown)}")
    return EngineConfig(
        **{key: _cast("engine", key, cast, engine[key]) for key, cast in _ENGINE_KEYS.items() if key in engine}
    )


def _manifest_path(manifest: _Manifest, key: str, required: bool = True) -> Path | None:
    value = manifest.get(key)
    if value is None:
        if required:
            raise ConfigError(f"manifest is missing required entry '{key}'")
        return None
    path = manifest.resolve(key, value)
    if not path.exists():
        raise ConfigError(f"{key} file not found: {path}")
    return path


def _load_model_entry(manifest: _Manifest):
    spec = manifest.get("model")
    return models.load_model(spec if isinstance(spec, dict) else _manifest_path(manifest, "model"))


def _load_test(train: dataio.SpectralDataset, path) -> dataio.SpectralDataset:
    """The test set at ``path``, refused unless its axis is the train axis:
    zones resolved on the train axis must mask the same test channels."""
    test = dataio.load_csv(path)
    if not np.array_equal(test.axis, train.axis):
        raise ConfigError(f"{path}: axis differs from the train axis")
    return test


def _load_data(manifest: _Manifest, need_test: bool):
    train = dataio.load_csv(_manifest_path(manifest, "train"))
    test_path = _manifest_path(manifest, "test", required=need_test)
    test = None if test_path is None else _load_test(train, test_path)
    zones = dataio.load_zone_config(_manifest_path(manifest, "zones"))
    pre = manifest.get("preprocess")
    if pre:
        state = dataio.fit_preprocess(
            train,
            pre["method"],
            savgol_window=_cast("preprocess", "window", _integer, pre.get("window", 15)),
            savgol_order=_cast("preprocess", "order", _integer, pre.get("order", 2)),
        )
        train = dataio.apply_preprocess(state, train)
        if test is not None:
            test = dataio.apply_preprocess(state, test)
    return train, test, zones


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
    ds = dataio.load_csv(args.input)
    train, test = dataio.kennard_stone_split(ds, args.train_fraction)
    _write_files([(args.out_train, dataio.dataset_csv_text(train)), (args.out_test, dataio.dataset_csv_text(test))])
    return 0


def cmd_preprocess(args) -> int:
    if args.test and not args.out_test:
        raise ConfigError("--out-test is required when --test is given")
    train = dataio.load_csv(args.train)
    test = _load_test(train, args.test) if args.test else None
    state = dataio.fit_preprocess(
        train, args.method, savgol_window=args.window, savgol_order=args.order
    )
    outputs = [(args.out_train, dataio.dataset_csv_text(dataio.apply_preprocess(state, train)))]
    if test is not None:
        outputs.append((args.out_test, dataio.dataset_csv_text(dataio.apply_preprocess(state, test))))
    if args.state:
        outputs.append((args.state, json.dumps(state.to_dict(), indent=2) + "\n"))
    _write_files(outputs)
    return 0


def cmd_train(args) -> int:
    train = dataio.load_csv(args.train)
    if args.model == "ridge":
        model = models.fit_ridge(train, lam=args.lam)
        extra = ""
    else:
        model = models.fit_logistic(train, l2=args.l2, max_iters=args.max_iters, tol=args.tol)
        extra = f" converged={model.converged} iters={model.n_iters}"
    X = train.intensities
    scores = model.predict(X) if args.model == "ridge" else model.predict_proba(X)[:, 1]
    acc = float(np.mean((scores > 0.5) == train.labels))
    _write_files([(args.out, models.model_json(model))])
    print(f"trained {args.model}: train accuracy {acc:.4f}{extra}")
    return 0


def cmd_explain(args) -> int:
    manifest = _load_manifest(args)
    out_dir = manifest.get("out") or manifest.get("output_dir")
    if out_dir is None:
        raise ConfigError("an output directory is required (--out or manifest output_dir)")
    out = manifest.resolve("out", out_dir)
    _check_out_dir(out, _EXPLAIN_OWNS)
    cfg = _manifest_engine(manifest)
    train, _test, zones = _load_data(manifest, need_test=False)
    model = _load_model_entry(manifest)

    result = pipeline.explain(train, zones, model, cfg)

    with _replacing_dir(out) as stage:
        (stage / "predicate_ranking.csv").write_text(graphx.ranking_csv(result.ranking, result.predicate_set))
        (stage / "zone_ranking.csv").write_text(graphx.zone_ranking_csv(result.zone_order))
        (stage / "zone_models.json").write_text(zonecore.zone_models_to_json(result.zone_models))
        trace: list[str] = []
        for seed, graph in zip(cfg.seeds, result.graphs):
            (stage / f"graph_seed_{seed}.dot").write_text(graphx.to_dot(graph, result.predicate_set))
            (stage / f"graph_seed_{seed}.json").write_text(graphx.to_json(graph, result.predicate_set))
            trace.extend(trace_lines(seed, result.bag_results[seed], result.predicate_set))
        (stage / "bag_trace.jsonl").write_text("\n".join(trace + [""]))
        (stage / "threshold_spectra.csv").write_text(
            zonecore.threshold_table_csv(result.predicate_set.predicates, result.zone_models, train.axis)
        )
    return 0


def cmd_threshold_spectrum(args) -> int:
    if not np.isfinite(args.tau):
        raise ConfigError(f"threshold tau must be finite, got {args.tau}")
    manifest = _load_manifest(args)
    train, _test, zones = _load_data(manifest, need_test=False)
    names = zones.names()
    if args.zone not in names:
        raise ConfigError(f"zone '{args.zone}' is not defined in the zone config")
    m = names.index(args.zone)
    idx = dataio.resolve_zones(zones, train)[m]
    model = zonecore.fit_zone(train.intensities[:, idx], zone_name=args.zone, zone_index=m, indices=idx)
    spectrum = zonecore.threshold_spectrum(model, args.tau)
    _write_files([(args.out, zonecore.threshold_spectrum_csv(spectrum, train.axis, model.indices))])
    return 0


# ---------------------------------------------------------------------------
# evaluation harness

_METRIC_KEYS = ("faithfulness_auc", "alignment_auc", "simplicity_auc", "stability_median")


def _curve_dict(curve: evalkit.EvalCurve) -> dict:
    return {"x": curve.x, "y": curve.y, "auc": curve.auc}


def _dataset_name(manifest: dict) -> str:
    """The manifest's ``name``, or its train file's stem when it has none."""
    name = manifest.get("name")
    return str(Path(str(manifest.get("train"))).stem if name is None else name)


def _check_dataset_names(manifests: list[dict]) -> None:
    """Curve files are named after datasets: each name must be a distinct,
    plain file-name part."""
    seen: set[str] = set()
    for manifest in manifests:
        name = _dataset_name(manifest)
        if name in ("", ".", "..") or "/" in name or "\\" in name:
            raise ConfigError(f"dataset name {name!r} cannot name curve files (empty, '.', '..', '/' or '\\')")
        if name in seen:
            raise ConfigError(f"dataset name {name!r} is used by more than one manifest")
        seen.add(name)


def _evaluate_one(manifest: _Manifest, cfg: EngineConfig, methods: list[str], args) -> dict:
    train, test, zones = _load_data(manifest, need_test=True)
    model = _load_model_entry(manifest)
    zone_sets = {
        z.name: idx for z, idx in zip(zones.zones, dataio.resolve_zones(zones, train))
    }
    plausible = zones.plausible_names()

    orders: dict[str, list[tuple[str, bool]]] = {}
    importances: dict[str, np.ndarray] = {}
    if "smx" in methods:
        prepared = pipeline.prepare(train, zones, model, cfg)
        result = pipeline.rank(prepared, cfg)
        orders["smx"], importances["smx"] = result.zone_order, result.ranking.mean_lrc
    if "pfi" in methods:
        imps = evalkit.pfi(model, test.intensities, repeats=args.pfi_repeats, seed=args.pfi_seed)
        orders["pfi"], importances["pfi"] = evalkit.variable_zone_ranking(imps, zone_sets, zones.names()), imps
    rankings = {name: [zone for zone, ranked in order if ranked] for name, order in orders.items()}
    per_method = {
        name: {"zone_ranking": [{"zone": zone, "ranked": ranked} for zone, ranked in order]}
        for name, order in orders.items()
    }

    depth = min(len(r) for r in rankings.values())
    if args.kmax:
        depth = min(depth, args.kmax)
    if depth < 1:
        raise PipelineError("a method produced an empty zone ranking; nothing to evaluate")

    for name in methods:
        section = per_method[name]
        ranked = rankings[name][:depth]
        section["faithfulness"] = _curve_dict(
            evalkit.faithfulness_curve(model, test.intensities, ranked, zone_sets, depth)
        )
        section["alignment"] = _curve_dict(evalkit.agreement_curve(ranked, plausible))
        section["simplicity"] = _curve_dict(evalkit.simplicity_curve(importances[name]))

    def smx_runner(seed: int):
        reruns = dataclasses.replace(cfg, seeds=pipeline.derive_seeds(seed, len(cfg.seeds)))
        return pipeline.rank(prepared, reruns).predicate_labels()

    def pfi_runner(seed: int):
        if seed == args.pfi_seed:
            imps = importances["pfi"]  # the main run above, same seed and repeats
        else:
            imps = evalkit.pfi(model, test.intensities, repeats=args.pfi_repeats, seed=seed)
        return list(np.argsort(-imps, kind="stable"))

    for name, runner in (("smx", smx_runner), ("pfi", pfi_runner)):
        if args.stability_runs >= 2 and name in methods:
            res = evalkit.stability_study(runner, list(range(args.stability_runs)), rho=args.rho, depth=args.depth)
            per_method[name]["stability"] = {"instabilities": res.instabilities, "median": res.median}

    return {"name": _dataset_name(manifest), "depth": depth, "methods": per_method}


def _metric_value(section: dict, metric: str) -> float | None:
    if metric == "stability_median":
        stability = section.get("stability")
        return None if stability is None else stability["median"]
    key = metric.removesuffix("_auc")
    return section[key]["auc"]


def _compare(datasets: list[dict], methods: list[str]) -> list[dict]:
    comparisons = []
    others = [m for m in methods if m != "smx"]
    if "smx" not in methods or not others:
        return comparisons
    for metric in _METRIC_KEYS:
        for other in others:
            diffs = []
            for entry in datasets:
                a = _metric_value(entry["methods"][other], metric)
                b = _metric_value(entry["methods"]["smx"], metric)
                if a is not None and b is not None:
                    diffs.append(a - b)
            if len(diffs) < 4:
                continue  # the exact test needs at least 4 paired values
            row: dict = {
                "metric": metric,
                "pair": f"{other}-smx",
                "n": len(diffs),
                "median_diff": float(np.median(diffs)),
            }
            try:
                test = evalkit.wilcoxon_signed_rank(diffs)
                row["statistic"] = test.statistic
                row["p_value"] = test.p_value
            except (ConfigError, PipelineError) as exc:
                row["note"] = str(exc)
            comparisons.append(row)
    return comparisons


def _check_evaluate_flags(args) -> None:
    """Reject out-of-range evaluate flags before any data or model is loaded."""
    for flag, value, ok, rule in (
        ("--kmax", args.kmax, args.kmax >= 0, ">= 0 (0 = auto)"),
        ("--pfi-repeats", args.pfi_repeats, args.pfi_repeats >= 1, ">= 1"),
        ("--pfi-seed", args.pfi_seed, args.pfi_seed >= 0, ">= 0"),
        ("--depth", args.depth, args.depth >= 1, ">= 1"),
        ("--rho", args.rho, 0.0 < args.rho < 1.0, "in (0, 1)"),
        ("--stability-runs", args.stability_runs, args.stability_runs == 0 or args.stability_runs >= 2,
         "0 (off) or >= 2"),
    ):
        if not ok:
            raise ConfigError(f"{flag} must be {rule}, got {value}")


def cmd_evaluate(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in ("smx", "pfi"):
            raise ConfigError(f"unknown method '{m}' (expected smx and/or pfi)")
    if not methods:
        raise ConfigError("at least one method is required")
    _check_evaluate_flags(args)
    _check_out_dir(Path(args.out), _EVALUATE_OWNS)
    manifests = [_load_manifest(argparse.Namespace(manifest=mpath)) for mpath in args.manifest]
    _check_dataset_names(manifests)
    cfgs = [_manifest_engine(manifest) for manifest in manifests]
    datasets = [_evaluate_one(manifest, cfg, methods, args) for manifest, cfg in zip(manifests, cfgs)]
    report = {
        "methods": methods,
        "datasets": datasets,
        "comparisons": _compare(datasets, methods),
    }
    with _replacing_dir(Path(args.out)) as stage:
        (stage / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        (stage / "curves").mkdir()
        for entry in datasets:
            for method, section in entry["methods"].items():
                for metric in ("faithfulness", "alignment", "simplicity"):
                    curve = section[metric]
                    lines = ["k,value", *(f"{k},{_fmt(v)}" for k, v in zip(curve["x"], curve["y"]))]
                    curve_path = stage / "curves" / f"{entry['name']}__{method}__{metric}.csv"
                    curve_path.write_text("\n".join(lines) + "\n")
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
    p.add_argument("--window", type=int, default=15)
    p.add_argument("--order", type=int, default=2)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="fit a builtin reference model")
    p.add_argument("--train", required=True)
    p.add_argument("--model", required=True, choices=("ridge", "logistic"))
    p.add_argument("--out", required=True)
    p.add_argument("--lam", type=float, default=1.0, help="ridge regularization")
    p.add_argument("--l2", type=float, default=0.01, help="logistic regularization")
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument("--tol", type=float, default=1e-7)
    p.set_defaults(func=cmd_train)

    def add_common(p):
        p.add_argument("--manifest", help="JSON manifest; direct flags override it")
        p.add_argument("--train")
        p.add_argument("--test")
        p.add_argument("--zones")
        p.add_argument("--model")
        p.add_argument("--preprocess", choices=dataio.PREPROCESS_METHODS)
        p.add_argument("--window", type=int, default=15)
        p.add_argument("--order", type=int, default=2)
        p.add_argument("--bags", type=int)
        p.add_argument("--bag-fraction", type=float, dest="bag_fraction")
        p.add_argument("--min-support", type=float, dest="min_support")
        p.add_argument("--quantiles")
        p.add_argument("--seeds")

    p = sub.add_parser("explain", help="run the full explanation pipeline")
    add_common(p)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("evaluate", help="score explanation quality for smx/pfi")
    p.add_argument("--manifest", nargs="+", required=True, help="one or more dataset manifests")
    p.add_argument("--methods", default="smx,pfi")
    p.add_argument("--out", required=True, help="report output directory")
    p.add_argument("--kmax", type=int, default=0, help="cap the masking depth (0 = auto)")
    p.add_argument("--stability-runs", type=int, default=10, dest="stability_runs")
    p.add_argument("--rho", type=float, default=0.7)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--pfi-repeats", type=int, default=10, dest="pfi_repeats")
    p.add_argument("--pfi-seed", type=int, default=0, dest="pfi_seed")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("threshold-spectrum", help="back-project one score threshold")
    add_common(p)
    p.add_argument("--zone", required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_threshold_spectrum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SmxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, FormatError)) else 1


if __name__ == "__main__":
    sys.exit(main())
