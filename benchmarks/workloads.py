"""Benchmark inputs, the three workloads and the checks on their outputs.

Every workload starts from ``synthgen.benchmark_config(seed)``: a 0.7
Kennard-Stone split, mean-centring fitted on the training part and the
built-in logistic model fitted at CLI defaults. The workloads differ
in the zones, engine flags and model they hand to ``smx explain`` and
``smx evaluate``:

- ``paper``: the benchmark zones at CLI defaults (the paper's run and
  the README walkthrough); evaluate at CLI defaults.
- ``external``: the same logistic served by ``model_server.py`` over
  smx's JSON protocol, explained with ``--seeds 1``; evaluate runs the
  PFI baseline once (``--methods pfi --pfi-repeats 1
  --stability-runs 0``), because the default study would make ~51,000
  external calls.
- ``many-zones``: 30 equal-width zones and quantiles 0.1..0.9 (540
  predicates); evaluate runs the same one-repeat PFI baseline.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from smx import dataio, models, synthgen

PAPER, EXTERNAL, MANY_ZONES = "paper", "external", "many-zones"

PLANTED_ORDER = ["Feature 1", "Feature 2", "Feature 3"]
STRONGEST_PEAK = 150.0  # centre of the most discriminative synthetic peak
MANY_ZONE_COUNT = 30
MANY_QUANTILES = ",".join(f"0.{k}" for k in range(1, 10))
PFI_ONCE = ("--methods", "pfi", "--pfi-repeats", "1", "--stability-runs", "0")
STATS_DIR = "server_stats"  # where model_server.py reports when it exits


@dataclass(frozen=True)
class Op:
    kind: str  # "explain" or "evaluate"
    args: tuple[str, ...]  # smx CLI arguments, without --out

    def argv(self, out: Path) -> list[str]:
        return [*self.args, "--out", str(out)]


@dataclass
class Inputs:
    """Files written by set-up, plus the facts the checks need."""

    root: Path
    n_features: int
    peak_zone: str  # many-zones zone that holds the strongest peak
    logistic_converged: bool
    logistic_iters: int

    def path(self, name: str) -> str:
        return str(self.root / name)

    @property
    def stats_dir(self) -> Path:
        return self.root / STATS_DIR


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _zone_payload(zones: dataio.ZoneConfig) -> list[dict]:
    return [
        {"name": z.name, "start": z.start, "end": z.end, "plausible": z.plausible}
        for z in zones.zones
    ]


def many_zones(axis) -> list[dict]:
    """Equal-width zones over the axis; a zone is plausible when it holds a peak centre."""
    width = len(axis) // MANY_ZONE_COUNT
    zones = []
    for k in range(MANY_ZONE_COUNT):
        start, end = float(axis[k * width]), float(axis[(k + 1) * width - 1])
        plausible = any(start <= c <= end for c in (STRONGEST_PEAK, 300.0, 500.0))
        zones.append({"name": f"Z{k + 1:02d}", "start": start, "end": end, "plausible": plausible})
    return zones


def setup(root: Path, seed: int, server_script: Path) -> Inputs:
    """Synthesise, split, preprocess, fit the logistic, write every input
    and start the external model once for its ``info`` handshake."""
    root.mkdir(parents=True, exist_ok=True)
    ds = synthgen.generate(synthgen.benchmark_config(seed))
    train, test = dataio.kennard_stone_split(ds, 0.7)
    state = dataio.fit_preprocess(train, "mean_center")
    train = dataio.apply_preprocess(state, train)
    test = dataio.apply_preprocess(state, test)
    model = models.fit_logistic(train)

    dataio.save_csv(train, root / "train.csv")
    dataio.save_csv(test, root / "test.csv")
    models.save_model(model, root / "model.json")
    _write_json(root / "zones.json", _zone_payload(synthgen.benchmark_zones()))
    zones_many = many_zones(train.axis)
    _write_json(root / "zones_many.json", zones_many)
    stats_dir = root / STATS_DIR
    stats_dir.mkdir(exist_ok=True)
    external = {
        "kind": "external",
        "argv": [sys.executable, str(server_script), str(root / "model.json"), str(stats_dir)],
    }
    _write_json(root / "external.json", external)
    for name, zones, spec in (
        (PAPER, "zones.json", "model.json"),
        (EXTERNAL, "zones.json", "external.json"),
        (MANY_ZONES, "zones_many.json", "model.json"),
    ):
        _write_json(
            root / f"manifest_{name}.json",
            {"name": name, "train": "train.csv", "test": "test.csv", "zones": zones, "model": spec},
        )
    with models.load_model(external):
        pass

    peak_zone = next(z["name"] for z in zones_many if z["start"] <= STRONGEST_PEAK <= z["end"])
    return Inputs(
        root=root,
        n_features=train.intensities.shape[1],
        peak_zone=peak_zone,
        logistic_converged=bool(model.converged),
        logistic_iters=int(model.n_iters),
    )


def explain_op(inp: Inputs, workload: str) -> Op:
    common = ("explain", "--train", inp.path("train.csv"))
    if workload == PAPER:
        return Op("explain", (*common, "--zones", inp.path("zones.json"), "--model", inp.path("model.json")))
    if workload == EXTERNAL:
        return Op(
            "explain",
            (*common, "--zones", inp.path("zones.json"), "--model", inp.path("external.json"), "--seeds", "1"),
        )
    return Op(
        "explain",
        (*common, "--zones", inp.path("zones_many.json"), "--model", inp.path("model.json"),
         "--quantiles", MANY_QUANTILES),
    )


def evaluate_op(inp: Inputs, workload: str) -> Op:
    args = ("evaluate", "--manifest", inp.path(f"manifest_{workload}.json"))
    return Op("evaluate", args if workload == PAPER else args + PFI_ONCE)


def reference_ops(inp: Inputs) -> tuple[Op, Op]:
    """The external workload's explain and evaluate with the in-process
    logistic instead of the server: their rankings must match."""
    explain = explain_op(inp, EXTERNAL)
    args = list(explain.args)
    args[args.index("--model") + 1] = inp.path("model.json")
    evaluate = Op("evaluate", ("evaluate", "--manifest", inp.path(f"manifest_{PAPER}.json"), *PFI_ONCE))
    return Op("explain", tuple(args)), evaluate


def cycle(inp: Inputs, workload: str) -> list[Op]:
    """One round of a workload's ops; short ops repeat so each round
    yields several samples of them."""
    explain, evaluate = explain_op(inp, workload), evaluate_op(inp, workload)
    if workload == PAPER:
        return [explain] * 5 + [evaluate]
    if workload == EXTERNAL:
        return [explain, evaluate]
    return [explain] + [evaluate] * 5


def trace_round(inp: Inputs, workload: str) -> tuple[list[Op], list[Op]]:
    """(untraced, traced) ops of one round of a traced run. The external
    evaluate (~15 s) is not rerun untraced, which keeps a traced run far
    from its time limit when the host is slow."""
    explain, evaluate = explain_op(inp, workload), evaluate_op(inp, workload)
    untraced = [explain] if workload == EXTERNAL else [explain, evaluate]
    return untraced, [explain, evaluate]


# ---------------------------------------------------------------------------
# output checks


def ranked_zones(out: Path) -> list[str]:
    with open(out / "zone_ranking.csv", newline="") as fh:
        return [row["zone"] for row in csv.DictReader(fh) if row["status"] == "ranked"]


def predicate_order(out: Path) -> list[str]:
    with open(out / "predicate_ranking.csv", newline="") as fh:
        return [row["predicate"] for row in csv.DictReader(fh)]


def _report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())["datasets"][0]


def pfi_zone_ranking(out: Path) -> list[str]:
    ranking = _report(out)["methods"]["pfi"]["zone_ranking"]
    return [entry["zone"] for entry in ranking if entry["ranked"]]


def check_explain(out: Path, workload: str, inp: Inputs, reference: list[str] | None) -> list[str]:
    errors = []
    zones = ranked_zones(out)
    if workload == MANY_ZONES:
        if zones[:1] != [inp.peak_zone]:
            errors.append(f"top zone {zones[:1]} is not {inp.peak_zone}, which holds the {STRONGEST_PEAK:g} peak")
    elif zones[:3] != PLANTED_ORDER:
        errors.append(f"top zones {zones[:3]} differ from the planted order {PLANTED_ORDER}")
    if reference is not None and predicate_order(out) != reference:
        errors.append("predicate ranking differs from the in-process ranking on the same data")
    return errors


def check_evaluate(out: Path, workload: str, reference: list[str] | None) -> list[str]:
    errors = []
    data = _report(out)
    for name, section in data["methods"].items():
        curve = section["faithfulness"]
        if len(curve["y"]) != data["depth"]:
            errors.append(f"{name} faithfulness curve has {len(curve['y'])} points, depth is {data['depth']}")
    if workload == PAPER:
        smx = data["methods"]["smx"]
        zones = [entry["zone"] for entry in smx["zone_ranking"] if entry["ranked"]]
        if zones[:3] != PLANTED_ORDER:
            errors.append(f"smx top zones {zones[:3]} differ from the planted order {PLANTED_ORDER}")
        for name, section in data["methods"].items():
            if len(section["stability"]["instabilities"]) != 45:
                errors.append(f"{name} stability study does not hold 45 seed pairs")
    if reference is not None and pfi_zone_ranking(out) != reference:
        errors.append("PFI zone ranking differs from the in-process ranking on the same data")
    return errors
