"""Regenerate ``tests/reference_artifacts.json``, the recorded outputs that
``test_reference.py`` compares every run of smx against.

Usage: python tests/make_reference.py

The reference is made from the README walkthrough's seed-42 inputs
(``smx synth``, a 0.7 Kennard-Stone split, mean-centring and the logistic
model at its defaults) and five runs on them:

- ``paper``: explain of the centred train file on the benchmark zones;
- ``many_zones``: explain on 30 equal-width zones, quantiles 0.1..0.9;
- ``walkthrough``: explain of the raw train file with ``--preprocess
  mean_center``;
- ``report``: ``evaluate --pfi-repeats 1 --stability-runs 0``;
- ``report_default``: ``evaluate`` at its default flags (10 PFI repeats,
  10 stability runs), the path every permutation and stability rerun
  takes.

It records the SHA-256 of every file the commands write, each explain's
zone order and predicate order, and the numpy and scipy versions. The
commands run in a fresh interpreter with ``OPENBLAS_NUM_THREADS=1`` set
before numpy loads, because BLAS results can move by a ULP with the BLAS
thread count. A change that moves any output regenerates the file in the
same commit.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference_artifacts.json")
SRC = Path(__file__).resolve().parent.parent / "src"
EXPLAINS = ("paper", "many_zones", "walkthrough")
MANY_ZONE_COUNT = 30
STRONGEST_PEAKS = (150.0, 300.0, 500.0)  # synthgen.benchmark_config's peak centres


def _many_zones(axis) -> list[dict]:
    """Equal-width zones over the axis; plausible when one holds a peak centre."""
    width = len(axis) // MANY_ZONE_COUNT
    zones = []
    for k in range(MANY_ZONE_COUNT):
        start, end = float(axis[k * width]), float(axis[(k + 1) * width - 1])
        plausible = any(start <= c <= end for c in STRONGEST_PEAKS)
        zones.append({"name": f"Z{k + 1:02d}", "start": start, "end": end, "plausible": plausible})
    return zones


def _column(path: Path, name: str) -> list[str]:
    with open(path, newline="") as fh:
        return [row[name] for row in csv.DictReader(fh)]


def generate(work: Path) -> dict:
    """Run the reference commands in ``work`` (this interpreter) and return
    ``{"versions", "digests", "orders"}``."""
    from smx import cli, dataio

    def smx(*argv: str) -> None:
        with contextlib.redirect_stdout(sys.stderr):  # train's summary line
            code = cli.main([*argv])
        if code:
            raise RuntimeError(f"smx {' '.join(argv)} exited {code}")

    cwd = os.getcwd()
    os.chdir(work)
    try:
        smx("synth", "--out", "synthetic.csv", "--zones-out", "zones.json")
        smx("split", "--input", "synthetic.csv", "--train-fraction", "0.7",
            "--out-train", "train_raw.csv", "--out-test", "test_raw.csv")
        smx("preprocess", "--method", "mean_center", "--train", "train_raw.csv", "--out-train", "train.csv",
            "--test", "test_raw.csv", "--out-test", "test.csv")
        smx("train", "--train", "train.csv", "--model", "logistic", "--out", "model.json")
        Path("zones_many.json").write_text(json.dumps(_many_zones(dataio.load_csv("train.csv").axis), indent=2) + "\n")
        Path("manifest.json").write_text(json.dumps(
            {"name": "synthetic", "train": "train.csv", "test": "test.csv", "zones": "zones.json", "model": "model.json"}
        ) + "\n")
        smx("explain", "--train", "train.csv", "--zones", "zones.json", "--model", "model.json", "--out", "paper")
        smx("explain", "--train", "train.csv", "--zones", "zones_many.json", "--model", "model.json",
            "--quantiles", ",".join(f"0.{k}" for k in range(1, 10)), "--out", "many_zones")
        smx("explain", "--train", "train_raw.csv", "--preprocess", "mean_center", "--zones", "zones.json",
            "--model", "model.json", "--out", "walkthrough")
        smx("evaluate", "--manifest", "manifest.json", "--pfi-repeats", "1", "--stability-runs", "0",
            "--out", "report")
        smx("evaluate", "--manifest", "manifest.json", "--out", "report_default")
    finally:
        os.chdir(cwd)
    files = sorted(p for p in work.rglob("*") if p.is_file())
    return {
        "versions": {name: metadata.version(name) for name in ("numpy", "scipy")},
        "digests": {p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in files},
        "orders": {
            name: {
                "zones": _column(work / name / "zone_ranking.csv", "zone"),
                "predicates": _column(work / name / "predicate_ranking.csv", "predicate"),
            }
            for name in EXPLAINS
        },
    }


def generate_fresh(work: Path) -> dict:
    """``generate(work)`` in a new interpreter with one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, __file__, "--in", str(work)], env=env, capture_output=True, text=True, check=False
    )
    if proc.returncode:
        raise RuntimeError(f"reference run failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--in"]:  # the child of generate_fresh
        print(json.dumps(generate(Path(argv[1]))))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        result = generate_fresh(Path(tmp))
    REFERENCE.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}: {len(result['digests'])} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
