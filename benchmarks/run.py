"""Benchmark of ``smx explain`` and ``smx evaluate``.

Run from the repository root:

    python3 benchmarks/run.py --workload paper --seed 42 --seconds 20 --trace 0

Workloads are ``paper``, ``external`` and ``many-zones`` (see
``workloads.py``). The benchmark imports smx from ``src/`` and runs
every op in-process through ``smx.cli.main``. Set-up is repeated and
its median reported. With ``--trace 0`` it repeats the workload's round
of ops for ``--seconds`` and reports the end-to-end metrics of
``BENCHMARK.json``: medians of op times, scaled to a reference host
speed by probes run next to each op (see ``HostSpeed``); with
``--trace 1`` it repeats rounds of one explain and one evaluate, run
untraced and then traced (``workloads.trace_round``; spans around
smx's layers, see ``spans.py``), and reports the per-layer metrics. Every op's output
is checked; the last line printed is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Spans of
traced runs are written to ``.benchwork/spans-<workload>-seed<seed>.json``.

Thread counts are pinned before numpy loads: one smx worker and one
BLAS thread, in this process and in the model server it starts.
``NOTES.md`` gives the reasons behind the workloads and metrics.
"""

import os

PINNED_THREADS = {
    "SMX_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".benchwork"
GIVEN_CPUS = os.sched_getaffinity(0)
SETUP_REPEATS = 3
PARALLEL_PAIRS = 3
# HostSpeed.probe time on the 2-CPU sandbox the benchmark was written on,
# in its fast phases; times are reported at this host speed (NOTES.md).
PROBE_REFERENCE_S = 0.009
_PROBE_X = np.linspace(-1.0, 1.0, 73 * 300).reshape(73, 300)
_PROBE_W = np.linspace(0.5, 1.5, 300)


class HostSpeed:
    """Probes of how fast the CPU running the benchmark is, taken before
    and after every op. Times are scaled by ``PROBE_REFERENCE_S`` over
    the run's median probe: seconds at the host speed the constant
    stands for."""

    def __init__(self):
        self.probes: list[float] = []

    def probe(self) -> None:
        """Time a fixed mix of dictionary updates and small matrix products."""
        start = time.perf_counter()
        acc: dict = {}
        for i in range(50_000):
            acc[i % 97] = acc.get(i % 97, 0) + i * i
        for _ in range(500):
            float((_PROBE_X @ _PROBE_W).sum())
        self.probes.append(time.perf_counter() - start)

    def timed(self, fn, *args):
        """(result, start, end) of ``fn(*args)``, between two probes."""
        self.probe()
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        self.probe()
        return result, start, end

    def scale(self) -> float:
        return PROBE_REFERENCE_S / statistics.median(self.probes)


def _load_smx():
    """Import smx from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "smx" / "__init__.py").is_file():
        raise SystemExit(f"error: no smx sources under {SRC}")
    sys.path.insert(0, str(SRC))
    smx = importlib.import_module("smx")
    if Path(smx.__file__).resolve().parent != SRC / "smx":
        raise SystemExit(f"error: imported smx from {smx.__file__}, not from {SRC}")
    return importlib.import_module("smx.cli"), importlib.import_module("smx.models")


class ModelCounter:
    """Counts model calls and rows at the model boundary, and closes
    every model an op loaded (the CLI leaves external models running)."""

    def __init__(self, models):
        self._load = models.load_model
        self.loaded: list = []
        self.calls = 0
        self.rows = 0
        models.load_model = self._load_and_count

    def _load_and_count(self, spec):
        model = self._load(spec)
        self.loaded.append(model)
        for name in ("predict", "predict_proba"):
            if hasattr(model, name):
                setattr(model, name, self._counting(getattr(model, name)))
        return model

    def _counting(self, method):
        def call(X):
            out = method(X)
            self.calls += 1
            self.rows += len(out)
            return out

        return call

    def start_op(self) -> None:
        self.calls = self.rows = 0

    def close_loaded(self) -> None:
        for model in self.loaded:
            close = getattr(model, "close", None)
            if close is not None:
                close()
        self.loaded.clear()


def snapshot(out: Path) -> tuple[str, int, int]:
    """(SHA-256 over relative paths and bytes, file count, total bytes)."""
    h = hashlib.sha256()
    files = total = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(str(path.relative_to(out)).encode() + b"\0" + data)
        files += 1
        total += len(data)
    return h.hexdigest(), files, total


class Runner:
    """Runs and checks ops, keeping one record per op."""

    def __init__(self, cli, counter: ModelCounter, speed: HostSpeed, wl, inp):
        self.cli = cli
        self.counter = counter
        self.speed = speed
        self.wl = wl
        self.inp = inp
        self.out = inp.root / "out"
        self.records: list[dict] = []
        self.first: dict = {}  # op -> its first record
        self.references: dict = {}  # op -> ranking its output must reproduce

    def run(self, op, workload: str, tracer=None) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        for path in self.inp.stats_dir.glob("server-*.json"):
            path.unlink()
        gc.collect()
        self.counter.start_op()
        span = tracer.span(f"cli.{op.kind}") if tracer else contextlib.nullcontext()

        def call() -> list[str]:
            try:
                with span:
                    rc = self.cli.main(op.argv(self.out))
            except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
                return [f"raised {type(exc).__name__}: {exc}"]
            return [] if rc == 0 else [f"exited with code {rc}"]

        errors, start, end = self.speed.timed(call)
        self.counter.close_loaded()
        record = {"op": op, "start": start, "end": end, "calls": self.counter.calls, "rows": self.counter.rows}
        record["server"] = self._server_stats()
        if not errors:
            try:
                errors = self._check(op, workload, record)
            except (OSError, LookupError, ValueError, TypeError) as exc:
                errors = [f"could not read its artifacts: {type(exc).__name__}: {exc}"]
        record["errors"] = errors
        self.records.append(record)
        print(f"{op.kind:8s} {workload:10s} {end - start:9.4f} s{'  traced' if tracer else ''}", flush=True)
        for message in errors:
            print(f"FAILED {op.kind} ({workload}): {message}", file=sys.stderr)
        return record

    def _server_stats(self) -> dict:
        stats = {"requests": 0, "request_bytes": 0, "reply_bytes": 0, "busy_s": 0.0}
        for path in self.inp.stats_dir.glob("server-*.json"):
            for key, value in json.loads(path.read_text()).items():
                if key in stats:
                    stats[key] += value
        return stats

    def _check(self, op, workload: str, record: dict) -> list[str]:
        wl = self.wl
        reference = self.references.get(op)
        if op.kind == "explain":
            errors = wl.check_explain(self.out, workload, self.inp, reference)
        else:
            errors = wl.check_evaluate(self.out, workload, reference)
        record["digest"], record["files"], record["bytes"] = snapshot(self.out)
        first = self.first.setdefault(op, record)
        if record["digest"] != first["digest"]:
            errors.append("artifacts differ from the first run of the same op")
        if (record["calls"], record["rows"]) != (first["calls"], first["rows"]):
            errors.append(
                f"model calls/rows {record['calls']}/{record['rows']} differ from "
                f"{first['calls']}/{first['rows']} in the first run of the same op"
            )
        return errors

    def set_references(self) -> None:
        """External ops must rank as the same ops with the in-process logistic."""
        wl = self.wl
        ref_explain, ref_evaluate = wl.reference_ops(self.inp)
        # a failed reference leaves an empty ranking, which no external op matches
        for ref, op, ranking in (
            (ref_explain, wl.explain_op(self.inp, wl.EXTERNAL), wl.predicate_order),
            (ref_evaluate, wl.evaluate_op(self.inp, wl.EXTERNAL), wl.pfi_zone_ranking),
        ):
            self.references[op] = [] if self.run(ref, wl.EXTERNAL)["errors"] else ranking(self.out)


def _median_scaled(runner: Runner, records: list[dict], label: str) -> float:
    wall = statistics.median(r["end"] - r["start"] for r in records)
    scaled = wall * runner.speed.scale()
    print(f"{label}: median {scaled:.4f} s scaled, {wall:.4f} s wall, over {len(records)} ops")
    return scaled


def gated(runner: Runner, workload: str, seconds: float) -> dict:
    wl = runner.wl
    ops = wl.cycle(runner.inp, workload)
    done: list[dict] = []
    deadline = time.perf_counter() + seconds
    while not done or time.perf_counter() < deadline:
        done.extend(runner.run(op, workload) for op in ops)
    explains = [r for r in done if r["op"].kind == "explain"]
    return {
        "explain_s": _median_scaled(runner, explains, "explain"),
        "evaluate_s": _median_scaled(runner, [r for r in done if r["op"].kind == "evaluate"], "evaluate"),
        "model_calls": explains[0]["calls"],
        "model_rows": explains[0]["rows"],
    }


def traced(runner: Runner, workload: str, seconds: float, spans_out: Path) -> dict:
    spans = importlib.import_module("spans")
    wl = runner.wl
    untraced_ops, traced_ops = wl.trace_round(runner.inp, workload)
    rounds, untraced_s, traced_s, all_spans = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        untraced_s.append([runner.run(op, workload) for op in untraced_ops][0])
        tracer = spans.Tracer()
        with spans.layer_spans(tracer):
            records = [runner.run(op, workload, tracer) for op in traced_ops]
        traced_s.append(records[0])
        server = {key: sum(r["server"][key] for r in records) for key in records[0]["server"]}
        metrics = spans.layer_metrics(tracer.spans, runner.inp.n_features, server)
        metrics["cli.files_written"] = sum(r.get("files", 0) for r in records)
        metrics["cli.bytes_written"] = sum(r.get("bytes", 0) for r in records)
        rounds.append(metrics)
        all_spans.append(tracer.spans)
    metrics = spans.median_metrics(rounds)
    metrics["parallel.default_over_serial"] = default_over_serial(runner)
    metrics["trace.overhead"] = (
        _median_scaled(runner, traced_s, "traced explain") / _median_scaled(runner, untraced_s, "untraced explain") - 1.0
    )
    spans_out.write_text(json.dumps({"rounds": all_spans}) + "\n")
    return metrics


def default_over_serial(runner: Runner) -> float:
    """Paper explain with SMX_THREADS unset over the same with SMX_THREADS=1,
    both on every CPU the benchmark was given."""
    wl = runner.wl
    op = wl.explain_op(runner.inp, wl.PAPER)
    default, serial = [], []
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, GIVEN_CPUS)
    try:
        for _ in range(PARALLEL_PAIRS):
            del os.environ["SMX_THREADS"]
            default.append(runner.run(op, wl.PAPER))
            os.environ["SMX_THREADS"] = PINNED_THREADS["SMX_THREADS"]
            serial.append(runner.run(op, wl.PAPER))
    finally:
        os.environ["SMX_THREADS"] = PINNED_THREADS["SMX_THREADS"]
        os.sched_setaffinity(0, pinned)
    return _median_scaled(runner, default, "default threads") / _median_scaled(runner, serial, "one thread")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The sandbox's two CPUs slow down independently of each other (see
    # NOTES.md), so ops, probes and the model server share one CPU.
    os.sched_setaffinity(0, {min(GIVEN_CPUS)})
    cli, models = _load_smx()
    wl = importlib.import_module("workloads")
    seed = args.seed % 2**32  # synthgen seeds must be non-negative
    work = WORK / f"{args.workload}-seed{seed}-{os.getpid()}"
    server = HERE / "model_server.py"
    counter = None
    try:
        speed = HostSpeed()
        setups = []
        for _ in range(SETUP_REPEATS):
            inp, start, end = speed.timed(wl.setup, work, seed, server)
            setups.append({"start": start, "end": end})
        print(
            f"set-up: logistic converged={inp.logistic_converged} after {inp.logistic_iters} "
            "iterations (stopping at max_iters is expected at this commit)"
        )
        counter = ModelCounter(models)
        runner = Runner(cli, counter, speed, wl, inp)
        if args.workload == wl.EXTERNAL:
            runner.set_references()
        if args.trace:
            spans_out = WORK / f"spans-{args.workload}-seed{seed}.json"
            values = traced(runner, args.workload, args.seconds, spans_out)
            wanted = spec["per_layer"]
        else:
            values = gated(runner, args.workload, args.seconds)
            values["setup_s"] = _median_scaled(runner, setups, "set-up")
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            wanted = spec["end_to_end"] + [{"name": "error_rate", "unit": "ratio", "report_only": True}]
    finally:
        if counter is not None:
            counter.close_loaded()
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(runner.records)
    failed = sum(1 for r in runner.records if r["errors"])
    values["error_rate"] = failed / attempted
    print(f"{failed} of {attempted} ops failed")
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        print(f"{name:32s} {values[name]:.6g} {unit}")
        if not metric.get("report_only"):
            metrics[name] = {"value": values[name], "unit": unit}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
