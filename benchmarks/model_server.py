"""Logistic model served over smx's line-delimited JSON protocol.

Usage: python model_server.py MODEL_JSON STATS_DIR

MODEL_JSON is a logistic model saved by ``smx train`` (or
``smx.models.save_model``); the server answers ``info`` and
``predict_proba`` with exactly those weights, using the same stable
sigmoid as the built-in model, so an external explain ranks the same
predicates as an in-process one. When its input ends it writes
``STATS_DIR/server-<pid>.json`` with the requests served, the request
and reply bytes and the seconds spent handling requests (time spent
waiting for the next request is excluded), then exits.
"""

import json
import os
import sys
import time
from pathlib import Path

import numpy as np


def predict_proba(weights: np.ndarray, intercept: float, x: np.ndarray) -> np.ndarray:
    z = x @ weights + intercept
    p1 = np.empty_like(z)
    pos = z >= 0
    p1[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    p1[~pos] = ez / (1.0 + ez)
    return np.column_stack([1.0 - p1, p1])


def handle(request: dict, weights: np.ndarray, intercept: float) -> dict:
    op = request.get("op")
    if op == "info":
        return {"kind": "probabilistic", "n_features": int(weights.size), "n_classes": 2}
    if op == "predict_proba":
        x = np.asarray(request["x"], dtype=float)
        return {"p": predict_proba(weights, intercept, x).tolist()}
    return {"error": f"unsupported op {op!r}"}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    if spec.get("kind") != "logistic":
        print(f"expected a logistic model, got {spec.get('kind')!r}", file=sys.stderr)
        return 2
    weights = np.asarray(spec["weights"], dtype=float)
    intercept = float(spec["intercept"])
    stats = {"pid": os.getpid(), "requests": 0, "request_bytes": 0, "reply_bytes": 0, "busy_s": 0.0}
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    for line in stdin:
        start = time.perf_counter()
        reply = (json.dumps(handle(json.loads(line), weights, intercept)) + "\n").encode()
        stdout.write(reply)
        stdout.flush()
        stats["busy_s"] += time.perf_counter() - start
        stats["requests"] += 1
        stats["request_bytes"] += len(line)
        stats["reply_bytes"] += len(reply)
    out = Path(sys.argv[2]) / f"server-{os.getpid()}.json"
    tmp = out.with_name(out.name + ".tmp")
    tmp.write_text(json.dumps(stats) + "\n")
    os.replace(tmp, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
