"""Minimal external models speaking the line-delimited JSON protocol.

Usage: python external_model.py MODE N_FEATURES [ARGS...]
  fixed-proba N P0 P1   probabilistic; every row answers (P0, P1)
  sum N                 continuous; y is the sum of the row's finite values
  error N               continuous; predict replies with an error object
  die N                 continuous; exits on the first predict request
  slow-exit N           continuous; on the first predict request closes stdout, sleeps 0.5 s and exits 3
  error-info N          answers every request, info included, with an error object
  proba-reply N JSON    probabilistic; every predict_proba answers {"p": JSON}
  predict-reply N JSON  continuous; every predict answers {"y": JSON}
  info-reply N JSON     answers info with the object JSON
  raise N               probabilistic; predict_proba raises RuntimeError (a traceback on stderr, exit 1)
  raw-reply N FILE      probabilistic; every predict_proba answers with the bytes of FILE and a newline
"""

import json
import math
import os
import sys
import time


def main() -> int:
    mode = sys.argv[1]
    n_features = int(sys.argv[2])
    kind = "probabilistic" if mode in ("fixed-proba", "proba-reply", "raise", "raw-reply") else "continuous"
    for line in sys.stdin:
        req = json.loads(line)
        op = req["op"]
        if mode == "error-info":
            reply = {"error": "no info"}
        elif op == "info":
            reply = json.loads(sys.argv[3]) if mode == "info-reply" else {"kind": kind, "n_features": n_features, "n_classes": 2}
        elif op == "predict":
            if mode == "sum":
                reply = {"y": [sum(v for v in row if math.isfinite(v)) for row in req["x"]]}
            elif mode == "predict-reply":
                reply = {"y": json.loads(sys.argv[3])}
            elif mode == "error":
                reply = {"error": "synthetic failure"}
            elif mode == "die":
                return 3
            elif mode == "slow-exit":
                os.close(sys.stdout.fileno())  # sys.stdout.close() leaves the descriptor open
                time.sleep(0.5)
                return 3
            else:
                reply = {"error": f"predict unsupported in mode {mode}"}
        elif op == "predict_proba":
            if mode == "fixed-proba":
                p0, p1 = float(sys.argv[3]), float(sys.argv[4])
                reply = {"p": [[p0, p1] for _ in req["x"]]}
            elif mode == "proba-reply":
                reply = {"p": json.loads(sys.argv[3])}
            elif mode == "raise":
                raise RuntimeError("weights file is stale")
            elif mode == "raw-reply":
                with open(sys.argv[3], "rb") as fh:
                    sys.stdout.buffer.write(fh.read() + b"\n")
                sys.stdout.flush()
                continue
            else:
                reply = {"error": f"predict_proba unsupported in mode {mode}"}
        else:
            reply = {"error": f"unknown op {op}"}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
