"""Prediction interfaces the explainer queries, two built-in reference
classifiers, and a line-delimited JSON protocol for external models.

A continuous model answers ``predict`` (real-valued outputs, labels
encoded 0/1); a probabilistic model answers ``predict_proba`` with rows
over classes (0, 1) summing to 1.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import logging
import subprocess
import threading
from dataclasses import MISSING
from pathlib import Path

import numpy as np

from .dataio import SpectralDataset, json_value, naming, read_json
from .errors import ConfigError, FormatError, ModelError

CONTINUOUS = "continuous"
PROBABILISTIC = "probabilistic"

# Requests to external models are split by rows so that no request line,
# newline included, is longer than this (a single longer row goes alone).
_MAX_REQUEST_BYTES = 32 * 1024 * 1024
# bytes.translate table marking the characters of numbers in a JSON matrix: all but "[], "
_NUMBER_CHARS = bytes(c not in b"[], " for c in range(256))
# an error about a reply quotes at most this many of its first bytes
_QUOTED_REPLY = 100


def _check_width(X: np.ndarray, expected: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != expected:
        raise ModelError(f"feature width {X.shape[1]} does not match model width {expected}")
    return X


class RidgeModel:
    """Linear model fit by closed-form regularized least squares."""

    kind = CONTINUOUS

    def __init__(self, weights: np.ndarray, intercept: float, lam: float = 0.0):
        self.weights = np.asarray(weights, dtype=float)
        self.intercept = float(intercept)
        self.lam = float(lam)

    @property
    def n_features(self) -> int:
        return self.weights.size

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = _check_width(X, self.n_features)
        return X @ self.weights + self.intercept


class LogisticModel:
    """Binary logistic model; probabilities from a numerically stable sigmoid."""

    kind = PROBABILISTIC

    def __init__(self, weights: np.ndarray, intercept: float, l2: float = 0.0):
        self.weights = np.asarray(weights, dtype=float)
        self.intercept = float(intercept)
        self.l2 = float(l2)
        self.converged = True
        self.n_iters = 0

    @property
    def n_features(self) -> int:
        return self.weights.size

    def decision(self, X: np.ndarray) -> np.ndarray:
        X = _check_width(X, self.n_features)
        return X @ self.weights + self.intercept

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p1 = _sigmoid(self.decision(X))
        out = np.empty((p1.shape[0], 2))
        out[:, 0], out[:, 1] = 1.0 - p1, p1
        return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) from exp(-|z|), which never overflows; ``minimum`` keeps a NaN's sign."""
    e = np.exp(np.minimum(z, -z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def require_both_classes(train: SpectralDataset) -> None:
    """Refuse training data that lacks either class."""
    present = set(np.unique(train.labels).tolist())
    if present != {0, 1}:
        raise ConfigError("training data must contain both classes")


# The rule of each keyword of fit_ridge (lam) and fit_logistic (the others).
_FIT_RULES = {
    "lam": (lambda lam: np.isfinite(lam) and lam >= 0, "ridge lambda must be finite and >= 0"),
    "l2": (lambda l2: np.isfinite(l2) and l2 >= 0, "logistic l2 must be finite and >= 0"),
    "max_iters": (lambda max_iters: max_iters >= 1, "logistic max_iters must be >= 1"),
    "tol": (lambda tol: np.isfinite(tol) and tol >= 0, "logistic tol must be finite and >= 0"),
}


def fit_setting(**params) -> None:
    """Refuse a value of a fit keyword (``lam``, ``l2``, ``max_iters`` or
    ``tol``) that breaks its rule, checking them in the order given."""
    for key, value in params.items():
        ok, rule = _FIT_RULES[key]
        if not ok(value):
            raise ConfigError(f"{rule}, got {value}")


def fit_ridge(train: SpectralDataset, lam: float = 1.0) -> RidgeModel:
    """Solve (Xc'Xc + lam I) w = Xc' yc on centered features, intercept from means."""
    fit_setting(lam=lam)
    require_both_classes(train)
    X = train.intensities
    y = train.labels.astype(float)
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    G = Xc.T @ Xc + lam * np.eye(X.shape[1])
    if lam == 0.0:
        evals = np.linalg.eigvalsh(G)
        if evals[0] <= max(evals[-1], 1.0) * 1e-12:
            raise ModelError("singular system at lambda 0; use lambda > 0")
    w = np.linalg.solve(G, Xc.T @ (y - y_mean))
    return RidgeModel(weights=w, intercept=float(y_mean - x_mean @ w), lam=lam)


def fit_logistic(
    train: SpectralDataset,
    l2: float = 0.01,
    max_iters: int = 2000,
    tol: float = 1e-7,
) -> LogisticModel:
    """L-BFGS-B from zeros on mean log-loss + ``0.5 * l2 * |w|^2`` (intercept unpenalised).

    At most ``max_iters`` iterations; ``n_iters`` is how many ran. ``converged`` is true
    when the Euclidean norm of the gradient (weights and intercept) at the solution is
    below ``tol``; otherwise one WARNING is logged.
    """
    fit_setting(l2=l2, max_iters=max_iters, tol=tol)
    require_both_classes(train)
    n, p = train.intensities.shape
    # The first L-BFGS-B step has unit length, far too long when intensities are large, so
    # solve for v = c * w against X / c: c = 1 while max |X| < 16, else an exact power of two.
    c = float(np.ldexp(1.0, max(int(np.frexp(np.abs(train.intensities).max(initial=0.0))[1]) - 4, 0)))
    Xs, y, l2_s = train.intensities / c, train.labels.astype(float), l2 / c / c

    def loss_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
        v, b = theta[:p], theta[p]
        z = Xs @ v + b
        loss = float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2_s * (v @ v))
        if not np.isfinite(loss):
            raise ModelError("logistic loss overflowed; try a larger l2")
        resid = _sigmoid(z) - y
        return loss, np.append(Xs.T @ resid / n + l2_s * v, resid.mean())

    from scipy.optimize import minimize  # imported here so that only a logistic fit loads scipy.optimize

    # scipy stops once every gradient entry in v is within gtol; the norm in w (c times it) is then within tol
    options = {"maxiter": max_iters, "ftol": 0.0, "gtol": tol / (c * np.sqrt(p + 1))}
    res = minimize(loss_and_grad, np.zeros(p + 1), jac=True, method="L-BFGS-B", options=options)
    grad_norm = float(np.linalg.norm(loss_and_grad(res.x)[1] * np.append(np.full(p, c), 1.0)))
    model = LogisticModel(weights=res.x[:p] / c, intercept=float(res.x[p]), l2=l2)
    model.converged, model.n_iters = grad_norm < tol, int(res.nit)
    if not model.converged:
        logging.getLogger(__name__).warning(
            "logistic fit stopped with gradient norm %.3g >= tol %g after %d iterations",
            grad_norm, tol, model.n_iters,
        )
    return model


# Each builtin kind: its class, and the JSON key and the attribute of its regularization.
_BUILTINS = {"ridge": (RidgeModel, "lambda", "lam"), "logistic": (LogisticModel, "l2", "l2")}


def model_json(model) -> str:
    """Builtin model weights as JSON text."""
    for kind, (cls, key, attr) in _BUILTINS.items():
        if isinstance(model, cls):
            weights = [float(v) for v in model.weights]
            payload = {"kind": kind, "weights": weights, "intercept": model.intercept, key: getattr(model, attr)}
            return json.dumps(payload, indent=2) + "\n"
    raise ModelError("only builtin models can be saved")


def save_model(model, path: str | Path) -> None:
    """Dump builtin model weights as JSON."""
    Path(path).write_text(model_json(model))


def model_spec(spec) -> tuple[type, tuple]:
    """(class, arguments) that build the model the JSON value ``spec``
    describes: a "ridge" / "logistic" weight dump (``weights``, a list of
    finite numbers, a finite ``intercept`` and an optional finite
    ``lambda`` or ``l2``) or an "external" subprocess model, whose ``argv``
    is a non-empty list of strings. Any other value raises ``ConfigError``."""
    if not isinstance(spec, dict):
        raise ConfigError(f"model JSON must be an object, got {spec!r}")
    kind = spec.get("kind")
    where = f"bad {kind} model spec"

    def read(key, hint, default=MISSING):
        return json_value(spec.get(key, default), hint, where, key, ConfigError)

    if isinstance(kind, str) and kind in _BUILTINS:
        cls, key, _ = _BUILTINS[kind]
        return cls, (np.array(read("weights", list[float])), read("intercept", float), read(key, float, 0.0))
    if kind == "external":
        argv = read("argv", list[str])
        if not argv:
            raise ConfigError(f"{where}: 'argv' must be a non-empty list")
        return ExternalModel, (argv,)
    raise ConfigError(f"unknown model kind {kind!r}")


def load_model(spec: dict | str | Path):
    """The model a ``model_spec`` dict or a JSON file path describes. The
    model is built outside the file's ``naming``: an external model that
    fails to start or answer is no refusal of the file."""
    raw = spec if isinstance(spec, dict) else read_json(spec, "model file")
    with naming(None if isinstance(spec, dict) else spec):
        cls, args = model_spec(raw)
    return cls(*args)


def _patched(text: str, starts, ends, cells: np.ndarray, bits: np.ndarray, width: int) -> str:
    """``text``, whose cell ``k`` (row-major) is ``text[starts[k]:ends[k]]``,
    with the cells at indices ``cells`` written from their 64-bit patterns."""
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = json.dumps(distinct.view(np.float64).tolist())[1:-1].split(", ")
    new = [texts[k] for k in inverse.tolist()]
    # a run is changed cells side by side in one row, written as one slice
    first = (np.diff(cells, prepend=-2) != 1) | (cells % width == 0)
    last = np.roll(first, -1)
    runs = (np.flatnonzero(first), np.flatnonzero(last), starts[cells[first]], ends[cells[last]])
    pieces, kept = [], 0
    for s, e, a, b in zip(*(run.tolist() for run in runs)):
        pieces += (text[kept:a], ", ".join(new[s : e + 1]))
        kept = b
    pieces.append(text[kept:])
    return "".join(pieces)


class ExternalModel:
    """Child-process model speaking newline-delimited JSON over stdio.

    The handle is a serial channel: one in-flight request, guarded by a
    lock. Large matrices are split by rows to keep each request small.
    Writing floats as JSON is the client's main cost and smx re-sends
    mostly the same matrix, so a matrix of the last full one's shape that
    differs from it in at most half its cells is written as a patch of it.
    The child writes to smx's own stderr, so a server's traceback is shown.
    Every refusal of the child or of what it sent is built by ``_refused``.
    """

    def __init__(self, argv: list[str]):
        self.argv = list(argv)
        try:
            self._proc = subprocess.Popen(self.argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        except OSError as exc:
            raise ModelError(f"failed to start external model {self.argv}: {exc}") from exc
        self._lock = threading.Lock()
        # (64-bit patterns, JSON text, cell starts, cell ends) of the last matrix written in
        # full; replaced whole and never mutated, so callers on other threads need no lock
        self._reference: tuple | None = None
        try:
            self.kind, self.n_features = self._handshake()
        except BaseException:
            self.close()
            raise

    def _refused(self, what: str, reply: bytes = b"") -> ModelError:
        """``external model <argv> <what>``, quoting the first ``_QUOTED_REPLY`` bytes of ``reply``."""
        quoted = f": {reply[:_QUOTED_REPLY]!r}" if reply else ""
        return ModelError(f"external model {self.argv} {what}{quoted}")

    def _handshake(self) -> tuple[str, int]:
        info, reply = self._request(json.dumps({"op": "info"}))

        def integer(key: str) -> int:
            try:
                return json_value(info.get(key, MISSING), int, "info reply", key)
            except FormatError:
                raise self._refused(f"info reply: '{key}' must be an integer", reply) from None

        kind = info.get("kind")
        if kind not in (CONTINUOUS, PROBABILISTIC):
            raise self._refused(f"info reply: 'kind' must be '{CONTINUOUS}' or '{PROBABILISTIC}'", reply)
        n_features = integer("n_features")
        if kind == PROBABILISTIC and integer("n_classes") != 2:
            raise self._refused("info reply: a probabilistic model must report 'n_classes' 2", reply)
        return kind, n_features

    def _request(self, line: str) -> tuple[dict, bytes]:
        """Send one JSON request line; return the reply object and the reply line.
        A reply that is no JSON object stops the child; an error reply does not."""
        with self._lock:
            if self._proc.poll() is not None:
                raise self._refused(f"exited with code {self._proc.returncode}")
            try:
                self._proc.stdin.writelines((line.encode(), b"\n"))
                self._proc.stdin.flush()
                reply = self._proc.stdout.readline()
            except OSError as exc:
                raise self._refused(f"pipe failure: {exc}") from exc
        if not reply:
            with contextlib.suppress(subprocess.TimeoutExpired):  # the child is most likely exiting
                self._proc.wait(timeout=2)
            raise self._refused(f"closed its stream (exit code {self._proc.returncode})")
        try:  # not UTF-8, not JSON and too deep for the parser raise here, as does a non-object
            parsed = json.loads(reply.decode())
            if not isinstance(parsed, dict):
                raise ValueError("not a JSON object")
        except (ValueError, RecursionError) as exc:
            self.close()
            raise self._refused(f"sent an unusable reply ({exc})", reply) from exc
        if "error" in parsed:
            raise self._refused("replied with an error", reply)
        return parsed, reply

    def _encode(self, X: np.ndarray) -> str:
        """``json.dumps(X.tolist())``: a patch of the reference's text, or a new reference."""
        bits = X.view(np.uint64)
        reference = self._reference
        if reference is not None and reference[0].shape == bits.shape:
            changed = bits != reference[0]
            if 2 * np.count_nonzero(changed) <= changed.size:
                return _patched(*reference[1:], np.flatnonzero(changed), bits[changed], X.shape[1])
        text = json.dumps(X.tolist())
        in_cell = np.frombuffer(text.encode().translate(_NUMBER_CHARS), np.bool_)
        edges = np.flatnonzero(in_cell[1:] != in_cell[:-1]) + 1
        self._reference = (bits.copy(), text, edges[0::2], edges[1::2])
        return text

    def _lines(self, op: str, X: np.ndarray):
        """Yield ``(rows, line)`` for consecutive row chunks of ``X``: the
        request ``json.dumps({"op": op, "x": chunk})`` would write, with
        as many rows as fit in ``_MAX_REQUEST_BYTES``."""
        head = f'{{"op": {json.dumps(op)}, "x": '
        text = self._encode(X)
        if len(head) + len(text) + len("}\n") <= _MAX_REQUEST_BYTES:
            yield X.shape[0], f"{head}{text}}}"
            return
        # size: length of the line holding ``rows``, newline included
        empty = len(head) + len("[]}\n") - len(", ")
        rows, size = [], empty
        for row in map("[{}]".format, text[2:-2].split("], [")):
            if rows and size + len(", ") + len(row) > _MAX_REQUEST_BYTES:
                yield len(rows), f"{head}[{', '.join(rows)}]}}"
                rows, size = [], empty
            rows.append(row)
            size += len(", ") + len(row)
        yield len(rows), f"{head}[{', '.join(rows)}]}}"

    def _query(self, op: str, key: str, kind: str, X: np.ndarray, row_shape: tuple[int, ...]) -> np.ndarray:
        """Send ``X`` under ``op`` in row chunks and return the replies' ``key``
        fields as one finite float array, one ``row_shape`` entry per row. A
        probabilistic model's rows must be probabilities summing to 1."""
        if self.kind != kind:
            raise ModelError(f"{op} is only available on {kind} models")
        X = _check_width(X, self.n_features)
        parts = [np.zeros((0, *row_shape))]
        for rows, line in self._lines(op, X) if len(X) else ():  # no rows, no request
            parsed, reply = self._request(line)
            values = parsed.get(key)
            if not isinstance(values, list) or len(values) != rows:
                raise self._refused(f"'{op}' reply has a wrong-sized '{key}'", reply)
            try:
                arr = np.array(values)  # strings, booleans and nulls give a non-number dtype
            except ValueError as exc:
                raise self._refused(f"'{op}' reply has a ragged '{key}'", reply) from exc
            if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
                raise self._refused(f"'{op}' reply has non-numeric or non-finite values in '{key}'", reply)
            if arr.shape[1:] != row_shape:
                raise self._refused(f"'{op}' '{key}' entries have shape {arr.shape[1:]}, not {row_shape}", reply)
            # numpy reads booleans mixed with numbers as 1 and 0
            flat = itertools.chain.from_iterable(values) if row_shape else values
            if any(isinstance(v, bool) for v in flat):
                raise self._refused(f"'{op}' reply has non-numeric (boolean) values in '{key}'", reply)
            if kind == PROBABILISTIC and (arr.min() < 0 or arr.max() > 1 or np.abs(arr.sum(1) - 1).max() > 1e-9):
                raise self._refused(f"'{op}' rows must be probabilities in [0, 1] that sum to 1", reply)
            parts.append(arr.astype(float, copy=False))
        return np.concatenate(parts)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._query("predict", "y", CONTINUOUS, X, ())

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self._query("predict_proba", "p", PROBABILISTIC, X, (2,))

    def close(self) -> None:
        if self._proc.poll() is None:
            with contextlib.suppress(OSError):
                self._proc.stdin.close()
            try:
                self._proc.wait(timeout=2)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        for stream in (self._proc.stdin, self._proc.stdout):
            with contextlib.suppress(OSError):
                stream.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
