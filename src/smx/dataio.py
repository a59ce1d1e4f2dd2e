"""Dataset representation, CSV/JSON ingestion, zone configuration,
preprocessing transforms and Kennard-Stone train/test splitting.

The CSV layout is ``id,label,<axis_1>,...,<axis_p>`` with one sample per
row. Numeric text is written with 17 significant digits so that a
save/load round trip reproduces every 64-bit value exactly, and ids as
RFC 4180 fields. ``load_csv`` converts all numbers of a plain file (no
quote, carriage return, NUL or \\x1c-\\x1f) in one ``np.loadtxt`` call and
reads any other file cell by cell through ``csv.reader``; both give the
same values bit for bit and the same errors. Every input file smx reads
goes through ``read_input``, and every JSON value through ``json_value``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, FormatError, SmxError

MEAN_CENTER = "mean_center"
POISSON_THEN_CENTER = "poisson_then_center"
SAVGOL_THEN_CENTER = "savgol_then_center"
PREPROCESS_METHODS = (MEAN_CENTER, POISSON_THEN_CENTER, SAVGOL_THEN_CENTER)
_FLOAT_MAX = float(np.finfo(float).max)


def csv_quote(text: str) -> str:
    """``text`` as a quoted RFC 4180 CSV field, inner quotes doubled."""
    return '"' + text.replace('"', '""') + '"'


def csv_field(text: str) -> str:
    """``text`` as an RFC 4180 CSV field, quoted only if it holds a comma,
    a quote or a line break."""
    return csv_quote(text) if any(c in text for c in ',"\r\n') else text


@dataclass
class SpectralDataset:
    """A sample-by-variable intensity matrix with axis, labels and ids.

    axis: strictly increasing spectral axis values, length p.
    intensities: (n, p) float matrix, all entries finite.
    labels: length-n integer class ids, each 0 or 1.
    sample_ids: length-n unique strings.
    """

    axis: np.ndarray
    intensities: np.ndarray
    labels: np.ndarray
    sample_ids: list[str]

    def __post_init__(self):
        self.axis = np.asarray(self.axis, dtype=float)
        self.intensities = np.asarray(self.intensities, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        self.sample_ids = [str(s) for s in self.sample_ids]
        if self.axis.ndim != 1 or self.axis.size == 0:
            raise FormatError("axis must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.axis)):
            raise FormatError("axis contains non-finite entries")
        if np.any(np.diff(self.axis) <= 0):
            raise FormatError("axis not strictly increasing")
        if self.intensities.ndim != 2:
            raise FormatError("intensities must be a 2-D matrix")
        n, p = self.intensities.shape
        if p != self.axis.size:
            raise FormatError(f"intensity width {p} does not match axis length {self.axis.size}")
        if not np.all(np.isfinite(self.intensities)):
            raise FormatError("intensities contain non-finite entries")
        if self.labels.shape != (n,):
            raise FormatError("labels length does not match sample count")
        if not np.all(np.isin(self.labels, (0, 1))):
            raise FormatError("labels must be 0 or 1")
        if len(self.sample_ids) != n:
            raise FormatError("sample_ids length does not match sample count")
        if len(set(self.sample_ids)) != n:
            raise FormatError("duplicate sample id")

    @property
    def n_samples(self) -> int:
        return self.intensities.shape[0]

    @property
    def n_variables(self) -> int:
        return self.intensities.shape[1]

    def subset(self, indices: Sequence[int]) -> "SpectralDataset":
        """Row subset preserving the given order."""
        idx = np.asarray(indices, dtype=int)
        return SpectralDataset(
            axis=self.axis,
            intensities=self.intensities[idx],
            labels=self.labels[idx],
            sample_ids=[self.sample_ids[i] for i in idx],
        )


@dataclass(frozen=True)
class Zone:
    """One named axis interval with an expert plausibility flag."""

    name: str
    start: float
    end: float
    plausible: bool


@dataclass
class ZoneConfig:
    """Non-overlapping zone definitions, kept in axis order: ``zones`` is
    sorted by (start, end), so an explanation does not depend on the order
    in which a config lists its zones."""

    zones: list[Zone]

    def __post_init__(self):
        if not self.zones:
            raise ConfigError("zone config is empty")
        names = [z.name for z in self.zones]
        if len(set(names)) != len(names):
            raise ConfigError("zone names must be unique")
        for z in self.zones:
            if not (z.start < z.end):
                raise ConfigError(f"zone '{z.name}': start must be < end")
        self.zones = sorted(self.zones, key=lambda z: (z.start, z.end))
        for prev, cur in zip(self.zones, self.zones[1:]):
            if cur.start < prev.end:
                raise ConfigError(f"zones '{prev.name}' and '{cur.name}' overlap")

    def names(self) -> list[str]:
        return [z.name for z in self.zones]

    def plausible_names(self) -> set[str]:
        return {z.name for z in self.zones if z.plausible}


@contextlib.contextmanager
def naming(path: str | Path | None):
    """Re-raise an ``SmxError`` from the block as ``<path>: <message>``, of
    its class (as it is if ``path`` is None): loaders turn a file's text
    into its typed object in this scope, so each refusal names the file."""
    try:
        yield
    except SmxError as exc:
        if path is None:
            raise
        raise type(exc)(f"{path}: {exc}") from exc


def read_input(path: str | Path, what: str) -> str:
    """The text of the input file ``path``, read as UTF-8 with its line
    ends kept. A file that cannot be opened raises ``ConfigError``, naming
    ``what`` and ``path``, and text that is not UTF-8 ``FormatError``."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        with naming(path):
            raise FormatError(f"{what} is not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    except (OSError, ValueError) as exc:  # ValueError: a path holding a NUL
        raise ConfigError(f"cannot read {what} {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def read_json(path: str | Path, what: str):
    """The JSON value in the input file ``path``; invalid JSON raises ``FormatError``."""
    text = read_input(path, what)
    with naming(path):
        try:
            return json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise FormatError(f"invalid JSON in {what} ({exc})") from exc


# How an error names each type a JSON value is read as: (one value, a list of them).
_KINDS = {
    float: ("a finite number", "finite numbers"),
    int: ("an integer", "integers"),
    bool: ("true or false", "true or false values"),
    str: ("a string", "strings"),
    dict: ("a JSON object", "JSON objects"),
}


def _kind(hint, plural: bool = False) -> str:
    origin, args = get_origin(hint), get_args(hint)
    if origin in (list, tuple):
        count = f"{len(args)} " if origin is tuple and Ellipsis not in args else ""
        return f"a list of {count}{_kind(args[0], plural=True)}"
    return _KINDS.get(hint, _KINDS[dict])[plural]


def json_value(value, hint, where: str, key: str, error: type[SmxError] = FormatError):
    """``value``, read from a JSON document at ``key``, as the type ``hint``:

    - ``float``: a finite float64 number (an integer beyond float64's range
      is not one), returned as a float;
    - ``int``: such a number with an integral value, ``3.0`` included,
      returned as an int;
    - ``bool``, ``str``, ``dict``: a JSON true/false, string or object;
    - ``list[X]``, ``tuple[X, ...]`` or ``tuple[X, X]``: a JSON list of
      ``X`` values (exactly as many for a fixed tuple), returned as that type;
    - a dataclass: a JSON object read by ``json_object``.

    Booleans are never numbers. Anything else, or ``dataclasses.MISSING``
    for an absent key, raises ``error``:
    ``<where>: '<key>' must be <kind>, got <value>`` (or ``, missing``)."""
    if hint is float or hint is int:
        if isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= _FLOAT_MAX:
            if hint is float:
                return float(value)
            if isinstance(value, int) or value.is_integer():
                return int(value)
    elif hint in (bool, str, dict):
        if isinstance(value, hint):
            return value
    elif is_dataclass(hint):
        if isinstance(value, dict):
            return json_object(value, hint, where, error, prefix=f"{key}.")
    else:  # a list or tuple type
        origin, args = get_origin(hint), get_args(hint)
        if isinstance(value, list) and (Ellipsis in args or origin is list or len(value) == len(args)):
            return origin(json_value(v, args[0], where, f"{key}[{k}]", error) for k, v in enumerate(value))
    got = "missing" if value is MISSING else f"got {value!r}"
    raise error(f"{where}: '{key}' must be {_kind(hint)}, {got}")


def json_object(obj, cls, where: str, error: type[SmxError] = FormatError, prefix: str = ""):
    """The dataclass ``cls`` built from the JSON object ``obj``: each field
    is read by ``json_value`` as its annotated type, and may be absent only
    if it has a default. Keys that are not fields are ignored."""
    if not isinstance(obj, dict):
        raise error(f"{where}: expected a JSON object, got {obj!r}")
    return cls(**{
        name: json_value(obj.get(name, MISSING), hint, where, prefix + name, error)
        for name, hint, required in _schema(cls)
        if required or name in obj
    })


@cache
def _schema(cls) -> list[tuple[str, object, bool]]:
    """(name, annotated type, no default) of each field of the dataclass ``cls``."""
    hints = get_type_hints(cls)
    return [(f.name, hints[f.name], f.default is MISSING) for f in fields(cls)]


def load_zone_config(path: str | Path) -> ZoneConfig:
    """Read a zone config from a JSON array of ``Zone`` objects."""
    raw = read_json(path, "zones file")
    with naming(path):
        if not isinstance(raw, list):
            raise FormatError("zone config must be a JSON array")
        return ZoneConfig([json_object(obj, Zone, f"bad zone entry {i}") for i, obj in enumerate(raw)])


def zone_config_json(cfg: ZoneConfig) -> str:
    payload = [
        {"name": z.name, "start": z.start, "end": z.end, "plausible": z.plausible}
        for z in cfg.zones
    ]
    return json.dumps(payload, indent=2) + "\n"


@dataclass
class PreprocessState:
    """Fitted preprocessing parameters, learned on training data only."""

    method: str
    column_means: np.ndarray
    poisson_scales: np.ndarray | None = None
    savgol: tuple[int, int] | None = None  # (window, order)

    def __post_init__(self):
        self.column_means = np.asarray(self.column_means, dtype=float)
        if self.poisson_scales is not None:
            self.poisson_scales = np.asarray(self.poisson_scales, dtype=float)
        if (self.method == POISSON_THEN_CENTER) != (self.poisson_scales is not None):
            raise ConfigError("poisson_scales present iff method is poisson_then_center")
        if self.poisson_scales is not None and np.any(self.poisson_scales <= 0):
            raise ConfigError("poisson scales must all be positive")
        if (self.method == SAVGOL_THEN_CENTER) != (self.savgol is not None):
            raise ConfigError("savgol params present iff method is savgol_then_center")

    def to_dict(self) -> dict:
        out = {"method": self.method, "column_means": [float(v) for v in self.column_means]}
        if self.poisson_scales is not None:
            out["poisson_scales"] = [float(v) for v in self.poisson_scales]
        if self.savgol is not None:
            out["savgol"] = {"window": self.savgol[0], "order": self.savgol[1]}
        return out


def load_csv(path: str | Path) -> SpectralDataset:
    """Parse a dataset CSV; row order is preserved.

    Errors carry the 1-based file line and column of the offending cell.
    A plain file has its numbers converted in one ``np.loadtxt`` call
    (``_read_plain``); any other file, and any file that would raise,
    goes through ``csv.reader`` and a per-cell ``float()``
    (``_read_rows``). Both give the same arrays bit for bit, and every
    error comes from ``_read_rows``.
    """
    path = Path(path)
    text = read_input(path, "dataset file")
    with naming(path):
        axis, data, labels, ids = _read_plain(text) or _read_rows(text)
        return SpectralDataset(axis=axis, intensities=data, labels=labels, sample_ids=ids)


# Text that sends a file to _read_rows: a quote or a carriage return changes
# how csv.reader splits it, NUL is left to csv.reader, and \x1c-\x1f are
# whitespace to loadtxt's float parser but not to float().
_NOT_PLAIN = '"\r\x00\x1c\x1d\x1e\x1f'


_Parsed = tuple[np.ndarray, np.ndarray, list[int], list[str]]  # axis, data, labels, ids


def _read_plain(text: str) -> _Parsed | None:
    """``_read_rows``'s result for a file ``_read_rows`` would accept whose
    text holds none of ``_NOT_PLAIN``'s characters, else None.

    Lines are split at line feeds, ids and labels by ``str.split`` and the
    numbers of all rows by one ``np.loadtxt``. ``loadtxt`` hands each
    token's ASCII text to ``PyOS_string_to_double``, as ``float()``
    does, and refuses what only ``float()`` takes (underscores,
    non-ASCII digits, empty cells), so accepted values agree bit for bit.
    """
    if any(c in text for c in _NOT_PLAIN):
        return None
    lines = text.split("\n")
    # csv.reader refuses a field longer than its limit
    limit = csv.field_size_limit()
    if any(len(f) > limit for line in lines if len(line) > limit for f in line.split(",")):
        return None
    try:
        axis = _header_axis(lines[0].split(","))
    except FormatError:
        return None
    rows = [line.split(",", 2) for line in lines[1:] if line]
    if not rows or any(len(row) != 3 for row in rows):
        return None
    ids, labels, rests = zip(*rows)
    if len(set(ids)) != len(ids) or not set(labels) <= {"0", "1"}:
        return None
    if "" in rests:  # loadtxt skips an empty line, and warns if all are empty
        return None
    try:
        data = np.loadtxt(rests, delimiter=",", comments=None, dtype=float, ndmin=2)
    except ValueError:
        return None
    if data.shape != (len(rows), axis.size):
        return None
    return axis, data, [int(label) for label in labels], list(ids)


def _header_axis(header: list[str]) -> np.ndarray:
    """The axis named by a header row's fields."""
    if len(header) < 3 or header[0] != "id" or header[1] != "label":
        raise FormatError("header must start with 'id,label' and have axis columns")
    axis = []
    for col, tok in enumerate(header[2:], start=3):
        try:
            axis.append(float(tok))
        except ValueError as exc:
            raise FormatError(f"line 1, column {col}: non-numeric axis value '{tok}'") from exc
        if not math.isfinite(axis[-1]):
            raise FormatError(f"line 1, column {col}: non-finite axis value '{tok}'")
    axis = np.asarray(axis)
    if np.any(np.diff(axis) <= 0):
        raise FormatError("axis not strictly increasing")
    return axis


def _read_rows(text: str) -> _Parsed:
    """The file's rows through csv.reader, each cell through ``float()``."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise FormatError(f"line {reader.line_num}: {exc}") from exc
    if not rows:
        raise FormatError("empty file")
    axis = _header_axis(rows[0])
    p = axis.size

    ids: list[str] = []
    labels: list[int] = []
    data: list[list[float]] = []
    seen: set[str] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != p + 2:
            raise FormatError(f"line {lineno}: expected {p + 2} columns, found {len(row)}")
        sid = row[0]
        if sid in seen:
            raise FormatError(f"line {lineno}: duplicate sample id '{sid}'")
        seen.add(sid)
        if row[1] not in ("0", "1"):
            raise FormatError(f"line {lineno}, column 2: label must be 0 or 1, found '{row[1]}'")
        values = []
        for col, tok in enumerate(row[2:], start=3):
            try:
                values.append(float(tok))
            except ValueError as exc:
                raise FormatError(f"line {lineno}, column {col}: non-numeric cell '{tok}'") from exc
        ids.append(sid)
        labels.append(int(row[1]))
        data.append(values)
    if not data:
        raise FormatError("no data rows")
    return axis, np.asarray(data), labels, ids


def dataset_csv_text(ds: SpectralDataset) -> str:
    """The canonical CSV serialization (deterministic bytes)."""
    # one "%.17g" template fills a whole row
    row_fmt = ",".join(["%.17g"] * ds.n_variables)
    lines = ["id,label," + row_fmt % tuple(ds.axis.tolist())]
    for sid, label, row in zip(ds.sample_ids, ds.labels.tolist(), ds.intensities):
        lines.append(f"{csv_field(sid)},{label}," + row_fmt % tuple(row.tolist()))
    lines.append("")  # the final newline, without copying the joined text again
    return "\n".join(lines)


def save_csv(ds: SpectralDataset, path: str | Path) -> None:
    Path(path).write_text(dataset_csv_text(ds))


def _kennard_stone_select(X: np.ndarray, count: int) -> list[int]:
    """Max-min-distance selection of ``count`` rows; ties go to the lowest index."""
    from scipy.spatial.distance import cdist  # imported here so that only a split loads scipy.spatial

    n = X.shape[0]
    d2 = cdist(X, X, metric="sqeuclidean")
    # First pair: maximum pairwise distance, lexicographically smallest on ties.
    i, j = sorted(divmod(int(np.argmax(d2)), n))
    if i == j:  # every distance is 0, and argmax found the diagonal (0, 0)
        j = 1
    if count == 1:
        return [i]
    selected = [i, j]
    chosen = np.zeros(n, dtype=bool)
    chosen[[i, j]] = True
    min_d = np.minimum(d2[i], d2[j])
    while len(selected) < count:
        scores = np.where(chosen, -np.inf, min_d)
        nxt = int(np.argmax(scores))
        selected.append(nxt)
        chosen[nxt] = True
        min_d = np.minimum(min_d, d2[nxt])
    return selected


def split_setting(train_fraction: float) -> None:
    """Refuse a Kennard-Stone ``train_fraction`` outside (0, 1)."""
    if not (0.0 < train_fraction < 1.0):
        raise ConfigError("train_fraction must be in (0, 1)")


def kennard_stone_split(
    ds: SpectralDataset, train_fraction: float
) -> tuple[SpectralDataset, SpectralDataset]:
    """Deterministic per-class Kennard-Stone split.

    Each class contributes round(train_fraction * class size) samples,
    clamped so neither side of the split is empty. Outputs keep the
    original dataset row order.
    """
    split_setting(train_fraction)
    train_idx: list[int] = []
    for cls in (0, 1):
        members = np.flatnonzero(ds.labels == cls)
        if members.size < 2:
            raise ConfigError(f"class {cls} has fewer than 2 samples")
        count = int(round(train_fraction * members.size))
        count = min(max(count, 1), members.size - 1)
        local = _kennard_stone_select(ds.intensities[members], count)
        train_idx.extend(int(members[k]) for k in local)
    train_mask = np.zeros(ds.n_samples, dtype=bool)
    train_mask[train_idx] = True
    return ds.subset(np.flatnonzero(train_mask)), ds.subset(np.flatnonzero(~train_mask))


def preprocess_setting(method: str, window: int | None = None, order: int | None = None):
    """The Savitzky-Golay (window, order) of the preprocess setting
    ``method``, ``window``, ``order``: for savgol_then_center the given
    values, 15 and 2 when not given, an odd window >= 3 and 0 <= order <
    window; None for the other methods, which refuse a window or order.
    An invalid setting raises ``ConfigError``."""
    if method not in PREPROCESS_METHODS:
        raise ConfigError(f"unknown preprocessing method '{method}'")
    if method != SAVGOL_THEN_CENTER:
        if (window, order) != (None, None):
            raise ConfigError(f"a savgol window or order applies only to {SAVGOL_THEN_CENTER}, not {method}")
        return None
    window = 15 if window is None else window
    order = 2 if order is None else order
    if window % 2 == 0 or window < 3:
        raise ConfigError("savgol window must be an odd integer >= 3")
    if not (0 <= order < window):
        raise ConfigError("savgol order must satisfy 0 <= order < window")
    return window, order


def fit_preprocess(
    ds: SpectralDataset, method: str, window: int | None = None, order: int | None = None
) -> PreprocessState:
    """Learn preprocessing parameters from ``ds`` only, for the setting
    ``preprocess_setting`` checks."""
    savgol = preprocess_setting(method, window, order)
    if ds.n_samples == 0:
        raise ConfigError("cannot fit preprocessing on an empty dataset")
    scales = None
    if method == POISSON_THEN_CENTER:
        raw_means = ds.intensities.mean(axis=0)
        bad = np.flatnonzero(raw_means <= 0)
        if bad.size:
            raise ConfigError(
                f"poisson scaling requires positive column means; column {int(bad[0])} "
                f"has mean {float(raw_means[bad[0]])!r}"
            )
        scales = np.sqrt(raw_means)
    if savgol is not None and savgol[0] > ds.n_variables:
        raise ConfigError("savgol window exceeds the number of variables")
    state = PreprocessState(method=method, column_means=np.zeros(ds.n_variables), poisson_scales=scales, savgol=savgol)
    state.column_means = _uncentred(state, ds.intensities).mean(axis=0)
    return state


def _uncentred(state: PreprocessState, X: np.ndarray) -> np.ndarray:
    """``X`` under ``state`` before its column means are subtracted: divided
    by the Poisson scales, Savitzky-Golay smoothed, or ``X`` itself."""
    if state.poisson_scales is not None:
        return X / state.poisson_scales
    if state.savgol is None:
        return X
    from scipy.signal import savgol_filter  # imported here so that only savgol preprocessing loads scipy.signal

    window, order = state.savgol
    # mirror padding keeps the output length at p
    return savgol_filter(X, window_length=window, polyorder=order, axis=1, mode="mirror")


def apply_preprocess(state: PreprocessState, ds: SpectralDataset) -> SpectralDataset:
    """Transform ``ds`` with parameters learned at fit time."""
    if ds.n_variables != state.column_means.size:
        raise ConfigError(f"dataset width {ds.n_variables} does not match fitted width {state.column_means.size}")
    out = _uncentred(state, ds.intensities) - state.column_means
    return SpectralDataset(
        axis=ds.axis, intensities=out, labels=ds.labels, sample_ids=list(ds.sample_ids)
    )


def to_input_units(state: PreprocessState, values: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """``values`` at the channels ``indices`` of data ``state`` preprocessed,
    mapped back through the affine part of ``state`` into the units of the
    data it was fitted on: ``values + column_means``, times ``poisson_scales``
    for poisson_then_center. Smoothing has no inverse, so under
    savgol_then_center the result is smoothed intensities."""
    out = values + state.column_means[indices]
    if state.poisson_scales is not None:
        out = out * state.poisson_scales[indices]
    return out


def resolve_zones(cfg: ZoneConfig, ds: SpectralDataset) -> list[np.ndarray]:
    """Map each zone to the axis indices it covers.

    Bounds are inclusive, except where zones touch: an axis point equal
    to one zone's ``end`` and another zone's ``start`` goes to the zone
    that starts there. Zones never overlap, so no point falls into two
    zones. Returns index arrays in config order; every zone must capture
    at least 2 axis points.
    """
    starts = {z.start for z in cfg.zones}
    sets = []
    for z in cfg.zones:
        below_end = ds.axis < z.end if z.end in starts else ds.axis <= z.end
        idx = np.flatnonzero((ds.axis >= z.start) & below_end)
        if idx.size < 2:
            raise ConfigError(f"zone '{z.name}' covers {idx.size} axis point(s); at least 2 required")
        sets.append(idx)
    return sets
