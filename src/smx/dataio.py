"""Dataset representation, CSV/JSON ingestion, zone configuration,
preprocessing transforms and Kennard-Stone train/test splitting.

The CSV layout is ``id,label,<axis_1>,...,<axis_p>`` with one sample per
row. Numeric text is written with 17 significant digits so that a
save/load round trip reproduces every 64-bit value exactly, and ids as
RFC 4180 fields. ``load_csv`` converts all numbers of a plain file (no
quote, carriage return, NUL or \\x1c-\\x1f) in one ``np.loadtxt`` call and
reads any other file cell by cell through ``csv.reader``; both give the
same values bit for bit and the same errors.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.signal import savgol_filter
from scipy.spatial.distance import cdist

from .errors import ConfigError, FormatError

MEAN_CENTER = "mean_center"
POISSON_THEN_CENTER = "poisson_then_center"
SAVGOL_THEN_CENTER = "savgol_then_center"
PREPROCESS_METHODS = (MEAN_CENTER, POISSON_THEN_CENTER, SAVGOL_THEN_CENTER)


def _fmt(x: float) -> str:
    """Decimal text with 17 significant digits (lossless for float64)."""
    return format(float(x), ".17g")


def _csv_quote(text: str) -> str:
    """``text`` as a quoted RFC 4180 CSV field, inner quotes doubled."""
    return '"' + text.replace('"', '""') + '"'


def _csv_field(text: str) -> str:
    """``text`` as an RFC 4180 CSV field, quoted only if it holds a comma,
    a quote or a line break."""
    return _csv_quote(text) if any(c in text for c in ',"\r\n') else text


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
        if np.any(np.diff(self.axis) <= 0):
            raise FormatError("axis not strictly increasing")
        if self.intensities.ndim != 2:
            raise FormatError("intensities must be a 2-D matrix")
        n, p = self.intensities.shape
        if p != self.axis.size:
            raise FormatError(
                f"intensity width {p} does not match axis length {self.axis.size}"
            )
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
    """Ordered, non-overlapping zone definitions."""

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
        ordered = sorted(self.zones, key=lambda z: (z.start, z.end))
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.start < prev.end:
                raise ConfigError(
                    f"zones '{prev.name}' and '{cur.name}' overlap"
                )

    def names(self) -> list[str]:
        return [z.name for z in self.zones]

    def plausible_names(self) -> set[str]:
        return {z.name for z in self.zones if z.plausible}


def load_zone_config(path: str | Path) -> ZoneConfig:
    """Read a zone config from a JSON array of {name,start,end,plausible}."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, list):
        raise FormatError(f"{path}: zone config must be a JSON array")
    zones = []
    for i, obj in enumerate(raw):
        try:
            zones.append(
                Zone(
                    name=str(obj["name"]),
                    start=float(obj["start"]),
                    end=float(obj["end"]),
                    plausible=bool(obj["plausible"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: bad zone entry {i}: {exc}") from exc
    return ZoneConfig(zones)


def zone_config_json(cfg: ZoneConfig) -> str:
    payload = [
        {"name": z.name, "start": z.start, "end": z.end, "plausible": z.plausible}
        for z in cfg.zones
    ]
    return json.dumps(payload, indent=2) + "\n"


def save_zone_config(cfg: ZoneConfig, path: str | Path) -> None:
    Path(path).write_text(zone_config_json(cfg))


@dataclass
class PreprocessState:
    """Fitted preprocessing parameters, learned on training data only."""

    method: str
    column_means: np.ndarray
    poisson_scales: np.ndarray | None = None
    savgol: tuple[int, int] | None = None  # (window, order)

    def __post_init__(self):
        if self.method not in PREPROCESS_METHODS:
            raise ConfigError(f"unknown preprocessing method '{self.method}'")
        self.column_means = np.asarray(self.column_means, dtype=float)
        if self.poisson_scales is not None:
            self.poisson_scales = np.asarray(self.poisson_scales, dtype=float)
        if (self.method == POISSON_THEN_CENTER) != (self.poisson_scales is not None):
            raise ConfigError("poisson_scales present iff method is poisson_then_center")
        if self.poisson_scales is not None and np.any(self.poisson_scales <= 0):
            raise ConfigError("poisson scales must all be positive")
        if (self.method == SAVGOL_THEN_CENTER) != (self.savgol is not None):
            raise ConfigError("savgol params present iff method is savgol_then_center")
        if self.savgol is not None:
            window, order = self.savgol
            if window % 2 == 0 or window < 3:
                raise ConfigError("savgol window must be an odd integer >= 3")
            if not (0 <= order < window):
                raise ConfigError("savgol order must satisfy 0 <= order < window")

    def to_dict(self) -> dict:
        out = {"method": self.method, "column_means": [float(v) for v in self.column_means]}
        if self.poisson_scales is not None:
            out["poisson_scales"] = [float(v) for v in self.poisson_scales]
        if self.savgol is not None:
            out["savgol"] = {"window": self.savgol[0], "order": self.savgol[1]}
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "PreprocessState":
        savgol = None
        if "savgol" in obj:
            savgol = (int(obj["savgol"]["window"]), int(obj["savgol"]["order"]))
        return cls(
            method=obj["method"],
            column_means=np.asarray(obj["column_means"], dtype=float),
            poisson_scales=(
                np.asarray(obj["poisson_scales"], dtype=float)
                if "poisson_scales" in obj
                else None
            ),
            savgol=savgol,
        )


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
    axis, data, labels, ids = _read_plain(path) or _read_rows(path)
    return SpectralDataset(axis=axis, intensities=data, labels=labels, sample_ids=ids)


# Text that sends a file to _read_rows: a quote or a carriage return changes
# how csv.reader splits it, NUL is left to csv.reader, and \x1c-\x1f are
# whitespace to loadtxt's float parser but not to float().
_NOT_PLAIN = '"\r\x00\x1c\x1d\x1e\x1f'


_Parsed = tuple[np.ndarray, np.ndarray, list[int], list[str]]  # axis, data, labels, ids


def _read_plain(path: Path) -> _Parsed | None:
    """``_read_rows``'s result for a file ``_read_rows`` would accept whose
    text holds none of ``_NOT_PLAIN``'s characters, else None.

    Lines are split at line feeds, ids and labels by ``str.split`` and the
    numbers of all rows by one ``np.loadtxt``. ``loadtxt`` hands each
    token's ASCII text to ``PyOS_string_to_double``, as ``float()``
    does, and refuses what only ``float()`` takes (underscores,
    non-ASCII digits, empty cells), so accepted values agree bit for bit.
    """
    try:
        with path.open(newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    if any(c in text for c in _NOT_PLAIN):
        return None
    lines = text.split("\n")
    # csv.reader refuses a field longer than its limit
    limit = csv.field_size_limit()
    if any(len(f) > limit for line in lines if len(line) > limit for f in line.split(",")):
        return None
    try:
        axis = _header_axis(path, lines[0].split(","))
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


def _header_axis(path: Path, header: list[str]) -> np.ndarray:
    """The axis named by a header row's fields."""
    if len(header) < 3 or header[0] != "id" or header[1] != "label":
        raise FormatError(f"{path}: header must start with 'id,label' and have axis columns")
    axis = []
    for col, tok in enumerate(header[2:], start=3):
        try:
            axis.append(float(tok))
        except ValueError as exc:
            raise FormatError(f"{path}: line 1, column {col}: non-numeric axis value '{tok}'") from exc
    axis = np.asarray(axis)
    if np.any(np.diff(axis) <= 0):
        raise FormatError(f"{path}: axis not strictly increasing")
    return axis


def _read_rows(path: Path) -> _Parsed:
    """The file's rows through csv.reader, each cell through ``float()``."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise FormatError(f"{path}: empty file")
    axis = _header_axis(path, rows[0])
    p = axis.size

    ids: list[str] = []
    labels: list[int] = []
    data: list[list[float]] = []
    seen: set[str] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != p + 2:
            raise FormatError(f"{path}: line {lineno}: expected {p + 2} columns, found {len(row)}")
        sid = row[0]
        if sid in seen:
            raise FormatError(f"{path}: line {lineno}: duplicate sample id '{sid}'")
        seen.add(sid)
        if row[1] not in ("0", "1"):
            raise FormatError(f"{path}: line {lineno}, column 2: label must be 0 or 1, found '{row[1]}'")
        values = []
        for col, tok in enumerate(row[2:], start=3):
            try:
                values.append(float(tok))
            except ValueError as exc:
                raise FormatError(
                    f"{path}: line {lineno}, column {col}: non-numeric cell '{tok}'"
                ) from exc
        ids.append(sid)
        labels.append(int(row[1]))
        data.append(values)
    if not data:
        raise FormatError(f"{path}: no data rows")
    return axis, np.asarray(data), labels, ids


def dataset_csv_text(ds: SpectralDataset) -> str:
    """The canonical CSV serialization (deterministic bytes)."""
    # "%.17g" % x is the text _fmt(x) gives, one template fills a whole row
    row_fmt = ",".join(["%.17g"] * ds.n_variables)
    lines = ["id,label," + row_fmt % tuple(ds.axis.tolist())]
    for sid, label, row in zip(ds.sample_ids, ds.labels.tolist(), ds.intensities):
        lines.append(f"{_csv_field(sid)},{label}," + row_fmt % tuple(row.tolist()))
    lines.append("")  # the final newline, without copying the joined text again
    return "\n".join(lines)


def save_csv(ds: SpectralDataset, path: str | Path) -> None:
    Path(path).write_text(dataset_csv_text(ds))


def _kennard_stone_select(X: np.ndarray, count: int) -> list[int]:
    """Max-min-distance selection of ``count`` rows; ties go to the lowest index."""
    n = X.shape[0]
    d2 = cdist(X, X, metric="sqeuclidean")
    # First pair: maximum pairwise distance, lexicographically smallest on ties.
    flat = int(np.argmax(d2))
    i, j = divmod(flat, n)
    if i > j:
        i, j = j, i
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


def kennard_stone_split(
    ds: SpectralDataset, train_fraction: float
) -> tuple[SpectralDataset, SpectralDataset]:
    """Deterministic per-class Kennard-Stone split.

    Each class contributes round(train_fraction * class size) samples,
    clamped so neither side of the split is empty. Outputs keep the
    original dataset row order.
    """
    if not (0.0 < train_fraction < 1.0):
        raise ConfigError("train_fraction must be in (0, 1)")
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
    train = ds.subset(np.flatnonzero(train_mask))
    test = ds.subset(np.flatnonzero(~train_mask))
    if train.n_samples == 0 or test.n_samples == 0:
        raise ConfigError("train_fraction yields an empty train or test set")
    return train, test


def fit_preprocess(
    ds: SpectralDataset,
    method: str,
    savgol_window: int = 15,
    savgol_order: int = 2,
) -> PreprocessState:
    """Learn preprocessing parameters from ``ds`` only."""
    if method not in PREPROCESS_METHODS:
        raise ConfigError(f"unknown preprocessing method '{method}'")
    if ds.n_samples == 0:
        raise ConfigError("cannot fit preprocessing on an empty dataset")
    X = ds.intensities
    if method == MEAN_CENTER:
        return PreprocessState(method=method, column_means=X.mean(axis=0))
    if method == POISSON_THEN_CENTER:
        raw_means = X.mean(axis=0)
        bad = np.flatnonzero(raw_means <= 0)
        if bad.size:
            raise ConfigError(
                f"poisson scaling requires positive column means; column {int(bad[0])} "
                f"has mean {raw_means[bad[0]]!r}"
            )
        scales = np.sqrt(raw_means)
        scaled = X / scales
        return PreprocessState(method=method, column_means=scaled.mean(axis=0), poisson_scales=scales)
    if savgol_window > ds.n_variables:
        raise ConfigError("savgol window exceeds the number of variables")
    state = PreprocessState(
        method=method,
        column_means=np.zeros(ds.n_variables),
        savgol=(int(savgol_window), int(savgol_order)),
    )
    smoothed = _savgol_rows(X, state)
    state.column_means = smoothed.mean(axis=0)
    return state


def _savgol_rows(X: np.ndarray, state: PreprocessState) -> np.ndarray:
    window, order = state.savgol
    # mirror padding keeps the output length at p
    return savgol_filter(X, window_length=window, polyorder=order, axis=1, mode="mirror")


def apply_preprocess(state: PreprocessState, ds: SpectralDataset) -> SpectralDataset:
    """Transform ``ds`` with parameters learned at fit time."""
    if ds.n_variables != state.column_means.size:
        raise ConfigError(
            f"dataset width {ds.n_variables} does not match fitted width {state.column_means.size}"
        )
    X = ds.intensities
    if state.method == MEAN_CENTER:
        out = X - state.column_means
    elif state.method == POISSON_THEN_CENTER:
        out = X / state.poisson_scales - state.column_means
    else:
        out = _savgol_rows(X, state) - state.column_means
    return SpectralDataset(
        axis=ds.axis, intensities=out, labels=ds.labels, sample_ids=list(ds.sample_ids)
    )


def resolve_zones(cfg: ZoneConfig, ds: SpectralDataset) -> list[np.ndarray]:
    """Map each zone to the axis indices it covers (inclusive bounds).

    Returns index arrays in config order; every zone must capture at
    least 2 axis points and no point may fall into two zones.
    """
    sets = []
    for z in cfg.zones:
        idx = np.flatnonzero((ds.axis >= z.start) & (ds.axis <= z.end))
        if idx.size < 2:
            raise ConfigError(f"zone '{z.name}' covers {idx.size} axis point(s); at least 2 required")
        sets.append(idx)
    total = np.concatenate(sets)
    if np.unique(total).size != total.size:
        raise ConfigError("zones share an axis point at a common boundary")
    return sets
