"""``dataio.load_csv`` against the csv.reader + per-cell ``float()`` reader
it replaced on plain files: same arrays bit for bit, same errors."""

import csv
from pathlib import Path

import numpy as np
import pytest

from smx import dataio
from smx.dataio import SpectralDataset, load_csv
from smx.errors import FormatError


def reference_load_csv(path: str | Path) -> SpectralDataset:
    """Parse a dataset CSV; row order is preserved.

    Errors carry the 1-based file line and column of the offending cell.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise FormatError(f"{path}: empty file")
    header = rows[0]
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
    return SpectralDataset(axis=axis, intensities=np.asarray(data), labels=np.asarray(labels), sample_ids=ids)


def _outcome(reader, path):
    """Everything a caller can see of one read: bit patterns, ids, labels,
    or the exception type and message."""
    try:
        ds = reader(path)
    except Exception as exc:  # the comparison covers every failure
        return ("raised", type(exc), str(exc))
    return (
        "read",
        ds.axis.dtype.str,
        ds.axis.view(np.uint64).tolist(),
        ds.intensities.dtype.str,
        ds.intensities.shape,
        ds.intensities.view(np.uint64).tolist(),
        ds.labels.dtype.str,
        ds.labels.tolist(),
        ds.sample_ids,
    )


def _assert_same(tmp_path, data: bytes, name="case.csv"):
    path = tmp_path / name
    path.write_bytes(data)
    got, want = _outcome(load_csv, path), _outcome(reference_load_csv, path)
    assert got == want, data
    return got


HEADER = "id,label,1,2.5,3\n"
ROWS = "a,0,1.5,-2,3e-3\nb,1,0.1,4,5\nc,0,7,8,9.25\n"


def _csv(*lines):
    return ("\n".join(lines) + "\n").encode()


CASES = {
    "plain": (HEADER + ROWS).encode(),
    "no final newline": (HEADER + ROWS).rstrip("\n").encode(),
    "quoted ids": _csv("id,label,1,2", '"a,b",0,1,2', '"c""d",1,3,4', '"e\nf",0,5,6'),
    "quoted number": _csv("id,label,1,2", 'a,0,"1.5",2'),
    "crlf": (HEADER + ROWS).replace("\n", "\r\n").encode(),
    "bare cr": _csv("id,label,1,2", "a,0,1,2\rb,1,3,4"),
    "cr in a row": _csv("id,label,1,2", "a,0,1\r,2"),
    "nul": _csv("id,label,1,2", "a\0,0,1,2"),
    "nul in a number": _csv("id,label,1,2", "a,0,1\0,2"),
    "bom": ("\ufeff" + HEADER + ROWS).encode(),
    "bom in a cell": _csv("id,label,1,2", "a,0,\ufeff1,2"),
    "blank lines": _csv("id,label,1,2", "", "a,0,1,2", "", "", "b,1,3,4", ""),
    "blank first line": _csv("", "id,label,1,2", "a,0,1,2"),
    "whitespace-only line": _csv("id,label,1,2", "a,0,1,2", "   ", "b,1,3,4"),
    "tab-only line": _csv("id,label,1,2", "a,0,1,2", "\t"),
    "too few fields": _csv("id,label,1,2", "a,0,1"),
    "too many fields": _csv("id,label,1,2", "a,0,1,2,3"),
    "id only": _csv("id,label,1,2", "a"),
    "id and label only": _csv("id,label,1", "a,0"),
    "empty cell": _csv("id,label,1,2", "a,0,,2"),
    "empty last cell": _csv("id,label,1,2", "a,0,1,"),
    "empty rest": _csv("id,label,1", "a,0,"),
    "empty rest in every row": _csv("id,label,1", "a,0,", "b,1,"),
    "whitespace cell": _csv("id,label,1", "a,0, "),
    "padded cells": _csv("id,label,1,2", "a,0, 1 ,\t2\x0b", "b,1,\xa03\u3000,4\x85"),
    "underscore": _csv("id,label,1,2", "a,0,1_000,2"),
    "underscore in axis": _csv("id,label,1_0,2_0", "a,0,1,2"),
    "fullwidth digits": _csv("id,label,1,2", "a,0,\uff11\uff12,2"),
    "arabic-indic digits": _csv("id,label,1,2", "a,0,\u0661,2"),
    "arabic-indic axis": _csv("id,label,\u0661,\u0662", "a,0,1,2"),
    "nan": _csv("id,label,1,2", "a,0,nan,2"),
    "infinity": _csv("id,label,1,2", "a,0,Infinity,-inf"),
    "overflow": _csv("id,label,1,2", "a,0,1e400,2"),
    "underflow": _csv("id,label,1,2", "a,0,1e-400,-1e-400"),
    "subnormals": _csv("id,label,1,2,3", "a,0,4.9e-324,2.2250738585072009e-308,-5e-324"),
    "negative zero": _csv("id,label,1,2", "a,0,-0.0,-0"),
    "long digits": _csv("id,label,1,2", "a,0,0." + "3" * 400 + ",1" + "0" * 300),
    "hex": _csv("id,label,1,2", "a,0,0x10,2"),
    "trailing text": _csv("id,label,1,2", "a,0,1.5abc,2"),
    "information separators": _csv("id,label,1,2", "a,0,1\x1c,\x1f2"),
    "information separator in an id": _csv("id,label,1,2", "a\x1e,0,1,2"),
    "label space one": _csv("id,label,1,2", "a, 1,1,2"),
    "label two": _csv("id,label,1,2", "a,2,1,2"),
    "label empty": _csv("id,label,1,2", "a,,1,2"),
    "label 1.0": _csv("id,label,1,2", "a,1.0,1,2"),
    "duplicate ids": _csv("id,label,1,2", "a,0,1,2", "a,1,3,4"),
    "duplicate ids after a bad cell": _csv("id,label,1,2", "a,0,1,x", "a,1,3,4"),
    "bad cell before a field-count error": _csv("id,label,1,2", "a,0,x,2", "b,1,3"),
    "empty ids": _csv("id,label,1", ",0,1", ",1,2"),
    "header wrong": _csv("ID,label,1,2", "a,0,1,2"),
    "header too short": _csv("id,label", "a,0"),
    "header axis text": _csv("id,label,1,x", "a,0,1,2"),
    "header axis not increasing": _csv("id,label,2,1", "a,0,1,2"),
    "header axis repeated": _csv("id,label,1,1", "a,0,1,2"),
    "header axis nan": _csv("id,label,1,nan", "a,0,1,2"),
    "header axis padded": _csv("id,label, 1,2 ", "a,0,1,2"),
    "header trailing comma": _csv("id,label,1,2,", "a,0,1,2,"),
    "empty file": b"",
    "newline only": b"\n",
    "header only": _csv("id,label,1,2"),
    "header and blank lines": _csv("id,label,1,2", "", ""),
    "comment sign": _csv("id,label,1,2", "a,0,1,2#3"),
    "hash row": _csv("id,label,1,2", "#a,0,1,2"),
    "unicode line separators": _csv("id,label,1,2", "a\u2028,0,1,2\u2029", "b\x85,1,3,4"),
    "invalid utf-8": b"id,label,1,2\na\xff,0,1,2\n",
    "single column": _csv("id,label,7", "a,0,1", "b,1,2"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_named_case_matches_reference(tmp_path, name):
    _assert_same(tmp_path, CASES[name])


def test_named_cases_cover_both_outcomes(tmp_path):
    kinds = [_assert_same(tmp_path, data)[0] for data in CASES.values()]
    assert kinds.count("read") >= 10 and kinds.count("raised") >= 30


ALPHABET = [
    ",", ",", '"', "\r", "\n", "\n", "\0", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1f",
    "\xa0", "\u3000", "\ufeff", "\u2028", "0", "1", "2", "9", ".", "e", "E", "-",
    "+", "_", "\u0661", "\uff11", "a", "n", "i", "f", "#", "x",
]


def _mutate(rng, text: str) -> str:
    for _ in range(int(rng.integers(1, 4))):
        op = int(rng.integers(0, 5))
        pos = int(rng.integers(0, len(text) + 1))
        char = ALPHABET[int(rng.integers(0, len(ALPHABET)))]
        if op == 0:  # insert
            text = text[:pos] + char + text[pos:]
        elif op == 1 and text:  # replace
            pos = min(pos, len(text) - 1)
            text = text[:pos] + char + text[pos + 1:]
        elif op == 2:  # delete
            text = text[:pos] + text[pos + 1:]
        elif op == 3:  # repeat a line
            lines = text.split("\n")
            k = int(rng.integers(0, len(lines)))
            lines.insert(k, lines[k])
            text = "\n".join(lines)
        else:  # drop a line
            lines = text.split("\n")
            del lines[int(rng.integers(0, len(lines)))]
            text = "\n".join(lines)
    return text


def _random_base(rng) -> str:
    p = int(rng.integers(1, 5))
    n = int(rng.integers(1, 5))
    axis = np.cumsum(rng.uniform(0.5, 2.0, p))
    values = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-5, 6, (n, p))
    fmt = "%.17g" if rng.random() < 0.5 else "%.3g"
    lines = ["id,label," + ",".join(fmt % v for v in axis)]
    for i in range(n):
        cells = ",".join(fmt % v for v in values[i])
        lines.append(f"s{i},{int(rng.integers(0, 2))},{cells}")
    return "\n".join(lines) + "\n"


def test_seeded_mutations_match_reference(tmp_path):
    rng = np.random.default_rng(20261018)
    kinds = []
    for k in range(600):
        text = _mutate(rng, _random_base(rng))
        kinds.append(_assert_same(tmp_path, text.encode(), name=f"m{k % 7}.csv")[0])
    # the mutations exercise both the values and the errors
    assert kinds.count("read") >= 100 and kinds.count("raised") >= 100


def test_unmutated_random_files_match_reference(tmp_path):
    rng = np.random.default_rng(7)
    for _ in range(50):
        assert _assert_same(tmp_path, _random_base(rng).encode())[0] == "read"


@pytest.mark.parametrize(
    "data",
    [
        _csv("id,label,1,2", "a,0,1,2"),  # every field within the limit
        _csv("id,label,1,2", "abcdefghijklmnop,0,1,2"),  # a long id
        _csv("id,label,1,2", "a,0,1.00000000000000000,2"),  # a long number
        _csv("id,label,1.0000000000000000000,2", "a,0,1,2"),  # a long axis value
        _csv("id,label,1,2,3,4,5,6,7", "a,0,1,2,3,4,5,6,7"),  # long lines, short fields
    ],
    ids=["short fields", "long id", "long number", "long axis value", "long lines"],
)
def test_field_size_limit_matches_reference(tmp_path, data):
    old = csv.field_size_limit(12)
    try:
        _assert_same(tmp_path, data)
    finally:
        csv.field_size_limit(old)


class TestWhichPath:
    @pytest.fixture
    def reader_calls(self, monkeypatch):
        calls = []
        real = csv.reader

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(dataio.csv, "reader", counting)
        return calls

    def test_plain_file_never_calls_csv_reader(self, tmp_path, reader_calls):
        path = tmp_path / "plain.csv"
        path.write_bytes(CASES["plain"])
        assert load_csv(path).n_samples == 3
        assert reader_calls == []

    def test_quoted_file_calls_csv_reader(self, tmp_path, reader_calls):
        path = tmp_path / "quoted.csv"
        path.write_bytes(CASES["quoted ids"])
        assert load_csv(path).sample_ids == ["a,b", 'c"d', "e\nf"]
        assert len(reader_calls) == 1

    def test_refused_plain_file_errors_through_csv_reader(self, tmp_path, reader_calls):
        path = tmp_path / "bad.csv"
        path.write_bytes(CASES["empty cell"])
        with pytest.raises(FormatError, match=r"line 2, column 3: non-numeric cell ''"):
            load_csv(path)
        assert len(reader_calls) == 1
