"""Plain-text serialization for grids, signals, and fit records.

Matrix files ("ambimat v1") are line-oriented: one header, one
comma-separated line per row, then optional trailing comment lines that are
preserved verbatim.  Every value is written as ``%.17g`` (a complex value as
``%.17g%+.17gj``), so a parse/re-serialize cycle is byte-identical and values
round-trip exactly; rows are formatted and streamed to the file one at a time,
and a matrix given as :class:`RowBlocks` is built one block at a time too.
A matrix may have zero rows.  The format stores tables and partial grids
as well as grids: ``analyze`` writes its shrunk grids as ``(tau, k, value)``
rows of the kept cells followed by a ``# dense shape=<rows>x<cols>`` line,
and the raw EMAF as its ``tau >= 0`` rows followed by a
``# half shape=<rows>x<cols>`` line (see the README for both rebuilds).
"""

from __future__ import annotations

import os
from functools import partial
from typing import Iterable, NamedTuple

import numpy as np

from .series import TimeSeries

__all__ = [
    "RowBlocks",
    "write_matrix",
    "read_matrix",
    "write_signal",
    "read_signal",
    "format_psi_record",
    "parse_psi_record",
]

_MATRIX_MAGIC = "# ambimat v1"
_SIGNAL_MAGIC = "# signal v1"


def _fmt_real(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(float(x), ".17g")


class RowBlocks(NamedTuple):
    """A ``rows x cols`` matrix of ``dtype`` given as consecutive blocks of its rows.

    :func:`write_matrix` draws, checks and writes one block at a time, so
    no more than one block of the matrix need exist at once.
    """

    rows: int
    cols: int
    dtype: type
    blocks: Iterable[np.ndarray]


def _values(block: np.ndarray, cols: int, complex_: bool) -> np.ndarray:
    """The finite 2-d ``block`` of ``cols`` columns as the real array its rows are formatted from."""
    block = np.asarray(block)
    if block.ndim != 2 or block.shape[1] != cols:
        raise ValueError(f"expected a 2-d array of {cols} columns, got shape {block.shape}")
    finite = np.isfinite(block)
    if not finite.all():
        raise ValueError(f"cannot serialize non-finite value {block[~finite][0]!r}")
    if complex_:
        return np.ascontiguousarray(block, dtype=complex).view(float)
    return np.asarray(block, dtype=float)


def write_matrix(
    path: str | os.PathLike,
    array: np.ndarray | RowBlocks,
    trailing: Iterable[str] = (),
) -> None:
    """Write a 2-d real or complex array, or :class:`RowBlocks`, as an ambimat v1 file.

    ``trailing`` lines are appended after the data; each must already start
    with ``#`` so the file stays parseable.  An array is checked before the
    file is opened; a block is checked when it is drawn, so a bad block or a
    wrong row count leaves the rows before it written.
    """
    if isinstance(array, RowBlocks):
        rows, cols, dtype, blocks = array
        complex_ = np.dtype(dtype).kind == "c"
        blocks = map(partial(_values, cols=cols, complex_=complex_), blocks)
    else:
        array = np.asarray(array)
        if array.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {array.shape}")
        (rows, cols), complex_ = array.shape, np.iscomplexobj(array)
        blocks = [_values(array, cols, complex_)]
    trailing = list(trailing)
    for comment in trailing:
        if not comment.startswith("#"):
            raise ValueError(f"trailing line must start with '#': {comment!r}")
    kind, cell = ("complex", "%.17g%+.17gj") if complex_ else ("real", "%.17g")
    row_fmt = ",".join([cell] * cols) + "\n"
    with open(path, "w") as fh:
        fh.write(f"{_MATRIX_MAGIC} {rows} {cols} {kind}\n")
        # map keeps no block, so each one is freed before the next is drawn
        written = sum(map(partial(_write_rows, fh, row_fmt), blocks))
        if written != rows:
            raise ValueError(f"expected {rows} rows, got {written}")
        for comment in trailing:
            fh.write(comment + "\n")


def _write_rows(fh, row_fmt: str, values: np.ndarray) -> int:
    """Write each row of ``values`` through ``row_fmt``; return the row count."""
    for row in values:
        fh.write(row_fmt % tuple(row.tolist()))
    return len(values)


def read_matrix(path: str | os.PathLike) -> tuple[np.ndarray, list[str]]:
    """Parse an ambimat v1 file into (array, trailing comment lines)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith(_MATRIX_MAGIC):
        raise ValueError(f"{path}: not an ambimat v1 file")
    fields = lines[0][len(_MATRIX_MAGIC) :].split()
    if len(fields) != 3 or fields[2] not in ("real", "complex"):
        raise ValueError(f"{path}: malformed header {lines[0]!r}")
    try:
        rows, cols = int(fields[0]), int(fields[1])
    except ValueError:
        raise ValueError(f"{path}: malformed header {lines[0]!r}") from None
    if len(lines) < 1 + rows:
        raise ValueError(f"{path}: expected {rows} data rows, found {len(lines) - 1}")
    kind = fields[2]
    cast = complex if kind == "complex" else float
    data = np.empty((rows, cols), dtype=complex if kind == "complex" else float)
    for i in range(rows):
        tokens = lines[1 + i].split(",")
        if len(tokens) != cols:
            raise ValueError(f"{path}: row {i} has {len(tokens)} values, expected {cols}")
        try:
            data[i] = [cast(tok) for tok in tokens]
        except ValueError as exc:
            raise ValueError(f"{path}: row {i}: {exc}") from None
    trailing = []
    for line in lines[1 + rows :]:
        if line and not line.startswith("#"):
            raise ValueError(f"{path}: unexpected content after data: {line!r}")
        if line:
            trailing.append(line)
    return data, trailing


def write_signal(path: str | os.PathLike, x: TimeSeries) -> None:
    """Write a time series as a one-column csv with an n/dt header."""
    lines = [f"{_SIGNAL_MAGIC} n={x.n} dt={_fmt_real(x.dt)}"]
    lines.extend(_fmt_real(v) for v in x.samples)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_signal(path: str | os.PathLike) -> TimeSeries:
    """Parse a signal csv written by :func:`write_signal`."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith(_SIGNAL_MAGIC):
        raise ValueError(f"{path}: not a signal v1 file")
    header = dict(
        item.split("=", 1) for item in lines[0][len(_SIGNAL_MAGIC) :].split() if "=" in item
    )
    if "n" not in header or "dt" not in header:
        raise ValueError(f"{path}: malformed header {lines[0]!r}")
    try:
        n, dt = int(header["n"]), float(header["dt"])
    except ValueError:
        raise ValueError(f"{path}: malformed header {lines[0]!r}") from None
    body = [line for line in lines[1:] if line and not line.startswith("#")]
    if len(body) != n:
        raise ValueError(f"{path}: expected {n} samples, found {len(body)}")
    try:
        samples = np.array([float(v) for v in body])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return TimeSeries(samples, dt=dt)


def format_psi_record(
    vbar: float, rho: float, sigma2: float, nll: float, iterations: int
) -> str:
    """Single-line record of a mixture fit."""
    return (
        f"vbar={_fmt_real(vbar)} rho={_fmt_real(rho)} sigma2={_fmt_real(sigma2)} "
        f"nll={_fmt_real(nll)} iterations={int(iterations)}"
    )


def parse_psi_record(line: str) -> dict[str, float]:
    """Parse a record produced by :func:`format_psi_record`."""
    fields = {}
    for item in line.split():
        if "=" not in item:
            raise ValueError(f"malformed psi record item {item!r}")
        key, value = item.split("=", 1)
        fields[key] = float(value)
    for key in ("vbar", "rho", "sigma2", "nll", "iterations"):
        if key not in fields:
            raise ValueError(f"psi record missing field {key!r}")
    fields["iterations"] = int(fields["iterations"])
    return fields
