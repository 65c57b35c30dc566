"""Trace file handling.

Traces are CSV with a ``timestamp`` column (ISO-8601, minute cadence), one
column per device in watts, and a ``total`` column. Loading rejects a cell
that is not a finite number (``inf``, ``nan``) with its row and column,
treats a blank cell as missing, clamps negative readings to zero,
forward-fills gaps of up to five minutes, and splits the trace into
sessions at longer gaps. All writes are atomic
(write-temp-then-rename) and numbers are printed with nine significant
digits so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

GAP_FILL_LIMIT = 5  # minutes

_TS_FMT = "%Y-%m-%dT%H:%M"


def fmt(x: float) -> str:
    return "%.9g" % float(x)


def atomic_write_text(path, text: str) -> None:
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class Trace:
    """In-memory power trace on a contiguous minute grid."""

    start: datetime
    devices: tuple[str, ...]
    values: np.ndarray      # (T, K) watts, clamped at zero
    total: np.ndarray       # (T,) watts
    sessions: tuple[tuple[int, int], ...]  # half-open index ranges

    @property
    def T(self) -> int:
        return len(self.total)

    def timestamps(self):
        return [self.start + timedelta(minutes=i) for i in range(self.T)]


def _parse_ts(s: str, row: int) -> datetime:
    try:
        return datetime.strptime(s.strip()[:16], _TS_FMT)
    except ValueError as ex:
        raise ValueError(f"row {row}: bad timestamp {s!r}") from ex


def _parse_cell(cell: str, row: int, column: str) -> float:
    """A reading in watts; a blank cell is missing (NaN)."""
    if cell.strip() == "":
        return np.nan
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"row {row}, column {column!r}: not a number: {cell!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"row {row}, column {column!r}: non-finite value {cell!r}")
    return value


def load_trace(path) -> Trace:
    """Read and validate a trace file; see the module docstring for the
    clamping, gap-fill, and session-split policy."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty trace file")
        rows = list(reader)
    if not header or header[0] != "timestamp" or header[-1] != "total":
        raise ValueError("header must be: timestamp, <devices...>, total")
    devices = tuple(header[1:-1])
    if not rows:
        raise ValueError("trace has a header but no rows")

    times = []
    raw = []
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"row {i + 2}: expected {len(header)} cells")
        times.append(_parse_ts(row[0], i + 2))
        raw.append([_parse_cell(c, i + 2, name) for c, name in zip(row[1:], header[1:])])
    for i, (a, b) in enumerate(zip(times, times[1:])):
        if b <= a:
            raise ValueError(f"row {i + 3}: timestamps must be strictly increasing")

    # lay rows onto the contiguous minute grid
    start = times[0]
    T = int((times[-1] - start).total_seconds() // 60) + 1
    grid = np.full((T, len(header) - 1), np.nan)
    present = np.zeros(T, dtype=bool)
    for t, vals in zip(times, raw):
        i = int((t - start).total_seconds() // 60)
        grid[i] = vals
        present[i] = True

    # missing cells in present rows: forward fill, backfill at the head
    for j in range(grid.shape[1]):
        col = grid[:, j]
        obs = present & ~np.isnan(col)
        if not np.any(obs):
            raise ValueError(f"column {header[1 + j]!r} has no data")
        idx = np.flatnonzero(obs)
        filled = col[idx[np.clip(np.searchsorted(idx, np.arange(T), side="right") - 1,
                                 0, len(idx) - 1)]]
        grid[present, j] = filled[present]

    # missing rows: fill runs of <= GAP_FILL_LIMIT by carrying the previous
    # row; longer runs split the trace into sessions and stay missing
    sessions = []
    run_start = 0
    t = 0
    while t < T:
        if present[t]:
            t += 1
            continue
        gap_start = t
        while t < T and not present[t]:
            t += 1
        if gap_start == 0 or t - gap_start > GAP_FILL_LIMIT:
            if gap_start > run_start:
                sessions.append((run_start, gap_start))
            run_start = t
        else:
            grid[gap_start:t] = grid[gap_start - 1]
            present[gap_start:t] = True
    if T > run_start:
        sessions.append((run_start, T))
    if not sessions:
        raise ValueError("no complete rows in trace")

    values = np.maximum(np.nan_to_num(grid[:, :-1], nan=0.0), 0.0)
    total = np.maximum(np.nan_to_num(grid[:, -1], nan=0.0), 0.0)
    return Trace(start=start, devices=devices, values=values, total=total,
                 sessions=tuple(sessions))


def write_trace(path, start: datetime, devices, values: np.ndarray,
                total: np.ndarray) -> None:
    lines = ["timestamp," + ",".join(devices) + ",total"]
    for t in range(len(total)):
        ts = (start + timedelta(minutes=t)).strftime(_TS_FMT)
        cells = [fmt(v) for v in values[t]] + [fmt(total[t])]
        lines.append(ts + "," + ",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n")

