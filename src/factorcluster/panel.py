"""Panel data types and CSV serialization.

A panel is a T x n real matrix with strictly increasing time labels and
unique column names. Time labels are opaque strings ordered
lexicographically, so ISO-8601 dates sort correctly. All CSV files are
UTF-8 and comma-separated; panels carry a mandatory header whose first
cell is ``date``, matrices are headerless and dense.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from typing import TextIO

import numpy as np

from .errors import PanelFormatError


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return ``(m + m.T) / 2``, which is exactly symmetric elementwise."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    out = m + m.T
    out /= 2.0
    return out


def _freeze(a: np.ndarray) -> np.ndarray:
    """Return a read-only float64 copy of ``a``."""
    out = np.array(a, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class _Panel:
    """Shared representation of a named, time-indexed value matrix."""

    times: tuple[str, ...]
    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        times = tuple(str(t) for t in self.times)
        names = tuple(str(n) for n in self.names)
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise PanelFormatError(f"panel values must be 2-D, got {values.ndim}-D")
        if values.shape != (len(times), len(names)):
            raise PanelFormatError(
                f"panel shape {values.shape} does not match "
                f"{len(times)} times x {len(names)} names"
            )
        if len(times) < 2:
            raise PanelFormatError("panel needs at least 2 rows")
        if len(names) < 1:
            raise PanelFormatError("panel needs at least 1 column")
        for label in times + names:
            if label == "" or "," in label or "\n" in label or "\r" in label:
                raise PanelFormatError(f"label {label!r} is empty or not CSV-safe")
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise PanelFormatError(f"duplicate column names: {dup}")
        for k in range(1, len(times)):
            if not times[k - 1] < times[k]:
                raise PanelFormatError(
                    f"time labels must increase strictly: "
                    f"{times[k - 1]!r} !< {times[k]!r} at row {k + 1}"
                )
        if not np.all(np.isfinite(values)):
            t, j = np.argwhere(~np.isfinite(values))[0]
            raise PanelFormatError(
                f"non-finite value at time {times[t]!r}, column {names[j]!r}"
            )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "values", _freeze(values))

    def rows(self, start: int, stop: int) -> "_Panel":
        """Rows ``[start, stop)`` as a panel of the same type.

        The values are a read-only view of this panel's rows. A row slice
        of a valid panel is valid, so it is not checked again, except that
        it must keep at least 2 rows.
        """
        times = self.times[start:stop]
        if len(times) < 2:
            raise PanelFormatError("panel needs at least 2 rows")
        out = object.__new__(type(self))
        object.__setattr__(out, "times", times)
        object.__setattr__(out, "names", self.names)
        object.__setattr__(out, "values", self.values[start:stop])
        return out

    @property
    def n_periods(self) -> int:
        return len(self.times)

    @property
    def n_series(self) -> int:
        return len(self.names)


class ReturnsPanel(_Panel):
    """Panel of observed series (rows are dates, columns are series)."""


class FactorPanel(_Panel):
    """Panel of observable factor realizations aligned with a returns panel."""


@dataclass(frozen=True)
class ClusterPartition:
    """Disjoint cover of series indices ``0..n_series-1`` by cluster.

    Groups are stored sorted internally and ordered by their smallest
    member, which fixes the cluster labelling: cluster ``k`` is the one
    containing the ``k``-th smallest group leader.
    """

    groups: tuple[tuple[int, ...], ...]
    n_series: int

    def __post_init__(self) -> None:
        groups = tuple(tuple(int(i) for i in g) for g in self.groups)
        if len(groups) == 0:
            raise ValueError("partition needs at least one group")
        seen: set[int] = set()
        for g in groups:
            if len(g) == 0:
                raise ValueError("empty group in partition")
            if list(g) != sorted(g):
                raise ValueError(f"group {g} is not sorted ascending")
            seen.update(g)
        total = sum(len(g) for g in groups)
        if total != len(seen):
            raise ValueError("groups are not disjoint")
        if seen != set(range(self.n_series)):
            raise ValueError(
                f"groups must cover exactly 0..{self.n_series - 1}"
            )
        if list(groups) != sorted(groups, key=lambda g: g[0]):
            raise ValueError("groups must be ordered by smallest member")
        object.__setattr__(self, "groups", groups)

    @classmethod
    def from_groups(cls, groups, n_series: int) -> "ClusterPartition":
        """Build a partition from any iterable of index groups, normalizing order."""
        norm = sorted((tuple(sorted(int(i) for i in g)) for g in groups), key=lambda g: g[0] if g else -1)
        return cls(tuple(norm), int(n_series))

    @classmethod
    def from_labels(cls, labels) -> "ClusterPartition":
        """Build a partition from a length-p vector of arbitrary cluster labels."""
        labels = np.asarray(labels)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a nonempty 1-D sequence")
        by_label: dict = {}
        for i, lab in enumerate(labels.tolist()):
            by_label.setdefault(lab, []).append(i)
        return cls.from_groups(by_label.values(), labels.size)

    @property
    def n_clusters(self) -> int:
        return len(self.groups)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.groups)

    @cached_property
    def labels(self) -> np.ndarray:
        """Length-p integer vector; entry i is the 0-based cluster of series i."""
        lab = np.empty(self.n_series, dtype=np.int64)
        for k, g in enumerate(self.groups):
            lab[list(g)] = k
        lab.setflags(write=False)
        return lab

    @cached_property
    def membership(self) -> np.ndarray:
        """p x K indicator matrix with exactly one 1 per row."""
        a = np.zeros((self.n_series, self.n_clusters), dtype=np.int64)
        a[np.arange(self.n_series), self.labels] = 1
        a.setflags(write=False)
        return a


@contextlib.contextmanager
def _atomic_file(path: str) -> Iterator[TextIO]:
    """A temp file beside ``path``, renamed onto it when the block succeeds.

    Readers never see partial output; on any error the temp file is removed.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path: str, text: str) -> None:
    """Write text to path via a temp file and rename, so readers never see partial output."""
    with _atomic_file(path) as fh:
        fh.write(text)


def _format_rows(values: np.ndarray, labels=None) -> Iterator[str]:
    """Yield a float matrix as CSV lines, one per row, at full precision.

    This is the package's one numeric CSV format: ``%.17g`` round-trips
    float64 exactly. When ``labels`` are given, each line is led by its
    label, which is written as is. Lines are made one at a time, so a
    writer can stream them to a file.
    """
    values = np.asarray(values, dtype=np.float64)
    fmt = ",".join(["%.17g"] * values.shape[1])
    if labels is None:
        return (fmt % tuple(row) for row in values)
    fmt = "%s," + fmt
    return (fmt % (label, *row) for label, row in zip(labels, values))


def _read_rows(path: str) -> list[list[str]]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return [row for row in csv.reader(fh)]
    except OSError as exc:
        raise PanelFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise PanelFormatError(f"{path} is not valid UTF-8: {exc}") from exc


def _parse_block(path: str, cells: list[list[str]], row0: int, col0: int) -> np.ndarray:
    """Convert a rectangular block of cells to a finite float64 array.

    One ``np.array`` call converts the whole block; it accepts exactly the
    strings ``float`` accepts. Only when it fails, or yields a non-finite
    value, are the cells scanned to name the first bad one by its 1-based
    file row and column (the block's first cell is at ``row0``, ``col0``).
    """
    try:
        data = np.array(cells, dtype=np.float64)
    except ValueError:
        pass
    else:
        if np.isfinite(data).all():
            return data
    for r, row in enumerate(cells, start=row0):
        for c, cell in enumerate(row, start=col0):
            try:
                v = float(cell)
            except ValueError:
                raise PanelFormatError(
                    f"{path}: non-numeric cell {cell!r} (row {r}, column {c})"
                ) from None
            if not math.isfinite(v):
                raise PanelFormatError(
                    f"{path}: non-finite cell {cell!r} (row {r}, column {c})"
                )
    raise AssertionError("np.array rejected a block that float accepts cell by cell")


def load_panel_csv(path: str, kind: str = "returns") -> _Panel:
    """Load a dated panel from CSV.

    Parameters
    ----------
    path : str
        CSV file with header ``date,<name>,...`` and one dated row per
        period. Dates must strictly increase; every cell must be a
        finite number.
    kind : str
        ``"returns"`` or ``"factors"``; selects the returned type.

    Returns
    -------
    ReturnsPanel or FactorPanel

    Raises
    ------
    PanelFormatError
        On any malformed content; messages cite the offending 1-based
        row and column of the file.
    """
    if kind not in ("returns", "factors"):
        raise ValueError(f"kind must be 'returns' or 'factors', got {kind!r}")
    rows = _read_rows(path)
    if not rows:
        raise PanelFormatError(f"{path}: file is empty")
    header = rows[0]
    if len(header) < 2:
        raise PanelFormatError(f"{path}: header needs 'date' plus at least one name")
    if header[0] != "date":
        raise PanelFormatError(
            f"{path}: first header cell must be 'date', got {header[0]!r} (row 1, column 1)"
        )
    names = header[1:]
    if len(set(names)) != len(names):
        dup = sorted({n for n in names if names.count(n) > 1})
        raise PanelFormatError(f"{path}: duplicate column names {dup} (row 1)")
    times: list[str] = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise PanelFormatError(
                f"{path}: row {r} has {len(row)} cells, expected {len(header)}"
            )
        if times and not times[-1] < row[0]:
            raise PanelFormatError(
                f"{path}: dates must strictly increase, "
                f"{times[-1]!r} !< {row[0]!r} (row {r}, column 1)"
            )
        times.append(row[0])
    if len(times) < 2:
        raise PanelFormatError(f"{path}: panel needs at least 2 data rows, got {len(times)}")
    values = _parse_block(path, [row[1:] for row in rows[1:]], 2, 2)
    cls = ReturnsPanel if kind == "returns" else FactorPanel
    return cls(tuple(times), tuple(names), values)


def save_panel_csv(panel: _Panel, path: str) -> None:
    """Write a panel to CSV with full float precision; values round-trip bitwise."""
    with _atomic_file(path) as fh:
        fh.write("date," + ",".join(panel.names) + "\n")
        for line in _format_rows(panel.values, panel.times):
            fh.write(line + "\n")


def load_matrix_csv(path: str) -> np.ndarray:
    """Load a headerless dense numeric CSV as a 2-D float array."""
    rows = _read_rows(path)
    if not rows:
        raise PanelFormatError(f"{path}: file is empty")
    width = len(rows[0])
    for r, row in enumerate(rows, start=1):
        if len(row) != width:
            raise PanelFormatError(
                f"{path}: row {r} has {len(row)} cells, expected {width}"
            )
    return _parse_block(path, rows, 1, 1)


def save_matrix_csv(m: np.ndarray, path: str) -> None:
    """Write a matrix (or column vector) as headerless CSV at full precision."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D array, got {m.ndim}-D")
    with _atomic_file(path) as fh:
        for line in _format_rows(m):
            fh.write(line + "\n")


def save_partition_csv(partition: ClusterPartition, names, path: str) -> None:
    """Write (name, cluster_id) rows, ids 1..K in group-leader order."""
    names = tuple(names)
    if len(names) != partition.n_series:
        raise ValueError(
            f"{len(names)} names for a partition of {partition.n_series} series"
        )
    labels = partition.labels
    lines = ["name,cluster_id"]
    for i, name in enumerate(names):
        lines.append(f"{name},{labels[i] + 1}")
    write_text_atomic(path, "\n".join(lines) + "\n")


def load_partition_csv(path: str, names) -> ClusterPartition:
    """Load a (name, cluster_id) CSV back into a partition over the given name order."""
    names = tuple(names)
    index = {n: i for i, n in enumerate(names)}
    rows = _read_rows(path)
    if not rows or rows[0] != ["name", "cluster_id"]:
        raise PanelFormatError(f"{path}: expected header 'name,cluster_id'")
    labels = np.full(len(names), -1, dtype=np.int64)
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise PanelFormatError(f"{path}: row {r} has {len(row)} cells, expected 2")
        name, cid = row
        if name not in index:
            raise PanelFormatError(f"{path}: unknown series {name!r} (row {r}, column 1)")
        if labels[index[name]] != -1:
            raise PanelFormatError(f"{path}: duplicate series {name!r} (row {r}, column 1)")
        try:
            k = int(cid)
        except ValueError:
            raise PanelFormatError(
                f"{path}: non-integer cluster_id {cid!r} (row {r}, column 2)"
            ) from None
        if k < 1:
            raise PanelFormatError(f"{path}: cluster_id must be >= 1 (row {r}, column 2)")
        labels[index[name]] = k - 1
    if np.any(labels < 0):
        missing = [names[i] for i in np.flatnonzero(labels < 0)[:5]]
        raise PanelFormatError(f"{path}: missing series {missing}")
    used = sorted(set(labels.tolist()))
    if used != list(range(len(used))):
        raise PanelFormatError(f"{path}: cluster ids must be contiguous 1..K")
    return ClusterPartition.from_labels(labels)


def align(returns: ReturnsPanel, factors: FactorPanel) -> tuple[ReturnsPanel, FactorPanel]:
    """Restrict both panels to their shared time labels, kept in time order.

    Panels whose labels already match are returned as they are: they are
    frozen and were validated when built.

    Raises
    ------
    PanelFormatError
        If fewer than 2 time labels are shared.
    """
    if returns.times == factors.times:
        return returns, factors
    shared = sorted(set(returns.times) & set(factors.times))
    if len(shared) < 2:
        raise PanelFormatError(
            f"panels share only {len(shared)} time label(s); need at least 2"
        )
    rrow = {t: i for i, t in enumerate(returns.times)}
    frow = {t: i for i, t in enumerate(factors.times)}
    ridx = [rrow[t] for t in shared]
    fidx = [frow[t] for t in shared]
    r = ReturnsPanel(tuple(shared), returns.names, returns.values[ridx])
    f = FactorPanel(tuple(shared), factors.names, factors.values[fidx])
    return r, f
