"""Dataset ingestion, [-1, 1] scaling, seeded splits, and synthetic generators.

CSV convention: comma-separated UTF-8 (a leading byte-order mark is
dropped), finite decimal-point reals spelled in ASCII, an optional single
header line (the first line, when none of its cells parses as a number), last
column is the label.  Any other non-numeric, NaN or infinite cell, a cell
holding ``_`` or a non-ASCII character other than whitespace, a ragged row, or
bytes that are not UTF-8 raise :class:`ParseError` naming the file.
Normalization maps every feature column and the label to ``[-1, 1]``
affinely; the statistics are recorded so the map can be applied to new data
and inverted exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import as_matrix, as_pair, as_vector

__all__ = [
    "Dataset",
    "EmptyDataset",
    "InsufficientData",
    "NormMeta",
    "ParseError",
    "SplitSpec",
    "UnknownFunction",
    "UnscalableData",
    "load_csv",
    "load_matrix_csv",
    "normalize",
    "save_csv",
    "split",
    "synth",
]


class ParseError(ValueError):
    """An input file is malformed; the message names the file.

    ``row`` and ``col`` give the 1-based position of a bad CSV cell; ``col``
    is ``None`` when the fault is a whole record, and both are ``None`` when
    it has no single position.
    """

    def __init__(self, path, message: str, row: int | None = None, col: int | None = None) -> None:
        if row is None:
            where = ""
        elif col is None:
            where = f" row {row}:"
        else:
            where = f" row {row}, column {col}:"
        super().__init__(f"{path}:{where} {message}")
        self.row = row
        self.col = col


class EmptyDataset(ValueError):
    """The file contains no data rows."""


class UnknownFunction(ValueError):
    """The requested synthetic function id does not exist."""


class InsufficientData(ValueError):
    """Too few samples for the requested operation."""


class UnscalableData(ValueError):
    """A column's range or values overflow float64 when scaled to [-1, 1] or
    back, or a model's bandwidths, support points or coefficients overflow it
    in the kernel or the prediction."""


@dataclass(frozen=True)
class NormMeta:
    """Per-column affine ranges in original units.

    A degenerate (constant) column has ``max == min`` and normalizes to 0.
    """

    feature_min: np.ndarray
    feature_max: np.ndarray
    label_min: float
    label_max: float

    def __post_init__(self) -> None:
        fmin = as_vector(self.feature_min, "feature_min").copy()
        fmax = as_vector(self.feature_max, "feature_max").copy()
        if fmin.shape != fmax.shape:
            raise ValueError("feature_min and feature_max must have equal length")
        object.__setattr__(self, "feature_min", fmin)
        object.__setattr__(self, "feature_max", fmax)
        object.__setattr__(self, "label_min", float(self.label_min))
        object.__setattr__(self, "label_max", float(self.label_max))

    def to_dict(self) -> dict:
        return {
            "feature_min": self.feature_min.tolist(),
            "feature_max": self.feature_max.tolist(),
            "label_min": self.label_min,
            "label_max": self.label_max,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "NormMeta":
        return cls(
            feature_min=np.asarray(doc["feature_min"], dtype=np.float64),
            feature_max=np.asarray(doc["feature_max"], dtype=np.float64),
            label_min=float(doc["label_min"]),
            label_max=float(doc["label_max"]),
        )


@dataclass
class Dataset:
    """Feature matrix with an aligned label vector.

    ``norm_meta`` is ``None`` for raw data and records the original-unit
    ranges once :func:`normalize` has mapped everything into ``[-1, 1]``.
    """

    x: np.ndarray
    y: np.ndarray
    norm_meta: NormMeta | None = None
    name: str = ""

    def __post_init__(self) -> None:
        self.x, self.y = as_pair(self.x, self.y, "x", "y")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]


# ---------------------------------------------------------------------------
# CSV


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _cell_value(cell: str) -> float:
    """``float(cell)`` restricted to ASCII decimal spellings.

    ``float`` also reads digit-group underscores (``1_0``) and non-ASCII
    digits (``١``), which numpy's parser rejects; both raise ``ValueError``
    here, so both readers accept the same cells.  Surrounding whitespace,
    ASCII or not, is allowed.
    """
    if "_" in cell or not cell.strip().isascii():
        raise ValueError(cell)
    return float(cell)


def _data_records(fh, path):
    """Yield ``(record, lines_before, cells)`` for each data record of a CSV.

    ``record`` is the 1-based record number and ``lines_before`` the number of
    physical lines that precede the record.  Blank records are skipped.  The
    first non-blank record is a header, and skipped, when none of its cells is
    a number.  A record the ``csv`` module cannot read (for example a cell
    longer than its field size limit) raises :class:`ParseError`.
    """
    reader = csv.reader(fh)
    lines_before, first, record = 0, True, 0
    try:
        for record, cells in enumerate(reader, start=1):
            if any(cell.strip() for cell in cells):
                if not first or any(_is_number(cell) for cell in cells):
                    yield record, lines_before, cells
                first = False
            lines_before = reader.line_num
    except csv.Error as exc:
        raise ParseError(path, f"unreadable CSV record: {exc}", record + 1) from None


def _open_csv(path):
    # utf-8-sig drops a leading byte-order mark, so it never reaches a cell.
    return open(path, newline="", encoding="utf-8-sig")


def _read_strict(path) -> tuple[np.ndarray, int]:
    """Parse a numeric CSV cell by cell into a finite matrix.

    Returns the matrix and the record number of the first data row.  The
    first fault in file order raises :class:`ParseError` naming its row and
    column, or :class:`EmptyDataset`.
    """

    def parse_row(lineno: int, cells: list[str], expect: int) -> list[float]:
        if len(cells) != expect:
            message = f"expected {expect} columns, found {len(cells)}"
            raise ParseError(path, message, lineno, min(len(cells), expect) + 1)
        values = []
        for j, cell in enumerate(cells):
            try:
                value = _cell_value(cell)
            except ValueError:
                raise ParseError(path, f"not a number: {cell.strip()!r}", lineno, j + 1) from None
            if not math.isfinite(value):
                raise ParseError(path, f"not a finite number: {cell.strip()!r}", lineno, j + 1)
            values.append(value)
        return values

    try:
        with _open_csv(path) as fh:
            lines = [(record, cells) for record, _, cells in _data_records(fh, path)]
    except UnicodeDecodeError as exc:
        raise ParseError(path, f"not UTF-8 text ({exc.reason})") from None
    if not lines:
        raise EmptyDataset(f"{path}: no data rows")

    expect = len(lines[0][1])
    rows = [parse_row(lineno, cells, expect) for lineno, cells in lines]
    return np.asarray(rows, dtype=np.float64), lines[0][0]


def _read_fast(path) -> tuple[np.ndarray, int] | None:
    """Parse the body with numpy's C parser; ``None`` when it cannot decide.

    The header rule and the first data record come from :func:`_data_records`,
    as in :func:`_read_strict`.  ``np.loadtxt`` reads no quotes, so any quoted
    cell in the body fails to convert, as do ragged rows, empty cells,
    whitespace-only lines and the spellings :func:`_cell_value` rejects.
    Every such file, a file with no data rows, one that is not UTF-8, one
    with a record the ``csv`` module cannot read and one holding a NaN or
    infinite value is left to :func:`_read_strict`.
    """
    try:
        with _open_csv(path) as fh:
            first = next(_data_records(fh, path), None)
            if first is None:
                return None
            record, lines_before, _ = first
            fh.seek(0)
            matrix = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, skiprows=lines_before)
    except ValueError:  # includes UnicodeDecodeError and ParseError
        return None
    if not np.isfinite(matrix).all():
        return None
    return matrix, record


def _read_numeric_table(path) -> tuple[np.ndarray, int]:
    """Parse a numeric CSV into a finite matrix.

    Returns the matrix and the record number of the first data row.  Files
    the fast reader cannot decide go through the strict reader, which raises
    the same error, with row and column, on any fault.
    """
    return _read_fast(path) or _read_strict(path)


def load_matrix_csv(path) -> np.ndarray:
    """Load a numeric CSV as a plain matrix (no label split)."""
    matrix, _ = _read_numeric_table(path)
    return matrix


def load_csv(path, name: str | None = None) -> Dataset:
    """Load an un-normalized dataset; the last column is the label."""
    matrix, first_row = _read_numeric_table(path)
    if matrix.shape[1] < 2:
        message = "need at least two columns (features + label)"
        raise ParseError(path, message, first_row, matrix.shape[1] + 1)
    return Dataset(matrix[:, :-1], matrix[:, -1], None, name or str(path))


# Rows formatted per write: one join per block, so neither the text of a large
# file nor a full-size copy of its values is held in memory at once.
_WRITE_BLOCK_ROWS = 4096


def _write_rows(fh, header: list[str], columns: list[np.ndarray], newline: str) -> None:
    """The one float-CSV writer of ``synth`` and ``predict``: the header, then a
    row per index of ``columns``, ``repr`` per value so a reload is bit-exact,
    every line ending in ``newline``."""
    fh.write(",".join(header) + newline)
    for lo in range(0, columns[0].shape[0], _WRITE_BLOCK_ROWS):
        cells = zip(*[map(repr, c[lo:lo + _WRITE_BLOCK_ROWS].tolist()) for c in columns])
        fh.write(newline.join(map(",".join, cells)) + newline)


def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset as CSV with an ``x1..xd,y`` header.

    Floats are written with ``repr`` so a reload reproduces them bit-exactly.
    Lines end in CRLF, as :mod:`csv`'s default dialect writes them.
    """
    header = [f"x{j + 1}" for j in range(dataset.dim)] + ["y"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_rows(fh, header, [*dataset.x.T, dataset.y], "\r\n")


# ---------------------------------------------------------------------------
# Normalization


def _scale_columns(values: np.ndarray, lo: np.ndarray, hi: np.ndarray, names: list[str]) -> np.ndarray:
    """Affine map ``v -> 2(v - lo)/(hi - lo) - 1``; constant columns go to 0.

    Raises :class:`UnscalableData` naming the first column (``names[j]``)
    whose range or values overflow float64 on the way.  The result is built
    in place in one output array, with the operations in the order of
    ``2.0 * (values - lo) / safe - 1.0``, so no second full-size array is held.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        span = hi - lo
        constant = span == 0.0
        safe = np.where(constant, 1.0, span)
        scaled = np.subtract(values, lo)
        scaled *= 2.0
        scaled /= safe
        scaled -= 1.0
        scaled[:, constant] = 0.0
    bad = np.flatnonzero(~np.isfinite(scaled).all(axis=0))
    if bad.size:
        raise UnscalableData(f"{names[bad[0]]}: values overflow float64 when scaled to [-1, 1]")
    return scaled


def normalize(dataset: Dataset) -> Dataset:
    """Scale every feature column and the label into ``[-1, 1]``.

    Statistics come from the dataset as given (callers normalize before
    splitting), and are recorded in ``norm_meta`` for later inversion.
    """
    if dataset.norm_meta is not None:
        raise ValueError("dataset is already normalized")
    meta = NormMeta(
        feature_min=dataset.x.min(axis=0),
        feature_max=dataset.x.max(axis=0),
        label_min=float(dataset.y.min()),
        label_max=float(dataset.y.max()),
    )
    return Dataset(
        apply_feature_scaling(meta, dataset.x),
        apply_label_scaling(meta, dataset.y),
        meta,
        dataset.name,
    )


def apply_feature_scaling(meta: NormMeta, x) -> np.ndarray:
    """Apply recorded feature ranges to (possibly new) raw feature rows."""
    x = as_matrix(x, "x")
    if x.shape[1] != meta.feature_min.shape[0]:
        raise ValueError(
            f"features have dim {x.shape[1]}, normalization has dim {meta.feature_min.shape[0]}"
        )
    names = [f"feature column {j + 1}" for j in range(x.shape[1])]
    return _scale_columns(x, meta.feature_min, meta.feature_max, names)


def apply_label_scaling(meta: NormMeta, y) -> np.ndarray:
    """Apply the recorded label range to raw labels."""
    y = as_vector(y, "y")
    lo = np.asarray([meta.label_min])
    hi = np.asarray([meta.label_max])
    return _scale_columns(y[:, None], lo, hi, ["label"])[:, 0]


def invert_label_scaling(meta: NormMeta, y_norm) -> np.ndarray:
    """Map normalized labels back to original units (exact inverse).

    Raises :class:`UnscalableData` when the recorded label range or a result
    overflows float64.
    """
    y_norm = as_vector(y_norm, "y_norm")
    with np.errstate(over="ignore", invalid="ignore"):
        span = meta.label_max - meta.label_min
        if span == 0.0:
            y = np.full_like(y_norm, meta.label_min)
        else:
            y = (y_norm + 1.0) / 2.0 * span + meta.label_min
    if not np.isfinite(y).all():
        raise UnscalableData("label range overflows float64 when mapped back to original units")
    return y


# ---------------------------------------------------------------------------
# Splitting


@dataclass(frozen=True)
class SplitSpec:
    """Seeded train/test partition; deterministic per (seed, trial_index)."""

    seed: int
    trial_index: int = 0
    train_fraction: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.seed < 0 or self.trial_index < 0:
            raise ValueError("seed and trial_index must be nonnegative")


def split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Seeded permutation split: first ``floor(fraction * n)`` rows train."""
    rng = np.random.default_rng([spec.seed, spec.trial_index])
    perm = rng.permutation(dataset.n)
    n_train = int(spec.train_fraction * dataset.n)
    if n_train == 0 or n_train == dataset.n:
        raise InsufficientData(
            f"split of {dataset.n} rows at fraction {spec.train_fraction} "
            "leaves an empty side"
        )
    train_idx, test_idx = perm[:n_train], perm[n_train:]
    make = lambda idx: Dataset(dataset.x[idx], dataset.y[idx], dataset.norm_meta, dataset.name)
    return make(train_idx), make(test_idx)


# ---------------------------------------------------------------------------
# Synthetic benchmark functions


def _synth_f1(x: np.ndarray) -> np.ndarray:
    a, b = x[:, 0], x[:, 1]
    return (1.0 + np.sin(2.0 * a + 3.0 * b)) / (3.5 + np.sin(a - b))


def _synth_f2(x: np.ndarray) -> np.ndarray:
    # The sixth input is deliberately inert (zero coefficient).
    return (
        10.0 * np.sin(np.pi * x[:, 0] * x[:, 1])
        + 20.0 * (x[:, 2] - 0.5) ** 2
        + 5.0 * x[:, 3]
        + 10.0 * x[:, 4]
        + 0.0 * x[:, 5]
    )


def _synth_f3(x: np.ndarray) -> np.ndarray:
    return np.exp(2.0 * np.pi * x[:, 0] * np.sin(x[:, 3]) + np.sin(x[:, 1] * x[:, 2]))


_SYNTH_FUNCTIONS: dict[str, tuple[Callable[[np.ndarray], np.ndarray], float, float, int]] = {
    "f1": (_synth_f1, -2.0, 2.0, 2),
    "f2": (_synth_f2, -1.0, 1.0, 6),
    "f3": (_synth_f3, -0.25, 0.25, 4),
}


def synth(function_id: str, n: int, noise_ratio: float = 0.0, seed: int = 0) -> Dataset:
    """Sample a synthetic regression dataset.

    Inputs are drawn uniformly on the function's domain box; labels are the
    clean function values plus zero-mean Gaussian noise whose variance is
    ``noise_ratio`` times the variance of the clean labels.  Fully
    deterministic for a fixed seed (features drawn first, then noise).
    """
    if function_id not in _SYNTH_FUNCTIONS:
        raise UnknownFunction(f"unknown function: {function_id!r} (choose from f1, f2, f3)")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if noise_ratio < 0.0:
        raise ValueError(f"noise_ratio must be nonnegative, got {noise_ratio}")
    fn, lo, hi, dim = _SYNTH_FUNCTIONS[function_id]
    rng = np.random.default_rng(seed)
    x = rng.uniform(lo, hi, size=(n, dim))
    y = fn(x)
    if noise_ratio > 0.0:
        std = math.sqrt(noise_ratio * float(np.var(y)))
        y = y + rng.normal(0.0, std, size=n)
    return Dataset(x, y, None, function_id)
