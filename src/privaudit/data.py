"""Tabular dataset model.

Schema-typed ingestion into columnar datasets, canonical whole-column
[0,1]/one-hot encoding, neighboring-dataset construction, and target-record
selection. Datasets are immutable after construction. This module alone
decides how a number from outside is checked (`count_value`, `check_finite`,
`fraction`), how a column is checked (`_checked`), encoded (`encode`) and
binned (`histogram_cells`), and it imports no other privaudit module.

Many datasets of one schema and length, one per shadow run, are not Datasets
but run-axis arrays: one (runs, n) array per schema column, row r holding run
r's n values, which code reads a chunk of runs at a time (`run_chunks`).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import numbers
import operator
import sys
from dataclasses import InitVar, dataclass

import numpy as np

__all__ = [
    "count_value",
    "check_finite",
    "fraction",
    "SchemaError",
    "DataError",
    "NumericColumn",
    "CategoricalColumn",
    "Schema",
    "Dataset",
    "open_input",
    "load_csv",
    "encode",
    "decode",
    "encode_record",
    "row_keys",
    "histogram_cells",
    "run_chunks",
    "select_targets",
]

Record = tuple  # ordered values matching the schema


class SchemaError(ValueError):
    pass


class DataError(ValueError):
    pass


# -- numbers from outside: one rule for every number a config, a schema or a
# record gives. It is a number, never a bool or a string. Each check returns
# the value it was given, and the message of its error begins with name.

def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def count_value(name: str, value, minimum: int | None) -> int:
    """value as an int of at least minimum, or any int when minimum is None.
    An integral float such as 40.0 converts; 2.5, NaN, strings and bools are
    not counts."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or (minimum is not None and value < minimum):
        floor = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{floor}, got {value!r}")
    return int(value)


def check_finite(name: str, value, positive: bool | None = True, error=ValueError):
    """value, once it is a finite number, which an int too large for a float is
    not: > 0 when positive, >= 0 when not, and of either sign when None."""
    ok = _is_number(value) and abs(value) <= sys.float_info.max
    if not ok or (positive is not None and (value < 0 or (positive and value == 0))):
        bound = {True: " > 0", False: " >= 0", None: ""}[positive]
        raise error(f"{name} must be a finite number{bound}, got {value!r}")
    return value


def fraction(name: str, value, one: bool = False):
    """value, once it is a number in (0, 1), or in (0, 1] when one."""
    if not (_is_number(value) and 0 < value and (value <= 1 if one else value < 1)):
        raise ValueError(f"{name} must be a number in (0, 1{']' if one else ')'}, got {value!r}")
    return value


@dataclass(frozen=True)
class NumericColumn:
    name: str
    lo: float
    hi: float

    def __post_init__(self):
        for field, key in (("lo", "min"), ("hi", "max")):
            object.__setattr__(self, field, float(check_finite(
                f"column {self.name!r}: {key}", getattr(self, field), None, SchemaError)))
        bounds = f"[{self.lo}, {self.hi}]"
        if not (self.lo < self.hi):
            raise SchemaError(f"column {self.name!r}: need min < max, got {bounds}")
        if not math.isfinite(self.hi - self.lo):
            raise SchemaError(f"column {self.name!r}: max - min must be finite, got {bounds}")

    kind = "numeric"


@dataclass(frozen=True)
class CategoricalColumn:
    name: str
    levels: tuple[str, ...]

    def __post_init__(self):
        if not self.levels:
            raise SchemaError(f"column {self.name!r}: levels must be non-empty")
        if len(set(self.levels)) != len(self.levels):
            raise SchemaError(f"column {self.name!r}: duplicate levels")

    kind = "categorical"


Column = NumericColumn | CategoricalColumn


@dataclass(frozen=True)
class Schema:
    columns: tuple[Column, ...]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {names}")

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        for c in self.columns:
            if c.name == name:
                return c
        raise SchemaError(f"no column named {name!r}")

    # -- encoded geometry ---------------------------------------------------

    @property
    def encoded_width(self) -> int:
        return sum(1 if isinstance(c, NumericColumn) else len(c.levels) for c in self.columns)

    def encoded_spans(self) -> list[tuple[int, int]]:
        """Half-open (start, stop) slice per column in the encoded matrix."""
        spans, at = [], 0
        for c in self.columns:
            w = 1 if isinstance(c, NumericColumn) else len(c.levels)
            spans.append((at, at + w))
            at += w
        return spans

    # -- JSON wire format ---------------------------------------------------

    def to_json_dict(self) -> dict:
        cols = []
        for c in self.columns:
            if isinstance(c, NumericColumn):
                cols.append({"name": c.name, "kind": "numeric", "min": c.lo, "max": c.hi})
            else:
                cols.append({"name": c.name, "kind": "categorical", "levels": list(c.levels)})
        return {"columns": cols}

    @staticmethod
    def from_json_dict(doc: dict, source: str = "schema document") -> "Schema":
        """The schema of a JSON document; any fault in it raises a SchemaError
        naming source."""
        try:
            if not isinstance(doc, dict):
                raise SchemaError(f"expected an object, got {type(doc).__name__}")
            if "columns" not in doc:
                raise SchemaError("missing 'columns'")
            if not isinstance(doc["columns"], list):
                raise SchemaError(f"'columns' must be a list, got {type(doc['columns']).__name__}")
            return Schema(tuple(_column_from_json(i, c) for i, c in enumerate(doc["columns"])))
        except SchemaError as e:
            raise SchemaError(f"{source}: {e}") from None

    @staticmethod
    def from_json_file(path) -> "Schema":
        with open_input(path, SchemaError) as f:
            try:
                doc = json.load(f)
            except UnicodeDecodeError as e:
                raise SchemaError(f"{path}: not UTF-8 text: {e}") from None
        return Schema.from_json_dict(doc, str(path))


def _column_from_json(i: int, c) -> Column:
    """Column i of a schema document, whose name and levels are strings."""
    if not isinstance(c, dict):
        raise SchemaError(f"columns[{i}] must be an object, got {type(c).__name__}")
    try:
        kind = c["kind"]
        if kind not in ("numeric", "categorical"):
            raise SchemaError(f"columns[{i}]: unknown kind {kind!r}")
        name = c["name"]
        if not isinstance(name, str):
            raise SchemaError(f"columns[{i}]: name must be a string, got {name!r}")
        if kind == "numeric":
            return NumericColumn(name, c["min"], c["max"])
        levels = c["levels"]
        if not (isinstance(levels, list) and all(isinstance(v, str) for v in levels)):
            raise SchemaError(f"column {name!r}: levels must be a list of strings, got {levels!r}")
        return CategoricalColumn(name, tuple(levels))
    except KeyError as e:
        raise SchemaError(f"columns[{i}]: missing field {e}") from None


@dataclass(frozen=True, eq=False)
class Dataset:
    """Columnar table: one read-only 1-D array per schema column, float64 for
    numeric columns and int64 level indices for categorical ones.

    The columns are copied, so the caller's arrays are neither frozen nor
    shared. With copy False they are handed over instead: arrays of the right
    dtype are frozen in place, which is for arrays no one else holds."""

    schema: Schema
    columns: tuple[np.ndarray, ...]
    provenance: str = ""
    copy: InitVar[bool] = True

    def __post_init__(self, copy):
        convert = np.array if copy else np.asarray
        cols = tuple(
            convert(c, dtype=np.float64 if isinstance(col, NumericColumn) else np.int64)
            for col, c in zip(self.schema.columns, self.columns, strict=True)
        )
        if any(c.ndim != 1 for c in cols) or len({c.size for c in cols}) > 1:
            raise DataError("columns must be 1-d arrays of equal length")
        for c in cols:
            c.setflags(write=False)
        object.__setattr__(self, "columns", cols)

    def __len__(self) -> int:
        return self.columns[0].size if self.columns else 0

    @property
    def rows(self) -> tuple[Record, ...]:
        """The records as tuples of Python floats and ints, in row order."""
        return tuple(zip(*(c.tolist() for c in self.columns)))

    @staticmethod
    def from_rows(schema: Schema, rows, provenance: str = "") -> "Dataset":
        """Records (values in schema column order) as a dataset. A categorical
        value is a level name or index; every other value must be a number,
        not a bool or a string, and the columns then pass the one checking rule.
        An error names the offending row unless there is only one record."""
        rows = list(rows)
        width = len(schema.columns)
        where = (lambda i: "") if len(rows) == 1 else (lambda i: f" (row {i})")
        for i, r in enumerate(rows):
            if len(r) != width:
                raise DataError(f"record has {len(r)} values, schema has {width} columns{where(i)}")
        columns = [
            np.array([_number(col, v, where(i)) for i, v in enumerate(cells)], dtype=np.float64)
            for col, cells in zip(schema.columns, list(zip(*rows)) or [()] * width)
        ]
        return Dataset(schema, _checked(schema, columns, where), provenance, copy=False)

    def take(self, idx) -> "Dataset":
        """The rows at the given indices, in that order."""
        return Dataset(self.schema, tuple(c[idx] for c in self.columns), self.provenance,
                       copy=False)

    def with_record(self, record) -> "Dataset":
        """This dataset with the record appended as its last row."""
        one = Dataset.from_rows(self.schema, [record])
        cols = tuple(np.concatenate(pair) for pair in zip(self.columns, one.columns))
        return Dataset(self.schema, cols, self.provenance, copy=False)

    def matches(self, record) -> np.ndarray:
        """Boolean mask of the rows whose encoding equals the record's."""
        return row_keys(self) == row_keys(Dataset.from_rows(self.schema, [record]))[0]

    def to_csv(self, path) -> None:
        cells = [
            [repr(v) for v in c.tolist()] if isinstance(col, NumericColumn)
            else [col.levels[i] for i in c.tolist()]
            for col, c in zip(self.schema.columns, self.columns)
        ]
        with open(path, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f)
            w.writerow(self.schema.names)
            w.writerows(zip(*cells))


def _number(col: Column, value, where: str):
    """One record value as a number; a level name becomes its index."""
    if isinstance(value, str) and isinstance(col, CategoricalColumn):
        if value not in col.levels:
            raise DataError(f"unknown level {value!r} for column {col.name!r}{where}")
        return col.levels.index(value)
    if not _is_number(value):
        shown = repr(value) if isinstance(value, str) else value
        raise DataError(f"column {col.name!r}: value {shown} is not a number{where}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise DataError(f"column {col.name!r}: value {value} is too large for a float{where}")
    return value


def _checked(schema: Schema, columns, where=lambda i: f" (row {i})") -> tuple[np.ndarray, ...]:
    """The one checking rule on float64 (or int64) columns: numeric values
    finite and within [lo, hi], categorical ones integral level indices in
    range, returned as int64. A DataError names the column, the value and,
    as where(i) puts it, the first offending row."""
    out = []
    for col, x in zip(schema.columns, columns):
        if isinstance(col, NumericColumn):
            bad = ~(np.isfinite(x) & (x >= col.lo) & (x <= col.hi))
            if bad.any():
                i = int(bad.argmax())
                raise DataError(f"column {col.name!r}: value {float(x[i])} outside "
                                f"[{col.lo}, {col.hi}]{where(i)}")
            out.append(x)
        else:
            whole = np.isfinite(x) & (x == np.floor(x))
            bad = ~(whole & (x >= 0) & (x < len(col.levels)))
            if bad.any():
                i = int(bad.argmax())
                v, fault = (int(x[i]), "out of range") if whole[i] else (float(x[i]), "is not an integer")
                raise DataError(f"column {col.name!r}: level index {v} {fault}{where(i)}")
            out.append(x.astype(np.int64))
    return tuple(out)


def _csv_column(path, col: Column, cells: tuple, start: int) -> np.ndarray:
    """One CSV column of a block whose first row is the file's row start,
    each cell converted once: float(), or a level lookup."""
    if isinstance(col, NumericColumn):
        convert, dtype, what = float, np.float64, "not a number:"
    else:
        index = {level: i for i, level in enumerate(col.levels)}
        convert, dtype, what = index.__getitem__, np.int64, "unknown level"
    rest = iter(cells)
    try:
        return np.fromiter(map(convert, rest), dtype, len(cells))
    except (ValueError, KeyError):
        # the failing cell is the last one map took from the iterator
        i = len(cells) - operator.length_hint(rest) - 1
        raise DataError(f"{path}: row {start + i}, column {col.name!r}: {what} {cells[i]!r}") from None


# load_csv converts this many rows at a time, so it holds no more than one
# block's cells as text
_CSV_BLOCK_ROWS = 1024


def open_input(path, error=DataError, newline=None):
    """path opened to read as UTF-8 text. A path no file can be read from
    (missing, a directory, under a file) raises error, naming the path."""
    try:
        return open(path, "r", encoding="utf-8", newline=newline)
    except FileNotFoundError:
        raise error(f"no such file: {path}") from None
    except OSError as e:
        raise error(f"cannot read {path}: {e.strerror}") from None


def _utf8_lines(path, f):
    """The lines of the text file f; a file that is not UTF-8 raises a
    DataError naming path."""
    try:
        yield from f
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text: {e}") from None


def load_csv(path, schema: Schema) -> Dataset:
    """Read a CSV with a header row matching the schema column order, a block
    of rows at a time, column by column with no row tuples; each block's
    columns pass the one checking rule. An error names the file's row."""
    f = open_input(path, newline="")
    width = len(schema.columns)
    parts = [[] for _ in schema.columns]
    with f:
        reader = csv.reader(_utf8_lines(path, f))
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        if header != schema.names:
            raise DataError(f"{path}: header {header} does not match schema {schema.names}")
        for start in itertools.count(0, _CSV_BLOCK_ROWS):
            raw = list(itertools.islice(reader, _CSV_BLOCK_ROWS))
            n = len(raw)
            for rownum, cells in enumerate(raw, start):
                if len(cells) != width:
                    raise DataError(f"{path}: row {rownum} has {len(cells)} fields, expected {width}")
            columns = [_csv_column(path, col, cells, start)
                       for col, cells in zip(schema.columns, list(zip(*raw)) or [()] * width)]
            del raw  # free this block's text before reading the next
            for part, c in zip(parts, _checked(schema, columns, lambda i: f" (row {start + i})")):
                part.append(c)
            if n < _CSV_BLOCK_ROWS:
                break
    columns = []
    for part in parts:  # a column's blocks are freed once joined
        columns.append(np.concatenate(part))
        part.clear()
    return Dataset(schema, tuple(columns), str(path), copy=False)


def encode(ds: Dataset) -> np.ndarray:
    """The (rows, encoded_width) float64 matrix: numeric columns scaled to
    [0,1] by schema bounds, categoricals one-hot in their encoded_spans."""
    n = len(ds)
    m = np.zeros((n, ds.schema.encoded_width), dtype=np.float64)
    for (a, _), col, c in zip(ds.schema.encoded_spans(), ds.schema.columns, ds.columns):
        if isinstance(col, NumericColumn):
            m[:, a] = (c - col.lo) / (col.hi - col.lo)
        else:
            m[np.arange(n), a + c] = 1.0
    return m


def encode_record(schema: Schema, record: Record) -> np.ndarray:
    return encode(Dataset.from_rows(schema, [record]))[0]


def decode(schema: Schema, matrix: np.ndarray, provenance: str = "") -> Dataset:
    """Inverse of encode: numerics clipped to [0,1] and rescaled, each
    categorical span decoded to its argmax level."""
    cols = []
    for (a, b), col in zip(schema.encoded_spans(), schema.columns):
        if isinstance(col, NumericColumn):
            cols.append(col.lo + np.clip(matrix[:, a], 0.0, 1.0) * (col.hi - col.lo))
        else:
            cols.append(np.argmax(matrix[:, a:b], axis=1))
    return Dataset(schema, tuple(cols), provenance, copy=False)


def row_keys(ds: Dataset) -> np.ndarray:
    """One opaque key per row: its encoded bytes viewed as np.void. Rows are
    the same record exactly when their keys are equal."""
    m = encode(ds)
    return m.view(np.dtype((np.void, m.itemsize * m.shape[1]))).ravel()


def histogram_cells(data: Dataset, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Every row's histogram cell in every column, and each column's first cell.

    Cells index the columns' histograms laid end to end, numeric columns with
    `bins` cells and categorical columns with one per level. A numeric value
    falls in the cell np.histogram(bins=bins, range=(lo, hi)) counts it in:
    [edge_i, edge_i+1) on the same edges, the last cell closed. A value
    outside [lo, hi], or NaN, goes to the one cell past the end, which no
    histogram reads, as np.histogram leaves it uncounted.
    """
    cols = data.schema.columns
    starts = np.cumsum([0] + [bins if isinstance(c, NumericColumn) else len(c.levels)
                              for c in cols])
    cells = np.empty((len(data), len(cols)), dtype=np.intp)
    for j, (col, vals) in enumerate(zip(cols, data.columns)):
        if isinstance(col, NumericColumn):
            edges = np.histogram_bin_edges(vals, bins=bins, range=(col.lo, col.hi))
            cell = np.minimum(np.searchsorted(edges, vals, side="right") - 1, bins - 1)
            cell[~((vals >= col.lo) & (vals <= col.hi))] = starts[-1] - starts[j]
        else:
            if vals.size and not (0 <= vals.min() and vals.max() < len(col.levels)):
                raise ValueError(f"column {col.name!r}: level index out of range")
            cell = vals
        cells[:, j] = starts[j] + cell
    return cells, starts


# Code that fills or reads run-axis arrays takes a chunk of runs at a time,
# at most this many cells of one array, so that its temporaries stay small
# next to the arrays themselves.
RUN_CHUNK_CELLS = 8192


def run_chunks(runs: int, n: int) -> list[slice]:
    """Consecutive runs of a (runs, n) array as slices of at most
    RUN_CHUNK_CELLS cells each, and of one run at least."""
    step = max(1, RUN_CHUNK_CELLS // max(n, 1))
    return [slice(a, min(a + step, runs)) for a in range(0, runs, step)]


def _marginal_outlier_scores(ds: Dataset, bins: int = 10) -> np.ndarray:
    """Sum over columns of -log empirical marginal frequency.

    Numeric columns use the marginal synthesizer's `bins` histogram_cells. A
    record in rare cells scores high. This is a heuristic: records vulnerable
    only on learned joint dimensions may not be marginal outliers.
    """
    cells, starts = histogram_cells(ds, bins)
    counts = np.bincount(cells.ravel(), minlength=int(starts[-1]) + 1)
    scores = np.zeros(len(ds), dtype=np.float64)
    for j in range(cells.shape[1]):
        scores += -np.log(counts[cells[:, j]] / len(ds))
    return scores


def select_targets(ds: Dataset, strategy: str, k: int, seed: int) -> list[Record]:
    """Pick k target records, either uniformly or by marginal-outlier score."""
    if k > len(ds):
        raise DataError(f"k={k} exceeds dataset size {len(ds)}")
    if strategy == "random":
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(ds), size=k, replace=False)
        return list(ds.take(idx).rows)
    if strategy == "marginal_outlier":
        scores = _marginal_outlier_scores(ds)
        # descending by score, ties broken by ascending row index
        order = np.argsort(-scores, kind="stable")
        return list(ds.take(order[:k]).rows)
    raise DataError(f"unknown strategy {strategy!r}")
