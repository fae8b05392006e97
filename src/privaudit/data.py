"""Tabular dataset model.

Schema-typed ingestion into columnar datasets, canonical whole-column
[0,1]/one-hot encoding, neighboring-dataset construction, and target-record
selection. Datasets are immutable after construction.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SchemaError",
    "DataError",
    "NumericColumn",
    "CategoricalColumn",
    "Schema",
    "Dataset",
    "EncodedMatrix",
    "load_csv",
    "encode",
    "decode",
    "encode_record",
    "row_keys",
    "select_targets",
]

Record = tuple  # ordered values matching the schema


class SchemaError(ValueError):
    pass


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class NumericColumn:
    name: str
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise SchemaError(f"column {self.name!r}: need min < max, got [{self.lo}, {self.hi}]")

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

    def validate_record(self, values, row: int | None = None) -> Record:
        where = "" if row is None else f" (row {row})"
        if len(values) != len(self.columns):
            raise DataError(
                f"record has {len(values)} values, schema has {len(self.columns)} columns{where}"
            )
        out = []
        for col, v in zip(self.columns, values):
            if isinstance(col, NumericColumn):
                v = float(v)
                if not (col.lo <= v <= col.hi) or not math.isfinite(v):
                    raise DataError(
                        f"column {col.name!r}: value {v} outside [{col.lo}, {col.hi}]{where}"
                    )
                out.append(v)
            else:
                i = int(v)
                if not (0 <= i < len(col.levels)):
                    raise DataError(
                        f"column {col.name!r}: level index {i} out of range{where}"
                    )
                out.append(i)
        return tuple(out)

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
    def from_json_dict(doc: dict) -> "Schema":
        if "columns" not in doc:
            raise SchemaError("schema document missing 'columns'")
        cols: list[Column] = []
        for i, c in enumerate(doc["columns"]):
            try:
                kind = c["kind"]
                if kind == "numeric":
                    cols.append(NumericColumn(c["name"], float(c["min"]), float(c["max"])))
                elif kind == "categorical":
                    cols.append(CategoricalColumn(c["name"], tuple(c["levels"])))
                else:
                    raise SchemaError(f"columns[{i}]: unknown kind {kind!r}")
            except KeyError as e:
                raise SchemaError(f"columns[{i}]: missing field {e}") from None
        return Schema(tuple(cols))

    @staticmethod
    def from_json_file(path) -> "Schema":
        with open(path, "r", encoding="utf-8") as f:
            return Schema.from_json_dict(json.load(f))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Columnar table: one read-only 1-D array per schema column, float64 for
    numeric columns and int64 level indices for categorical ones."""

    schema: Schema
    columns: tuple[np.ndarray, ...]
    provenance: str = ""

    def __post_init__(self):
        cols = tuple(
            np.array(c, dtype=np.float64 if isinstance(col, NumericColumn) else np.int64)
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
        validated = [schema.validate_record(r, row=i) for i, r in enumerate(rows)]
        return Dataset(schema, _transpose(schema, validated), provenance)

    def take(self, idx) -> "Dataset":
        """The rows at the given indices, in that order."""
        return Dataset(self.schema, tuple(c[idx] for c in self.columns), self.provenance)

    def with_record(self, record) -> "Dataset":
        """This dataset with the record appended as its last row."""
        one = _single(self.schema, record)
        cols = tuple(np.concatenate(pair) for pair in zip(self.columns, one.columns))
        return Dataset(self.schema, cols, self.provenance)

    def matches(self, record) -> np.ndarray:
        """Boolean mask of the rows whose encoding equals the record's."""
        return row_keys(self) == row_keys(_single(self.schema, record))[0]

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


def _transpose(schema: Schema, records) -> tuple:
    return tuple(zip(*records)) or ((),) * len(schema.columns)


def _single(schema: Schema, record) -> Dataset:
    return Dataset(schema, _transpose(schema, [schema.validate_record(record)]))


@dataclass(frozen=True)
class EncodedMatrix:
    matrix: np.ndarray  # (n_rows, encoded_width) float64
    schema: Schema
    spans: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        if not self.spans:
            object.__setattr__(self, "spans", tuple(self.schema.encoded_spans()))


def load_csv(path, schema: Schema) -> Dataset:
    """Read a CSV with a header row matching the schema column order."""
    try:
        f = open(path, "r", encoding="utf-8", newline="")
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    with f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        if header != schema.names:
            raise DataError(f"{path}: header {header} does not match schema {schema.names}")
        rows = []
        for rownum, raw in enumerate(reader):
            if len(raw) != len(schema.columns):
                raise DataError(f"{path}: row {rownum} has {len(raw)} fields, expected {len(schema.columns)}")
            values = []
            for col, cell in zip(schema.columns, raw):
                if isinstance(col, NumericColumn):
                    try:
                        values.append(float(cell))
                    except ValueError:
                        raise DataError(
                            f"{path}: row {rownum}, column {col.name!r}: not a number: {cell!r}"
                        ) from None
                else:
                    if cell not in col.levels:
                        raise DataError(
                            f"{path}: row {rownum}, column {col.name!r}: unknown level {cell!r}"
                        )
                    values.append(col.levels.index(cell))
            rows.append(schema.validate_record(values, row=rownum))
    return Dataset(schema, _transpose(schema, rows), str(path))


def encode(ds: Dataset) -> EncodedMatrix:
    """Numeric columns scaled to [0,1] by schema bounds; categoricals one-hot."""
    n = len(ds)
    m = np.zeros((n, ds.schema.encoded_width), dtype=np.float64)
    for (a, _), col, c in zip(ds.schema.encoded_spans(), ds.schema.columns, ds.columns):
        if isinstance(col, NumericColumn):
            m[:, a] = (c - col.lo) / (col.hi - col.lo)
        else:
            m[np.arange(n), a + c] = 1.0
    return EncodedMatrix(matrix=m, schema=ds.schema)


def encode_record(schema: Schema, record: Record) -> np.ndarray:
    return encode(_single(schema, record)).matrix[0]


def decode(em: EncodedMatrix, provenance: str = "") -> Dataset:
    """Inverse of encode: numerics clipped to [0,1] and rescaled, each
    categorical span decoded to its argmax level."""
    cols = []
    for (a, b), col in zip(em.spans, em.schema.columns):
        if isinstance(col, NumericColumn):
            cols.append(col.lo + np.clip(em.matrix[:, a], 0.0, 1.0) * (col.hi - col.lo))
        else:
            cols.append(np.argmax(em.matrix[:, a:b], axis=1))
    return Dataset(em.schema, tuple(cols), provenance)


def row_keys(ds: Dataset) -> np.ndarray:
    """One opaque key per row: its encoded bytes viewed as np.void. Rows are
    the same record exactly when their keys are equal."""
    m = encode(ds).matrix
    return m.view(np.dtype((np.void, m.itemsize * m.shape[1]))).ravel()


def _marginal_outlier_scores(ds: Dataset, bins: int = 10) -> np.ndarray:
    """Sum over columns of -log empirical marginal frequency.

    Numeric columns use `bins` equal-width histogram bins over the schema
    bounds. A record in rare cells scores high. This is a heuristic: records
    vulnerable only on learned joint dimensions may not be marginal outliers.
    """
    n = len(ds)
    scores = np.zeros(n, dtype=np.float64)
    for col, vals in zip(ds.schema.columns, ds.columns):
        if isinstance(col, NumericColumn):
            width = (col.hi - col.lo) / bins
            idx = np.minimum(((vals - col.lo) / width).astype(int), bins - 1)
            counts = np.bincount(idx, minlength=bins)
        else:
            idx = vals
            counts = np.bincount(idx, minlength=len(col.levels))
        scores += -np.log(counts[idx] / n)
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
