import csv
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privaudit import data
from privaudit.data import (
    CategoricalColumn,
    DataError,
    Dataset,
    NumericColumn,
    Schema,
    SchemaError,
    check_finite,
    count_value,
    decode,
    encode,
    encode_record,
    fraction,
    load_csv,
    row_keys,
    select_targets,
)


@pytest.fixture
def schema():
    return Schema((
        NumericColumn("age", 0.0, 100.0),
        CategoricalColumn("job", ("nurse", "teacher", "pilot")),
        NumericColumn("income", 0.0, 10.0),
    ))


def make_ds(schema, rows):
    return Dataset.from_rows(schema, rows)


# ---------------------------------------------------------------------------
# numbers from outside

NOT_NUMBERS = ["0.5", "1", True, False, None, [1], {"v": 1}, np.bool_(True)]


@pytest.mark.parametrize("value", NOT_NUMBERS)
def test_no_check_takes_a_value_that_is_not_a_number(value):
    for check, args in ((count_value, (None,)), (check_finite, (None,)), (fraction, ())):
        with pytest.raises(ValueError, match=r"^v must be .*, got "):
            check("v", value, *args)


@pytest.mark.parametrize("value", [1, 0.5, np.float64(0.5), np.int64(1), 10**300])
def test_checks_return_the_value_as_given(value):
    assert check_finite("v", value) is value
    if value <= 1:
        assert fraction("v", value, one=True) is value
    # an int stays an int, written as 1 and not 1.0
    assert type(check_finite("v", 1)) is int and type(fraction("v", 1, one=True)) is int


@pytest.mark.parametrize("value, positive, message", [
    (float("nan"), None, "v must be a finite number, got nan"),
    (float("-inf"), None, "v must be a finite number, got -inf"),
    (10**400, None, f"v must be a finite number, got {10**400!r}"),
    (-1, False, "v must be a finite number >= 0, got -1"),
    (0, True, "v must be a finite number > 0, got 0"),
    (-0.0, True, "v must be a finite number > 0, got -0.0"),
])
def test_check_finite_bounds(value, positive, message):
    with pytest.raises(ValueError) as e:
        check_finite("v", value, positive)
    assert str(e.value) == message
    assert check_finite("v", -2.5, None) == -2.5 and check_finite("v", 0, False) == 0


@pytest.mark.parametrize("value, one, ok", [
    (0.5, False, True), (1, False, False), (1, True, True), (1.0, True, True),
    (0, True, False), (-0.1, False, False), (1.5, True, False), (float("nan"), True, False),
])
def test_fraction_is_the_open_or_half_open_unit_interval(value, one, ok):
    if ok:
        assert fraction("v", value, one) == value
    else:
        with pytest.raises(ValueError) as e:
            fraction("v", value, one)
        assert str(e.value) == f"v must be a number in (0, 1{']' if one else ')'}, got {value!r}"


def test_count_value_converts_an_integral_float_only():
    assert count_value("v", 40.0, 1) == 40 and type(count_value("v", 40.0, 1)) is int
    for value, message in [(2.5, "v must be an integer >= 1, got 2.5"),
                           (0, "v must be an integer >= 1, got 0"),
                           (float("nan"), "v must be an integer >= 1, got nan")]:
        with pytest.raises(ValueError) as e:
            count_value("v", value, 1)
        assert str(e.value) == message


# ---------------------------------------------------------------------------
# schema

def test_schema_rejects_duplicate_names():
    with pytest.raises(SchemaError):
        Schema((NumericColumn("a", 0, 1), NumericColumn("a", 0, 2)))


def test_schema_rejects_bad_bounds():
    with pytest.raises(SchemaError):
        NumericColumn("x", 5.0, 5.0)


@pytest.mark.parametrize("lo, hi, message", [
    (0.0, float("inf"), "max must be a finite number, got inf"),
    (float("-inf"), 0.0, "min must be a finite number, got -inf"),
    (float("nan"), 1.0, "min must be a finite number, got nan"),
    (0.0, float("nan"), "max must be a finite number, got nan"),
    (-1e308, 1e308, "max - min must be finite"),
])
def test_schema_rejects_non_finite_bounds(lo, hi, message):
    with pytest.raises(SchemaError, match=f"column 'x': {message}"):
        NumericColumn("x", lo, hi)
    doc = {"columns": [{"name": "x", "kind": "numeric", "min": lo, "max": hi}]}
    with pytest.raises(SchemaError, match=message):
        Schema.from_json_dict(json.loads(json.dumps(doc)))


@pytest.mark.parametrize("column, message", [
    ({"name": "x", "kind": "numeric", "min": False, "max": True},
     "column 'x': min must be a finite number, got False"),
    ({"name": "x", "kind": "numeric", "min": "abc", "max": 1.0},
     "column 'x': min must be a finite number, got 'abc'"),
    ({"name": "x", "kind": "numeric", "min": 0.0, "max": "1"},
     "column 'x': max must be a finite number, got '1'"),
    ({"name": "x", "kind": "numeric", "min": 0.0, "max": None},
     "column 'x': max must be a finite number, got None"),
    ({"name": "y", "kind": "categorical", "levels": "ab"},
     "column 'y': levels must be a list of strings, got 'ab'"),
    ({"name": "y", "kind": "categorical", "levels": ["a", 1]},
     "column 'y': levels must be a list of strings, got ['a', 1]"),
    ({"name": 3, "kind": "categorical", "levels": ["a"]},
     "columns[0]: name must be a string, got 3"),
    ({"name": "x"}, "columns[0]: missing field 'kind'"),
    ({"name": "x", "kind": "numeric", "min": 0.0}, "columns[0]: missing field 'max'"),
    ({"name": "x", "kind": "text"}, "columns[0]: unknown kind 'text'"),
    ({"name": "y", "kind": "categorical", "levels": []}, "column 'y': levels must be non-empty"),
])
def test_schema_document_errors_name_the_source(column, message):
    with pytest.raises(SchemaError) as e:
        Schema.from_json_dict({"columns": [column]}, "s.json")
    assert str(e.value) == f"s.json: {message}"


def test_schema_document_with_duplicate_names_names_the_source():
    col = {"name": "x", "kind": "numeric", "min": 0, "max": 1}
    with pytest.raises(SchemaError) as e:
        Schema.from_json_dict({"columns": [col, col]}, "s.json")
    assert str(e.value) == "s.json: duplicate column names in ['x', 'x']"


def test_schema_bounds_are_floats():
    # an int bound is written back as a float, as the schema file was read
    sch = Schema.from_json_dict({"columns": [{"name": "x", "kind": "numeric",
                                              "min": 0, "max": 10}]})
    assert sch.to_json_dict()["columns"][0] == {"name": "x", "kind": "numeric",
                                                "min": 0.0, "max": 10.0}
    assert type(sch.columns[0].lo) is float


def test_schema_rejects_empty_levels():
    with pytest.raises(SchemaError):
        CategoricalColumn("x", ())


def test_schema_json_roundtrip(schema, tmp_path):
    p = tmp_path / "schema.json"
    import json
    p.write_text(json.dumps(schema.to_json_dict()))
    assert Schema.from_json_file(p) == schema


# ---------------------------------------------------------------------------
# load_csv

def test_load_csv_valid(schema, tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("age,job,income\n30,nurse,5.5\n40,pilot,2.0\n55,teacher,9.9\n")
    ds = load_csv(p, schema)
    assert len(ds) == 3
    assert ds.rows[1] == (40.0, 2, 2.0)


def test_load_csv_out_of_range_names_location(schema, tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("age,job,income\n30,nurse,5.5\n140,pilot,2.0\n")
    with pytest.raises(DataError, match=r"age.*row 1|row 1.*age"):
        load_csv(p, schema)


def test_load_csv_unknown_level(schema, tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("age,job,income\n30,astronaut,5.5\n")
    with pytest.raises(DataError, match="astronaut"):
        load_csv(p, schema)


def test_load_csv_header_mismatch(schema, tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("age,income,job\n")
    with pytest.raises(DataError, match="header"):
        load_csv(p, schema)


def test_load_csv_empty_with_header(schema, tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("age,job,income\n")
    assert len(load_csv(p, schema)) == 0


def test_load_csv_missing_file(schema, tmp_path):
    with pytest.raises(DataError, match="no such file"):
        load_csv(tmp_path / "nope.csv", schema)


def test_csv_write_read_roundtrip(schema, tmp_path):
    ds = make_ds(schema, [(30.0, 0, 5.5), (40.0, 2, 2.0)])
    p = tmp_path / "out.csv"
    ds.to_csv(p)
    again = load_csv(p, schema)
    assert again.rows == ds.rows


# ---------------------------------------------------------------------------
# encode / decode

def test_encode_numeric_scaling(schema):
    ds = make_ds(schema, [(50.0, 0, 5.0)])
    m = encode(ds)
    assert m[0, 0] == pytest.approx(0.5)
    assert m[0, 4] == pytest.approx(0.5)


def test_encode_one_hot():
    sch = Schema((CategoricalColumn("c", ("a", "b", "z")),))
    ds = make_ds(sch, [(1,)])
    assert list(encode(ds)[0]) == [0.0, 1.0, 0.0]


def test_encode_decode_roundtrip(schema):
    ds = make_ds(schema, [(30.0, 0, 5.5), (40.0, 2, 2.0), (0.0, 1, 10.0)])
    back = decode(schema, encode(ds))
    for r1, r2 in zip(back.rows, ds.rows):
        assert r1 == pytest.approx(r2)


@st.composite
def schema_and_rows(draw):
    cols = []
    n_cols = draw(st.integers(1, 4))
    for i in range(n_cols):
        if draw(st.booleans()):
            lo = draw(st.floats(-100, 100, allow_nan=False))
            hi = lo + draw(st.floats(0.5, 100, allow_nan=False))
            cols.append(NumericColumn(f"c{i}", lo, hi))
        else:
            nlev = draw(st.integers(1, 5))
            cols.append(CategoricalColumn(f"c{i}", tuple(f"l{j}" for j in range(nlev))))
    sch = Schema(tuple(cols))
    n = draw(st.integers(0, 6))
    rows = []
    for _ in range(n):
        vals = []
        for c in cols:
            if isinstance(c, NumericColumn):
                vals.append(draw(st.floats(c.lo, c.hi, allow_nan=False)))
            else:
                vals.append(draw(st.integers(0, len(c.levels) - 1)))
        rows.append(tuple(vals))
    return sch, rows


@given(schema_and_rows())
@settings(max_examples=60)
def test_roundtrip_property(sr):
    sch, rows = sr
    ds = Dataset.from_rows(sch, rows)
    back = decode(sch, encode(ds))
    for r1, r2 in zip(back.rows, ds.rows):
        for col, v1, v2 in zip(sch.columns, r1, r2):
            if isinstance(col, NumericColumn):
                assert v1 == pytest.approx(v2, abs=1e-9 * max(1.0, abs(col.hi - col.lo)))
            else:
                assert v1 == v2


# ---------------------------------------------------------------------------
# neighbouring datasets: D' = D.with_record(target)

def test_neighbors_sizes(schema):
    base = make_ds(schema, [(float(i), i % 3, 1.0) for i in range(10)])
    dprime = base.with_record((99.0, 0, 9.0))
    assert len(base) == 10 and len(dprime) == 11
    assert dprime.rows[-1] == (99.0, 0, 9.0)


def test_neighbors_differ_by_one(schema):
    base = make_ds(schema, [(1.0, 0, 1.0), (2.0, 1, 2.0)])
    dprime = base.with_record((3.0, 2, 3.0))
    assert dprime.rows[:-1] == base.rows
    assert set(dprime.rows) - set(base.rows) == {(3.0, 2, 3.0)}


def test_neighbors_empty_base(schema):
    base = make_ds(schema, [])
    dprime = base.with_record((1.0, 0, 1.0))
    assert len(base) == 0 and dprime.rows == ((1.0, 0, 1.0),)


# ---------------------------------------------------------------------------
# select_targets

def test_select_all(schema):
    ds = make_ds(schema, [(float(i), i % 3, 1.0) for i in range(5)])
    got = select_targets(ds, "random", 5, seed=0)
    assert sorted(got) == sorted(ds.rows)


def test_select_too_many(schema):
    ds = make_ds(schema, [(1.0, 0, 1.0)])
    with pytest.raises(DataError):
        select_targets(ds, "random", 2, seed=0)


def test_select_deterministic(schema):
    ds = make_ds(schema, [(float(i), i % 3, float(i % 10)) for i in range(20)])
    a = select_targets(ds, "random", 5, seed=42)
    b = select_targets(ds, "random", 5, seed=42)
    assert a == b


def test_marginal_outlier_unique_level_first():
    sch = Schema((CategoricalColumn("c", ("a", "b", "rare")),
                  NumericColumn("x", 0.0, 1.0)))
    # hand-computed scoring on 5 rows: row 3 holds the unique 'rare' level
    # score(row3) = -log(1/5) - log(freq of its bin); every other row shares
    # its level with at least one other row, so row 3 dominates on column c
    rows = [(0, 0.5), (0, 0.5), (1, 0.5), (2, 0.5), (1, 0.5)]
    ds = Dataset.from_rows(sch, rows)
    top = select_targets(ds, "marginal_outlier", 1, seed=0)
    assert top[0] == (2, 0.5)


def test_marginal_outlier_permutation_covariant():
    from privaudit.data import _marginal_outlier_scores

    sch = Schema((NumericColumn("x", 0.0, 10.0),))
    rows = [(0.1,), (0.2,), (9.9,), (0.3,), (0.15,)]
    ds1 = Dataset.from_rows(sch, rows)
    ds2 = Dataset.from_rows(sch, rows[::-1])
    s1 = _marginal_outlier_scores(ds1)
    s2 = _marginal_outlier_scores(ds2)
    assert list(s1) == pytest.approx(list(s2[::-1]))


def test_outlier_score_of_edge_value_uses_the_histogram_cell():
    # 25.2 is the first inner edge of 10 bins on [18, 90]; np.histogram
    # counts it in bin 1 with 30.0, not in bin 0 with the three 20.0s
    from privaudit.data import _marginal_outlier_scores, histogram_cells

    sch = Schema((NumericColumn("age", 18.0, 90.0),))
    ages = [25.2, 20.0, 20.0, 20.0, 30.0]
    ds = Dataset.from_rows(sch, [(a,) for a in ages])
    counts, _ = np.histogram(ages, bins=10, range=(18.0, 90.0))
    cell = int(np.histogram([25.2], bins=10, range=(18.0, 90.0))[0].argmax())
    assert cell == 1 and histogram_cells(ds, 10)[0][0, 0] == cell
    scores = _marginal_outlier_scores(ds)
    assert scores[0] == -np.log(counts[cell] / 5) == -np.log(2 / 5)
    assert select_targets(ds, "marginal_outlier", 1, seed=0) == [(25.2,)]


# ---------------------------------------------------------------------------
# the one checking rule

def test_from_rows_checks_every_value(schema):
    ok = Dataset.from_rows(schema, [(30, "pilot", 5), (np.float64(1.5), 1.0, np.int64(2))])
    assert ok.rows == ((30.0, 2, 5.0), (1.5, 1, 2.0))
    # the first offending row is named, and a lone record is not numbered
    for rows, message in [
        ([(30.0, 0, 5.0), (30.0, 1.7, 5.0)], "column 'job': level index 1.7 is not an integer (row 1)"),
        ([(30.0, 0.5, 5.0)], "column 'job': level index 0.5 is not an integer"),
        ([(30.0, float("nan"), 5.0)], "column 'job': level index nan is not an integer"),
        ([(30.0, float("inf"), 5.0)], "column 'job': level index inf is not an integer"),
        ([(30.0, 3, 5.0)], "column 'job': level index 3 out of range"),
        ([(30.0, -1, 5.0)], "column 'job': level index -1 out of range"),
        ([(30.0, True, 5.0)], "column 'job': value True is not a number"),
        ([(30.0, 0, 5.0), (True, 1, 5.0)], "column 'age': value True is not a number (row 1)"),
        ([(np.bool_(False), 1, 5.0), (1.0, 1, 5.0)], "column 'age': value False is not a number (row 0)"),
        ([(30.0, "astronaut", 5.0)], "unknown level 'astronaut' for column 'job'"),
        # a number must be a number, not its text
        ([("30", 0, 5.0)], "column 'age': value '30' is not a number"),
        ([(30.0, 0, 5.0), (30.0, 0, "abc")], "column 'income': value 'abc' is not a number (row 1)"),
        ([(None, 0, 5.0)], "column 'age': value None is not a number"),
        # an integer no float can hold, as a 400-digit JSON number reads
        ([(10**400, 0, 5.0)], f"column 'age': value {10**400} is too large for a float"),
        ([(30.0, 0, 5.0), (30.0, -10**400, 5.0)],
         f"column 'job': value {-10**400} is too large for a float (row 1)"),
        ([(130.0, 0, 5.0)], "column 'age': value 130.0 outside [0.0, 100.0]"),
        ([(30.0, 0, float("inf"))], "column 'income': value inf outside [0.0, 10.0]"),
        ([(30.0, 0, 5.0), (30.0, 0)], "record has 2 values, schema has 3 columns (row 1)"),
    ]:
        with pytest.raises(DataError) as e:
            Dataset.from_rows(schema, rows)
        assert str(e.value) == message


def test_every_record_path_applies_the_rule(schema):
    ds = make_ds(schema, [(30.0, 0, 5.0)])
    for bad in [(30.0, 1.7, 5.0), (True, 1, 5.0), (30.0, 0)]:
        for use in (ds.with_record, ds.matches, lambda r: encode_record(schema, r)):
            with pytest.raises(DataError):
                use(bad)


# ---------------------------------------------------------------------------
# load_csv against a per-row reference with the loader's former semantics

def ref_validate_record(schema, values, row=None):
    where = "" if row is None else f" (row {row})"
    if len(values) != len(schema.columns):
        raise DataError(f"record has {len(values)} values, schema has {len(schema.columns)} columns{where}")
    out = []
    for col, v in zip(schema.columns, values):
        if isinstance(col, NumericColumn):
            v = float(v)
            if not (col.lo <= v <= col.hi) or not math.isfinite(v):
                raise DataError(f"column {col.name!r}: value {v} outside [{col.lo}, {col.hi}]{where}")
            out.append(v)
        else:
            i = int(v)
            if not (0 <= i < len(col.levels)):
                raise DataError(f"column {col.name!r}: level index {i} out of range{where}")
            out.append(i)
    return tuple(out)


def ref_load_csv(path, schema):
    """Row by row: every cell parsed, every row validated, then transposed."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        assert header == schema.names
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
                        raise DataError(f"{path}: row {rownum}, column {col.name!r}: unknown level {cell!r}")
                    values.append(col.levels.index(cell))
            rows.append(ref_validate_record(schema, values, row=rownum))
    return [np.array([r[j] for r in rows],
                     dtype=np.float64 if isinstance(col, NumericColumn) else np.int64)
            for j, col in enumerate(schema.columns)]


def _numeric_cell(draw, col, bins):
    """A cell of a numeric column: a bound, a bin edge or one of its ulp
    neighbours inside [lo, hi], -0.0 where 0 is in range, or any value, as
    repr, exponent or fixed-point text."""
    edges = np.histogram_bin_edges([], bins=bins, range=(col.lo, col.hi))
    near = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    special = [float(v) for v in near if col.lo <= v <= col.hi]
    if col.lo <= 0.0 <= col.hi:
        special.append(-0.0)
    v = draw(st.one_of(st.sampled_from(special), st.floats(col.lo, col.hi, allow_nan=False)))
    style = draw(st.sampled_from(["repr", "exp", "EXP", "fixed", "int"]))
    if style == "exp":
        return f"{v:.17e}"
    if style == "EXP":
        return f"{v:.17E}"
    # 20 decimals can round a tiny value to 0.0, a second fault where lo > 0
    if style == "fixed" and abs(v) < 1e15 and float(f"{v:.20f}") == v:
        return f"{v:.20f}"
    if style == "int" and v == int(v):
        return str(int(v))
    return repr(v)


@st.composite
def csv_case(draw):
    cols = []
    for i in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            lo = draw(st.one_of(st.sampled_from([0.0, 18.0, -1.0]), st.floats(-1e6, 1e6, allow_nan=False)))
            hi = lo + draw(st.one_of(st.sampled_from([72.0, 1.0]), st.floats(1e-3, 1e6, allow_nan=False)))
            cols.append(NumericColumn(f"c{i}", lo, hi))
        else:
            cols.append(CategoricalColumn(f"c{i}", tuple(f"l{j}" for j in range(draw(st.integers(1, 4))))))
    sch = Schema(tuple(cols))
    rows = [[_numeric_cell(draw, c, 10) if isinstance(c, NumericColumn) else draw(st.sampled_from(c.levels))
             for c in cols] for _ in range(draw(st.integers(0, 8)))]
    return sch, rows


def _write(path, schema, rows):
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(schema.names)
        w.writerows(rows)


def _outcome(load, path, schema):
    try:
        return [c.tobytes() for c in load(path, schema)]
    except DataError as e:
        return str(e)


@given(case=csv_case(), fault=st.sampled_from(
    [None, "bad number", "unknown level", "out of range", "nan", "inf", "-inf", "short", "long"]),
    at=st.integers(0, 10**6))
@settings(max_examples=300, deadline=None)
def test_load_csv_matches_per_row_reference(tmp_path_factory, case, fault, at):
    _check_against_reference(tmp_path_factory, case, fault, at)


@given(case=csv_case(), fault=st.sampled_from(
    [None, "bad number", "unknown level", "out of range", "nan", "inf", "-inf", "short", "long"]),
    at=st.integers(0, 10**6), block=st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_load_csv_in_blocks_matches_per_row_reference(tmp_path_factory, case, fault, at, block):
    # blocks of 1 to 4 rows split the files of up to 8 rows at every boundary,
    # and a fault's row number counts from the top of the file
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_CSV_BLOCK_ROWS", block)
        _check_against_reference(tmp_path_factory, case, fault, at)


def _check_against_reference(tmp_path_factory, case, fault, at):
    """A file with at most one fault loads as the per-row reference loads
    it: the same columns, bit for bit, or the same error."""
    sch, rows = case
    if fault is not None and rows:
        r = at % len(rows)
        j = at % len(sch.columns)
        col = sch.columns[j]
        numeric = isinstance(col, NumericColumn)
        if fault == "short":
            rows[r] = rows[r][:-1]
        elif fault == "long":
            rows[r] = rows[r] + ["1"]
        elif fault == "bad number" and numeric:
            rows[r][j] = "1.5x"
        elif fault == "unknown level" and not numeric:
            rows[r][j] = "l9"
        elif fault == "out of range" and numeric:
            rows[r][j] = repr(float(np.nextafter(col.hi, np.inf)) if at % 2 else float(np.nextafter(col.lo, -np.inf)))
        elif fault in ("nan", "inf", "-inf") and numeric:
            rows[r][j] = fault
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    _write(path, sch, rows)
    want = _outcome(ref_load_csv, path, sch)
    got = _outcome(lambda p, s: load_csv(p, s).columns, path, sch)
    assert got == want


def test_load_csv_peak_memory_does_not_grow_with_rows(tmp_path):
    # the text of one block of rows is held at a time: beyond the columns and
    # the dataset's copy of them, the traced peak stays under a fixed budget
    sch = Schema((NumericColumn("age", 18.0, 90.0), NumericColumn("income", 0.0, 2e5),
                  CategoricalColumn("region", ("n", "e", "s", "w")), CategoricalColumn("y", ("no", "yes"))))
    rng = np.random.default_rng(0)
    path = tmp_path / "d.csv"
    for n in (25_000, 50_000):
        _write(path, sch, zip(map(repr, rng.uniform(18, 90, n).tolist()),
                              map(repr, rng.uniform(0, 2e5, n).tolist()),
                              rng.choice(list("nesw"), n), rng.choice(["no", "yes"], n)))
        tracemalloc.start()
        try:
            ds = load_csv(path, sch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ds) == n
        assert peak - 2 * sum(c.nbytes for c in ds.columns) < 1_000_000


def test_caller_columns_are_copied_and_left_writable():
    sch = Schema((NumericColumn("x", 0.0, 5.0), CategoricalColumn("c", ("a", "b"))))
    x, c = np.arange(3.0), np.array([0, 1, 0])
    ds = Dataset(sch, (x, c))
    assert x.flags.writeable and c.flags.writeable
    assert not any(np.shares_memory(a, b) for a, b in zip(ds.columns, (x, c)))
    assert not any(col.flags.writeable for col in ds.columns)
    x[0] = 4.0
    assert ds.columns[0][0] == 0.0


def test_built_columns_are_handed_over_not_copied(tmp_path):
    # load_csv and take hold the columns they build once: the traced peak is
    # the columns (and take's index) plus one column's blocks being joined
    sch = Schema((NumericColumn("age", 18.0, 90.0), CategoricalColumn("y", ("no", "yes"))))
    rng = np.random.default_rng(1)
    n = 50_000
    path = tmp_path / "d.csv"
    _write(path, sch, zip(map(repr, rng.uniform(18, 90, n).tolist()), rng.choice(["no", "yes"], n)))
    tracemalloc.start()
    try:
        ds = load_csv(path, sch)
        loaded = tracemalloc.get_traced_memory()[1]
        order = np.arange(n)[::-1].copy()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        flipped = ds.take(order)
        taken = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    columns = sum(c.nbytes for c in ds.columns)
    assert loaded - columns < columns / 2 + 200_000
    assert taken < 1.1 * columns
    assert not any(c.flags.writeable for c in flipped.columns)


def test_load_csv_bounds_and_header_only_bit_equal(tmp_path):
    sch = Schema((NumericColumn("age", 18.0, 90.0), CategoricalColumn("c", ("a", "b"))))
    edges = np.histogram_bin_edges([], bins=10, range=(18.0, 90.0))
    values = [v for v in np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
              if 18.0 <= v <= 90.0]
    cells = [[repr(float(v)), "ab"[i % 2]] for i, v in enumerate(values)]
    cells += [["1.8e1", "a"], ["9.0E+01", "b"], ["  25.2 ", "a"], ["18", "b"]]
    path = tmp_path / "d.csv"
    _write(path, sch, cells)
    ds = load_csv(path, sch)
    assert [c.tobytes() for c in ds.columns] == [c.tobytes() for c in ref_load_csv(path, sch)]
    assert ds.columns[0][0] == 18.0 and 90.0 in ds.columns[0]
    _write(path, sch, [])
    ds = load_csv(path, sch)
    assert len(ds) == 0 and [c.dtype for c in ds.columns] == [np.float64, np.int64]
    sch0 = Schema((NumericColumn("z", -1.0, 1.0),))
    _write(path, sch0, [["-0.0"], ["0.0"]])
    z = load_csv(path, sch0).columns[0]
    assert np.signbit(z).tolist() == [True, False]


# ---------------------------------------------------------------------------
# columnar core against a per-row reference

def ref_encode_record(schema, record):
    out = np.zeros(schema.encoded_width, dtype=np.float64)
    for (a, _), col, v in zip(schema.encoded_spans(), schema.columns, record):
        if isinstance(col, NumericColumn):
            out[a] = (v - col.lo) / (col.hi - col.lo)
        else:
            out[a + int(v)] = 1.0
    return out


def ref_decode_row(schema, vec):
    values = []
    for (a, b), col in zip(schema.encoded_spans(), schema.columns):
        if isinstance(col, NumericColumn):
            x = float(np.clip(vec[a], 0.0, 1.0))
            values.append(col.lo + x * (col.hi - col.lo))
        else:
            values.append(int(np.argmax(vec[a:b])))
    return tuple(values)


def ref_fingerprint(schema, rows):
    keys = sorted(ref_encode_record(schema, r).tobytes() for r in rows)
    return hashlib.sha256(b"".join(keys)).hexdigest()


def bits(values):
    return np.array(values, dtype=np.float64).tobytes()


@st.composite
def columnar_case(draw):
    """A mixed (or categorical-only) schema, rows with repeats and numeric
    values at the bounds, and a perturbation of the encoded matrix."""
    categorical_only = draw(st.booleans())
    cols = []
    for i in range(draw(st.integers(1, 5))):
        if not categorical_only and draw(st.booleans()):
            lo = draw(st.floats(-1e6, 1e6, allow_nan=False))
            hi = lo + draw(st.floats(1e-3, 1e6, allow_nan=False))
            cols.append(NumericColumn(f"c{i}", lo, hi))
        else:
            nlev = draw(st.integers(1, 4))
            cols.append(CategoricalColumn(f"c{i}", tuple(f"l{j}" for j in range(nlev))))
    sch = Schema(tuple(cols))

    def value(c):
        if isinstance(c, NumericColumn):
            return st.one_of(st.sampled_from([c.lo, c.hi]), st.floats(c.lo, c.hi, allow_nan=False))
        return st.integers(0, len(c.levels) - 1)

    distinct = draw(st.lists(st.tuples(*(value(c) for c in cols)), max_size=6))
    rows = draw(st.lists(st.sampled_from(distinct), max_size=12)) if distinct else []
    noise_seed = draw(st.integers(0, 2**32 - 1))
    return sch, rows, noise_seed


@given(columnar_case())
@settings(max_examples=150, deadline=None)
def test_columnar_core_matches_row_reference(case):
    from privaudit.shadow import dataset_fingerprint

    sch, rows, noise_seed = case
    ds = Dataset.from_rows(sch, rows)
    validated = [ref_validate_record(sch, r) for r in rows]
    assert ds.rows == tuple(validated)

    ref = np.array([ref_encode_record(sch, r) for r in validated]).reshape(len(rows), sch.encoded_width)
    assert encode(ds).tobytes() == ref.tobytes()
    assert all(encode_record(sch, r).tobytes() == ref[i].tobytes() for i, r in enumerate(rows))

    # decode of the encoding, and of a perturbed matrix with ties and
    # out-of-range entries, against the per-row inverse
    rng = np.random.default_rng(noise_seed)
    noisy = np.round(ref + rng.normal(0.0, 0.6, ref.shape), 1)
    for m in (ref, noisy):
        got = decode(sch, m).rows
        want = [ref_decode_row(sch, m[i]) for i in range(len(rows))]
        assert [bits(r) for r in got] == [bits(r) for r in want]

    # a row's key is its encoded bytes, and matches finds the rows of equal keys
    assert [k.tobytes() for k in row_keys(ds)] == [r.tobytes() for r in ref]
    for r in validated:
        key = ref_encode_record(sch, r).tobytes()
        assert ds.matches(r).tolist() == [k.tobytes() == key for k in ref]

    assert dataset_fingerprint(ds) == ref_fingerprint(sch, validated)
    assert dataset_fingerprint(ds.take(np.arange(len(ds))[::-1])) == dataset_fingerprint(ds)
