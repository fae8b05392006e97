import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privaudit.data import (
    CategoricalColumn,
    DataError,
    Dataset,
    EncodedMatrix,
    NumericColumn,
    Schema,
    SchemaError,
    decode,
    encode,
    encode_record,
    load_csv,
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
# schema

def test_schema_rejects_duplicate_names():
    with pytest.raises(SchemaError):
        Schema((NumericColumn("a", 0, 1), NumericColumn("a", 0, 2)))


def test_schema_rejects_bad_bounds():
    with pytest.raises(SchemaError):
        NumericColumn("x", 5.0, 5.0)


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
    m = encode(ds).matrix
    assert m[0, 0] == pytest.approx(0.5)
    assert m[0, 4] == pytest.approx(0.5)


def test_encode_one_hot():
    sch = Schema((CategoricalColumn("c", ("a", "b", "z")),))
    ds = make_ds(sch, [(1,)])
    assert list(encode(ds).matrix[0]) == [0.0, 1.0, 0.0]


def test_encode_decode_roundtrip(schema):
    ds = make_ds(schema, [(30.0, 0, 5.5), (40.0, 2, 2.0), (0.0, 1, 10.0)])
    back = decode(encode(ds))
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
    back = decode(encode(ds))
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
    validated = [sch.validate_record(r) for r in rows]
    assert ds.rows == tuple(validated)

    ref = np.array([ref_encode_record(sch, r) for r in validated]).reshape(len(rows), sch.encoded_width)
    em = encode(ds)
    assert em.matrix.tobytes() == ref.tobytes()
    assert all(encode_record(sch, r).tobytes() == ref[i].tobytes() for i, r in enumerate(rows))

    # decode of the encoding, and of a perturbed matrix with ties and
    # out-of-range entries, against the per-row inverse
    rng = np.random.default_rng(noise_seed)
    noisy = np.round(ref + rng.normal(0.0, 0.6, ref.shape), 1)
    for m in (ref, noisy):
        got = decode(EncodedMatrix(m, sch)).rows
        want = [ref_decode_row(sch, m[i]) for i in range(len(rows))]
        assert [bits(r) for r in got] == [bits(r) for r in want]

    assert dataset_fingerprint(ds) == ref_fingerprint(sch, validated)
    assert dataset_fingerprint(ds.take(np.arange(len(ds))[::-1])) == dataset_fingerprint(ds)
