from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from privaudit.data import (
    CategoricalColumn,
    Dataset,
    NumericColumn,
    Schema,
)
from privaudit import data as data_mod, models, synthesizers
from privaudit.dpsgd import BugMode, DpSgdConfig
from privaudit.seeds import derive_seed
from privaudit.synthesizers import (
    DegenerateMarginalError,
    GanTrainer,
    GenerativeArtifact,
    MarginalSynthSpec,
    MarginalTrainer,
    calibrate_marginal_noise,
    disc_loss,
    fit_gan,
    fit_marginal,
    gan_spec_for_schema,
    load_artifact,
    marginal_epsilon,
    sample,
    sample_runs,
    save_artifact,
)


@pytest.fixture
def mixed_schema():
    return Schema((
        NumericColumn("x", 0.0, 10.0),
        CategoricalColumn("c", ("a", "b", "z")),
    ))


@pytest.fixture
def mixed_ds(mixed_schema):
    rng = np.random.default_rng(1)
    rows = [(float(rng.uniform(0, 10)), int(rng.integers(3))) for _ in range(200)]
    return Dataset.from_rows(mixed_schema, rows)


# ---------------------------------------------------------------------------
# marginal synthesizer

def test_marginal_noiseless_matches_empirical(mixed_ds):
    art = fit_marginal(mixed_ds, MarginalSynthSpec(noise_std=0.0, seed=0))
    syn = sample(art, 100_000, seed=7)
    # categorical column: chi-square against the empirical level counts
    emp = np.bincount([r[1] for r in mixed_ds.rows], minlength=3) / len(mixed_ds)
    got = np.bincount([r[1] for r in syn.rows], minlength=3)
    _, p = chisquare(got, emp * len(syn))
    assert p > 0.01
    # numeric column: chi-square on the 10 histogram bins
    emp_h, _ = np.histogram([r[0] for r in mixed_ds.rows], bins=10, range=(0, 10))
    got_h, _ = np.histogram([r[0] for r in syn.rows], bins=10, range=(0, 10))
    _, p = chisquare(got_h, emp_h / emp_h.sum() * got_h.sum())
    assert p > 0.01


def test_marginal_empty_dataset_errors(mixed_schema):
    with pytest.raises(ValueError, match="empty"):
        fit_marginal(Dataset.from_rows(mixed_schema, []), MarginalSynthSpec())


def test_marginal_degenerate_after_clamping():
    sch = Schema((CategoricalColumn("c", ("a", "b")),))
    ds = Dataset.from_rows(sch, [(0,)])
    # with enormous noise, some seed zeroes every cell after clamping
    saw_degenerate = False
    for seed in range(500):
        try:
            fit_marginal(ds, MarginalSynthSpec(noise_std=1e6, seed=seed))
        except DegenerateMarginalError as e:
            assert "degenerate marginal" in str(e)
            saw_degenerate = True
            break
    assert saw_degenerate


def test_marginal_single_level_always_sampled():
    sch = Schema((CategoricalColumn("c", ("only",)),))
    ds = Dataset.from_rows(sch, [(0,), (0,)])
    art = fit_marginal(ds, MarginalSynthSpec(noise_std=0.5, seed=3))
    syn = sample(art, 50, seed=1)
    assert all(r == (0,) for r in syn.rows)


def test_sample_empty_and_deterministic(mixed_ds):
    art = fit_marginal(mixed_ds, MarginalSynthSpec(noise_std=1.0, seed=2))
    assert len(sample(art, 0, seed=5)) == 0
    a = sample(art, 20, seed=5)
    b = sample(art, 20, seed=5)
    assert a.rows == b.rows
    assert a.rows != sample(art, 20, seed=6).rows


def test_sample_schema_valid(mixed_ds, mixed_schema):
    art = fit_marginal(mixed_ds, MarginalSynthSpec(noise_std=3.0, seed=9))
    syn = sample(art, 10_000, seed=0)
    assert Dataset.from_rows(mixed_schema, syn.rows).rows == syn.rows


def test_marginal_state_contains_no_raw_rows(mixed_ds, tmp_path):
    art = fit_marginal(mixed_ds, MarginalSynthSpec(noise_std=0.0, seed=0))
    assert set(art.state) == {"probs", "bins"}
    p = tmp_path / "m.bin"
    save_artifact(p, art)
    # payload holds only the histogram probabilities
    expected = sum(arr.size for arr in art.state["probs"]) * 8
    header_len = p.read_bytes().index(b"\n") + 1
    assert p.stat().st_size == header_len + expected


# ---------------------------------------------------------------------------
# calibration

def test_calibrate_marginal_noise_roundtrip(mixed_schema):
    for eps in (0.5, 1.0, 3.0):
        std = calibrate_marginal_noise(mixed_schema, eps, 1e-3)
        assert marginal_epsilon(mixed_schema, std, 1e-3) == pytest.approx(eps, rel=1e-6)


def test_marginal_trainer_claim(mixed_schema):
    tr = MarginalTrainer(MarginalSynthSpec(noise_std=2.0), schema=mixed_schema)
    got = tr.claimed_epsilon(100, 1e-3)
    assert got == pytest.approx(marginal_epsilon(mixed_schema, 2.0, 1e-3))


# ---------------------------------------------------------------------------
# GAN

def small_gan_spec(schema, steps=5, seed=0, bug_mode=BugMode.NONE, sigma=1.0):
    cfg = DpSgdConfig(clip_norm=1.0, noise_multiplier=sigma, sample_rate=0.5,
                      steps=max(steps, 1), learning_rate=0.1,
                      bug_mode=bug_mode)
    return gan_spec_for_schema(schema, latent_dim=2, gen_hidden=8, disc_hidden=8,
                               disc_config=cfg, seed=seed, gen_lr=0.05, steps=steps)


def test_gan_initial_weights_follow_the_run_seed(mixed_ds, mixed_schema):
    trainer = GanTrainer(small_gan_spec(mixed_schema, steps=0))
    a, b, c = (trainer.fit(mixed_ds, s) for s in (1, 1, 2))
    for key in ("gen_params", "disc_params"):
        assert a.state[key].tobytes() == b.state[key].tobytes()
        assert a.state[key].tobytes() != c.state[key].tobytes()
    # the artifact's specs carry the init seeds the run used
    for name, part, key in (("gen_spec", "gen", "gen_params"), ("disc_spec", "disc", "disc_params")):
        spec = a.state[name]
        assert spec.seed == derive_seed(derive_seed(1, "gan"), part)
        assert models.init_params(spec).tobytes() == a.state[key].tobytes()
    rows = np.arange(len(mixed_ds))
    runs = trainer.fit_runs(mixed_ds, [rows, rows], [1, 2])
    assert runs[0].state["gen_params"].tobytes() == a.state["gen_params"].tobytes()
    assert runs[1].state["disc_params"].tobytes() == c.state["disc_params"].tobytes()


def test_gan_zero_steps_depends_only_on_init(mixed_ds, mixed_schema):
    spec = small_gan_spec(mixed_schema, steps=0, seed=4)
    art = fit_gan(mixed_ds, spec)
    from privaudit.models import init_params
    assert np.array_equal(art.state["gen_params"], init_params(art.state["gen_spec"]))
    a = sample(art, 10, seed=3)
    b = sample(art, 10, seed=3)
    assert a.rows == b.rows


def test_gan_deterministic(mixed_ds, mixed_schema):
    spec = small_gan_spec(mixed_schema, steps=5, seed=11)
    a = fit_gan(mixed_ds, spec)
    b = fit_gan(mixed_ds, spec)
    assert np.array_equal(a.state["gen_params"], b.state["gen_params"])
    assert np.array_equal(a.state["disc_params"], b.state["disc_params"])
    assert sample(a, 15, seed=2).rows == sample(b, 15, seed=2).rows


def test_gan_samples_schema_valid(mixed_ds, mixed_schema):
    spec = small_gan_spec(mixed_schema, steps=5, seed=7)
    art = fit_gan(mixed_ds, spec)
    syn = sample(art, 500, seed=1)
    assert Dataset.from_rows(mixed_schema, syn.rows).rows == syn.rows


def test_gan_two_cluster_smoke():
    # 1-D two-cluster fixture, discriminator noise disabled: the generator
    # should cover both clusters to a coarse degree
    sch = Schema((NumericColumn("x", 0.0, 1.0),))
    rng = np.random.default_rng(0)
    vals = np.concatenate([
        rng.normal(0.2, 0.02, size=100), rng.normal(0.8, 0.02, size=100)])
    vals = np.clip(vals, 0.0, 1.0)
    ds = Dataset.from_rows(sch, [(float(v),) for v in vals])
    cfg = DpSgdConfig(clip_norm=1.0, noise_multiplier=1.0, sample_rate=0.5,
                      steps=1, learning_rate=0.3, bug_mode=BugMode.NO_NOISE)
    spec = gan_spec_for_schema(sch, latent_dim=2, gen_hidden=16, disc_hidden=16,
                               disc_config=cfg, seed=0, gen_lr=0.1, steps=4000)
    art = fit_gan(ds, spec)
    syn = sample(art, 2000, seed=5)
    xs = np.array([r[0] for r in syn.rows])
    lo_mass = np.mean((xs >= 0.1) & (xs < 0.3))
    hi_mass = np.mean((xs >= 0.7) & (xs < 0.9))
    assert lo_mass >= 0.2
    assert hi_mass >= 0.2


def test_disc_loss_requires_gan(mixed_ds):
    art = fit_marginal(mixed_ds, MarginalSynthSpec(noise_std=0.0))
    with pytest.raises(ValueError, match="gan"):
        disc_loss(art, mixed_ds.rows[0])


def test_disc_loss_value(mixed_ds, mixed_schema):
    spec = small_gan_spec(mixed_schema, steps=2, seed=1)
    art = fit_gan(mixed_ds, spec)
    v = disc_loss(art, mixed_ds.rows[0])
    assert v >= 0.0


def test_gan_trainer_claim(mixed_schema):
    spec = small_gan_spec(mixed_schema, steps=5, seed=1, bug_mode=BugMode.NO_NOISE)
    tr = GanTrainer(spec)
    # claim computed as if the bug were absent
    assert tr.claimed_epsilon(100, 1e-3) > 0.0


def test_gan_claim_counts_the_steps_fit_gan_runs(mixed_schema):
    # fit_gan runs GanSpec.steps when it is set, each one DP-SGD step of the
    # discriminator, so the claim composes that many steps (the closed-form
    # oracle is in test_cli.py::test_every_claim_site_matches_the_gdp_oracle)
    disc = small_gan_spec(mixed_schema, steps=5).disc_config
    n, delta = 500, 1 / 500
    claims = {}
    for steps in (None, 1, 5, 1000):
        spec = gan_spec_for_schema(mixed_schema, latent_dim=2, gen_hidden=8,
                                   disc_hidden=8, disc_config=disc, steps=steps)
        claims[steps] = GanTrainer(spec).claimed_epsilon(n, delta)
    assert claims[None] == claims[5]
    assert claims[1] < claims[5] < claims[1000]


def test_gan_zero_steps_claims_zero(mixed_schema):
    # no discriminator step: the released generator is its data-free init
    spec = small_gan_spec(mixed_schema, steps=0)
    assert spec.n_steps == 0
    assert GanTrainer(spec).claimed_epsilon(500, 1 / 500) == 0.0


# ---------------------------------------------------------------------------
# serialization

def test_marginal_artifact_roundtrip(mixed_ds, tmp_path):
    art = fit_marginal(mixed_ds, MarginalSynthSpec(noise_std=0.7, seed=5))
    p = tmp_path / "art.bin"
    save_artifact(p, art)
    back = load_artifact(p)
    assert back.kind == "marginal"
    assert back.schema == art.schema
    assert sample(back, 30, seed=9).rows == sample(art, 30, seed=9).rows


def test_gan_artifact_roundtrip(mixed_ds, mixed_schema, tmp_path):
    spec = small_gan_spec(mixed_schema, steps=3, seed=6)
    art = fit_gan(mixed_ds, spec)
    p = tmp_path / "gan.bin"
    save_artifact(p, art)
    back = load_artifact(p)
    assert back.kind == "gan"
    assert sample(back, 10, seed=4).rows == sample(art, 10, seed=4).rows
    assert disc_loss(back, mixed_ds.rows[0]) == pytest.approx(disc_loss(art, mixed_ds.rows[0]))


# ---------------------------------------------------------------------------
# lockstep marginal runs against the per-run reference

def fit_marginal_per_run(ds, spec):
    """The per-run reference: np.histogram per numeric column, one noise draw
    per column."""
    if len(ds) == 0:
        raise ValueError("cannot fit a marginal synthesizer on an empty dataset")
    rng = np.random.default_rng(spec.seed)
    probs = []
    for col, vals in zip(ds.schema.columns, ds.columns):
        if isinstance(col, NumericColumn):
            counts, _ = np.histogram(vals, bins=spec.bins, range=(col.lo, col.hi))
            counts = counts.astype(np.float64)
        else:
            counts = np.bincount(vals, minlength=len(col.levels)).astype(np.float64)
        noisy = np.maximum(counts + rng.normal(0.0, spec.noise_std, size=counts.size), 0.0)
        total = noisy.sum()
        if total <= 0.0:
            raise DegenerateMarginalError(f"degenerate marginal for column {col.name!r}")
        probs.append(noisy / total)
    return probs


def sample_marginal_per_run(art, n, seed):
    """The per-run reference sampler: Generator.choice(p=) per column, then
    the numeric offsets within the cell."""
    rng = np.random.default_rng(seed)
    out = []
    for col, p in zip(art.schema.columns, art.state["probs"]):
        idx = rng.choice(p.size, size=n, p=p)
        if isinstance(col, NumericColumn):
            width = (col.hi - col.lo) / art.state["bins"]
            out.append(col.lo + (idx + rng.random(n)) * width)
        else:
            out.append(idx)
    return out


def _edge_values(lo, hi, bins):
    """Every bin edge np.histogram uses, lo and hi among them, with both
    floating-point neighbours, plus values just outside [lo, hi]."""
    edges = np.histogram_bin_edges([], bins=bins, range=(lo, hi))
    return np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])


@st.composite
def marginal_case(draw):
    lo = draw(st.floats(-1e6, 1e6, allow_nan=False))
    hi = lo + draw(st.floats(1e-3, 1e6, allow_nan=False))
    bins = draw(st.integers(1, 12))
    sch = Schema((
        NumericColumn("x", lo, hi),
        CategoricalColumn("c", ("a", "b", "z")),
        NumericColumn("w", -1.0, 1.0),
    ))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    x = rng.choice(_edge_values(lo, hi, bins), size=n)
    # API callers may pass values outside the schema bounds, and NaN
    x[rng.random(n) < 0.1] = np.nan
    w = rng.uniform(-1.2, 1.2, size=n)
    data = Dataset(sch, (x, rng.integers(0, 3, size=n), w))
    resampled = draw(st.booleans())
    t_runs = draw(st.sampled_from([1, 2, 5]))
    run_rows = []
    for _ in range(t_runs):
        rows = (np.sort(rng.choice(n, size=max(n // 2, 1), replace=False)) if resampled
                else np.arange(n - 1))
        run_rows.append(np.append(rows, n - 1) if rng.random() < 0.5 else rows)
    noise_std = draw(st.sampled_from([0.0, 0.5, 2.0]))
    return data, run_rows, MarginalSynthSpec(noise_std=noise_std, bins=bins)


def _outcome(fit):
    """fit's artifacts, or the type and message of the error it raised."""
    try:
        return fit()
    except (DegenerateMarginalError, ValueError) as e:
        return type(e), str(e)


@settings(max_examples=150, deadline=None)
@given(case=marginal_case(), seed=st.integers(0, 2**32))
def test_fit_runs_bit_equal_to_per_run_histograms(case, seed):
    data, run_rows, spec = case
    trainer = MarginalTrainer(spec, schema=data.schema)
    seeds = [seed + k for k in range(len(run_rows))]
    want = []
    for rows, s in zip(run_rows, seeds):
        ds = data.take(rows)
        run_spec = replace(spec, seed=derive_seed(s, "marginal"))
        want.append(_outcome(lambda: fit_marginal_per_run(ds, run_spec)))
        if isinstance(want[-1], tuple):
            break
        # the one-run paths agree with the reference too
        assert [p.tobytes() for p in fit_marginal(ds, run_spec).state["probs"]] == \
            [p.tobytes() for p in want[-1]]
        assert [p.tobytes() for p in trainer.fit(ds, s).state["probs"]] == \
            [p.tobytes() for p in want[-1]]
    got = _outcome(lambda: trainer.fit_runs(data, run_rows, seeds, workers=2))
    if isinstance(want[-1], tuple):
        # the lockstep fit fails at the same first run and column; the runs
        # before it fit as they do one at a time
        assert got[0] is want[-1][0] and got[1].startswith(want[-1][1])
        del want[-1]
        got = trainer.fit_runs(data, run_rows[:len(want)], seeds[:len(want)])
    assert len(got) == len(want)
    for art, probs, s in zip(got, want, seeds):
        assert [p.tobytes() for p in art.state["probs"]] == [p.tobytes() for p in probs]
        assert art.state["bins"] == spec.bins


def test_degenerate_marginal_raises_for_the_first_run_and_column():
    sch = Schema((NumericColumn("x", 0.0, 1.0), CategoricalColumn("y", ("a", "b"))))
    data = Dataset.from_rows(sch, [(0.5, 0), (0.2, 1)])
    spec = MarginalSynthSpec(noise_std=1e6)
    seeds = list(range(40))
    first = None
    for s in seeds:
        try:
            fit_marginal_per_run(data, replace(spec, seed=derive_seed(s, "marginal")))
        except DegenerateMarginalError as e:
            first = (s, str(e))
            break
    assert first is not None
    # the lockstep loop stops at the run and column where the per-run loop
    # first fails, and fits the runs before it
    trainer = MarginalTrainer(spec, schema=sch)
    with pytest.raises(DegenerateMarginalError) as got:
        trainer.fit_runs(data, [np.arange(2)] * len(seeds), seeds)
    assert str(got.value).startswith(first[1])
    k = seeds.index(first[0])
    assert len(trainer.fit_runs(data, [np.arange(2)] * k, seeds[:k])) == k


@settings(max_examples=100, deadline=None)
@given(bins=st.integers(1, 12), noise_std=st.sampled_from([0.0, 1.0, 3.0]),
       n=st.sampled_from([0, 1, 2, 7, 100]), seed=st.integers(0, 2**32))
def test_sampler_bit_equal_to_generator_choice(bins, noise_std, n, seed):
    sch = Schema((NumericColumn("x", -3.0, 10.0), CategoricalColumn("c", ("a", "b", "z")),
                  NumericColumn("w", 0.0, 1e-3)))
    rng = np.random.default_rng(seed)
    ds = Dataset(sch, (rng.uniform(-3, 10, 30), rng.integers(0, 3, 30), rng.uniform(0, 1e-3, 30)))
    art = fit_marginal(ds, MarginalSynthSpec(noise_std=noise_std, bins=bins, seed=seed))
    got = sample(art, n, seed)
    want = sample_marginal_per_run(art, n, seed)
    assert [c.dtype for c in got.columns] == [np.float64, np.int64, np.float64]
    assert [c.tobytes() for c in got.columns] == [
        np.asarray(c, dtype=g.dtype).tobytes() for c, g in zip(want, got.columns)]


def test_sampler_zero_probability_cells_never_drawn():
    sch = Schema((CategoricalColumn("c", ("a", "b", "c", "d")),))
    art = GenerativeArtifact("marginal", sch, {"probs": [np.array([0.0, 0.5, 0.0, 0.5])],
                                               "bins": 10})
    for seed in range(20):
        got = sample(art, 200, seed)
        assert set(got.columns[0].tolist()) <= {1, 3}
        assert got.columns[0].tobytes() == np.asarray(
            sample_marginal_per_run(art, 200, seed)[0], dtype=np.int64).tobytes()

    class Uniforms:
        """Uniforms exactly at the CDF's steps, where only side="right"
        skips the zero-probability cells."""

        def random(self, out):
            out[...] = np.resize([0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(1.0, 0.0)],
                                 out.shape)

    got = synthesizers._sample_marginal_runs([art], 4, iter([Uniforms()]))
    assert got[0].tolist() == [[1, 3, 1, 3]]


# ---------------------------------------------------------------------------
# run-axis sampling against the one-run sampler and the per-run reference

SAMPLER_SCHEMAS = {
    "mixed": Schema((NumericColumn("x", -3.0, 10.0), CategoricalColumn("c", ("a", "b", "z")),
                     NumericColumn("w", 0.0, 1e-3))),
    "numeric": Schema((NumericColumn("x", -3.0, 10.0), NumericColumn("w", 0.0, 1e-3))),
    "categorical": Schema((CategoricalColumn("c", ("a", "b", "z")),
                           CategoricalColumn("d", ("p", "q")))),
    "one_level": Schema((CategoricalColumn("k", ("only",)), NumericColumn("x", 0.0, 1.0))),
}


def _random_dataset(schema, rng, n):
    return Dataset(schema, tuple(
        rng.uniform(col.lo, col.hi, n) if isinstance(col, NumericColumn)
        else rng.integers(0, len(col.levels), n) for col in schema.columns))


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(SAMPLER_SCHEMAS)), bins=st.sampled_from([1, 2, 9, 12]),
       noise_std=st.sampled_from([0.0, 1.0, 3.0]), n=st.sampled_from([1, 2, 7, 100]),
       t_runs=st.sampled_from([1, 2, 3, 5, 7]), chunk_runs=st.sampled_from([1, 2, 3, None]),
       seed=st.integers(0, 2**32))
def test_run_axis_sampler_rows_bit_equal_to_one_run_samples(name, bins, noise_std, n, t_runs,
                                                           chunk_runs, seed):
    schema = SAMPLER_SCHEMAS[name]
    rng = np.random.default_rng(seed)
    data = _random_dataset(schema, rng, 30)
    run_rows = [np.sort(rng.choice(30, size=20, replace=False)) for _ in range(t_runs)]
    seeds = [seed + k for k in range(t_runs)]
    arts = MarginalTrainer(MarginalSynthSpec(noise_std=noise_std, bins=bins), schema).fit_runs(
        data, run_rows, seeds)
    # chunks of chunk_runs runs, the last one short when it does not divide
    # t_runs, or every run in one chunk
    cells = chunk_runs * n if chunk_runs else data_mod.RUN_CHUNK_CELLS
    with mock.patch.object(data_mod, "RUN_CHUNK_CELLS", cells):
        got = sample_runs(arts, n, seeds)
    assert [(c.shape, c.dtype) for c in got] == [
        ((t_runs, n), np.float64 if isinstance(col, NumericColumn) else np.int64)
        for col in schema.columns]
    for r, (art, s) in enumerate(zip(arts, seeds)):
        one = sample(art, n, s)
        want = sample_marginal_per_run(art, n, s)
        assert [c[r].tobytes() for c in got] == [c.tobytes() for c in one.columns] == [
            np.asarray(w, dtype=c.dtype).tobytes() for w, c in zip(want, one.columns)]


def test_gan_run_axis_rows_equal_one_run_samples(mixed_ds, mixed_schema):
    trainer = GanTrainer(small_gan_spec(mixed_schema, steps=2))
    rows = np.arange(len(mixed_ds))
    arts = trainer.fit_runs(mixed_ds, [rows, rows[::2], rows[1::2]], [4, 5, 6])
    got = sample_runs(arts, 9, [7, 8, 9])
    for r, (art, s) in enumerate(zip(arts, [7, 8, 9])):
        assert [c[r].tobytes() for c in got] == [c.tobytes() for c in sample(art, 9, s).columns]
    with pytest.raises(ValueError, match="one kind"):
        sample_runs([arts[0], fit_marginal(mixed_ds, MarginalSynthSpec())], 5, [1, 2])


@settings(max_examples=60, deadline=None)
@given(t_runs=st.integers(1, 40), resampled=st.booleans(), seed=st.integers(0, 2**32))
def test_degenerate_marginal_names_the_first_failing_run_and_column(t_runs, resampled, seed):
    # noise this large zeroes whole columns now and then: the run-axis fit
    # raises for the run and column where fitting one run after another
    # first fails, and fits every run before it
    sch = Schema((NumericColumn("x", 0.0, 1.0), CategoricalColumn("y", ("a", "b")),
                  CategoricalColumn("z", ("p",))))
    rng = np.random.default_rng(seed)
    data = _random_dataset(sch, rng, 6)
    run_rows = [np.sort(rng.choice(6, size=3, replace=False)) if resampled else np.arange(6)
                for _ in range(t_runs)]
    seeds = [seed + k for k in range(t_runs)]
    spec = MarginalSynthSpec(noise_std=1e4, bins=3)
    trainer = MarginalTrainer(spec, schema=sch)
    first = None
    for k, (rows, s) in enumerate(zip(run_rows, seeds)):
        try:
            fit_marginal(data.take(rows), replace(spec, seed=derive_seed(s, "marginal")))
        except DegenerateMarginalError as e:
            first = k, str(e)
            break
    if first is None:
        assert len(trainer.fit_runs(data, run_rows, seeds)) == t_runs
        return
    k, message = first
    with pytest.raises(DegenerateMarginalError) as got:
        trainer.fit_runs(data, run_rows, seeds)
    assert str(got.value) == message
    assert len(trainer.fit_runs(data, run_rows[:k], seeds[:k])) == k
