from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chisquare

from privaudit.data import (
    CategoricalColumn,
    Dataset,
    NumericColumn,
    Schema,
)
from privaudit.dpsgd import BugMode, DpSgdConfig, claimed_privacy
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
    for i, r in enumerate(syn.rows):
        mixed_schema.validate_record(r, row=i)


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
    for i, r in enumerate(syn.rows):
        mixed_schema.validate_record(r, row=i)


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
    # discriminator, so the claim composes that many steps
    disc = small_gan_spec(mixed_schema, steps=5).disc_config
    n, delta = 500, 1 / 500
    claims = {}
    for steps in (None, 1, 5, 1000):
        spec = gan_spec_for_schema(mixed_schema, latent_dim=2, gen_hidden=8,
                                   disc_hidden=8, disc_config=disc, steps=steps)
        claims[steps] = GanTrainer(spec).claimed_epsilon(n, delta)
        ran = replace(disc, steps=spec.n_steps)
        assert claims[steps] == claimed_privacy(ran, n, delta).epsilon
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
