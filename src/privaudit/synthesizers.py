"""Tabular generative models with query access.

Two extremes on purpose: an analyzable DP noisy-marginal sampler and a
minimal GAN whose discriminator is trained with the DP-SGD machinery. Both
expose sample() for synthetic datasets of any size. Fitted state carries only
histograms or network parameters, never raw training rows, so sampling is
pure post-processing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import models
from .core_stats import GdpParam, gdp_epsilon_of_delta
from .data import (
    Dataset,
    EncodedMatrix,
    NumericColumn,
    Schema,
    decode,
    encode,
    encode_record,
)
from .dpsgd import BugMode, DpSgdConfig, _stream, claimed_privacy, noisy_batch_update
from .models import ModelSpec
from .seeds import derive_seed

__all__ = [
    "DegenerateMarginalError",
    "MarginalSynthSpec",
    "GanSpec",
    "GenerativeArtifact",
    "fit_marginal",
    "fit_gan",
    "sample",
    "disc_loss",
    "gan_spec_for_schema",
    "calibrate_marginal_noise",
    "marginal_epsilon",
    "MarginalTrainer",
    "GanTrainer",
    "save_artifact",
    "load_artifact",
]

_TAG_LATENT = 0x6E0


class DegenerateMarginalError(RuntimeError):
    pass


@dataclass(frozen=True)
class MarginalSynthSpec:
    noise_std: float = 0.0
    bins: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if self.bins < 1:
            raise ValueError("bins must be >= 1")


@dataclass(frozen=True)
class GanSpec:
    generator: ModelSpec      # mlp, latent -> encoded width (raw outputs)
    discriminator: ModelSpec  # mlp, encoded width -> 2 classes
    latent_dim: int
    disc_config: DpSgdConfig
    gen_lr: float = 0.05
    seed: int = 0
    steps: int | None = None  # alternating steps; None means disc_config.steps

    def __post_init__(self):
        if self.steps is not None and self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.generator.kind != models.MLP or self.discriminator.kind != models.MLP:
            raise ValueError("generator and discriminator must be mlp specs")
        if self.generator.input_dim != self.latent_dim:
            raise ValueError("generator input_dim must equal latent_dim")
        if self.discriminator.num_classes != 2:
            raise ValueError("discriminator must have 2 classes")
        if self.generator.num_classes != self.discriminator.input_dim:
            raise ValueError("generator output width must match discriminator input")
        if self.gen_lr <= 0:
            raise ValueError("gen_lr must be > 0")

    @property
    def n_steps(self) -> int:
        """Alternating steps fit_gan runs, each one DP-SGD discriminator step."""
        return self.disc_config.steps if self.steps is None else self.steps


def gan_spec_for_schema(
    schema: Schema,
    latent_dim: int = 4,
    gen_hidden: int = 16,
    disc_hidden: int = 16,
    disc_config: DpSgdConfig | None = None,
    gen_lr: float = 0.05,
    seed: int = 0,
    steps: int | None = None,
) -> GanSpec:
    width = schema.encoded_width
    if disc_config is None:
        disc_config = DpSgdConfig(clip_norm=1.0, noise_multiplier=1.0,
                                  sample_rate=0.5, steps=200, learning_rate=0.1)
    # large init pushes the tanh units out of their near-linear regime, which
    # a 1-D discriminator needs to represent a non-monotonic real/fake boundary
    gen = ModelSpec(models.MLP, input_dim=latent_dim, num_classes=width,
                    hidden_dim=gen_hidden, init_scale=2.0, seed=derive_seed(seed, "gen"))
    disc = ModelSpec(models.MLP, input_dim=width, num_classes=2,
                     hidden_dim=disc_hidden, init_scale=2.0, seed=derive_seed(seed, "disc"))
    return GanSpec(generator=gen, discriminator=disc, latent_dim=latent_dim,
                   disc_config=disc_config, gen_lr=gen_lr, seed=seed, steps=steps)


@dataclass(frozen=True)
class GenerativeArtifact:
    kind: str            # "marginal" or "gan"
    schema: Schema
    state: dict
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# marginal synthesizer

def fit_marginal(ds: Dataset, spec: MarginalSynthSpec) -> GenerativeArtifact:
    """Independent per-column histograms, Gaussian-perturbed then renormalized."""
    if len(ds) == 0:
        raise ValueError("cannot fit a marginal synthesizer on an empty dataset")
    rng = np.random.default_rng(spec.seed)
    probs: list[np.ndarray] = []
    for col, vals in zip(ds.schema.columns, ds.columns):
        if isinstance(col, NumericColumn):
            counts, _ = np.histogram(vals, bins=spec.bins, range=(col.lo, col.hi))
            counts = counts.astype(np.float64)
        else:
            counts = np.bincount(vals, minlength=len(col.levels)).astype(np.float64)
        noisy = counts + rng.normal(0.0, spec.noise_std, size=counts.size)
        noisy = np.maximum(noisy, 0.0)
        total = noisy.sum()
        if total <= 0.0:
            raise DegenerateMarginalError(
                f"degenerate marginal for column {col.name!r}: all cells zero after clamping"
            )
        probs.append(noisy / total)
    return GenerativeArtifact(
        kind="marginal",
        schema=ds.schema,
        state={"probs": probs, "bins": spec.bins},
        meta={"noise_std": spec.noise_std, "seed": spec.seed},
    )


def _sample_marginal(art: GenerativeArtifact, n: int, rng: np.random.Generator) -> Dataset:
    cols = art.schema.columns
    probs = art.state["probs"]
    bins = art.state["bins"]
    columns_out = []
    for col, p in zip(cols, probs):
        idx = rng.choice(p.size, size=n, p=p)
        if isinstance(col, NumericColumn):
            width = (col.hi - col.lo) / bins
            jitter = rng.random(n)
            columns_out.append(col.lo + (idx + jitter) * width)
        else:
            columns_out.append(idx)
    return Dataset(art.schema, tuple(columns_out), "synthetic:marginal")


def marginal_epsilon(schema: Schema, noise_std: float, delta: float) -> float:
    """(eps at delta) implied by per-column Gaussian noise on the histograms.

    Adding one record shifts one cell per column by 1, so each column is a
    sensitivity-1 Gaussian mechanism with mu = 1/noise_std; k columns compose
    to mu = sqrt(k)/noise_std.
    """
    if noise_std <= 0:
        raise ValueError("noise_std must be > 0 for a finite guarantee")
    mu = math.sqrt(len(schema.columns)) / noise_std
    return gdp_epsilon_of_delta(GdpParam(mu), delta)


def calibrate_marginal_noise(schema: Schema, epsilon: float, delta: float) -> float:
    """noise_std achieving the requested (epsilon, delta) for this schema."""
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    k = len(schema.columns)
    # epsilon is increasing in mu; bisect mu then convert
    lo, hi = 1e-9, 1.0
    while gdp_epsilon_of_delta(GdpParam(hi), delta) < epsilon:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gdp_epsilon_of_delta(GdpParam(mid), delta) < epsilon:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    return math.sqrt(k) / mu


# ---------------------------------------------------------------------------
# minimal GAN

def fit_gan(ds: Dataset, spec: GanSpec) -> GenerativeArtifact:
    """Alternating GAN training.

    Discriminator: DP-SGD on real samples (clipped + noised per disc_config)
    plus a plain gradient term on generated samples, which carry no privacy
    cost. Generator: plain SGD through the non-saturating loss.
    """
    em = encode(ds)
    x_real = em.matrix
    n = x_real.shape[0]
    if n == 0:
        raise ValueError("cannot fit a GAN on an empty dataset")
    if spec.discriminator.input_dim != em.matrix.shape[1]:
        raise ValueError("discriminator input_dim must equal the encoded width")

    cfg = replace(spec.disc_config, seed=derive_seed(spec.seed, "disc-noise"))
    gen_spec = spec.generator
    disc_spec = spec.discriminator
    gen_params = models.init_params(gen_spec)
    disc_params = models.init_params(disc_spec)
    fake_batch = max(1, round(cfg.sample_rate * n))
    for step in range(spec.n_steps):
        # ---- discriminator ----
        srng = _stream(derive_seed(spec.seed, "sample"), 0, step)
        mask = srng.random(n) < cfg.sample_rate
        idx = np.nonzero(mask)[0]
        real_labels = np.ones(len(idx), dtype=int)
        disc_params, _ = noisy_batch_update(
            disc_spec, disc_params, x_real[idx], real_labels, idx, cfg, n, step
        )
        lrng = _stream(derive_seed(spec.seed, "latent"), _TAG_LATENT, step)
        z = lrng.standard_normal((fake_batch, spec.latent_dim))
        x_fake = models.forward_logits(gen_spec, gen_params, z)
        fake_grads = models.batch_per_sample_gradients(
            disc_spec, disc_params, x_fake, np.zeros(fake_batch, dtype=int)
        )
        disc_params = disc_params - cfg.learning_rate * fake_grads.mean(axis=0)

        # ---- generator (non-saturating: make fakes look real) ----
        z2 = lrng.standard_normal((fake_batch, spec.latent_dim))
        x_fake2 = models.forward_logits(gen_spec, gen_params, z2)
        d_logits = models.predict(disc_spec, disc_params, x_fake2)
        d_logits[:, 1] -= 1.0  # d(CE vs "real") / d(disc logits)
        _, dx = models.backprop_logits(disc_spec, disc_params, x_fake2, d_logits)
        gen_grads, _ = models.backprop_logits(gen_spec, gen_params, z2, dx)
        gen_params = gen_params - spec.gen_lr * gen_grads.mean(axis=0)

    return GenerativeArtifact(
        kind="gan",
        schema=ds.schema,
        state={
            "gen_spec": gen_spec, "gen_params": gen_params,
            "disc_spec": disc_spec, "disc_params": disc_params,
            "latent_dim": spec.latent_dim,
        },
        meta={"seed": spec.seed, "disc_config": cfg},
    )


def _sample_gan(art: GenerativeArtifact, n: int, rng: np.random.Generator) -> Dataset:
    gen_spec = art.state["gen_spec"]
    gen_params = art.state["gen_params"]
    z = rng.standard_normal((n, art.state["latent_dim"]))
    out = models.forward_logits(gen_spec, gen_params, z) if n else np.zeros((0, gen_spec.num_classes))
    # categorical spans are clipped too, so outputs above 1 tie in the argmax
    return decode(EncodedMatrix(np.clip(out, 0.0, 1.0), art.schema), "synthetic:gan")


def sample(artifact: GenerativeArtifact, n: int, seed: int) -> Dataset:
    """Draw n schema-valid synthetic records, deterministic given seed."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = np.random.default_rng(seed)
    if artifact.kind == "marginal":
        return _sample_marginal(artifact, n, rng)
    if artifact.kind == "gan":
        return _sample_gan(artifact, n, rng)
    raise ValueError(f"unknown artifact kind {artifact.kind!r}")


def disc_loss(artifact: GenerativeArtifact, record) -> float:
    """Discriminator cross-entropy at the record, treated as a real sample."""
    if artifact.kind != "gan":
        raise ValueError("discriminator loss requires a gan artifact")
    x = encode_record(artifact.schema, record)
    return models.per_example_loss(
        artifact.state["disc_spec"], artifact.state["disc_params"], x, 1
    )


# ---------------------------------------------------------------------------
# shadow-harness adapters

@dataclass(frozen=True)
class MarginalTrainer:
    spec: MarginalSynthSpec
    schema: Schema

    kind = "generative"

    def fit(self, ds: Dataset, seed: int) -> GenerativeArtifact:
        return fit_marginal(ds, replace(self.spec, seed=derive_seed(seed, "marginal")))

    def claimed_epsilon(self, n: int, delta: float) -> float:
        # n is unused: the histogram mechanism's sensitivity does not depend on it
        return marginal_epsilon(self.schema, self.spec.noise_std, delta)


@dataclass(frozen=True)
class GanTrainer:
    spec: GanSpec

    kind = "generative"

    def fit(self, ds: Dataset, seed: int) -> GenerativeArtifact:
        return fit_gan(ds, replace(self.spec, seed=derive_seed(seed, "gan")))

    def claimed_epsilon(self, n: int, delta: float) -> float:
        """Accountant claim over the discriminator steps fit_gan runs; with no
        step the released generator never sees the data."""
        if self.spec.n_steps == 0:
            return 0.0
        cfg = replace(self.spec.disc_config, bug_mode=BugMode.NONE,
                      steps=self.spec.n_steps)
        return claimed_privacy(cfg, n, delta).epsilon


# ---------------------------------------------------------------------------
# artifact serialization: JSON header line + binary payload

def save_artifact(path, artifact: GenerativeArtifact) -> None:
    header = {"kind": artifact.kind, "schema": artifact.schema.to_json_dict()}
    payload: list[np.ndarray] = []
    if artifact.kind == "marginal":
        header["bins"] = artifact.state["bins"]
        header["col_sizes"] = [int(p.size) for p in artifact.state["probs"]]
        payload = list(artifact.state["probs"])
    elif artifact.kind == "gan":
        for name in ("gen_spec", "disc_spec"):
            s: ModelSpec = artifact.state[name]
            header[name] = {
                "kind": s.kind, "input_dim": s.input_dim, "num_classes": s.num_classes,
                "hidden_dim": s.hidden_dim, "init_scale": s.init_scale, "seed": s.seed,
            }
        header["latent_dim"] = artifact.state["latent_dim"]
        payload = [artifact.state["gen_params"], artifact.state["disc_params"]]
    else:
        raise ValueError(f"unknown artifact kind {artifact.kind!r}")
    with open(path, "wb") as f:
        f.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for arr in payload:
            f.write(np.asarray(arr, dtype="<f8").tobytes())


def load_artifact(path) -> GenerativeArtifact:
    with open(path, "rb") as f:
        header = json.loads(f.readline().decode("utf-8"))
        schema = Schema.from_json_dict(header["schema"])
        if header["kind"] == "marginal":
            probs = []
            for size in header["col_sizes"]:
                probs.append(np.frombuffer(f.read(8 * size), dtype="<f8").astype(np.float64))
            return GenerativeArtifact(kind="marginal", schema=schema,
                                      state={"probs": probs, "bins": header["bins"]})
        specs = {}
        for name in ("gen_spec", "disc_spec"):
            h = header[name]
            specs[name] = ModelSpec(**h)
        gen_params = np.frombuffer(
            f.read(8 * models.n_params(specs["gen_spec"])), dtype="<f8").astype(np.float64)
        disc_params = np.frombuffer(
            f.read(8 * models.n_params(specs["disc_spec"])), dtype="<f8").astype(np.float64)
        return GenerativeArtifact(
            kind="gan", schema=schema,
            state={"gen_spec": specs["gen_spec"], "gen_params": gen_params,
                   "disc_spec": specs["disc_spec"], "disc_params": disc_params,
                   "latent_dim": header["latent_dim"]},
        )
