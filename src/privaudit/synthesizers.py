"""Tabular generative models with query access.

Two extremes on purpose: an analyzable DP noisy-marginal sampler and a
minimal GAN whose discriminator is trained with the DP-SGD machinery. Both
expose sample() for synthetic datasets of any size. Fitted state carries only
histograms or network parameters, never raw training rows, so sampling is
pure post-processing.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import models
from .core_stats import GdpParam, NoValidGuaranteeError, gdp_epsilon_of_delta, subsampled_gdp_mu
from .data import (
    Dataset,
    NumericColumn,
    Schema,
    check_finite,
    count_value,
    decode,
    encode,
    encode_record,
    histogram_cells,
    run_chunks,
)
from .dpsgd import DpSgdConfig, _poisson_rows, _stream, _update
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
    "sample_count",
    "sample_runs",
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
        check_finite("noise_std", self.noise_std, positive=False)
        object.__setattr__(self, "bins", count_value("bins", self.bins, 1))


@dataclass(frozen=True)
class GanSpec:
    """fit_gan derives every seed it uses from `seed`, the networks' initial
    weights included; the generator's and discriminator's own seeds are ignored."""

    generator: ModelSpec      # mlp, latent -> encoded width (raw outputs)
    discriminator: ModelSpec  # mlp, encoded width -> 2 classes
    latent_dim: int
    disc_config: DpSgdConfig
    gen_lr: float = 0.05
    seed: int = 0
    steps: int | None = None  # alternating steps; None means disc_config.steps

    def __post_init__(self):
        object.__setattr__(self, "latent_dim", count_value("latent_dim", self.latent_dim, 1))
        if self.steps is not None:
            object.__setattr__(self, "steps", count_value("steps", self.steps, 0))
        if self.generator.kind != models.MLP or self.discriminator.kind != models.MLP:
            raise ValueError("generator and discriminator must be mlp specs")
        if self.generator.input_dim != self.latent_dim:
            raise ValueError("generator input_dim must equal latent_dim")
        if self.discriminator.num_classes != 2:
            raise ValueError("discriminator must have 2 classes")
        if self.generator.num_classes != self.discriminator.input_dim:
            raise ValueError("generator output width must match discriminator input")
        check_finite("gen_lr", self.gen_lr)

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
    # checked under the names the caller gave them, not the ModelSpec fields
    latent_dim = count_value("latent_dim", latent_dim, 1)
    gen_hidden = count_value("gen_hidden", gen_hidden, 1)
    disc_hidden = count_value("disc_hidden", disc_hidden, 1)
    if disc_config is None:
        disc_config = DpSgdConfig(clip_norm=1.0, noise_multiplier=1.0,
                                  sample_rate=0.5, steps=200, learning_rate=0.1)
    # large init pushes the tanh units out of their near-linear regime, which
    # a 1-D discriminator needs to represent a non-monotonic real/fake boundary
    gen = ModelSpec(models.MLP, input_dim=latent_dim, num_classes=width,
                    hidden_dim=gen_hidden, init_scale=2.0)
    disc = ModelSpec(models.MLP, input_dim=width, num_classes=2,
                     hidden_dim=disc_hidden, init_scale=2.0)
    return GanSpec(generator=gen, discriminator=disc, latent_dim=latent_dim,
                   disc_config=disc_config, gen_lr=gen_lr, seed=seed, steps=steps)


@dataclass(frozen=True)
class GenerativeArtifact:
    kind: str            # "marginal" or "gan"
    schema: Schema
    state: dict


# ---------------------------------------------------------------------------
# marginal synthesizer

def _fit_marginal_runs(data: Dataset, run_rows, seeds, spec: MarginalSynthSpec):
    """One artifact per run: run k's histograms count data's rows run_rows[k]
    and take their noise from default_rng(seeds[k]). Every row's cells are
    found once, and each distinct row set's counts are one bincount of its
    rows' cells. The noisy counts are one (runs, cells) array, clamped and
    normalized column by column over all runs at once; run k's probabilities
    are row views of it."""
    cells, starts = histogram_cells(data, spec.bins)
    n_cells = int(starts[-1])
    counted = {}
    noisy = np.empty((len(seeds), n_cells))
    fitted = len(seeds)  # the runs before the first one with no rows
    for k, (rows, seed) in enumerate(zip(run_rows, seeds)):
        rows = np.asarray(rows)
        if len(rows) == 0:
            fitted = k
            break
        key = rows.dtype.str, rows.tobytes()
        if key not in counted:
            counted[key] = np.bincount(cells[rows].ravel(), minlength=n_cells + 1)[:n_cells]
        # one draw of every column's noise is the per-column draws end to end
        np.add(counted[key], np.random.default_rng(seed).normal(0.0, spec.noise_std, size=n_cells),
               out=noisy[k])
    noisy = np.maximum(noisy[:fitted], 0.0, out=noisy[:fitted])
    bounds = list(zip(starts[:-1], starts[1:]))
    totals = np.empty((fitted, len(bounds)))
    for j, (a, b) in enumerate(bounds):
        totals[:, j] = noisy[:, a:b].sum(axis=1)
    bad = totals <= 0.0
    if bad.any():
        # the first run, then its first column, that fitting one run after
        # another would fail at
        k = int(bad.any(axis=1).argmax())
        col = data.schema.columns[int(bad[k].argmax())]
        raise DegenerateMarginalError(
            f"degenerate marginal for column {col.name!r}: all cells zero after clamping"
        )
    if fitted < len(seeds):
        raise ValueError("cannot fit a marginal synthesizer on an empty dataset")
    probs = [noisy[:, a:b] / totals[:, [j]] for j, (a, b) in enumerate(bounds)]
    return [
        GenerativeArtifact(
            kind="marginal",
            schema=data.schema,
            state={"probs": [p[k] for p in probs], "bins": spec.bins},
        )
        for k in range(len(seeds))
    ]


def fit_marginal(ds: Dataset, spec: MarginalSynthSpec) -> GenerativeArtifact:
    """Independent per-column histograms, Gaussian-perturbed then renormalized."""
    return _fit_marginal_runs(ds, [np.arange(len(ds))], [spec.seed], spec)[0]


def _run_arrays(schema: Schema, runs: int, n: int) -> tuple[np.ndarray, ...]:
    """Empty run-axis arrays of the schema's column dtypes."""
    return tuple(np.empty((runs, n), dtype=np.float64 if isinstance(col, NumericColumn)
                          else np.int64) for col in schema.columns)


def _cells_at_or_below(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each run r and uniform u[r, i], the number of entries of cdf[r] at
    or below it: searchsorted(cdf[r], u[r, i], side="right") for an ascending
    cdf[r]. One entry of every run is compared at a time, so the only
    temporary is one boolean per uniform."""
    count = np.zeros(u.shape, dtype=np.min_scalar_type(cdf.shape[1]))
    for entry in cdf.T:
        count += (entry[:, None] <= u).view(np.uint8)
    return count


def _sample_marginal_runs(arts, n: int, rngs) -> tuple[np.ndarray, ...]:
    """Run r's n rows from arts[r] and the r-th generator of the iterator
    rngs, as one (runs, n) array per schema column.

    Per run and column, n cells are drawn from the column's probabilities,
    then for a numeric column n uniform offsets within the cell, each run's
    uniforms in that order from its own generator. A cell is drawn by
    inverting the column's CDF as Generator.choice(p=) does: cumsum, divide
    by the last entry, searchsorted(side="right"). The runs go a chunk at a
    time (run_chunks), column by column: the chunk's cell uniforms are drawn
    into one small buffer and found at once by _cells_at_or_below, and its
    offsets straight into the output, where lo + (cell + offset) * width is
    then formed elementwise.
    """
    schema, bins = arts[0].schema, arts[0].state["bins"]
    if any(a.schema != schema or a.state["bins"] != bins for a in arts):
        raise ValueError("the runs' artifacts must share one schema and bins")
    out = _run_arrays(schema, len(arts), n)
    chunks = run_chunks(len(arts), n)
    u = np.empty((chunks[0].stop, n))  # the first chunk is the largest
    for chunk in chunks:
        gens = list(itertools.islice(rngs, chunk.stop - chunk.start))
        uc = u[:len(gens)]
        for j, col in enumerate(schema.columns):
            for row, rng in zip(uc, gens):
                rng.random(out=row)
            cdf = np.stack([a.state["probs"][j] for a in arts[chunk]]).cumsum(axis=1)
            cdf /= cdf[:, -1:]
            # the last entry is 1.0, above every uniform, so it never counts
            cell = _cells_at_or_below(cdf[:, :-1], uc)
            dest = out[j][chunk]
            if isinstance(col, NumericColumn):
                for row, rng in zip(dest, gens):
                    rng.random(out=row)
                # lo + (cell + offset) * width, in place
                dest += cell
                dest *= (col.hi - col.lo) / bins
                dest += col.lo
            else:
                dest[...] = cell
    return out


def marginal_epsilon(schema: Schema, noise_std: float, delta: float) -> float:
    """(eps at delta) implied by per-column Gaussian noise on the histograms.

    Adding one record shifts one cell per column by 1, so each column is a
    sensitivity-1 Gaussian mechanism with mu = 1/noise_std; k columns compose
    to mu = sqrt(k)/noise_std.
    """
    if noise_std <= 0:
        raise NoValidGuaranteeError("noise_std must be > 0 for a finite guarantee")
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
    x_real = encode(ds)
    n = x_real.shape[0]
    if n == 0:
        raise ValueError("cannot fit a GAN on an empty dataset")
    if spec.discriminator.input_dim != x_real.shape[1]:
        raise ValueError("discriminator input_dim must equal the encoded width")

    cfg = replace(spec.disc_config, seed=derive_seed(spec.seed, "disc-noise"))
    # the artifact keeps the specs with the init seeds this run used
    gen_spec = replace(spec.generator, seed=derive_seed(spec.seed, "gen"))
    disc_spec = replace(spec.discriminator, seed=derive_seed(spec.seed, "disc"))
    gen_params = models.init_params(gen_spec)
    disc_params = models.init_params(disc_spec)
    fake_batch = max(1, round(cfg.sample_rate * n))
    ones = np.ones(fake_batch)  # the plain steps weigh every fake row alike
    ws = models.Workspace()
    for step in range(spec.n_steps):
        # ---- discriminator ----
        idx = _poisson_rows(_stream(derive_seed(spec.seed, "sample"), 0, step), n, cfg.sample_rate)
        disc_params = _update(
            disc_spec, disc_params[None], x_real[idx][None], np.ones((1, len(idx)), dtype=int),
            [len(idx)], cfg, [n], step, [cfg.seed], ws, max_norm=False,
        )[0][0]
        z, z2 = _stream(derive_seed(spec.seed, "latent"), _TAG_LATENT, step).standard_normal(
            (2, fake_batch, spec.latent_dim))
        x_fake = models.forward_logits(gen_spec, gen_params, z)
        fake_grads = models.batch_gradient_factors(
            disc_spec, disc_params, x_fake, np.zeros(fake_batch, dtype=int)
        ).weighted_sum(ones)
        disc_params = disc_params - cfg.learning_rate * (fake_grads / fake_batch)

        # ---- generator (non-saturating: make fakes look real) ----
        x_fake2 = models.forward_logits(gen_spec, gen_params, z2)
        d_logits = models.predict(disc_spec, disc_params, x_fake2)
        d_logits[:, 1] -= 1.0  # d(CE vs "real") / d(disc logits)
        _, dx = models.backprop_logits(disc_spec, disc_params, x_fake2, d_logits)
        gen_grads = models.backprop_logits(gen_spec, gen_params, z2, dx)[0].weighted_sum(ones)
        gen_params = gen_params - spec.gen_lr * (gen_grads / fake_batch)

    return GenerativeArtifact(
        kind="gan",
        schema=ds.schema,
        state={
            "gen_spec": gen_spec, "gen_params": gen_params,
            "disc_spec": disc_spec, "disc_params": disc_params,
            "latent_dim": spec.latent_dim,
        },
    )


def _sample_gan(art: GenerativeArtifact, n: int, rng: np.random.Generator) -> Dataset:
    gen_spec = art.state["gen_spec"]
    gen_params = art.state["gen_params"]
    z = rng.standard_normal((n, art.state["latent_dim"]))
    out = models.forward_logits(gen_spec, gen_params, z) if n else np.zeros((0, gen_spec.num_classes))
    # categorical spans are clipped too, so outputs above 1 tie in the argmax
    return decode(art.schema, np.clip(out, 0.0, 1.0), "synthetic:gan")


def sample_count(value) -> int:
    """value as a number of synthetic rows to draw: an int >= 0."""
    return count_value("n", value, 0)


def sample_runs(artifacts, n: int, seeds) -> tuple[np.ndarray, ...]:
    """Run r's n synthetic records from artifacts[r], drawn from
    default_rng(seeds[r]), as run-axis arrays: one (runs, n) array per schema
    column. The artifacts are all marginal or all GAN ones; marginal runs are
    sampled together, GAN runs one at a time into the arrays."""
    sample_count(n)
    rngs = map(np.random.default_rng, seeds)
    kind = artifacts[0].kind
    if any(a.kind != kind for a in artifacts):
        raise ValueError("the runs' artifacts must all be of one kind")
    if kind == "marginal":
        return _sample_marginal_runs(artifacts, n, rngs)
    if kind == "gan":
        out = _run_arrays(artifacts[0].schema, len(artifacts), n)
        for r, (art, rng) in enumerate(zip(artifacts, rngs)):
            for dest, c in zip(out, _sample_gan(art, n, rng).columns):
                dest[r] = c
        return out
    raise ValueError(f"unknown artifact kind {kind!r}")


def sample(artifact: GenerativeArtifact, n: int, seed: int) -> Dataset:
    """Draw n schema-valid synthetic records, deterministic given seed: the
    one-run case of sample_runs."""
    columns = sample_runs([artifact], n, [seed])
    return Dataset(artifact.schema, tuple(c[0] for c in columns), f"synthetic:{artifact.kind}",
                   copy=False)


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

    def fit_runs(self, data: Dataset, run_rows, seeds, workers: int = 1) -> list[GenerativeArtifact]:
        """One artifact per run from one binning pass over data: run k equals
        fit(data.take(run_rows[k]), seeds[k]). The fit is a single cheap
        pass, so workers is accepted and no process is started."""
        return _fit_marginal_runs(data, run_rows,
                                  [derive_seed(s, "marginal") for s in seeds], self.spec)

    def claimed_epsilon(self, n: int, delta: float) -> float:
        # n is unused: the histogram mechanism's sensitivity does not depend on it
        return marginal_epsilon(self.schema, self.spec.noise_std, delta)


@dataclass(frozen=True)
class GanTrainer:
    spec: GanSpec

    kind = "generative"

    def fit(self, ds: Dataset, seed: int) -> GenerativeArtifact:
        return fit_gan(ds, replace(self.spec, seed=derive_seed(seed, "gan")))

    def fit_runs(self, data: Dataset, run_rows, seeds, workers: int = 1) -> list[GenerativeArtifact]:
        """Run k is fit(data.take(run_rows[k]), seeds[k]), run by run in this
        thread: workers is accepted and no process is started."""
        return [self.fit(data.take(rows), seed) for rows, seed in zip(run_rows, seeds)]

    def claimed_epsilon(self, n: int, delta: float) -> float:
        """Accountant claim over the discriminator steps fit_gan runs; with no
        step the released generator never sees the data."""
        if self.spec.n_steps == 0:
            return 0.0
        c = self.spec.disc_config
        return gdp_epsilon_of_delta(
            subsampled_gdp_mu(c.noise_multiplier, c.sample_rate, self.spec.n_steps), delta)


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
            header[name] = asdict(artifact.state[name])
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
        specs = {name: ModelSpec(**header[name]) for name in ("gen_spec", "disc_spec")}
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
