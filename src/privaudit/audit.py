"""Canary-based privacy audits.

Two audits with the same verdict shape: a white-box single-step audit of the
DP-SGD update mechanism, and a black-box end-to-end audit through the shadow
harness. Both measure a statistically valid effective-epsilon lower bound and
compare it against the claimed guarantee; a measured bound above the claim is
proof the claim is false, which is how the deliberately broken trainer
configurations get caught.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .attacks import (
    AttackReport,
    OperatingPoint,
    ScoredRuns,
    _num,
    attack_dcr,
    attack_groundhog,
    attack_lira,
    evaluate,
    report_to_json_dict,
    write_json,
)
from .core_stats import PrivacyParams, gdp_epsilon_of_delta, subsampled_gdp_mu
from .data import Dataset, NumericColumn, Record, Schema
from .dpsgd import DpSgdConfig, clip_and_sum, privatize
from .models import count_value
from .seeds import derive_seed
from .shadow import (
    FIXED_DATASET,
    ThreatModel,
    _stratified_bits,
    query_features,
    run_shadow_experiment,
)

__all__ = [
    "AuditVerdict",
    "AffineCost",
    "CostEstimate",
    "default_record_canary",
    "audit_step_mechanism",
    "audit_end_to_end",
    "audit_run_count",
    "audit_slack",
    "estimate_mia_cost",
    "verdict_to_json_dict",
    "save_verdict",
    "exit_code",
]

# exit-code contract for CI use
EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2


def default_record_canary(schema: Schema, ds: Dataset | None = None) -> Record:
    """The end-to-end audit's default canary record. A canary is any
    schema-valid record; it need not come from the data distribution.

    Per-column extremes: numeric at the upper bound, categorical at the
    rarest level of ds (or the last level without data)."""
    values = []
    for ci, col in enumerate(schema.columns):
        if isinstance(col, NumericColumn):
            values.append(col.hi)
        else:
            if ds is not None and len(ds) > 0:
                counts = np.bincount(ds.columns[ci], minlength=len(col.levels))
                values.append(int(np.argmin(counts)))
            else:
                values.append(len(col.levels) - 1)
    return tuple(values)


@dataclass(frozen=True)
class AuditVerdict:
    audit: str
    claimed: PrivacyParams
    measured_lower_bound: float
    confidence: float
    operating_point: OperatingPoint
    trials: int
    passed: bool
    status: str              # "pass" | "fail" | "inconclusive"
    report: AttackReport
    master_seed: int
    provenance: dict


def _verdict(audit, claimed, report, op, trials, master_seed, provenance, slack):
    measured = op.eps_lower
    passed = measured <= claimed.epsilon
    if measured > claimed.epsilon + slack:
        status = "fail"
    elif passed:
        status = "pass"
    else:
        status = "inconclusive"
    return AuditVerdict(
        audit=audit,
        claimed=claimed,
        measured_lower_bound=measured,
        confidence=report.confidence,
        operating_point=op,
        trials=trials,
        passed=passed,
        status=status,
        report=report,
        master_seed=master_seed,
        provenance=provenance,
    )


def _audit_point(scored: ScoredRuns, delta: float, confidence: float):
    """The report both audits write and the operating point their verdict
    bounds: the fpr<=0.01 point, reported next to the median one."""
    report = evaluate(scored, delta, confidence, operating_points=("median", 0.01))
    return report, report.operating_points[1]


def audit_step_mechanism(
    config: DpSgdConfig,
    direction: np.ndarray | None = None,
    trials: int = 1000,
    delta: float = 0.1,
    confidence: float = 0.95,
    base_gradients: np.ndarray | None = None,
    dim: int = 8,
    canary_scale: float = 100.0,
    master_seed: int = 0,
    slack: float = 0.0,
) -> AuditVerdict:
    """White-box audit of the single-step update mechanism.

    Runs `trials` single-step updates of one mechanism instance on a fixed
    batch of adversarial per-sample gradients; a stratified half of the trials
    additionally inject the canary gradient as one sample. The canary is a
    unit direction in parameter space, by default the first basis vector of
    R^dim, scaled to canary_scale times the clip norm C. The adversary
    observes each noisy update and takes its inner product with the canary
    direction; sweeping a threshold over this statistic gives a confusion
    table, and core_stats turns it into a Clopper-Pearson-valid effective-eps
    lower bound, compared against the single-step accountant claim (T=1, p=1).

    The default fixed batch holds one large gradient at -50*C along the canary
    direction plus zeros; the default canary injection is +canary_scale*C along
    the direction. A correct implementation clips the injected sample back to
    norm C, so its claim comparison is unaffected, while an implementation
    that clips the aggregate instead of each sample lets the oversized canary
    flip the aggregate's sign, doubling the observable separation.
    """
    audit_slack(slack)
    if trials < 100:
        raise ValueError("trials must be >= 100")
    # the single-step claim (T=1, p=1) ignores any bug; without noise it raises
    mu = subsampled_gdp_mu(config.noise_multiplier, 1.0, 1)
    claimed = PrivacyParams(epsilon=gdp_epsilon_of_delta(mu, delta), delta=delta)
    c = config.clip_norm
    if direction is None:
        direction = np.eye(dim)[0]
    direction = np.asarray(direction, dtype=np.float64)
    if abs(float(np.linalg.norm(direction)) - 1.0) > 1e-9:
        raise ValueError("canary direction must be a unit vector")
    dim = direction.size

    if base_gradients is None:
        base_gradients = np.zeros((200, dim))
        base_gradients[0] = -50.0 * c * direction
    base_gradients = np.asarray(base_gradients, dtype=np.float64)
    n_total = base_gradients.shape[0]
    canary_grad = canary_scale * c * direction

    bits = _stratified_bits(trials, derive_seed(master_seed, "bits"))
    cfg = replace(config, seed=derive_seed(master_seed, "mechanism"))

    # the two neighbouring batches differ only in the canary row, so each is
    # clipped and summed once; trial t privatizes its batch's sum with the
    # t-th run of dim consecutive draws of the mechanism's one step-0 stream
    grad_sums = np.stack([
        clip_and_sum(base_gradients, cfg)[0],
        clip_and_sum(np.vstack([base_gradients, canary_grad]), cfg)[0],
    ])
    update, _ = privatize(grad_sums[bits], n_total + bits, cfg, n_total, step=0)
    # an explicit row-wise product and sum: each trial's statistic is reduced
    # in the same order whatever the trial count
    stats = (update * direction).sum(axis=1)

    scored = ScoredRuns(bits=bits, scores=stats, attack="step_mechanism")
    report, op = _audit_point(scored, delta, confidence)

    provenance = {
        "bug_mode": config.bug_mode.value,
        "noise_multiplier": config.noise_multiplier,
        "clip_norm": c,
        "sample_rate": config.sample_rate,
        "batch_size": int(n_total),
        "canary_scale": canary_scale,
        "dim": int(dim),
    }
    return _verdict("step_mechanism", claimed, report, op, trials,
                    master_seed, provenance, slack)


def _zscore(v: np.ndarray) -> np.ndarray:
    s = float(v.std())
    return (v - v.mean()) / (s if s > 0 else 1.0)


def _generative_scores(fb) -> ScoredRuns:
    """Strongest generative attack: per-run max of standardized dcr and
    groundhog scores, over the groundhog evaluation split."""
    d = attack_dcr(fb)
    g = attack_groundhog(fb)
    dz = _zscore(d.scores)[g.indices]  # dcr scores every run, in run order
    gz = _zscore(g.scores)
    return ScoredRuns(
        bits=g.bits,
        scores=np.maximum(dz, gz),
        attack="dcr+groundhog",
        indices=g.indices,
        threat_model=fb.threat_model,
    )


def audit_slack(value) -> float:
    """value as an audit's slack: a finite float of at least 0. A negative
    slack would fail an audit whose measured bound is below the claim."""
    slack = float(value)
    if not (math.isfinite(slack) and slack >= 0.0):
        raise ValueError(f"slack must be a finite number >= 0, got {value}")
    return slack


def audit_run_count(value) -> int:
    """value as the shadow runs of an end-to-end audit: an int of at least 20."""
    t_runs = count_value("t_runs", value, None)
    if t_runs < 20:
        raise ValueError(f"t_runs must be >= 20, got {value}")
    return t_runs


def audit_end_to_end(
    trainer,
    pool: Dataset,
    canary: Record,
    t_runs: int = 100,
    delta: float | None = None,
    confidence: float = 0.95,
    master_seed: int = 0,
    workers: int = 1,
    slack: float = 0.0,
) -> AuditVerdict:
    """Black-box audit of a full training pipeline via the shadow harness.

    The canary record plays the target (run_shadow_experiment validates it
    against the pool's schema); the measured bound comes from the
    strongest applicable attack (LiRA on prediction losses for predictive
    trainers, max of DCR and groundhog for generative ones) at the low-FPR
    operating point, and is compared against the trainer's claimed epsilon.
    A predictive trainer's shadow runs train in up to ``workers`` processes
    (see run_shadow_experiment); the verdict does not depend on it.
    """
    audit_run_count(t_runs)
    audit_slack(slack)
    # N counts the pool plus the canary; a config without a claim stops before training
    n = len(pool) + 1
    if delta is None:
        delta = 1.0 / n
    claimed = PrivacyParams(epsilon=trainer.claimed_epsilon(n, delta), delta=delta)

    tm = ThreatModel(data_knowledge=FIXED_DATASET)
    coll = run_shadow_experiment(
        canary, pool, trainer, tm, t_runs, master_seed, workers=workers
    )
    if trainer.kind == "predictive":
        scored = attack_lira(query_features(coll, "pred_loss"))
    else:
        scored = _generative_scores(query_features(coll, "synth_dataset"))

    report, op = _audit_point(scored, claimed.delta, confidence)
    provenance = {
        "trainer_kind": trainer.kind,
        "attack": scored.attack,
        "t_runs": t_runs,
        "pool_size": len(pool),
        "canary": list(canary),
        "workers_note": "output independent of worker count",
    }
    return _verdict("end_to_end", claimed, report, op, t_runs,
                    master_seed, provenance, slack)


# ---------------------------------------------------------------------------
# cost model

@dataclass(frozen=True)
class AffineCost:
    """cost(v) = intercept + slope * v, coefficients non-negative."""

    intercept: float = 0.0
    slope: float = 0.0

    def __post_init__(self):
        if self.intercept < 0 or self.slope < 0:
            raise ValueError("cost coefficients must be non-negative")

    def __call__(self, v):
        return self.intercept + self.slope * v


@dataclass(frozen=True)
class CostEstimate:
    n: int
    t: int
    unit_cost_train: float   # cost_M(N), one shadow training run
    unit_cost_attack: float  # cost_B(T), one attack over T runs
    total: float             # N * (T * cost_M(N) + cost_B(T))


def estimate_mia_cost(n: int, t: int, cost_model_m: AffineCost, cost_model_b: AffineCost) -> CostEstimate:
    """Full per-record MIA cost over all N records: each needs T shadow
    trainings at cost_M(N) plus one attack computation at cost_B(T)."""
    if n < 0 or t < 0:
        raise ValueError("n and t must be non-negative")
    cm = cost_model_m(n)
    cb = cost_model_b(t)
    return CostEstimate(
        n=n, t=t, unit_cost_train=cm, unit_cost_attack=cb,
        total=n * (t * cm + cb),
    )


# ---------------------------------------------------------------------------
# serialization

def verdict_to_json_dict(v: AuditVerdict) -> dict:
    return {
        "schema_version": 2,
        "audit": v.audit,
        "claimed": {"epsilon": _num(v.claimed.epsilon), "delta": v.claimed.delta},
        "measured_lower_bound": _num(v.measured_lower_bound),
        "confidence": v.confidence,
        "trials": v.trials,
        "passed": v.passed,
        "status": v.status,
        "master_seed": v.master_seed,
        "provenance": v.provenance,
        "operating_point": {
            "name": v.operating_point.name,
            "threshold": _num(v.operating_point.threshold),
            "fpr": v.operating_point.fpr,
            "tpr": v.operating_point.tpr,
            "eps_point": _num(v.operating_point.eps_point),
            "eps_lower": _num(v.operating_point.eps_lower),
        },
        "report": report_to_json_dict(v.report),
    }


def save_verdict(path, v: AuditVerdict) -> None:
    write_json(path, verdict_to_json_dict(v))


def exit_code(v: AuditVerdict) -> int:
    if v.status == "pass":
        return EXIT_PASS
    if v.status == "fail":
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE
