"""Canary-based privacy audits.

Two audits with the same verdict shape: a white-box single-step audit of the
DP-SGD update mechanism, and a black-box end-to-end audit through the shadow
harness. Both measure a statistically valid effective-epsilon lower bound and
compare it against the claimed guarantee; a measured bound above the claim is
proof the claim is false, which is how the deliberately broken trainer
configurations get caught.
"""

from __future__ import annotations

import json
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
)
from .core_stats import PrivacyParams, gdp_epsilon_of_delta, subsampled_gdp_mu
from .data import CategoricalColumn, Dataset, NumericColumn, Schema
from .dpsgd import DpSgdConfig, clip_and_sum, privatize
from .seeds import derive_seed
from .shadow import (
    FIXED_DATASET,
    ThreatModel,
    _stratified_bits,
    query_features,
    run_shadow_experiment,
)

__all__ = [
    "CanarySpec",
    "AuditVerdict",
    "AffineCost",
    "CostEstimate",
    "default_gradient_canary",
    "default_record_canary",
    "audit_step_mechanism",
    "audit_end_to_end",
    "estimate_mia_cost",
    "verdict_to_json_dict",
    "save_verdict",
    "exit_code",
]

RECORD_CANARY = "record_canary"
GRADIENT_CANARY = "gradient_canary"

# exit-code contract for CI use
EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2


@dataclass(frozen=True)
class CanarySpec:
    """Adversary-chosen audit target.

    A record canary is any schema-valid record (it need not come from the data
    distribution). A gradient canary is a unit direction in parameter space;
    the audit scales it to the clip norm C, so the injected gradient has norm
    exactly C.
    """

    kind: str
    record: tuple | None = None
    direction: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == RECORD_CANARY:
            if self.record is None:
                raise ValueError("record_canary requires a record")
        elif self.kind == GRADIENT_CANARY:
            if self.direction is None:
                raise ValueError("gradient_canary requires a direction")
            d = np.asarray(self.direction, dtype=np.float64)
            if abs(float(np.linalg.norm(d)) - 1.0) > 1e-9:
                raise ValueError("gradient_canary direction must be a unit vector")
            object.__setattr__(self, "direction", d)
        else:
            raise ValueError(f"unknown canary kind {self.kind!r}")


def default_gradient_canary(dim: int) -> CanarySpec:
    """First standard basis direction."""
    d = np.zeros(dim)
    d[0] = 1.0
    return CanarySpec(kind=GRADIENT_CANARY, direction=d)


def default_record_canary(schema: Schema, ds: Dataset | None = None) -> CanarySpec:
    """Per-column extremes: numeric at the upper bound, categorical at the
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
    return CanarySpec(kind=RECORD_CANARY, record=tuple(values))


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


def _low_fpr_op(report: AttackReport) -> OperatingPoint:
    for op in report.operating_points:
        if op.target_fpr is not None:
            return op
    raise ValueError("report has no target-fpr operating point")


def audit_step_mechanism(
    config: DpSgdConfig,
    canary: CanarySpec | None = None,
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
    additionally inject the canary gradient as one sample. The adversary
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
    if trials < 100:
        raise ValueError("trials must be >= 100")
    if config.noise_multiplier <= 0:
        raise ValueError("audit needs noise_multiplier > 0 to form a claim")
    c = config.clip_norm
    if canary is None:
        canary = default_gradient_canary(dim)
    if canary.kind != GRADIENT_CANARY:
        raise ValueError("audit_step_mechanism requires a gradient canary")
    direction = canary.direction
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
    # clipped and summed once; trial t privatizes its batch's sum at step t
    grad_sums = np.stack([
        clip_and_sum(base_gradients, cfg)[0],
        clip_and_sum(np.vstack([base_gradients, canary_grad]), cfg)[0],
    ])
    update, _ = privatize(grad_sums[bits], n_total + bits, cfg, n_total,
                          step=np.arange(trials))
    # an explicit row-wise product and sum: each trial's statistic is reduced
    # in the same order whatever the trial count
    stats = (update * direction).sum(axis=1)

    scored = ScoredRuns(bits=bits, scores=stats, attack="step_mechanism")
    report = evaluate(scored, delta, confidence, operating_points=("median", 0.01))
    op = _low_fpr_op(report)

    mu = subsampled_gdp_mu(config.noise_multiplier, 1.0, 1)
    claimed = PrivacyParams(epsilon=gdp_epsilon_of_delta(mu, delta), delta=delta)
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
    pos = {idx: k for k, idx in enumerate(d.indices)}
    dz = _zscore(d.scores)[[pos[i] for i in g.indices]]
    gz = _zscore(g.scores)
    return ScoredRuns(
        bits=g.bits,
        scores=np.maximum(dz, gz),
        attack="dcr+groundhog",
        indices=g.indices,
        threat_model=fb.threat_model,
    )


def audit_end_to_end(
    trainer,
    pool: Dataset,
    canary: CanarySpec,
    t_runs: int = 100,
    delta: float | None = None,
    confidence: float = 0.95,
    master_seed: int = 0,
    workers: int = 1,
    slack: float = 0.0,
) -> AuditVerdict:
    """Black-box audit of a full training pipeline via the shadow harness.

    The canary record plays the target; the measured bound comes from the
    strongest applicable attack (LiRA on prediction losses for predictive
    trainers, max of DCR and groundhog for generative ones) at the low-FPR
    operating point, and is compared against the trainer's claimed epsilon.
    """
    if t_runs < 20:
        raise ValueError("t_runs must be >= 20")
    if canary.kind != RECORD_CANARY:
        raise ValueError("audit_end_to_end requires a record canary")
    n = len(pool) + 1
    if delta is None:
        delta = 1.0 / n

    tm = ThreatModel(data_knowledge=FIXED_DATASET)
    coll = run_shadow_experiment(
        canary.record, pool, trainer, tm, t_runs, master_seed, workers=workers
    )
    if trainer.kind == "predictive":
        scored = attack_lira(query_features(coll, "pred_loss"))
    else:
        fb = query_features(coll, "synth_dataset", {"n_samples": 100})
        scored = _generative_scores(fb)

    report = evaluate(scored, delta, confidence, operating_points=("median", 0.01))
    op = _low_fpr_op(report)
    claimed = PrivacyParams(epsilon=trainer.claimed_epsilon(n, delta), delta=delta)
    provenance = {
        "trainer_kind": trainer.kind,
        "attack": scored.attack,
        "t_runs": t_runs,
        "pool_size": len(pool),
        "canary": list(canary.record),
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
        "schema_version": 1,
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
    with open(path, "w", encoding="utf-8") as f:
        json.dump(verdict_to_json_dict(v), f, sort_keys=True, indent=2)
        f.write("\n")


def exit_code(v: AuditVerdict) -> int:
    if v.status == "pass":
        return EXIT_PASS
    if v.status == "fail":
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE
