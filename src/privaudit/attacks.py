"""Membership decision rules and threshold evaluation.

Each attack maps shadow-run features to per-run membership scores (higher
means "predict member") without looking at the membership bits; the bits are
joined only in evaluate(), which sweeps thresholds, builds the ROC, and feeds
confusion counts to the effective-epsilon machinery.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import models
from .core_stats import (
    ConfusionCounts,
    effective_epsilon_lower_bound,
    effective_epsilon_point,
    error_rates,
)
from .data import CategoricalColumn, Dataset, NumericColumn, Schema
from .shadow import FeatureBundle

__all__ = [
    "ScoredRuns",
    "OperatingPoint",
    "AttackReport",
    "GroundhogConfig",
    "attack_loss_threshold",
    "attack_lira",
    "attack_dcr",
    "attack_groundhog",
    "attack_disc_loss",
    "evaluate",
    "gower_distance",
    "min_gower_distance",
    "groundhog_features",
    "report_to_json_dict",
    "save_report",
    "save_roc_csv",
]


@dataclass(frozen=True)
class ScoredRuns:
    """Per-run membership scores; higher score means 'predict member'."""

    bits: np.ndarray
    scores: np.ndarray
    attack: str
    indices: tuple[int, ...] = ()
    threat_model: object = None

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=int)
        scores = np.asarray(self.scores, dtype=np.float64)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "scores", scores)
        if bits.shape != scores.shape or bits.ndim != 1:
            raise ValueError("bits and scores must be 1-d arrays of equal length")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        if not (np.any(bits == 0) and np.any(bits == 1)):
            raise ValueError("both membership classes must be present")


@dataclass(frozen=True)
class OperatingPoint:
    name: str
    threshold: float
    counts: ConfusionCounts
    fpr: float
    tpr: float
    eps_point: float
    eps_lower: float
    target_fpr: float | None = None


@dataclass(frozen=True)
class AttackReport:
    attack: str
    threat_model: object
    delta: float
    confidence: float
    auc: float
    roc: tuple  # (threshold, fpr, tpr) triples, fpr ascending
    operating_points: tuple
    n_runs: int


def _require_mode(fb: FeatureBundle, mode: str, attack: str) -> None:
    if fb.mode != mode:
        raise ValueError(f"{attack} requires {mode!r} features, got {fb.mode!r}")


def attack_loss_threshold(fb: FeatureBundle) -> ScoredRuns:
    """Score = -loss at the target: lower loss means more likely member."""
    _require_mode(fb, "pred_loss", "attack_loss_threshold")
    return ScoredRuns(
        bits=fb.bits,
        scores=-np.asarray(fb.features, dtype=np.float64),
        attack="loss_threshold",
        indices=tuple(range(len(fb.features))),
        threat_model=fb.threat_model,
    )


def _split_stratified(bits: np.ndarray, holdout_fraction: float, min_per_class: int):
    """Leading holdout_fraction of each class (by run order) calibrates."""
    if not (0.0 < holdout_fraction < 1.0):
        raise ValueError("holdout_fraction must be in (0, 1)")
    cal = np.zeros(len(bits), dtype=bool)
    for b in (0, 1):
        pos = np.flatnonzero(bits == b)
        cal[pos[: math.ceil(holdout_fraction * len(pos))]] = True
    for b in (0, 1):
        n_cal = int(np.sum(cal & (bits == b)))
        n_ev = int(np.sum(~cal & (bits == b)))
        if n_cal < min_per_class or n_ev < min_per_class:
            raise ValueError(
                f"too few runs: class {b} has {n_cal} calibration / {n_ev} "
                f"evaluation runs, need >= {min_per_class} each"
            )
    return cal


def attack_lira(fb: FeatureBundle, holdout_fraction: float = 0.5) -> ScoredRuns:
    """Likelihood-ratio test on the target's loss.

    Gaussians are fitted to the calibration losses of the in-group and the
    out-group; evaluation runs are scored by the log-likelihood ratio. The
    returned runs cover the evaluation split only.
    """
    _require_mode(fb, "pred_loss", "attack_lira")
    losses = np.asarray(fb.features, dtype=np.float64)
    bits = fb.bits
    cal = _split_stratified(bits, holdout_fraction, min_per_class=2)

    def fit(group: np.ndarray):
        return float(group.mean()), float(group.var()) + 1e-12

    mu_in, var_in = fit(losses[cal & (bits == 1)])
    mu_out, var_out = fit(losses[cal & (bits == 0)])

    ev = ~cal
    x = losses[ev]
    log_in = -0.5 * (np.log(2 * np.pi * var_in) + (x - mu_in) ** 2 / var_in)
    log_out = -0.5 * (np.log(2 * np.pi * var_out) + (x - mu_out) ** 2 / var_out)
    return ScoredRuns(
        bits=bits[ev],
        scores=log_in - log_out,
        attack="lira",
        indices=tuple(int(i) for i in np.flatnonzero(ev)),
        threat_model=fb.threat_model,
    )


def gower_distance(schema: Schema, a, b) -> float:
    """Mean over columns: |delta|/range for numeric, 0/1 mismatch for categorical."""
    total = 0.0
    for col, va, vb in zip(schema.columns, a, b):
        if isinstance(col, NumericColumn):
            total += abs(va - vb) / (col.hi - col.lo)
        else:
            total += 0.0 if int(va) == int(vb) else 1.0
    return total / len(schema.columns)


def min_gower_distance(schema: Schema, target, ds: Dataset) -> float:
    """Distance from the target to its closest record in ds, vectorized."""
    if len(ds) == 0:
        raise ValueError("empty synthetic dataset")
    acc = np.zeros(len(ds), dtype=np.float64)
    for col, vals, v in zip(schema.columns, ds.columns, target):
        if isinstance(col, NumericColumn):
            acc += np.abs(vals - v) / (col.hi - col.lo)
        else:
            acc += (vals != int(v)).astype(np.float64)
    return float(acc.min()) / len(schema.columns)


def attack_dcr(fb: FeatureBundle, metric: str = "gower") -> ScoredRuns:
    """Distance to closest record: score = -min distance from target to the
    run's synthetic dataset."""
    _require_mode(fb, "synth_dataset", "attack_dcr")
    if metric != "gower":
        raise ValueError(f"unknown metric {metric!r}")
    schema = fb.schema
    scores = np.array(
        [-min_gower_distance(schema, fb.target, ds) for ds in fb.features]
    )
    return ScoredRuns(
        bits=fb.bits,
        scores=scores,
        attack="dcr",
        indices=tuple(range(len(fb.features))),
        threat_model=fb.threat_model,
    )


@dataclass(frozen=True)
class GroundhogConfig:
    steps: int = 300
    learning_rate: float = 0.5
    holdout_fraction: float = 0.5
    include_correlations: bool = False


def groundhog_features(ds: Dataset, include_correlations: bool = False) -> np.ndarray:
    """Summary statistics of a synthetic dataset, concatenated in schema order.

    Numeric columns contribute (mean, median, variance); categorical columns
    contribute level frequencies. Optionally appends the upper triangle of the
    numeric correlation matrix.
    """
    feats: list[float] = []
    numeric: list[np.ndarray] = []
    for col, vals in zip(ds.schema.columns, ds.columns):
        if isinstance(col, NumericColumn):
            feats += [float(vals.mean()), float(np.median(vals)), float(vals.var())]
            numeric.append(vals)
        else:
            counts = np.bincount(vals, minlength=len(col.levels))
            feats += (counts / len(ds)).tolist()
    if include_correlations and len(numeric) > 1:
        m = np.stack(numeric)
        sd = m.std(axis=1)
        # zero-variance columns get zero correlation rather than NaN
        c = np.corrcoef(m) if np.all(sd > 0) else np.zeros((len(numeric),) * 2)
        iu = np.triu_indices(len(numeric), k=1)
        feats += np.nan_to_num(c[iu]).tolist()
    return np.array(feats, dtype=np.float64)


def attack_groundhog(fb: FeatureBundle, config: GroundhogConfig | None = None) -> ScoredRuns:
    """Classify summary-statistic features of each synthetic dataset.

    A logistic regression (zero-initialized, full-batch gradient descent) is
    trained on the calibration split labeled by the membership bit; evaluation
    runs are scored by their member-vs-non-member logit difference.
    """
    _require_mode(fb, "synth_dataset", "attack_groundhog")
    cfg = config or GroundhogConfig()
    bits = fb.bits
    cal = _split_stratified(bits, cfg.holdout_fraction, min_per_class=2)
    if any(len(ds) == 0 for ds in fb.features):
        raise ValueError("empty synthetic dataset")

    feats = np.stack(
        [groundhog_features(ds, cfg.include_correlations) for ds in fb.features]
    )
    # standardize with calibration statistics for stable fixed-budget SGD
    mu = feats[cal].mean(axis=0)
    sd = np.maximum(feats[cal].std(axis=0), 1e-8)
    z = (feats - mu) / sd

    spec = models.ModelSpec(
        kind=models.LOGISTIC, input_dim=z.shape[1], num_classes=2, init_scale=0.0
    )
    params = models.init_params(spec)
    x_cal, y_cal = z[cal], bits[cal]
    for _ in range(cfg.steps):
        g = models.batch_per_sample_gradients(spec, params, x_cal, y_cal)
        params = params - cfg.learning_rate * g.mean(axis=0)

    ev = ~cal
    logits = models.forward_logits(spec, params, z[ev])
    return ScoredRuns(
        bits=bits[ev],
        scores=logits[:, 1] - logits[:, 0],
        attack="groundhog",
        indices=tuple(int(i) for i in np.flatnonzero(ev)),
        threat_model=fb.threat_model,
    )


def attack_disc_loss(fb: FeatureBundle) -> ScoredRuns:
    """Score = -discriminator loss at the target treated as a real sample."""
    _require_mode(fb, "disc_loss", "attack_disc_loss")
    return ScoredRuns(
        bits=fb.bits,
        scores=-np.asarray(fb.features, dtype=np.float64),
        attack="disc_loss",
        indices=tuple(range(len(fb.features))),
        threat_model=fb.threat_model,
    )


# ---------------------------------------------------------------------------
# evaluation

def _counts_at(bits: np.ndarray, scores: np.ndarray, threshold: float) -> ConfusionCounts:
    pred = scores >= threshold
    return ConfusionCounts(
        tp=int(np.sum(pred & (bits == 1))),
        fp=int(np.sum(pred & (bits == 0))),
        tn=int(np.sum(~pred & (bits == 0))),
        fn=int(np.sum(~pred & (bits == 1))),
    )


def _rates(c: ConfusionCounts) -> tuple[float, float]:
    fpr = c.fp / (c.fp + c.tn)
    tpr = c.tp / (c.tp + c.fn)
    return fpr, tpr


DEFAULT_OPERATING_POINTS = ("median", 0.1, 0.01)


def evaluate(
    scored: ScoredRuns,
    delta: float,
    confidence: float = 0.95,
    operating_points=DEFAULT_OPERATING_POINTS,
) -> AttackReport:
    """Sweep thresholds, build the ROC, and bound effective epsilon.

    Operating points are either the string "median" (threshold at the score
    median) or a target false-positive rate; for a target rate the smallest
    threshold whose realized fpr stays at or below it is chosen, which
    maximizes tpr subject to the fpr budget.
    """
    bits, scores = scored.bits, scored.scores

    thresholds = np.unique(scores)[::-1]  # descending: fpr grows along sweep
    roc = [(math.inf, 0.0, 0.0)]
    for t in thresholds:
        c = _counts_at(bits, scores, float(t))
        fpr, tpr = _rates(c)
        roc.append((float(t), fpr, tpr))

    fprs = np.array([p[1] for p in roc])
    tprs = np.array([p[2] for p in roc])
    auc = float(np.trapezoid(tprs, fprs))

    ops = []
    for op in operating_points:
        if op == "median":
            thr = float(np.median(scores))
            name, target = "median", None
        else:
            target = float(op)
            # fpr is non-decreasing along the descending-threshold sweep
            ok = [p for p in roc[1:] if p[1] <= target]
            thr = min(p[0] for p in ok) if ok else math.inf
            name = f"fpr<={target:g}"
        c = _counts_at(bits, scores, thr)
        fpr, tpr = _rates(c)
        ops.append(OperatingPoint(
            name=name,
            threshold=thr,
            counts=c,
            fpr=fpr,
            tpr=tpr,
            eps_point=effective_epsilon_point(error_rates(c), delta),
            eps_lower=effective_epsilon_lower_bound(c, delta, confidence),
            target_fpr=target,
        ))

    return AttackReport(
        attack=scored.attack,
        threat_model=scored.threat_model,
        delta=delta,
        confidence=confidence,
        auc=auc,
        roc=tuple(roc),
        operating_points=tuple(ops),
        n_runs=len(bits),
    )


# ---------------------------------------------------------------------------
# serialization

def _num(v: float):
    if math.isinf(v):
        return "unbounded"
    return v


def report_to_json_dict(report: AttackReport) -> dict:
    tm = report.threat_model
    if tm is not None and not isinstance(tm, dict):
        tm = {
            "model_access": tm.model_access,
            "data_knowledge": tm.data_knowledge,
            "architecture_known": tm.architecture_known,
        }
    return {
        "schema_version": 1,
        "attack": report.attack,
        "threat_model": tm,
        "delta": report.delta,
        "confidence": report.confidence,
        "auc": report.auc,
        "n_runs": report.n_runs,
        "roc": [[_num(t), fpr, tpr] for t, fpr, tpr in report.roc],
        "operating_points": [
            {
                "name": op.name,
                "threshold": _num(op.threshold),
                "target_fpr": op.target_fpr,
                "counts": {"tp": op.counts.tp, "fp": op.counts.fp,
                           "tn": op.counts.tn, "fn": op.counts.fn},
                "fpr": op.fpr,
                "tpr": op.tpr,
                "eps_point": _num(op.eps_point),
                "eps_lower": _num(op.eps_lower),
            }
            for op in report.operating_points
        ],
    }


def save_report(path, report: AttackReport) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report_to_json_dict(report), f, sort_keys=True, indent=2)
        f.write("\n")


def save_roc_csv(path, report: AttackReport) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["threshold", "fpr", "tpr"])
        for t, fpr, tpr in report.roc:
            w.writerow([t, fpr, tpr])
