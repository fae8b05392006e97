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
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core_stats import (
    ConfusionCounts,
    effective_epsilon_lower_bound,
    effective_epsilon_point,
    error_rates,
)
from .data import Dataset, NumericColumn, Schema, run_chunks
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
    "min_gower_distance",
    "groundhog_features",
    "report_to_json_dict",
    "save_report",
    "save_roc_csv",
    "write_json",
]


@dataclass(frozen=True)
class ScoredRuns:
    """Per-run membership scores; higher score means 'predict member'.
    indices holds the scored runs' indices in the bundle, None when the
    scores are not of shadow runs."""

    bits: np.ndarray
    scores: np.ndarray
    attack: str
    indices: np.ndarray | None = None
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
    roc: np.ndarray  # (rows, 3) float64: threshold, fpr, tpr; fpr ascending
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
        scores=-fb.features,
        attack="loss_threshold",
        indices=np.arange(len(fb.bits)),
        threat_model=fb.threat_model,
    )


# the share of each membership class that calibrates lira and groundhog
_HOLDOUT_FRACTION = 0.5


def _split_stratified(bits: np.ndarray, holdout_fraction: float = _HOLDOUT_FRACTION,
                      min_per_class: int = 2):
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


def attack_lira(fb: FeatureBundle, holdout_fraction: float = _HOLDOUT_FRACTION) -> ScoredRuns:
    """Likelihood-ratio test on the target's loss.

    Gaussians are fitted to the calibration losses of the in-group and the
    out-group; evaluation runs are scored by the log-likelihood ratio. The
    returned runs cover the evaluation split only.
    """
    _require_mode(fb, "pred_loss", "attack_lira")
    losses = fb.features
    bits = fb.bits
    cal = _split_stratified(bits, holdout_fraction)

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
        indices=np.flatnonzero(ev),
        threat_model=fb.threat_model,
    )


def _min_gower(schema: Schema, target, columns) -> np.ndarray:
    """min_gower_distance of each run of the run-axis columns, read a chunk
    of runs (run_chunks) at a time through row views. Each row of a chunk
    sees the arithmetic of its run alone, so the distances are bit-equal to
    one run at a time."""
    runs, n = columns[0].shape
    if n == 0:
        raise ValueError("empty synthetic dataset")
    out = np.empty(runs)
    for chunk in run_chunks(runs, n):
        acc = np.zeros((chunk.stop - chunk.start, n))
        d = np.empty_like(acc)
        for col, vals, v in zip(schema.columns, columns, target):
            if isinstance(col, NumericColumn):
                # np.abs(vals - v) / (col.hi - col.lo), in one scratch array
                np.subtract(vals[chunk], v, out=d)
                np.abs(d, out=d)
                d /= col.hi - col.lo
                acc += d
            else:
                acc += vals[chunk] != int(v)
        out[chunk] = acc.min(axis=1) / len(schema.columns)
    return out


def min_gower_distance(schema: Schema, target, ds: Dataset) -> float:
    """Distance from the target to its closest record in ds, vectorized: the
    one-run case of the run-axis distances."""
    return float(_min_gower(schema, target, tuple(c[None] for c in ds.columns))[0])


def attack_dcr(fb: FeatureBundle) -> ScoredRuns:
    """Distance to closest record: score = -min distance from target to the
    run's synthetic dataset, read from the bundle's run-axis arrays."""
    _require_mode(fb, "synth_dataset", "attack_dcr")
    return ScoredRuns(
        bits=fb.bits,
        scores=-_min_gower(fb.schema, fb.target, fb.features),
        attack="dcr",
        indices=np.arange(len(fb.bits)),
        threat_model=fb.threat_model,
    )


@dataclass(frozen=True)
class GroundhogConfig:
    steps: int = 300
    learning_rate: float = 0.5
    holdout_fraction: float = _HOLDOUT_FRACTION
    include_correlations: bool = False


def _correlations(m: np.ndarray) -> np.ndarray:
    """Upper triangle of the correlation matrix of m's rows; the pairs of a
    zero-variance row get zero correlation rather than NaN, as do all pairs
    of a single observation."""
    with np.errstate(divide="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # degrees of freedom <= 0
        c = np.corrcoef(m)
    return np.nan_to_num(c[np.triu_indices(len(m), k=1)])


def _row_medians(vals: np.ndarray) -> np.ndarray:
    """np.median(vals, axis=1) from one single-kth partition, which numpy
    selects with its SIMD kernel where np.median's several kth values take
    its generic introselect. For even n the two middle values are summed
    and halved, as np.median's mean of them is; a row holding a NaN reads
    NaN, as there. Where a row's middle values are zeros of both signs, the
    sign of its zero median is unspecified here as it is in np.median, whose
    partition leaves their order unspecified too."""
    n = vals.shape[1]
    h = n // 2
    part = np.partition(vals, h, axis=1)
    if n % 2:
        med = part[:, h]
    else:
        med = (part[:, :h].max(axis=1) + part[:, h]) / 2.0
    # a NaN sorts above every number, so a row's NaN is in its upper part
    top = part[:, h:].max(axis=1)
    np.copyto(med, top, where=np.isnan(top))
    return med


def _groundhog(schema: Schema, columns, include_correlations: bool) -> np.ndarray:
    """groundhog_features of each run of the run-axis columns, one row per
    run, read a chunk of runs (run_chunks) at a time through row views. Each
    statistic reduces along a row, which numpy does as it reduces one run's
    column alone, so the rows are bit-equal to one run at a time."""
    runs, n = columns[0].shape
    if n == 0:
        raise ValueError("empty synthetic dataset")
    blocks = []
    for chunk in run_chunks(runs, n):
        size = chunk.stop - chunk.start
        feats: list[np.ndarray] = []
        numeric: list[np.ndarray] = []
        for col, c in zip(schema.columns, columns):
            vals = c[chunk]
            if isinstance(col, NumericColumn):
                feats += [vals.mean(axis=1), _row_medians(vals), vals.var(axis=1)]
                numeric.append(vals)
            else:
                k = len(col.levels)
                # run r's levels counted in cells r*k .. r*k + k - 1
                flat = (vals + k * np.arange(size)[:, None]).ravel()
                feats += list((np.bincount(flat, minlength=size * k).reshape(size, k) / n).T)
        block = np.stack(feats, axis=1)
        if include_correlations and len(numeric) > 1:
            corr = [_correlations(np.stack([v[r] for v in numeric])) for r in range(size)]
            block = np.concatenate([block, np.stack(corr)], axis=1)
        blocks.append(block)
    return np.concatenate(blocks)


def groundhog_features(ds: Dataset, include_correlations: bool = False) -> np.ndarray:
    """Summary statistics of a synthetic dataset, concatenated in schema order.

    Numeric columns contribute (mean, median, variance); categorical columns
    contribute level frequencies. Optionally appends the upper triangle of the
    numeric correlation matrix. The one-run case of the run-axis features.
    """
    return _groundhog(ds.schema, tuple(c[None] for c in ds.columns), include_correlations)[0]


def _fit_logistic(x: np.ndarray, y: np.ndarray, steps: int, lr: float) -> np.ndarray:
    """The 2-class logistic regression on (x, y) after steps full-batch
    gradient steps from zero, as [w | b], one row per class.

    Each step takes the float operations of models.batch_gradient_factors(
    spec, params, x, y).weighted_sum(ones) and then params - lr * (g / m),
    in their order: x @ w.T and the bias add; the softmax's max, subtract,
    exp, sum and divide; p - onehot; the gradient as the one
    (1, 2, m) @ (1, m, d+1) batched matmul over [x | 1] that weighted_sum
    makes. So the parameters keep the bits of that generic path, while
    every array is allocated once.
    """
    m, d = x.shape
    theta = np.zeros((2, d + 1))  # zero, as init_scale 0 gives the parameters
    w, b = theta[:, :d], theta[:, d]
    augmented = np.empty((1, m, d + 1))  # [x | 1]: its ones column sums the bias
    augmented[0, :, :d] = x
    augmented[0, :, d] = 1.0
    onehot = (y[:, None] == np.arange(2)).astype(np.float64)
    logits = np.empty((m, 2))  # the logits, then the probabilities, then p - onehot
    column = np.empty(m)  # the max, then the sum
    step = np.empty((1, 2, d + 1))
    left = logits.reshape(1, m, 2).swapaxes(1, 2)
    for _ in range(steps):
        np.matmul(x, w.T, out=logits)
        logits += b
        np.maximum(logits[:, 0], logits[:, 1], out=column)
        np.subtract(logits, column[:, None], out=logits)
        np.exp(logits, out=logits)
        np.add(logits[:, 0], logits[:, 1], out=column)
        np.divide(logits, column[:, None], out=logits)
        logits -= onehot
        np.matmul(left, augmented, out=step)
        step /= m
        step *= lr
        theta -= step[0]
    return theta


def attack_groundhog(fb: FeatureBundle, config: GroundhogConfig | None = None) -> ScoredRuns:
    """Classify summary-statistic features of each synthetic dataset.

    A logistic regression (zero-initialized, full-batch gradient descent) is
    trained on the calibration split labeled by the membership bit; evaluation
    runs are scored by their member-vs-non-member logit difference. The
    features are read from the bundle's run-axis arrays.
    """
    _require_mode(fb, "synth_dataset", "attack_groundhog")
    cfg = config or GroundhogConfig()
    bits = fb.bits
    cal = _split_stratified(bits, cfg.holdout_fraction)

    feats = _groundhog(fb.schema, fb.features, cfg.include_correlations)
    # standardize with calibration statistics for stable fixed-budget SGD
    mu = feats[cal].mean(axis=0)
    sd = np.maximum(feats[cal].std(axis=0), 1e-8)
    z = (feats - mu) / sd

    theta = _fit_logistic(z[cal], bits[cal], cfg.steps, cfg.learning_rate)

    ev = ~cal
    logits = np.matmul(z[ev], theta[:, :-1].T) + theta[:, -1]
    return ScoredRuns(
        bits=bits[ev],
        scores=logits[:, 1] - logits[:, 0],
        attack="groundhog",
        indices=np.flatnonzero(ev),
        threat_model=fb.threat_model,
    )


def attack_disc_loss(fb: FeatureBundle) -> ScoredRuns:
    """Score = -discriminator loss at the target treated as a real sample."""
    _require_mode(fb, "disc_loss", "attack_disc_loss")
    return ScoredRuns(
        bits=fb.bits,
        scores=-fb.features,
        attack="disc_loss",
        indices=np.arange(len(fb.bits)),
        threat_model=fb.threat_model,
    )


# ---------------------------------------------------------------------------
# evaluation

DEFAULT_OPERATING_POINTS = ("median", 0.1, 0.01)


def _counts_from_top(group: np.ndarray, n_groups: int) -> np.ndarray:
    """Runs scored at or above each threshold of the descending sweep: entry
    0 is the +inf threshold, entry k the k-th largest distinct score."""
    per_group = np.bincount(group, minlength=n_groups)[::-1]
    return np.concatenate(([0], np.cumsum(per_group)))


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

    The thresholds are the distinct scores in descending order. Each run is
    mapped to its score's group once; cumulative per-class counts over the
    groups then give the confusion table at every threshold, so the sweep
    costs one sort rather than a recount per threshold. The ROC is one
    (thresholds, 3) float64 array, the first threshold +inf.
    """
    bits, scores = scored.bits, scored.scores

    distinct = np.unique(scores)
    group = np.searchsorted(distinct, scores)
    tp = _counts_from_top(group[bits == 1], len(distinct))
    fp = _counts_from_top(group[bits == 0], len(distinct))
    n_pos, n_neg = int(tp[-1]), int(fp[-1])
    thresholds = np.concatenate(([math.inf], distinct[::-1]))
    fprs, tprs = fp / n_neg, tp / n_pos  # fpr is non-decreasing along the sweep
    roc = np.column_stack((thresholds, fprs, tprs))
    auc = float(np.trapezoid(tprs, fprs))

    ops = []
    for op in operating_points:
        if op == "median":
            thr = float(np.median(scores))
            k = len(distinct) - int(np.searchsorted(distinct, thr))
            name, target = "median", None
        else:
            target = float(op)
            k = max(int(np.searchsorted(fprs, target, side="right")) - 1, 0)
            thr = float(thresholds[k])
            name = f"fpr<={target:g}"
        c = ConfusionCounts(tp=int(tp[k]), fp=int(fp[k]),
                            tn=n_neg - int(fp[k]), fn=n_pos - int(tp[k]))
        ops.append(OperatingPoint(
            name=name,
            threshold=thr,
            counts=c,
            fpr=float(fprs[k]),
            tpr=float(tprs[k]),
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
        roc=roc,
        operating_points=tuple(ops),
        n_runs=len(bits),
    )


# ---------------------------------------------------------------------------
# serialization

def _num(v: float):
    if math.isinf(v):
        return "unbounded"
    return v


def _report_doc(report: AttackReport) -> dict:
    """The report's JSON document with the ROC left as its float array,
    which write_json takes as a table."""
    tm = report.threat_model
    if tm is not None:
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
        "roc": report.roc,
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


def report_to_json_dict(report: AttackReport) -> dict:
    doc = _report_doc(report)
    doc["roc"] = rows = report.roc.tolist()
    for i, j in zip(*np.nonzero(np.isinf(report.roc))):
        rows[i][j] = "unbounded"
    return doc


# A table's rows are laid out and written this many at a time, so a long ROC
# never exists as one string.
_TABLE_CHUNK_ROWS = 2048
_SCALARS = frozenset((str, int, float, bool, type(None)))
# json.dumps puts this item separator between list items. The encoder escapes
# NUL inside strings, so a raw NUL in its output is always a separator.
_NUL_SEPARATORS = (",\x00", ": ")


def _cell_texts(table: np.ndarray) -> np.ndarray:
    """Each cell's JSON text as _num then json.dumps give it, in an object
    array of the table's shape. Each distinct value (bit pattern, so -0.0 and
    0.0 stay apart) is formatted once, by float.__repr__ as json.dumps does."""
    # Not np.unique: with return_inverse its argsort raised peak RSS by 0.3 MB
    # at the first call, even for a 64-row ROC, and without it its hash table
    # took 5 ms for a 20k-row one. A sort takes 0.5 ms, and the lookups take
    # 1.5 ms column by column, as an ROC's columns are each monotone.
    bits = table.view(np.int64)
    ordered = np.sort(bits, axis=None)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    values = distinct.view(np.float64)
    texts = np.array(list(map(float.__repr__, values.tolist())), dtype=object)
    texts[np.isinf(values)] = '"unbounded"'
    texts[np.isnan(values)] = "NaN"
    return texts[np.searchsorted(distinct, bits.T).T]


def _iter_float_table(table: np.ndarray, level: int):
    """A 2-D float64 array as json.dumps lays out its rows' lists, laid out
    column-wise: each chunk of rows is one object array of text pieces,
    (row opening, cell, separator, ..., cell, row closing) per row."""
    if table.size == 0:
        yield from _iter_json(table.tolist(), level)
        return
    row_indent = "\n" + "  " * (level + 1)
    item_indent = row_indent + "  "
    cells = _cell_texts(table)
    width = table.shape[1]
    opening = "[" + row_indent + "[" + item_indent
    between = "," + row_indent + "[" + item_indent
    for i in range(0, len(cells), _TABLE_CHUNK_ROWS):
        chunk = cells[i:i + _TABLE_CHUNK_ROWS]
        pieces = np.empty((len(chunk), 2 * width + 1), dtype=object)
        pieces[:, 0] = between
        pieces[0, 0] = opening
        pieces[:, 1::2] = chunk
        pieces[:, 2:-1:2] = "," + item_indent
        pieces[:, -1] = row_indent + "]"
        yield "".join(pieces.ravel().tolist())
        opening = between
    yield "\n" + "  " * level + "]"


def _iter_json(o, level: int):
    """The text of json.dumps(o, sort_keys=True, indent=2), nested `level`
    deep. Dicts and mixed lists recurse here; scalar lists go to json.dumps
    whole, which runs the C encoder when there is no indent, and 2-D float64
    arrays to _iter_float_table."""
    if o is None or isinstance(o, (str, int, float)):
        yield json.dumps(o)
        return
    indent = "\n" + "  " * (level + 1)
    close = "\n" + "  " * level
    if isinstance(o, dict):
        if not o:
            yield "{}"
            return
        if not all(isinstance(k, str) for k in o):
            raise TypeError("write_json: every key must be a str")
        sep = "{" + indent
        for k in sorted(o):
            yield sep + json.dumps(k) + ": "
            yield from _iter_json(o[k], level + 1)
            sep = "," + indent
        yield close + "}"
        return
    if isinstance(o, np.ndarray) and o.ndim == 2 and o.dtype == np.float64:
        yield from _iter_float_table(o, level)
        return
    if not isinstance(o, (list, tuple)):
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    if not o:
        yield "[]"
    elif {type(v) for v in o} <= _SCALARS:
        text = json.dumps(o, separators=_NUL_SEPARATORS)
        yield "[" + indent + text[1:-1].replace("\x00", indent) + close + "]"
    else:
        sep = "[" + indent
        for v in o:
            yield sep
            yield from _iter_json(v, level + 1)
            sep = "," + indent
        yield close + "]"


def write_json(path, doc) -> None:
    """Write doc to path as the bytes of json.dumps(plain, sort_keys=True,
    indent=2) + "\n": the one format of every JSON report. Keys must be str.
    doc may hold 2-D float64 arrays as tables, such as the ROC; plain is doc
    with each of them as its .tolist() rows, infinities as _num gives them."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(_iter_json(doc, 0))
        f.write("\n")


def save_report(path, report: AttackReport) -> None:
    write_json(path, _report_doc(report))


def save_roc_csv(path, report: AttackReport) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["threshold", "fpr", "tpr"])
        w.writerows(report.roc.tolist())
