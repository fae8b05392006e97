"""Closed-form privacy math.

Effective-epsilon estimation from attack outcomes, exact binomial confidence
intervals, and Gaussian-DP composition/conversion. Everything here is a pure
function over value inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import betaincinv

__all__ = [
    "PrivacyParams",
    "ErrorRates",
    "ConfusionCounts",
    "GdpParam",
    "ConfidenceInterval",
    "UNBOUNDED",
    "confidence_level",
    "error_rates",
    "effective_epsilon_point",
    "accuracy_bound",
    "clopper_pearson",
    "clopper_pearson_upper",
    "effective_epsilon_lower_bound",
    "gdp_delta_of_epsilon",
    "gdp_epsilon_of_delta",
    "subsampled_gdp_mu",
]

# Distinguished "unbounded leakage" value. Always produced deliberately,
# never as the result of a float overflow.
UNBOUNDED = math.inf

_SQRT2 = math.sqrt(2.0)


class DegenerateCountsError(ValueError):
    """Raised when confusion counts cannot support rate computation."""


@dataclass(frozen=True)
class PrivacyParams:
    """An (epsilon, delta) guarantee."""

    epsilon: float
    delta: float

    def __post_init__(self):
        if not (self.epsilon >= 0.0):
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if not (0.0 <= self.delta < 1.0):
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")


@dataclass(frozen=True)
class ErrorRates:
    """Type-I (alpha) and type-II (beta) error rates of a membership test."""

    alpha: float
    beta: float

    def __post_init__(self):
        for name, v in (("alpha", self.alpha), ("beta", self.beta)):
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {v}")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        for name, v in (("tp", self.tp), ("fp", self.fp),
                        ("tn", self.tn), ("fn", self.fn)):
            if v < 0 or v != int(v):
                raise ValueError(f"{name} must be a non-negative integer, got {v}")

    @property
    def trials(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class GdpParam:
    """Gaussian-DP parameter mu."""

    mu: float

    def __post_init__(self):
        if not (self.mu >= 0.0):
            raise ValueError(f"mu must be >= 0, got {self.mu}")


@dataclass(frozen=True)
class ConfidenceInterval:
    lo: float
    hi: float
    confidence: float

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi <= 1.0):
            raise ValueError(f"need 0 <= lo <= hi <= 1, got [{self.lo}, {self.hi}]")
        confidence_level(self.confidence)


def confidence_level(value) -> float:
    """value as a confidence level: a float strictly between 0 and 1."""
    confidence = float(value)
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must be in (0, 1), got {value}")
    return confidence


def error_rates(c: ConfusionCounts) -> ErrorRates:
    """Convert confusion counts to (alpha, beta).

    Convention: H0 is "target NOT in training data". A false positive rejects
    H0 when the target was absent, so alpha = fp/(fp+tn) and beta = fn/(fn+tp).
    """
    if c.tp + c.fn == 0 or c.tn + c.fp == 0:
        raise DegenerateCountsError(
            "need tp+fn > 0 and tn+fp > 0 to compute error rates, "
            f"got tp={c.tp} fp={c.fp} tn={c.tn} fn={c.fn}"
        )
    return ErrorRates(alpha=c.fp / (c.fp + c.tn), beta=c.fn / (c.fn + c.tp))


def effective_epsilon_point(r: ErrorRates, delta: float) -> float:
    """Point estimate of the effective-epsilon lower bound.

    Evaluates e^eps >= max((1-alpha-delta)/beta, (1-beta-delta)/alpha) and
    returns the log, clamped below at 0. Returns UNBOUNDED when the binding
    denominator is 0 with a positive numerator.
    """
    if not (0.0 <= delta < 1.0):
        raise ValueError(f"delta must be in [0, 1), got {delta}")
    best = 0.0
    for numer, denom in (
        (1.0 - r.alpha - delta, r.beta),
        (1.0 - r.beta - delta, r.alpha),
    ):
        if denom == 0.0:
            if numer > 0.0:
                return UNBOUNDED
            continue
        best = max(best, numer / denom)
    if best <= 1.0:
        return 0.0
    return math.log(best)


def accuracy_bound(p: PrivacyParams) -> float:
    """Upper bound (e^eps + delta) / (1 + e^eps) on membership-test accuracy."""
    e = math.exp(p.epsilon)
    return (e + p.delta) / (1.0 + e)


def clopper_pearson(successes: int, trials: int, confidence: float) -> ConfidenceInterval:
    """Exact two-sided binomial confidence interval.

    Uses the Beta-quantile characterization, which matches inversion of the
    exact binomial tail sums. lo = 0 when successes = 0; hi = 1 when
    successes = trials.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not (0 <= successes <= trials):
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    confidence_level(confidence)
    half = (1.0 - confidence) / 2.0
    lo = 0.0 if successes == 0 else float(betaincinv(successes, trials - successes + 1, half))
    hi = 1.0 if successes == trials else float(betaincinv(successes + 1, trials - successes, 1.0 - half))
    return ConfidenceInterval(lo=lo, hi=hi, confidence=confidence)


def clopper_pearson_upper(successes: int, trials: int, error_budget: float) -> float:
    """One-sided exact upper confidence limit at the given error budget."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not (0 <= successes <= trials):
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    if not (0.0 < error_budget < 1.0):
        raise ValueError(f"error_budget must be in (0, 1), got {error_budget}")
    if successes == trials:
        return 1.0
    return float(betaincinv(successes + 1, trials - successes, 1.0 - error_budget))


def effective_epsilon_lower_bound(
    c: ConfusionCounts, delta: float, confidence: float
) -> float:
    """Statistically valid effective-epsilon lower bound.

    Computes one-sided Clopper-Pearson upper limits for alpha and beta
    separately, each spending half of the total error budget (Bonferroni),
    then plugs the upper limits into the point formula. Conservative by
    construction: never exceeds the point estimate.
    """
    confidence_level(confidence)
    # Trigger the degenerate-counts check up front.
    error_rates(c)
    budget = (1.0 - confidence) / 2.0
    alpha_hi = clopper_pearson_upper(c.fp, c.fp + c.tn, budget)
    beta_hi = clopper_pearson_upper(c.fn, c.fn + c.tp, budget)
    return effective_epsilon_point(ErrorRates(alpha=alpha_hi, beta=beta_hi), delta)


def _norm_cdf(x: float) -> float:
    # erfc-based standard normal CDF; saturates outside [-8, 8].
    if x < -8.0:
        return 0.0
    if x > 8.0:
        return 1.0
    return 0.5 * math.erfc(-x / _SQRT2)


def gdp_delta_of_epsilon(g: GdpParam, epsilon: float) -> float:
    """delta(eps) for a mu-GDP mechanism.

    delta = Phi(-eps/mu + mu/2) - e^eps * Phi(-eps/mu - mu/2).
    """
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    mu = g.mu
    if mu == 0.0:
        return 0.0
    t1 = _norm_cdf(-epsilon / mu + mu / 2.0)
    t2 = _norm_cdf(-epsilon / mu - mu / 2.0)
    if t2 == 0.0:
        d = t1
    else:
        d = t1 - math.exp(epsilon) * t2
    return min(1.0, max(0.0, d))


def gdp_epsilon_of_delta(g: GdpParam, delta: float) -> float:
    """Smallest eps >= 0 with delta(eps) <= delta, by bisection."""
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if gdp_delta_of_epsilon(g, 0.0) <= delta:
        return 0.0
    lo, hi = 0.0, 1.0
    while gdp_delta_of_epsilon(g, hi) > delta:
        hi *= 2.0
        if hi > 1e6:
            return UNBOUNDED
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gdp_delta_of_epsilon(g, mid) > delta:
            lo = mid
        else:
            hi = mid
    return hi


def subsampled_gdp_mu(
    noise_multiplier: float, sample_rate: float, steps: int
) -> GdpParam:
    """CLT approximation for T Poisson-subsampled Gaussian steps.

    mu = p * sqrt(T * (e^(1/sigma^2) - 1)). This is an approximation; limiting
    behavior (mu -> sqrt(T)/sigma at p=1, large sigma) is validated in tests.
    """
    if noise_multiplier <= 0.0:
        raise ValueError("noise_multiplier must be > 0; sigma=0 has no finite mu")
    if not (0.0 < sample_rate <= 1.0):
        raise ValueError(f"sample_rate must be in (0, 1], got {sample_rate}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    mu = sample_rate * math.sqrt(steps * math.expm1(1.0 / noise_multiplier**2))
    return GdpParam(mu=mu)
