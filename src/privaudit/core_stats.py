"""Closed-form privacy math.

Effective-epsilon estimation from attack outcomes, exact binomial confidence
intervals, and Gaussian-DP composition/conversion. Everything here is a pure
function over value inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .data import count_value, fraction

__all__ = [
    "PrivacyParams",
    "ErrorRates",
    "ConfusionCounts",
    "GdpParam",
    "ConfidenceInterval",
    "NoValidGuaranteeError",
    "UNBOUNDED",
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


class NoValidGuaranteeError(ValueError):
    """Raised when asking for a privacy claim of a mechanism without noise."""


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
        fraction("confidence", self.confidence)


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


def _check_binomial(successes: int, trials: int) -> None:
    count_value("trials", trials, 1)
    if not (0 <= successes <= trials):
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")


def clopper_pearson(successes: int, trials: int, confidence: float) -> ConfidenceInterval:
    """Exact two-sided binomial confidence interval, rounded outward.

    Each limit spends half of 1 - confidence; lo = 0 when successes = 0 and
    hi = 1 when successes = trials. lo never exceeds and hi never falls below
    the exact Clopper-Pearson limit (see _cp_limit).
    """
    _check_binomial(successes, trials)
    half = (1.0 - fraction("confidence", confidence)) / 2.0
    return ConfidenceInterval(lo=_cp_limit(successes, trials, half, upper=False),
                              hi=_cp_limit(successes, trials, half, upper=True),
                              confidence=confidence)


def clopper_pearson_upper(successes: int, trials: int, error_budget: float) -> float:
    """One-sided exact upper confidence limit at the given error budget,
    never below the exact Clopper-Pearson value."""
    _check_binomial(successes, trials)
    fraction("error_budget", error_budget)
    return _cp_limit(successes, trials, error_budget, upper=True)


# Clopper-Pearson limits are quantiles of a beta distribution with integer
# parameters:  P(Bin(n, u) <= s) = P(Beta(s + 1, n - s) > u)  and
# P(Bin(n, u) >= s) = P(Beta(s, n - s + 1) <= u).  The tail comes from a
# continued fraction and a log-gamma prefactor; every evaluation also returns
# a bound eta on the absolute error of its log, and the returned limit is
# moved outward until the tail times e^eta is within the budget.

_EPS = sys.float_info.epsilon
_TINY = 1e-300  # keeps Lentz's denominators off zero

# eta = _ETA_EPS * eps * (sum of the magnitudes the log tail is built from,
# plus the continued fraction's running error bound). Every term enters with
# at most a few roundings of relative size eps, and math.lgamma is within
# 2.4 eps of ln Gamma at integers (checked against mpmath at 50 digits on
# 1..3000 and random integers up to 2**40); 4 covers both. Against mpmath at
# 90 digits, over 10^4 random (x, a, b) with a + b <= 2 * 10^4, the largest
# error seen was 0.14 eta.
_ETA_EPS = 4.0


def _stirling_tail(x: float) -> float:
    """ln Gamma(x) - ((x - 1/2) ln x - x + ln(2 pi) / 2), within 3e-17 for x >= 32."""
    r = 1.0 / (x * x)
    return (1.0 / 12 - r * (1.0 / 360 - r * (1.0 / 1260 - r / 1680))) / x


def _log_beta(a: int, b: int) -> tuple[float, float]:
    """ln B(a, b) and the sum of the magnitudes of the terms it adds.

    With p <= q, ln Gamma(p + q) - ln Gamma(q) is taken from Stirling's series,
    whose O(q ln q) leading terms cancel in closed form, so the error stays
    O(p ln(p + q)) eps rather than O(q ln q) eps.
    """
    p, q = min(a, b), max(a, b)
    if q < 32:
        terms = (math.lgamma(p), math.lgamma(q), -math.lgamma(p + q))
    else:
        terms = (math.lgamma(p), -(q - 0.5) * math.log1p(p / q), -p * math.log(p + q),
                 float(p), _stirling_tail(q) - _stirling_tail(p + q))
    return math.fsum(terms), sum(map(abs, terms))


def _beta_cf(x: float, a: float, b: float) -> tuple[float, float]:
    """Continued fraction of I_x(a, b) * a * B(a, b) / (x^a (1-x)^b) by the
    modified Lentz method, and a running bound on its relative rounding
    error in units of eps.

    It converges quickly for x < (a + 1) / (a + b + 2), in O(sqrt(a + b))
    terms. A denominator 1 + t that cancels multiplies the error it inherits
    by |t| / |1 + t|; the first one, 1 - (a + b) x / (a + 1), falls towards
    2 / (a + b + 2) near that point. The bound follows each such step to
    first order, counting at most five roundings in each coefficient.
    """
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    t = qab * x / qap
    d = 1.0 - t
    if -_TINY < d < _TINY:
        d = _TINY
    err_d = (3.0 * abs(t) + 1.0) / abs(d) + 1.0
    d = 1.0 / d
    c, h, err_c, err_h = 1.0, d, 0.0, err_d
    for m in range(1, 64 + int(8.0 * math.sqrt(qab))):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            t = aa * d
            d = 1.0 + t
            if -_TINY < d < _TINY:
                d = _TINY
            d = 1.0 / d
            err_d = abs(t * d) * (err_d + 6.0) + abs(d) + 1.0
            t = aa / c
            c = 1.0 + t
            if -_TINY < c < _TINY:
                c = _TINY
            err_c = (abs(t) * (err_c + 6.0) + 1.0) / abs(c)
            step = d * c
            h *= step
            err_h += err_d + err_c + 2.0
        if abs(step - 1.0) <= _EPS:
            return h, err_h
    raise ArithmeticError(f"beta continued fraction did not converge at x={x}, a={a}, b={b}")


def _log_beta_tail(x: float, a: int, b: int, log_beta: tuple[float, float],
                   upper: bool) -> tuple[float, float, float]:
    """(log tail, log density, eta) of Beta(a, b) at x; log_beta is _log_beta(a, b).

    The tail is P(X > x) when upper, else P(X <= x); eta bounds the absolute
    error of its log. The tail on the side of (a + 1) / (a + b + 2) that holds
    x, where the continued fraction converges, is computed directly, so a
    small tail never comes from 1 minus a number close to 1. The other tail
    is 1 minus it, and eta grows by that subtraction's condition number.
    """
    if x <= 0.0:
        return (0.0 if upper else -math.inf), -math.inf, 0.0
    if x >= 1.0:
        return (-math.inf if upper else 0.0), -math.inf, 0.0
    lbeta, lbeta_mag = log_beta
    lx, l1x = math.log(x), math.log1p(-x)
    t1, t2 = a * lx, b * l1x
    log_front = t1 + t2 - lbeta  # log of x^a (1-x)^b / B(a, b)
    lower_direct = x < (a + 1.0) / (a + b + 2.0)
    rounded_arg = 0.0
    if lower_direct:
        h, cf_err = _beta_cf(x, a, b)
        log_direct = log_front + math.log(h / a)
    else:
        h, cf_err = _beta_cf(1.0 - x, b, a)
        log_direct = log_front + math.log(h / b)
        if x < 0.5:
            # 1 - x is rounded (by at most eps/2 relative) only below 1/2;
            # |d ln h / d ln(1 - x)| <= |b / (h x) - b| + a (1 - x) / x
            rounded_arg = (abs(b / (h * x) - b) + a * (1.0 - x) / x) * _EPS
    eta = _ETA_EPS * _EPS * (abs(t1) + abs(t2) + lbeta_mag + abs(log_front)
                             + abs(log_direct) + cf_err + 8.0) + rounded_arg
    log_density = log_front - lx - l1x
    if lower_direct != upper:
        return log_direct, log_density, eta
    direct = math.exp(log_direct)
    if direct >= 1.0:
        return -math.inf, log_density, eta
    return math.log1p(-direct), log_density, (eta * direct + 2.0 * _EPS) / (1.0 - direct)


def _normal_quantile_approx(p: float) -> float:
    """z with Phi(z) ~= 1 - p, within 5e-4 (Abramowitz & Stegun 26.2.23)."""
    if p > 0.5:
        return -_normal_quantile_approx(1.0 - p)
    t = math.sqrt(-2.0 * math.log(p))
    return t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))


def _beta_quantile_start(a: int, b: int, budget: float, upper: bool) -> float:
    """About the x with P(Beta(a, b) > x) = budget when upper, else
    P(Beta(a, b) <= x) = budget, for a, b >= 1 (Abramowitz & Stegun 26.5.22)."""
    y = _normal_quantile_approx(budget) * (-1.0 if upper else 1.0)
    lam = (y * y - 3.0) / 6.0
    ra, rb = 1.0 / (2.0 * a - 1.0), 1.0 / (2.0 * b - 1.0)
    h = 2.0 / (ra + rb)
    w = y * math.sqrt(h + lam) / h - (rb - ra) * (lam + 5.0 / 6.0 - 2.0 / (3.0 * h))
    return a / (a + b * math.exp(min(2.0 * w, 700.0)))


def _cp_limit(successes: int, trials: int, budget: float, upper: bool) -> float:
    """One Clopper-Pearson limit, rounded outward.

    upper: a u with P(Bin(trials, u) <= successes) <= budget, at or above the
    smallest such u (1 when successes = trials). Otherwise a u with
    P(Bin(trials, u) >= successes) <= budget, at or below the largest such u
    (0 when successes = 0). Both hold whenever each tail evaluation is within
    its eta of the exact value.

    Halley steps on the log tail (the beta density gives its derivative, and
    the density's log-derivative its curvature) start from
    _beta_quantile_start and fall back to bisection whenever they leave the
    bracket. They aim at log budget - 1.125 eta, and the result is
    then stepped outward, by a gap that doubles from one ulp, until
    tail * e^eta <= budget.
    """
    if upper and successes == trials:
        return 1.0
    if not upper and successes == 0:
        return 0.0
    a, b = (successes + 1, trials - successes) if upper else (successes, trials - successes + 1)
    log_beta = _log_beta(a, b)
    log_budget = math.log(budget)
    outward = 1.0 if upper else -1.0  # the direction that makes the limit conservative

    u = _beta_quantile_start(a, b, budget, upper)
    lo, hi = 0.0, 1.0
    if not lo < u < hi:
        u = 0.5
    for _ in range(200):
        log_tail, log_density, eta = _log_beta_tail(u, a, b, log_beta, upper)
        miss = log_tail - (log_budget - 1.125 * eta)
        if (miss > 0.0) == upper:
            lo = u
        else:
            hi = u
        if abs(miss) <= 0.125 * eta:
            break
        if log_tail == -math.inf:
            nxt = 0.5 * (lo + hi)
        else:  # Halley's step; d(log tail)/du = -outward * density / tail
            step = outward * miss * math.exp(min(log_tail - log_density, 700.0))
            curve = 1.0 + 0.5 * (miss + step * ((a - 1) / u - (b - 1) / (1.0 - u)))
            nxt = u + (step / curve if curve > 0.5 else step)
        if abs(nxt - u) <= 2.0 * math.ulp(u):  # float resolution: leave the rest outward
            break
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        u = nxt
    else:
        log_tail, _, eta = _log_beta_tail(u, a, b, log_beta, upper)

    gap = math.ulp(u)
    while log_tail + eta > log_budget:
        u = min(1.0, max(0.0, u + outward * gap))
        gap *= 2.0
        log_tail, _, eta = _log_beta_tail(u, a, b, log_beta, upper)
    return u


def effective_epsilon_lower_bound(
    c: ConfusionCounts, delta: float, confidence: float
) -> float:
    """Statistically valid effective-epsilon lower bound.

    Computes one-sided Clopper-Pearson upper limits for alpha and beta
    separately, each spending half of the total error budget (Bonferroni),
    then plugs the upper limits into the point formula. Conservative by
    construction: never exceeds the point estimate.
    """
    fraction("confidence", confidence)
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
    fraction("delta", delta)
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
        raise NoValidGuaranteeError(
            f"no valid guarantee exists without noise (noise_multiplier={noise_multiplier})")
    fraction("sample_rate", sample_rate, one=True)
    count_value("steps", steps, 1)
    try:
        growth = math.expm1(1.0 / noise_multiplier**2)
    except (OverflowError, ZeroDivisionError):
        # e^(1/sigma^2) overflows below sigma ~0.0375, sigma^2 above ~1e154
        growth = math.inf if noise_multiplier < 1.0 else 0.0
    return GdpParam(mu=sample_rate * math.sqrt(steps * growth))
