import math
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from privaudit.core_stats import (
    UNBOUNDED,
    ConfusionCounts,
    DegenerateCountsError,
    ErrorRates,
    GdpParam,
    PrivacyParams,
    accuracy_bound,
    clopper_pearson,
    clopper_pearson_upper,
    effective_epsilon_lower_bound,
    effective_epsilon_point,
    error_rates,
    gdp_delta_of_epsilon,
    gdp_epsilon_of_delta,
    subsampled_gdp_mu,
)


# ---------------------------------------------------------------------------
# independent oracles

def binom_cdf(k, n, p):
    """Exact binomial CDF by direct summation (log-space terms)."""
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 1.0 if k >= n else 0.0
    total = 0.0
    for i in range(k + 1):
        logterm = (
            math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            + i * math.log(p) + (n - i) * math.log1p(-p)
        )
        total += math.exp(logterm)
    return min(total, 1.0)


def binom_sf_ge(k, n, p):
    """P[X >= k] for X ~ Binomial(n, p)."""
    if k <= 0:
        return 1.0
    return 1.0 - binom_cdf(k - 1, n, p)


def cp_interval_bisect(k, n, confidence):
    """Clopper-Pearson interval via bisection on exact binomial tail sums."""
    half = (1.0 - confidence) / 2.0
    if k == 0:
        lo = 0.0
    else:
        # largest p with P[X >= k] <= half
        a, b = 0.0, 1.0
        for _ in range(80):
            m = 0.5 * (a + b)
            if binom_sf_ge(k, n, m) < half:
                a = m
            else:
                b = m
        lo = a
    if k == n:
        hi = 1.0
    else:
        # smallest p with P[X <= k] <= half
        a, b = 0.0, 1.0
        for _ in range(80):
            m = 0.5 * (a + b)
            if binom_cdf(k, n, m) > half:
                a = m
            else:
                b = m
        hi = b
    return lo, hi


# ---------------------------------------------------------------------------
# error_rates

def test_error_rates_never_reject():
    r = error_rates(ConfusionCounts(tp=0, fp=0, tn=10, fn=10))
    assert r.alpha == 0.0 and r.beta == 1.0


def test_error_rates_always_reject():
    r = error_rates(ConfusionCounts(tp=10, fp=10, tn=0, fn=0))
    assert r.alpha == 1.0 and r.beta == 0.0


def test_error_rates_balanced():
    r = error_rates(ConfusionCounts(tp=75, fp=25, tn=75, fn=25))
    assert r.alpha == pytest.approx(0.25)
    assert r.beta == pytest.approx(0.25)


def test_error_rates_degenerate_raises():
    with pytest.raises(DegenerateCountsError):
        error_rates(ConfusionCounts(tp=0, fp=5, tn=5, fn=0))


# ---------------------------------------------------------------------------
# effective_epsilon_point

def test_eps_point_random_guessing():
    assert effective_epsilon_point(ErrorRates(0.5, 0.5), 0.0) == 0.0


def test_eps_point_ln3():
    v = effective_epsilon_point(ErrorRates(0.25, 0.25), 0.0)
    assert v == pytest.approx(math.log(3.0), abs=1e-12)


def test_eps_point_asymmetric_branches():
    # both branches evaluated explicitly: max((1-0.25-0.05)/0.2? no --
    # (1-alpha-delta)/beta = (1-0.1-0.05)/0.2 = 4.25,
    # (1-beta-delta)/alpha = (1-0.2-0.05)/0.1 = 7.5; max is 7.5
    b1 = (1 - 0.1 - 0.05) / 0.2
    b2 = (1 - 0.2 - 0.05) / 0.1
    assert max(b1, b2) == pytest.approx(7.5)
    v = effective_epsilon_point(ErrorRates(alpha=0.1, beta=0.2), 0.05)
    assert v == pytest.approx(math.log(7.5), abs=1e-12)


def test_eps_point_unbounded():
    assert effective_epsilon_point(ErrorRates(0.0, 0.0), 0.0) == UNBOUNDED


def test_eps_point_zero_denominator_nonpositive_numerator():
    # numerator 1 - alpha - delta <= 0 with beta = 0: that branch contributes nothing
    assert effective_epsilon_point(ErrorRates(alpha=1.0, beta=0.0), 0.0) == 0.0


@given(
    a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0),
    d=st.floats(0.0, 0.99),
)
def test_eps_point_symmetric_in_alpha_beta(a, b, d):
    v1 = effective_epsilon_point(ErrorRates(a, b), d)
    v2 = effective_epsilon_point(ErrorRates(b, a), d)
    assert v1 == v2


@given(
    a=st.floats(0.01, 1.0), b=st.floats(0.01, 1.0),
    d1=st.floats(0.0, 0.5), d2=st.floats(0.0, 0.5),
)
def test_eps_point_nonincreasing_in_delta(a, b, d1, d2):
    lo, hi = sorted((d1, d2))
    assert effective_epsilon_point(ErrorRates(a, b), lo) >= \
        effective_epsilon_point(ErrorRates(a, b), hi)


# ---------------------------------------------------------------------------
# accuracy_bound

def test_accuracy_bound_no_information():
    assert accuracy_bound(PrivacyParams(0.0, 0.0)) == pytest.approx(0.5, abs=1e-15)


def test_accuracy_bound_ln3():
    assert accuracy_bound(PrivacyParams(math.log(3.0), 0.0)) == pytest.approx(0.75, abs=1e-12)


def test_accuracy_bound_delta():
    assert accuracy_bound(PrivacyParams(0.0, 0.1)) == pytest.approx(0.55, abs=1e-12)


@given(eps=st.floats(0.0, 10.0))
def test_accuracy_bound_consistent_with_eps_point(eps):
    # an attack at the accuracy ceiling with alpha = beta recovers eps
    acc = accuracy_bound(PrivacyParams(eps, 0.0))
    rate = 1.0 - acc  # alpha = beta = error rate
    recovered = effective_epsilon_point(ErrorRates(rate, rate), 0.0)
    assert recovered == pytest.approx(eps, abs=1e-9)


# ---------------------------------------------------------------------------
# clopper_pearson

def test_cp_zero_successes_closed_form():
    ci = clopper_pearson(0, 100, 0.95)
    assert ci.lo == 0.0
    assert ci.hi == pytest.approx(1.0 - 0.025 ** (1.0 / 100.0), abs=1e-9)
    assert ci.hi == pytest.approx(0.03622, abs=1e-4)


def test_cp_all_successes():
    ci = clopper_pearson(100, 100, 0.95)
    assert ci.hi == 1.0


def test_cp_symmetric_at_half():
    ci = clopper_pearson(50, 100, 0.95)
    assert ci.lo < 0.5 < ci.hi
    assert (0.5 - ci.lo) == pytest.approx(ci.hi - 0.5, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 7, 30, 100])
def test_cp_matches_bisection_oracle(n):
    for k in range(n + 1):
        ci = clopper_pearson(k, n, 0.95)
        lo, hi = cp_interval_bisect(k, n, 0.95)
        assert ci.lo == pytest.approx(lo, abs=1e-9)
        assert ci.hi == pytest.approx(hi, abs=1e-9)


@pytest.mark.parametrize("n", [5, 17, 50])
def test_cp_exact_coverage(n):
    # brute-force coverage check over the binomial distribution
    conf = 0.9
    intervals = [clopper_pearson(k, n, conf) for k in range(n + 1)]
    for p in [0.01 + 0.07 * i for i in range(15)]:
        cover = 0.0
        for k in range(n + 1):
            if intervals[k].lo <= p <= intervals[k].hi:
                lo_cdf = binom_cdf(k, n, p) - binom_cdf(k - 1, n, p) if k else binom_cdf(0, n, p)
                cover += lo_cdf
        assert cover >= conf - 1e-9


def test_cp_invalid_inputs():
    with pytest.raises(ValueError):
        clopper_pearson(5, 3, 0.95)
    with pytest.raises(ValueError):
        clopper_pearson(0, 0, 0.95)
    with pytest.raises(ValueError):
        clopper_pearson(1, 3, 1.5)


# ---------------------------------------------------------------------------
# effective_epsilon_lower_bound

def test_eps_lb_monotone_in_trials():
    prev = 0.0
    for n in [50, 200, 1000, 5000]:
        c = ConfusionCounts(tp=n, fp=0, tn=n, fn=0)
        b = effective_epsilon_lower_bound(c, 0.0, 0.95)
        assert b >= prev
        prev = b
    assert prev > 3.0  # grows without limit as n grows


def test_eps_lb_coin_flip_is_zero():
    c = ConfusionCounts(tp=50, fp=50, tn=50, fn=50)
    # CP upper limits on alpha and beta both exceed 0.5, so the bound clamps to 0
    budget = 0.025
    assert clopper_pearson_upper(50, 100, budget) > 0.5
    assert effective_epsilon_lower_bound(c, 0.0, 0.95) == 0.0


def test_eps_lb_confidence_to_one_shrinks():
    c = ConfusionCounts(tp=90, fp=10, tn=90, fn=10)
    b_loose = effective_epsilon_lower_bound(c, 0.0, 0.9)
    b_tight = effective_epsilon_lower_bound(c, 0.0, 0.999999)
    assert b_tight <= b_loose
    assert b_tight >= 0.0


@given(
    tp=st.integers(1, 40), fp=st.integers(0, 40),
    tn=st.integers(1, 40), fn=st.integers(0, 40),
    d=st.floats(0.0, 0.3), conf=st.floats(0.5, 0.99),
)
@settings(max_examples=60)
def test_eps_lb_never_exceeds_point(tp, fp, tn, fn, d, conf):
    c = ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)
    lb = effective_epsilon_lower_bound(c, d, conf)
    pt = effective_epsilon_point(error_rates(c), d)
    assert lb <= pt or (lb == pt == UNBOUNDED)


def test_eps_lb_matches_cp_oracle_chain():
    # perfectly separating scores, 100 trials per class, delta=0
    c = ConfusionCounts(tp=100, fp=0, tn=100, fn=0)
    budget = 0.025
    _, a_hi = cp_interval_bisect(0, 100, 0.95)  # two-sided hi == one-sided at 0.025
    alpha_hi = clopper_pearson_upper(0, 100, budget)
    beta_hi = clopper_pearson_upper(0, 100, budget)
    assert alpha_hi == pytest.approx(a_hi, abs=1e-9)
    expected = math.log((1.0 - alpha_hi) / beta_hi)
    got = effective_epsilon_lower_bound(c, 0.0, 0.95)
    assert got == pytest.approx(expected, abs=1e-12)
    assert math.isfinite(got)


# ---------------------------------------------------------------------------
# Gaussian DP

def test_gdp_delta_mu_zero():
    assert gdp_delta_of_epsilon(GdpParam(0.0), 1.0) == 0.0


def test_gdp_delta_mu1_eps1():
    mp = pytest.importorskip("mpmath")
    oracle = float(mp.ncdf(-0.5) - mp.e * mp.ncdf(-1.5))
    got = gdp_delta_of_epsilon(GdpParam(1.0), 1.0)
    assert got == pytest.approx(oracle, abs=1e-9)
    assert got == pytest.approx(0.126936, abs=1e-6)


def test_gdp_delta_large_eps_vanishes():
    assert gdp_delta_of_epsilon(GdpParam(1.0), 50.0) == pytest.approx(0.0, abs=1e-12)


@given(
    mu=st.floats(0.01, 6.0),
    e1=st.floats(0.0, 8.0), e2=st.floats(0.0, 8.0),
)
@settings(max_examples=60)
def test_gdp_delta_monotone_in_eps(mu, e1, e2):
    lo, hi = sorted((e1, e2))
    g = GdpParam(mu)
    assert gdp_delta_of_epsilon(g, lo) >= gdp_delta_of_epsilon(g, hi) - 1e-12


@given(
    m1=st.floats(0.01, 6.0), m2=st.floats(0.01, 6.0),
    eps=st.floats(0.0, 5.0),
)
@settings(max_examples=60)
def test_gdp_delta_monotone_in_mu(m1, m2, eps):
    lo, hi = sorted((m1, m2))
    assert gdp_delta_of_epsilon(GdpParam(lo), eps) <= \
        gdp_delta_of_epsilon(GdpParam(hi), eps) + 1e-12


def test_gdp_epsilon_inversion_roundtrip():
    g = GdpParam(1.3)
    for delta in [0.1, 1e-3, 1e-5]:
        eps = gdp_epsilon_of_delta(g, delta)
        assert gdp_delta_of_epsilon(g, eps) == pytest.approx(delta, rel=1e-6)


# ---------------------------------------------------------------------------
# subsampled_gdp_mu

def test_subsampled_mu_infinite_noise_limit():
    assert subsampled_gdp_mu(1e6, 0.3, 100).mu == pytest.approx(0.0, abs=1e-3)


def test_subsampled_mu_sigma1():
    assert subsampled_gdp_mu(1.0, 1.0, 1).mu == pytest.approx(math.sqrt(math.e - 1.0), abs=1e-12)


def test_subsampled_mu_doubling_steps():
    a = subsampled_gdp_mu(2.0, 0.1, 50).mu
    b = subsampled_gdp_mu(2.0, 0.1, 100).mu
    assert b == pytest.approx(a * math.sqrt(2.0), abs=1e-12)


def test_subsampled_mu_taylor_limit():
    # at p=1 and large sigma, mu -> sqrt(T)/sigma
    sigma, steps = 50.0, 16
    mu = subsampled_gdp_mu(sigma, 1.0, steps).mu
    assert mu == pytest.approx(math.sqrt(steps) / sigma, rel=1e-3)


def test_subsampled_mu_sigma_zero_errors():
    with pytest.raises(ValueError):
        subsampled_gdp_mu(0.0, 0.5, 10)


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of a cold start; betaincinv gives the same quantiles
    code = "import sys, privaudit.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_multiprocessing_unloaded():
    # only training in more than one process imports it
    code = "import sys, privaudit.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"
