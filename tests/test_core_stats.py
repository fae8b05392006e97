import json
import math
import subprocess
import sys

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from privaudit.core_stats import (
    UNBOUNDED,
    ConfusionCounts,
    DegenerateCountsError,
    ErrorRates,
    GdpParam,
    NoValidGuaranteeError,
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
# Clopper-Pearson limits against a 50-digit oracle and against scipy

def mp_beta_cdf(x, a, b):
    """P(Beta(a, b) <= x) at 50 digits, for integers a, b >= 1.

    mpmath.betainc sums an alternating series that needs thousands of digits
    once a or b reaches 10^4, so this sums DLMF 8.17.8's series of positive
    terms, I_x(a, b) = x^a (1-x)^b / (a B(a, b)) 2F1(a + b, 1; a + 1; x), at
    whichever of x and 1 - x is at most 1/2, where it converges geometrically.
    A tail of 1e-6 taken as 1 minus the other keeps 44 of the 50 digits.
    """
    with mpmath.workdps(50):
        x = mpmath.mpf(x)

        def lower(y, p, q):
            return (y**p * (1 - y)**q / (p * mpmath.beta(p, q))
                    * mpmath.hyp2f1(p + q, 1, p + 1, y, maxterms=10**6))

        return lower(x, a, b) if x <= 0.5 else 1 - lower(1 - x, b, a)


def mp_binom_cdf(s, n, u):
    """P(Bin(n, u) <= s) at 50 digits, for 0 <= s < n."""
    with mpmath.workdps(50):
        return mp_beta_cdf(1 - mpmath.mpf(u), n - s, s + 1)


def mp_binom_sf(s, n, u):
    """P(Bin(n, u) >= s) at 50 digits, for 0 < s <= n."""
    return mp_beta_cdf(u, s, n - s + 1)


@pytest.mark.parametrize("x, a, b", [
    (0.3, 1, 1), (0.05, 3, 40), (0.9, 40, 3), (0.5, 20, 21), (0.01, 1, 200), (0.999, 60, 2),
])
def test_mp_beta_cdf_matches_mpmath_betainc(x, a, b):
    with mpmath.workdps(50):
        ref = mpmath.betainc(a, b, 0, x, regularized=True)
        assert abs(mp_beta_cdf(x, a, b) - ref) <= ref * mpmath.mpf(10) ** -40


budgets = st.floats(-6.0, math.log10(0.4)).map(lambda e: 10.0 ** e)


@given(data=st.data(), n=st.integers(1, 20_000), budget=budgets)
@settings(max_examples=200, deadline=None)
def test_cp_limits_lie_on_the_conservative_side(data, n, budget):
    # the returned limits keep each tail within its budget exactly, so alpha+
    # and beta+ never fall below the exact values and eps_lower never rises
    s = data.draw(st.integers(0, n), label="s")
    ci = clopper_pearson(s, n, 1.0 - 2.0 * budget)
    half = (1.0 - ci.confidence) / 2.0
    if s < n:
        assert mp_binom_cdf(s, n, ci.hi) <= half
    if s > 0:
        assert mp_binom_sf(s, n, ci.lo) <= half


@pytest.mark.parametrize("n", [1, 7, 100, 20_000])
@pytest.mark.parametrize("budget", [1e-6, 0.025, 0.4])
def test_cp_limits_closed_forms_at_the_extremes(n, budget):
    # u+(0, n) = 1 - budget^(1/n) and u-(n, n) = budget^(1/n)
    with mpmath.workdps(50):
        root = mpmath.mpf(budget) ** (mpmath.mpf(1) / n)
        hi = clopper_pearson_upper(0, n, budget)
        assert hi >= 1 - root
        assert hi == pytest.approx(float(1 - root), rel=1e-9)
        ci = clopper_pearson(n, n, 1.0 - 2.0 * budget)
        root = mpmath.mpf((1.0 - ci.confidence) / 2.0) ** (mpmath.mpf(1) / n)
        assert ci.lo <= root
        assert ci.lo == pytest.approx(float(root), rel=1e-9)


@given(data=st.data(), n=st.integers(1, 20_000), budget=budgets)
@settings(max_examples=200, deadline=None)
def test_cp_limits_agree_with_scipy_betaincinv(data, n, budget):
    betaincinv = pytest.importorskip("scipy.special").betaincinv
    s = data.draw(st.integers(0, n), label="s")
    if s < n:
        assert clopper_pearson_upper(s, n, budget) == pytest.approx(
            betaincinv(s + 1, n - s, 1.0 - budget), rel=1e-9)
    if s > 0:
        ci = clopper_pearson(s, n, 1.0 - 2.0 * budget)
        half = (1.0 - ci.confidence) / 2.0
        assert ci.lo == pytest.approx(betaincinv(s, n - s + 1, half), rel=1e-9)


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
    with pytest.raises(NoValidGuaranteeError, match=r"without noise \(noise_multiplier=0.0\)"):
        subsampled_gdp_mu(0.0, 0.5, 10)


@pytest.mark.parametrize("sigma, mu", [
    (1e-200, math.inf),  # 1/sigma^2 divides by an underflowed 0
    (0.03, math.inf),    # e^(1/sigma^2) overflows
    (1e200, 0.0),        # sigma^2 overflows
])
def test_subsampled_mu_past_the_float_range(sigma, mu):
    assert subsampled_gdp_mu(sigma, 0.5, 10).mu == mu


def test_subsampled_claim_unbounded_at_tiny_noise():
    for sigma in (0.03, 0.04):
        assert gdp_epsilon_of_delta(subsampled_gdp_mu(sigma, 0.2, 3), 1e-3) == UNBOUNDED


def test_subsampled_claim_vanishes_with_large_noise():
    eps = gdp_epsilon_of_delta(subsampled_gdp_mu(1e4, 0.5, 5), 1e-3)
    assert eps == pytest.approx(0.0, abs=1e-6)


def test_subsampled_claim_matches_bisection_oracle():
    eps = gdp_epsilon_of_delta(subsampled_gdp_mu(1.0, 1.0, 1), 0.1)
    mu = GdpParam(math.sqrt(math.e - 1.0))
    # independent bisection against the delta curve
    lo, hi = 0.0, 20.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if gdp_delta_of_epsilon(mu, mid) > 0.1:
            lo = mid
        else:
            hi = mid
    assert eps == pytest.approx(hi, abs=1e-8)


def test_subsampled_claim_monotonic():
    def eps(sigma, steps):
        return gdp_epsilon_of_delta(subsampled_gdp_mu(sigma, 0.1, steps), 1e-5)
    assert eps(2.0, 100) < eps(1.0, 100) < eps(1.0, 200)


CLI_RUNS_WITHOUT_SCIPY = """
import json, sys
from pathlib import Path
import numpy as np
import privaudit.cli
from privaudit.data import CategoricalColumn, Dataset, NumericColumn, Schema

def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

after_import = scipy_modules()
ws = Path(sys.argv[1])
schema = Schema((NumericColumn("x", 0.0, 1.0), CategoricalColumn("y", ("a", "b"))))
u = np.random.default_rng(0).uniform(size=40)
Dataset.from_rows(schema, [(float(v), int(v > 0.5)) for v in u]).to_csv(ws / "data.csv")
(ws / "schema.json").write_text(json.dumps(schema.to_json_dict()))
cfg = {"schema_version": 1, "schema": str(ws / "schema.json"), "dataset": str(ws / "data.csv"),
       "out": str(ws / "results"),
       "trainer": {"kind": "predictive", "label_column": "y",
                   "dpsgd": {"clip_norm": 1.0, "noise_multiplier": 1.0, "sample_rate": 0.2,
                             "steps": 3, "learning_rate": 0.5}},
       "attack": {"attacks": ["loss_threshold"], "t_runs": 8},
       "audit": {"mode": "step_mechanism", "trials": 200}}
(ws / "config.json").write_text(json.dumps(cfg))
codes = [privaudit.cli.main([c, "--config", str(ws / "config.json")])
         for c in ("attack", "audit")]
print(json.dumps({"after_import": after_import, "codes": codes,
                  "after_runs": scipy_modules()}))
"""


def test_cli_import_and_runs_load_no_scipy(tmp_path):
    # scipy is a test oracle only: importing scipy.special was half of a cold
    # start. A lazy import inside a run would pass an import-only check.
    out = subprocess.run([sys.executable, "-c", CLI_RUNS_WITHOUT_SCIPY, str(tmp_path)],
                         capture_output=True, text=True, check=True, timeout=120)
    got = json.loads(out.stdout.splitlines()[-1])
    assert got["codes"][0] == 0 and got["codes"][1] in (0, 1, 2)
    assert got["after_import"] == [] and got["after_runs"] == []


def test_cli_import_leaves_multiprocessing_unloaded():
    # only training in more than one process imports it
    code = "import sys, privaudit.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"
