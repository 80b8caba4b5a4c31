import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacdisc.errors import (DegenerateDegreeError, DegenerateReciprocalError,
                            KacdiscError, NonFiniteCoefficientError)
from kacdisc.polynomials import (GAUSSIAN_COMPLEX, GAUSSIAN_REAL, RADEMACHER,
                                 UNIFORM_INT_CENTERED, UNIFORM_INT_RAW,
                                 CoefficientDistribution, Coefficients,
                                 circle_extremes, circle_values, evaluate,
                                 log_abs_deriv, log_abs_poly, newton_ratio,
                                 reciprocal, relative_residual, sample_kac)


def coeffs(*vals):
    return Coefficients(np.array(vals, dtype=np.float64))


# ---------------------------------------------------------------- sampling

def test_rademacher_support():
    p = sample_kac(CoefficientDistribution(RADEMACHER), 8, 42, 0)
    assert p.coeffs.size == 9
    assert set(np.unique(p.coeffs)) <= {-1.0, 1.0}


def test_sampling_deterministic():
    d = CoefficientDistribution(GAUSSIAN_REAL)
    a = sample_kac(d, 50, 123, 7)
    b = sample_kac(d, 50, 123, 7)
    assert np.array_equal(a.coeffs, b.coeffs)
    c = sample_kac(d, 50, 123, 8)
    assert not np.array_equal(a.coeffs, c.coeffs)


@pytest.mark.parametrize("kind", [RADEMACHER, GAUSSIAN_REAL, GAUSSIAN_COMPLEX,
                                  UNIFORM_INT_CENTERED])
def test_mean_zero_unit_variance(kind):
    # statistical oracle: mean within 4 stderr of 0, variance within 4 stderr of 1
    d = CoefficientDistribution(kind)
    rng = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(0,)))
    x = d.draw(rng, 10 ** 5)
    m = np.mean(x)
    v = np.mean(np.abs(x) ** 2)
    se_mean = 1.0 / math.sqrt(x.size)
    fourth = np.mean(np.abs(x) ** 4)
    se_var = math.sqrt(max(fourth - v ** 2, 0.0) / x.size) + 1e-12
    assert abs(m) <= 4 * se_mean
    assert abs(v - 1.0) <= 4 * se_var


def test_theorem_eligibility_flags():
    assert CoefficientDistribution(RADEMACHER).theorem_eligible
    assert CoefficientDistribution(GAUSSIAN_COMPLEX).theorem_eligible
    assert CoefficientDistribution(UNIFORM_INT_CENTERED, k=240).theorem_eligible
    # odd support size puts an atom at zero
    assert not CoefficientDistribution(UNIFORM_INT_CENTERED, k=3).theorem_eligible
    assert not CoefficientDistribution(UNIFORM_INT_RAW, k=240).theorem_eligible
    assert not CoefficientDistribution(UNIFORM_INT_RAW).mean_zero_unit_variance


def test_uniform_raw_support():
    d = CoefficientDistribution(UNIFORM_INT_RAW, k=6)
    rng = np.random.default_rng(0)
    x = d.draw(rng, 5000)
    assert set(np.unique(x)) <= set(float(i) for i in range(1, 7))


def test_zero_leading_coefficient_rejected():
    d = CoefficientDistribution("fixed", coeffs=(1.0, 2.0, 0.0))
    with pytest.raises(DegenerateDegreeError):
        sample_kac(d, 2, 0, 0)
    with pytest.raises(DegenerateDegreeError):
        coeffs(1.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 complex(1.0, math.nan), complex(math.inf, 0.0)])
def test_nonfinite_coefficients_rejected(bad):
    assert issubclass(NonFiniteCoefficientError, KacdiscError)
    with pytest.raises(NonFiniteCoefficientError):
        Coefficients(np.array([1.0, bad, 1.0]))
    with pytest.raises(NonFiniteCoefficientError):
        Coefficients.from_json(json.dumps({"coeffs": [1.0, 2.0, math.inf]}))


# -------------------------------------------------------------- evaluation

def test_evaluate_quadratic_by_hand():
    r = evaluate(coeffs(-1.0, 0.0, 1.0), 2.0)  # x^2 - 1 at 2
    assert r.f == 3.0 and r.fp == 4.0 and r.fpp == 2.0
    assert r.scale == 5.0


def test_evaluate_at_zero():
    r = evaluate(coeffs(3.0, 5.0, 7.0, 11.0), 0.0)
    assert r.f == 3.0 and r.fp == 5.0 and r.fpp == 14.0


def test_evaluate_matches_high_precision_reference():
    import mpmath as mp
    mp.mp.dps = 50
    rng = np.random.default_rng(5)
    c = rng.integers(0, 2, 101).astype(np.float64) * 2 - 1
    p = Coefficients(c)
    z = complex(np.exp(1j * 0.7342))
    got = evaluate(p, z)
    zm = mp.mpc(z.real, z.imag)
    ref = sum(mp.mpf(float(ck)) * zm ** k for k, ck in enumerate(c))
    ref_p = sum(k * mp.mpf(float(ck)) * zm ** (k - 1) for k, ck in enumerate(c) if k)
    assert abs(got.f - complex(ref)) <= 1e-12 * abs(complex(ref))
    assert abs(got.fp - complex(ref_p)) <= 1e-12 * abs(complex(ref_p))


def test_compensated_high_degree_accuracy():
    import mpmath as mp
    mp.mp.dps = 50
    rng = np.random.default_rng(11)
    c = rng.integers(0, 2, 4097).astype(np.float64) * 2 - 1
    p = Coefficients(c)
    z = complex(np.exp(1j * 1.234567))
    got = evaluate(p, z)
    zm = mp.mpc(z.real, z.imag)
    zp = [mp.mpc(1)]
    for _ in range(4096):
        zp.append(zp[-1] * zm)
    ref = mp.fsum((mp.mpf(float(ck)) * zk for ck, zk in zip(c, zp)),
                  absolute=False)
    assert abs(got.f - complex(ref)) <= 1e-11 * abs(complex(ref))


def test_derivative_product_rule():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(6)
    b = rng.standard_normal(5)
    pa, pb = Coefficients(a), Coefficients(b)
    pq = Coefficients(np.convolve(a, b))
    for z in (0.3 + 0.4j, -1.1 + 0.2j, 0.9j):
        ra, rb, rq = evaluate(pa, z), evaluate(pb, z), evaluate(pq, z)
        lhs = rq.fp
        rhs = ra.fp * rb.f + ra.f * rb.fp
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


def test_log_abs_helpers_match_direct_eval():
    rng = np.random.default_rng(8)
    p = Coefficients(rng.standard_normal(31))
    zs = np.array([0.5 + 0.1j, 1.7 - 0.3j, -2.5 + 1j, 0.99j])
    for z, lv, ld in zip(zs, log_abs_poly(p, zs), log_abs_deriv(p, zs)):
        r = evaluate(p, complex(z))
        assert abs(lv - math.log(abs(r.f))) < 1e-10
        assert abs(ld - math.log(abs(r.fp))) < 1e-10
        w = newton_ratio(p, np.array([z]))[0]
        assert abs(w - r.f / r.fp) < 1e-10 * abs(r.f / r.fp)
        rr = relative_residual(p, np.array([z]))[0]
        assert abs(rr - abs(r.f) / r.scale) < 1e-12


# Two-pass Horner references: one Python loop over the points inside the
# unit circle, another over the reversed polynomial at 1/z outside it.

def _ref_split(z):
    inside = np.abs(z) <= 1.0
    return inside, ~inside


def _ref_horner_value(coeffs, z):
    acc = np.full_like(z, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def _ref_newton_ratio(p, z):
    n = p.degree
    z = np.asarray(z, dtype=np.complex128)
    out = np.empty(z.shape, dtype=np.complex128)
    inside, outside = _ref_split(z)
    if inside.any():
        zi = z[inside]
        b = np.full_like(zi, p.coeffs[-1])
        d = np.zeros_like(zi)
        for c in p.coeffs[-2::-1]:
            d = d * zi + b
            b = b * zi + c
        with np.errstate(divide="ignore", invalid="ignore"):
            out[inside] = b / d
    if outside.any():
        u = 1.0 / z[outside]
        rev = p.coeffs[::-1]
        qb = np.full_like(u, rev[-1])
        qd = np.zeros_like(u)
        for c in rev[-2::-1]:
            qd = qd * u + qb
            qb = qb * u + c
        with np.errstate(divide="ignore", invalid="ignore"):
            out[outside] = qb / (u * (n * qb - u * qd))
    return out


def _ref_log_abs(coeffs, z, degree):
    out = np.empty(z.shape, dtype=np.float64)
    inside, outside = _ref_split(z)
    with np.errstate(divide="ignore"):
        if inside.any():
            out[inside] = np.log(np.abs(_ref_horner_value(coeffs, z[inside])))
        if outside.any():
            u = 1.0 / z[outside]
            out[outside] = (degree * np.log(np.abs(z[outside]))
                            + np.log(np.abs(_ref_horner_value(coeffs[::-1], u))))
    return out


def _ref_log_abs_deriv(p, z):
    dcoeffs = p.coeffs[1:] * np.arange(1, p.degree + 1)
    return _ref_log_abs(dcoeffs, z, p.degree - 1)


def _ref_relative_residual(p, z):
    out = np.empty(z.shape, dtype=np.float64)
    inside, outside = _ref_split(z)
    aco = np.abs(p.coeffs)
    if inside.any():
        zi = z[inside]
        val = _ref_horner_value(p.coeffs, zi)
        sc = _ref_horner_value(aco.astype(np.complex128),
                               np.abs(zi).astype(np.complex128))
        out[inside] = np.abs(val) / np.abs(sc)
    if outside.any():
        u = 1.0 / z[outside]
        val = _ref_horner_value(p.coeffs[::-1], u)
        sc = _ref_horner_value(aco[::-1].astype(np.complex128),
                               np.abs(u).astype(np.complex128))
        out[outside] = np.abs(val) / np.abs(sc)
    return out


@pytest.mark.parametrize("kind", [RADEMACHER, GAUSSIAN_COMPLEX])
@pytest.mark.parametrize("n", [1, 7, 128, 800])
@pytest.mark.parametrize("where", ["inside", "outside", "mixed"])
def test_stacked_horner_bit_identical_to_two_pass(kind, n, where):
    p = sample_kac(CoefficientDistribution(kind), n, 17, n)
    rng = np.random.default_rng(n)
    lo, hi = {"inside": (0.0, 1.0), "outside": (1.0 + 1e-9, 3.0),
              "mixed": (0.9, 1.1)}[where]
    z = rng.uniform(lo, hi, 301) * np.exp(2j * np.pi * rng.random(301))
    if where == "mixed":
        # exact circle points, real points and zero take the inside branch
        z[:4] = [1.0, -1.0, 1j, 0.0]
        z[4:8] = z[4:8].real
    for got, ref in ((newton_ratio(p, z), _ref_newton_ratio(p, z)),
                     (log_abs_deriv(p, z), _ref_log_abs_deriv(p, z)),
                     (log_abs_poly(p, z), _ref_log_abs(p.coeffs, z, n)),
                     (relative_residual(p, z), _ref_relative_residual(p, z))):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_kernel_handles_empty_input():
    p = coeffs(1.0, 2.0, 3.0)
    empty = np.zeros(0, dtype=np.complex128)
    for fn in (newton_ratio, log_abs_deriv, log_abs_poly, relative_residual):
        assert fn(p, empty).shape == (0,)


def test_log_abs_deriv_no_overflow_for_huge_roots():
    # leading coefficient 1e-8 pushes a root out near 1e8
    c = np.zeros(801)
    c[0] = 1.0
    c[1] = 1.0
    c[800] = 1e-8
    p = Coefficients(c)
    z = np.array([1e7 + 0j])
    val = log_abs_deriv(p, z)[0]
    assert np.isfinite(val)


# ------------------------------------------------------------- reciprocal

def test_reciprocal_reverses():
    assert np.array_equal(reciprocal(coeffs(1, 2, 3)).coeffs, [3, 2, 1])


def test_reciprocal_requires_nonzero_constant():
    with pytest.raises(DegenerateReciprocalError):
        reciprocal(coeffs(0.0, 1.0))


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=12))
def test_reciprocal_involution(vals):
    if vals[0] == 0 or vals[-1] == 0:
        vals = [v if v else 1 for v in vals]
    p = coeffs(*vals)
    q = reciprocal(reciprocal(p))
    assert np.array_equal(p.coeffs, q.coeffs)
    assert np.sum(np.abs(p.coeffs)) == np.sum(np.abs(q.coeffs))


def test_reciprocal_root():
    # 1 + 2x has root -1/2; x + 2 has root -2
    q = reciprocal(coeffs(1.0, 2.0))
    assert np.array_equal(q.coeffs, [2.0, 1.0])


# ---------------------------------------------------------------- circles

def test_circle_extremes_monomial():
    c = np.zeros(9)
    c[8] = 1.0
    mx, mn, _ = circle_extremes(Coefficients(c), 1.0, 16 * 9)
    assert abs(mx - 1.0) < 1e-12 and abs(mn - 1.0) < 1e-12


def test_circle_extremes_linear():
    mx, mn, argmin = circle_extremes(coeffs(-1.0, 1.0), 1.0, 64)
    assert mn < 1e-12 and abs(argmin) < 1e-12
    assert abs(mx - 2.0) < 1e-3


def test_circle_extremes_grid_precondition():
    with pytest.raises(ValueError):
        circle_extremes(coeffs(-1.0, 1.0), 1.0, 16)


def test_circle_values_match_direct():
    rng = np.random.default_rng(2)
    p = Coefficients(rng.standard_normal(12))
    m = 16 * 12
    vals = circle_values(p.coeffs, 1.3, m)
    for j in (0, 5, 77):
        z = 1.3 * np.exp(2j * np.pi * j / m)
        assert abs(vals[j] - evaluate(p, z).f) < 1e-10


def test_max_growth_event_frequency():
    # growth event: all three normalized derivative maxima on the circle of
    # radius 1 + 1/n stay below log n; observed in >= 99% of seeded trials
    d = CoefficientDistribution(RADEMACHER)
    n = 512
    m = 16 * (n + 1)
    hits = 0
    trials = 1000
    for t in range(trials):
        p = sample_kac(d, n, 2024, t)
        ok = True
        for ell in (0, 1, 2):
            mx, _, _ = circle_extremes(p, 1.0 + 1.0 / n, m, deriv_order=ell)
            if mx / n ** (ell + 0.5) > math.log(n):
                ok = False
                break
        hits += ok
    assert hits / trials >= 0.99


# ------------------------------------------------------------------- JSON

def test_coefficient_json_roundtrip_real():
    p = coeffs(1.5, -2.0, 3.25)
    q = Coefficients.from_json(p.to_json())
    assert np.array_equal(p.coeffs, q.coeffs)
    obj = json.loads(p.to_json())
    assert obj["degree"] == 2
    assert obj["coeffs"] == [1.5, -2.0, 3.25]


def test_coefficient_json_roundtrip_complex():
    p = Coefficients(np.array([1 + 2j, 0.5 - 1j, 2 + 0j]))
    obj = json.loads(p.to_json())
    assert obj["coeffs"][0] == [1.0, 2.0]
    q = Coefficients.from_json(p.to_json())
    assert np.array_equal(p.coeffs, q.coeffs)
