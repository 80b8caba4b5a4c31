import json
import math

import mpmath
import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kacdisc.errors import (DegenerateDegreeError, DegenerateReciprocalError,
                            KacdiscError, NonFiniteCoefficientError)
from kacdisc.polynomials import (GAUSSIAN_COMPLEX, GAUSSIAN_REAL, RADEMACHER,
                                 UNIFORM_INT_CENTERED, UNIFORM_INT_RAW,
                                 CoefficientDistribution, Coefficients,
                                 _stacked_horner, circle_values,
                                 log_abs_deriv, newton_ratio,
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

def test_log_abs_helpers_match_direct_eval():
    rng = np.random.default_rng(8)
    c = rng.standard_normal(31)
    p = Coefficients(c)
    zs = np.array([0.5 + 0.1j, 1.7 - 0.3j, -2.5 + 1j, 0.99j])
    for z, ld in zip(zs, log_abs_deriv(p, zs)):
        f = P.polyval(z, c)
        fp = P.polyval(z, P.polyder(c))
        scale = P.polyval(abs(z), np.abs(c))
        assert abs(ld - math.log(abs(fp))) < 1e-10
        w = newton_ratio(p, np.array([z]))[0]
        assert abs(w - f / fp) < 1e-10 * abs(f / fp)
        rr = relative_residual(p, np.array([z]))[0]
        assert abs(rr - abs(f) / scale) < 1e-12


# Two-pass Horner reference for the residual certificate: one Python loop
# over the points inside the unit circle, another over the reversed
# polynomial at 1/z outside it.

def _ref_split(z):
    inside = np.abs(z) <= 1.0
    return inside, ~inside


def _ref_horner_value(coeffs, z):
    acc = np.full_like(z, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


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


KERNEL_KINDS = [RADEMACHER, GAUSSIAN_COMPLEX]
# degree 1 and 2, n + 1 = 144 a perfect square and n + 1 = 145 one past it
KERNEL_DEGREES = [1, 2, 7, 128, 143, 144, 800]
KERNEL_WHERES = ["inside", "outside", "mixed", "circle"]


def _kernel_points(n, where, m):
    rng = np.random.default_rng(n)
    if where == "circle":
        # |e^(i theta)| rounds to either side of 1, so both halves of the
        # kernel's split see points on the circle
        z = np.exp(2j * np.pi * rng.random(m))
        z[:4] = [1.0, -1.0, 1j, -1j]
        return z
    lo, hi = {"inside": (0.0, 1.0), "outside": (1.0 + 1e-9, 3.0),
              "mixed": (0.9, 1.1)}[where]
    z = rng.uniform(lo, hi, m) * np.exp(2j * np.pi * rng.random(m))
    if where == "inside":
        z[0] = 0.0
    if where == "mixed":
        # exact circle points, real points and zero take the inside branch
        z[:4] = [1.0, -1.0, 1j, 0.0]
        z[4:8] = z[4:8].real
    return z


@pytest.mark.parametrize("kind", KERNEL_KINDS)
@pytest.mark.parametrize("n", KERNEL_DEGREES)
@pytest.mark.parametrize("where", KERNEL_WHERES)
def test_stacked_horner_bit_identical_to_two_pass(kind, n, where):
    # the residual certificate keeps the plain Horner loop
    p = sample_kac(CoefficientDistribution(kind), n, 17, n)
    z = _kernel_points(n, where, 301)
    got, ref = relative_residual(p, z), _ref_relative_residual(p, z)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


# Forward-error bound of the blocked evaluation (polynomials._blocked_values)
# in the standard model of floating-point arithmetic: u = 2^-53 and
# gamma_k = k u / (1 - k u), with (1 + theta_a)(1 + theta_b) = 1 + theta_(a+b)
# (Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed., 3.1,
# 3.6).  A complex product has relative error below sqrt(2) gamma_2 <
# gamma_3 and a complex sum below u.  With B = ceil(sqrt(n + 1)) the term
# a_i w^i, i = kB + j, passes through
#   the power table entry w^j, j - 1 products by w     gamma_(3j)
#   the product with a_i                               gamma_3
#   the sum of the B terms of its block                gamma_(B-1)
#   (w^B)^k, with w^B made by B - 1 products           gamma_(3(B-1)k)
#   k Horner products and at most k + 1 sums           gamma_(4k+1)
# so |computed - exact| <= sum_i gamma_(3i + k + B + 3) |a_i| |w|^i.
# The derivative coefficients (i+1) a_(i+1) are rounded once more: +1.
# Outside the circle the kernel evaluates at w = fl(1/z) = (1 + d)/z.
# numpy divides by Smith's formula; for 1/z that is a quotient, a product,
# a sum of like signs and a reciprocal for the real part and one more
# quotient and product for the imaginary part, so |d| <= gamma_6, and
# a_i w^i moves by the factor (1 + d)^i: +6i.  The bound is first order:
# it takes |w| from the computed point.
_U = 2.0 ** -53


def _gamma(k):
    return k * _U / (1.0 - k * _U)


def _blocked_bound(a, absw, nb, extra, outside):
    """sum_i gamma_(k_i) |a_i| |w|^i per point, k_i as derived above."""
    i = np.arange(a.size)
    k = 3 * i + i // nb + nb + 3 + extra + (6 * i if outside else 0)
    return (np.abs(a) * _gamma(k) * absw[:, None] ** i).sum(axis=1)


def _ceil_sqrt(m):
    r = math.isqrt(m)
    return r if r * r == m else r + 1


# A complex quotient x / y by Smith's formula: each component is within
# gamma_8 (|Re x| + |Im x|) / |y| of exact, so the quotient is within
# 2 gamma_8 <= gamma_16 relative.  With |x^ - x| <= ex and |y^ - y| <= ey < |y|:
#   |x^/y^ (1 + delta) - x/y| <= (|x| gamma_16 + ex (1 + gamma_16)
#                                 + |x| ey / |y|) / (|y| - ey).
def _quotient_bound(ax, ex, ay, ey):
    g = _gamma(16)
    return (ax * g + ex * (1.0 + g) + ax * ey / ay) / (ay - ey)


# log|x^| for |x^ - x| <= e: within -log(1 - e/|x|) of log|x| when e < |x|.
# Rounding of |.| (hypot, one ulp), of the logs, of deg * log|z| and of the
# final sum adds at most 3u (1 + deg + |log|x|| + deg |log|z||).
def _check_log(got, ref_frame, err, deg, logz):
    ax = abs(ref_frame)
    slack = 3 * _U * (1 + deg + abs(mpmath.log(ax) if ax else 0)
                      + deg * abs(logz))
    if err < ax:
        ref = float(deg * logz + mpmath.log(ax))
        assert abs(got - ref) <= -math.log1p(-err / ax) + slack, (got, ref)
    else:
        # the exact value may be zero: only the upper side is bounded
        assert got <= float(deg * logz + mpmath.log(ax + err)) + slack


@pytest.mark.parametrize("kind", KERNEL_KINDS)
@pytest.mark.parametrize("n", KERNEL_DEGREES)
@pytest.mark.parametrize("where", KERNEL_WHERES)
def test_blocked_kernel_within_forward_error_bound(kind, n, where):
    """Kernel values, newton_ratio and log_abs_deriv against
    a 50-digit mpmath reference, within the bounds derived above."""
    p = sample_kac(CoefficientDistribution(kind), n, 17, n)
    c = p.coeffs
    z = _kernel_points(n, where, 61)
    inside, mi, w, f, fp, _ = _stacked_horner(c, z, deriv=True)

    def stacked(x):
        return np.concatenate([x[inside], x[~inside]])

    zs, ratio = stacked(z), stacked(newton_ratio(p, z))
    lderiv = stacked(log_abs_deriv(p, z))
    mult = np.arange(1, n + 1)
    dc = c[1:] * mult
    nb, nbd = _ceil_sqrt(n + 1), _ceil_sqrt(n)
    absw = np.abs(w)
    e_f, e_fp, e_d = (np.empty(w.size) for _ in range(3))
    for sl, outside, a, ad, dd in ((slice(0, mi), False, c, dc, dc),
                                   (slice(mi, None), True, c[::-1],
                                    c[-2::-1] * mult, dc[::-1])):
        e_f[sl] = _blocked_bound(a, absw[sl], nb, 0, outside)
        e_fp[sl] = _blocked_bound(ad, absw[sl], nb, 1, outside)
        # log_abs_deriv runs the kernel on the derivative coefficients
        e_d[sl] = _blocked_bound(dd, absw[sl], nbd, 1, outside)
    # c0..cn; mpmath.polyval takes the leading coefficient first, so this
    # list is q(u) = u^n p(1/u) and its reverse is p
    cm = [mpmath.mpmathify(complex(x)) for x in c]
    with mpmath.workdps(50):
        for t in range(w.size):
            x = mpmath.mpc(zs[t].real, zs[t].imag)
            outside = t >= mi
            wx = 1 / x if outside else x
            # p and p' inside; q(u) and q'(u) at u = 1/z outside
            F, Fp = mpmath.polyval(cm if outside else cm[::-1], wx,
                                   derivative=True)
            assert abs(f[t] - complex(F)) <= e_f[t]
            assert abs(fp[t] - complex(Fp)) <= e_fp[t]
            logz = mpmath.log(abs(x)) if outside else 0
            if not outside:
                _check_log(lderiv[t], Fp, e_d[t], 0, 0)
                ax, ex, ay, ey = abs(F), e_f[t], abs(Fp), e_fp[t]
                ref_ratio = F / Fp if Fp else None
            else:
                # D = n q - u q' = u^(n-1) p'(z), formed from q^, q'^ and
                # w = fl(1/z): u for n q, gamma_6 (from w) + gamma_3 for
                # u q', and u for the difference
                D = n * F - wx * Fp
                _check_log(lderiv[t], D, e_d[t], n - 1, logz)
                au = abs(wx)
                e_D = (n * e_f[t] + au * e_fp[t] + _gamma(9) * au * abs(Fp)
                       + _U * n * abs(F) + _U * abs(D))
                # the product u D: gamma_6 from w and gamma_3
                ax, ex = abs(F), e_f[t]
                ay, ey = au * abs(D), au * e_D + _gamma(9) * au * abs(D)
                ref_ratio = F / (wx * D) if D else None
            if ref_ratio is not None and ey < 0.5 * ay:
                bound = _quotient_bound(float(ax), ex, float(ay), ey)
                assert abs(ratio[t] - complex(ref_ratio)) <= bound


def test_kernel_handles_empty_input():
    p = coeffs(1.0, 2.0, 3.0)
    empty = np.zeros(0, dtype=np.complex128)
    for fn in (newton_ratio, log_abs_deriv, relative_residual):
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

def test_circle_values_match_direct():
    rng = np.random.default_rng(2)
    c = rng.standard_normal(12)
    m = 16 * 12
    vals = circle_values(c, 1.3, m)
    for j in (0, 5, 77):
        z = 1.3 * np.exp(2j * np.pi * j / m)
        assert abs(vals[j] - P.polyval(z, c)) < 1e-10


def test_max_growth_event_frequency():
    # growth event: all three normalized derivative maxima on the circle of
    # radius 1 + 1/n stay below log n; observed in >= 99% of seeded trials
    d = CoefficientDistribution(RADEMACHER)
    n = 512
    m = 16 * (n + 1)
    hits = 0
    trials = 1000
    for t in range(trials):
        c = sample_kac(d, n, 2024, t).coeffs
        ok = True
        for ell in (0, 1, 2):
            if ell:
                c = c[1:] * np.arange(1, c.size)  # next derivative
            mx = np.abs(circle_values(c, 1.0 + 1.0 / n, m)).max()
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
