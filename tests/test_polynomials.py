import ctypes
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import numpy.polynomial.polynomial as P
import pytest

from kacdisc import polynomials
from kacdisc.errors import (DegenerateDegreeError, KacdiscError,
                            NonFiniteCoefficientError)
from kacdisc.experiments import _run_trials
from kacdisc.polynomials import (GAUSSIAN_COMPLEX, GAUSSIAN_REAL, RADEMACHER,
                                 UNIFORM_INT_CENTERED, UNIFORM_INT_RAW,
                                 CoefficientDistribution, Coefficients,
                                 _blocked_values, _giant_first_with_scale,
                                 _stack, circle_value_and_slope,
                                 circle_values, log_abs_deriv, newton_ratio,
                                 relative_residual, sample_kac)


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


@pytest.mark.parametrize("k", [0, True, "6"], ids=["zero", "bool", "string"])
def test_k_must_be_an_int_at_least_two_for_every_kind(k):
    with pytest.raises(ValueError, match="K must be an integer >= 2"):
        CoefficientDistribution(RADEMACHER, k=k)


def test_uniform_raw_support():
    d = CoefficientDistribution(UNIFORM_INT_RAW, k=6)
    rng = np.random.default_rng(0)
    x = d.draw(rng, 5000)
    assert set(np.unique(x)) <= set(float(i) for i in range(1, 7))


def test_zero_leading_coefficient_rejected():
    # K = 3 puts an atom at zero: seed 0, trial 1 draws (0, 1.22, 0)
    d = CoefficientDistribution(UNIFORM_INT_CENTERED, k=3)
    with pytest.raises(DegenerateDegreeError):
        sample_kac(d, 2, 0, 1)
    with pytest.raises(DegenerateDegreeError):
        coeffs(1.0, 0.0)
    with pytest.raises(DegenerateDegreeError):
        coeffs(1.0)


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


# real +-1 and real Gaussian coefficients take the kernel's float64
# contraction, complex Gaussian ones the complex contraction
KERNEL_KINDS = [RADEMACHER, GAUSSIAN_REAL, GAUSSIAN_COMPLEX]
# degree 1 and 2, n + 1 = 144 a perfect square and n + 1 = 145 one past
# it; n = 255 gives B = 16, so the last doubling of the power table is full
KERNEL_DEGREES = [1, 2, 7, 128, 143, 144, 255, 800]
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


# Forward-error bound of the blocked evaluation (polynomials._blocked_values)
# in the standard model of floating-point arithmetic: u = 2^-53 and
# gamma_k = k u / (1 - k u), with (1 + theta_a)(1 + theta_b) = 1 + theta_(a+b)
# (Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed., 3.1,
# 3.6).  A complex product has relative error below sqrt(2) gamma_2 <
# gamma_3 and a complex sum below u.  A real coefficient times a complex
# power (the float64 contraction) rounds each part once, so it is
# within u < gamma_3 and the bound below holds for it unchanged; its block
# sums run over each part in float64, within the same gamma_(B-1) in any
# summation order.  With B = ceil(sqrt(n + 1)) the term
# a_i w^i, i = kB + j, passes through
#   the power table entry w^j, j - 1 products in a     gamma_(3j)
#   doubling tree (w^j = w^(j-s) w^s, w^s = w^(s-1) w)
#   the product with a_i                               gamma_3
#   the sum of the B terms of its block                gamma_(B-1)
#   (w^B)^k, with w^B made by B - 1 products           gamma_(3(B-1)k)
#   k Horner products and at most k + 1 sums           gamma_(4k+1)
# so |computed - exact| <= sum_i gamma_(3i + k + B + 3) |a_i| |w|^i.
# The derivative coefficients (i+1) a_(i+1) are rounded once more: +1.
# That holds for real coefficients only.  The complex contraction is a
# zgemm, and numpy's bundled OpenBLAS (SkylakeX kernel) does not form its
# complex products whole: on products of 2 to 58 rows it equals, bit for
# bit, four real FMA chains sum_j Re a Re w^j, sum_j Im a Im w^j,
# sum_j Re a Im w^j and sum_j Im a Re w^j in j order, combined once as
# (first - second) + i (third + fourth); a one-row product goes to zgemv
# and matched neither this nor whole products.  Each part of a block
# value is then within gamma_(B+1) of sum_j (|Re a||Re w^j| +
# |Im a||Im w^j|), or of the same sum with the parts of w^j swapped, in
# any order of the chains; both sums
# are at most sum_j |a| |w^j| and the two parts add in norm, so the
# product and block sum take sqrt(2) gamma_(B+1) <= gamma_(ceil(sqrt(2)
# (B + 1))) a term, not gamma_3 + gamma_(B-1).  Only a term with j = 0,
# whose w^0 = 1 is real, keeps gamma_(B+1).  For complex coefficients the
# index that holds is thus 3i + k + ceil(sqrt(2)(B + 1)) + 1 for j >= 1,
# above the asserted 3i + k + B + 3 once B >= 2.  The slack of
# sqrt(2) gamma_2 < gamma_3 in the other complex products makes up the
# difference only while B <= 8 (n < 64); for larger B the asserted
# complex bound is not fully derived, though the errors observed here stay
# below 0.3 of it.
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
    w, h, pos = _stack(z)
    f, fp = _blocked_values(c, w, h, True)
    # the evaluated columns, inside points first, each half in z's order
    cols, inside = np.sort(pos), pos < h
    w, f, fp = w[cols], f[cols], fp[cols]
    mi = int(np.count_nonzero(inside))

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


@pytest.mark.parametrize("nb", [12, 16, 41])
def test_power_table_within_doubling_bound(nb):
    # on the monomial e_j, j < B, every other term of the contraction and
    # of Horner in w^B is an exact zero, so the kernel returns its power
    # table entry w^j, whose j - 1 products bound it by gamma_(3(j-1))
    n = nb * nb - 1
    z = _kernel_points(n, "inside", 61)
    w, h, pos = _stack(z)
    with mpmath.workdps(50):
        xs = [mpmath.mpc(x.real, x.imag) for x in z]
        for j in range(nb):
            e = np.zeros(n + 1)
            e[j] = 1.0
            got = _blocked_values(e, w, h, False)[0][pos]
            g = _gamma(3 * max(j - 1, 0))
            for t, x in enumerate(xs):
                ref = x ** j
                assert abs(mpmath.mpc(got[t].real, got[t].imag) - ref) <= (
                    g * float(abs(ref))), (j, t)


# Forward-error bound of the residual certificate
# (polynomials._giant_first_with_scale), in the standard model derived for
# the kernel above.  With B = ceil(sqrt(n + 1)) and nk = ceil((n + 1) / B)
# the term a_i w^i, i = kB + j, passes through
#   the giant step W = w^B, B - 1 products             gamma_(3(B-1))
#   the table entry W^k, k - 1 more products           gamma_(3(B-1)k + 3(k-1))
#   the product with a_i (exact for k = 0)             gamma_3
#   the sum of the nk terms of its column              gamma_(nk-1)
#   j Horner products by w and at most j + 1 sums      gamma_(4j+1)
# so |computed - exact| <= sum_i gamma_(3i + j + nk) |a_i| |w|^i.  The
# scale sum_i |a_i| |w|^i takes the same steps in float64, where a product
# or a sum rounds once:
#   |w| (one ulp), raised to the power i               gamma_i
#   |W| and its power |W|^k                            gamma_((B-1)k + k - 1)
#   |a_i| (one ulp for complex a_i) and the product    gamma_2
#   the column sum and Horner in |w|                   gamma_(nk-1 + 2j+1)
# so it is within sum_i gamma_(2i + j + nk + 1) |a_i| |w|^i.  Outside the
# circle both are taken at w = fl(1/z): +6i, as for the kernel.
# The value's contraction holds as derived for real coefficients (one
# float64 GEMM on the table's float64 view; the scale is one float64 GEMM
# too).  For complex coefficients it is a zgemm, which sums the four real
# products in separate FMA chains over k and combines them once (see the
# kernel's derivation above).  A term with k >= 1 then takes
# sqrt(2) gamma_(nk+1) <= gamma_(ceil(sqrt(2)(nk + 1))) for its product and
# column sum, and a term with k = 0 (W^0 = 1, the product exact) takes
# gamma_nk, one rounding more than above for the final combination.  The
# index that holds is thus 3i + j + ceil(sqrt(2)(nk + 1)) - 2 for k >= 1
# and 3i + j + nk + 1 for k = 0, above the asserted 3i + j + nk once
# nk >= 2: for complex coefficients the asserted bound is not fully
# derived, though the errors observed here stay below 0.3 of it.
def _certificate_bound(a, absw, nb, nk, scale, outside):
    """sum_i gamma_(k_i) |a_i| |w|^i per point, k_i as derived above."""
    i = np.arange(a.size)
    k = ((2 * i + 1 if scale else 3 * i) + i % nb + nk
         + (6 * i if outside else 0))
    return (np.abs(a) * _gamma(k) * absw[:, None] ** i).sum(axis=1)


@pytest.mark.parametrize("kind", KERNEL_KINDS)
@pytest.mark.parametrize("n", KERNEL_DEGREES)
@pytest.mark.parametrize("where", KERNEL_WHERES)
def test_stacked_horner_bit_identical_to_two_pass(kind, n, where):
    """The residual certificate's values and scales against a 50-digit
    mpmath reference, within the bounds derived above."""
    p = sample_kac(CoefficientDistribution(kind), n, 17, n)
    c = p.coeffs
    # 21 points a case keep the 50-digit reference to a few seconds
    z = _kernel_points(n, where, 21)
    w, h, pos = _stack(z)
    f, s = _giant_first_with_scale(c, w, h)
    # the evaluated columns, inside points first, each half in z's order
    cols, inside = np.sort(pos), pos < h
    w, f, s = w[cols], f[cols], s[cols]
    mi = int(np.count_nonzero(inside))
    res = relative_residual(p, z)
    stacked = np.concatenate([res[inside], res[~inside]])
    assert stacked.tobytes() == (np.abs(f) / s).tobytes()
    nb = _ceil_sqrt(n + 1)
    nk = -(-(n + 1) // nb)
    absw = np.abs(w)
    e_f, e_s = np.empty(w.size), np.empty(w.size)
    for sl, outside, a in ((slice(0, mi), False, c),
                           (slice(mi, None), True, c[::-1])):
        e_f[sl] = _certificate_bound(a, absw[sl], nb, nk, False, outside)
        e_s[sl] = _certificate_bound(a, absw[sl], nb, nk, True, outside)
    zs = np.concatenate([z[inside], z[~inside]])
    with mpmath.workdps(50):
        # leading coefficient first: cm is q(u) = u^n p(1/u), its reverse p
        cm = [mpmath.mpmathify(complex(x)) for x in c]
        am = [abs(x) for x in cm]
        for t in range(w.size):
            x = mpmath.mpc(zs[t].real, zs[t].imag)
            outside = t >= mi
            wx = 1 / x if outside else x
            F = mpmath.polyval(cm if outside else cm[::-1], wx)
            S = mpmath.polyval(am if outside else am[::-1], abs(wx))
            # differences taken in mpmath, so they add no rounding
            assert abs(mpmath.mpc(f[t].real, f[t].imag) - F) <= e_f[t]
            assert abs(s[t] - S) <= e_s[t]


@pytest.mark.parametrize("kind", KERNEL_KINDS)
@pytest.mark.parametrize("where", KERNEL_WHERES)
def test_certificate_shares_nothing_with_kernel(monkeypatch, kind, where):
    # with the solver's kernel made to raise, the certificate still gives
    # the same bytes, so it cannot share the kernel's errors
    p = sample_kac(CoefficientDistribution(kind), 143, 17, 143)
    z = _kernel_points(143, where, 301)
    before = relative_residual(p, z)

    def broken(*args, **kwargs):
        raise AssertionError("the certificate reached the solver's kernel")

    monkeypatch.setattr(polynomials, "_blocked_values", broken)
    with pytest.raises(AssertionError):
        newton_ratio(p, z)
    assert relative_residual(p, z).tobytes() == before.tobytes()


def test_relative_residual_reads_overflow_as_inf():
    # sum |c_k| |z|^k overflows for coefficients 1e308: the residual is
    # inf, never the 0 that |f| / inf would give.  The point is where an
    # unscaled solve stalls; the roots are exp(+-2 pi i / 3)
    p = coeffs(1e308, 1e308, 1e308)
    res = relative_residual(p, np.array([0.19139214817707312
                                         + 0.8846229163714849j]))
    assert res[0] > 1e-12 and np.isinf(res[0])


@pytest.mark.parametrize("kind", KERNEL_KINDS)
@pytest.mark.parametrize("n", [7, 128, 143, 255, 800])
def test_newton_ratio_independent_of_call_length(kind, n):
    # a point's ratio, log|p'|, residual, and value and slope on the
    # circle do not depend on the other points of its call, so trials can
    # later share one call without changing their records
    p = sample_kac(CoefficientDistribution(kind), n, 17, n)
    for where in KERNEL_WHERES:
        z = _kernel_points(n, where, 300)
        for fn in (newton_ratio, log_abs_deriv, relative_residual):
            together = fn(p, z)
            alone = np.concatenate([fn(p, z[t:t + 1])
                                    for t in range(z.size)])
            assert alone.tobytes() == together.tobytes(), (where, fn)
            # a result has the shape of z and the flat call's bytes
            grid = fn(p, z.reshape(20, 15))
            assert grid.shape == (20, 15), (where, fn)
            assert grid.tobytes() == together.tobytes(), (where, fn)
    z = _kernel_points(n, "mixed", 300)
    thetas = np.angle(z)
    together = circle_value_and_slope(p.coeffs, thetas)
    alone = [circle_value_and_slope(p.coeffs, thetas[t:t + 1])
             for t in range(z.size)]
    for i in (0, 1):
        assert (np.concatenate([a[i] for a in alone]).tobytes()
                == together[i].tobytes())


BUNDLED_OPENBLAS = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                          .glob("libscipy_openblas64_*.so"))


def _blas_threads(_):
    lib = ctypes.CDLL(str(BUNDLED_OPENBLAS[0]))
    return lib.scipy_openblas_get_num_threads64_()


@pytest.mark.skipif(not BUNDLED_OPENBLAS,
                    reason="numpy carries no bundled OpenBLAS")
def test_bundled_openblas_runs_one_thread_here_and_in_pool_workers():
    # importing kacdisc pins the kernel's BLAS to one thread, and the
    # forked pool workers inherit the pin
    assert _blas_threads(None) == 1
    assert _run_trials(_blas_threads, [0, 1], 2) == [1, 1]


def test_kernel_handles_empty_input():
    p = coeffs(1.0, 2.0, 3.0)
    empty = np.zeros(0, dtype=np.complex128)
    for fn in (newton_ratio, log_abs_deriv, relative_residual):
        assert fn(p, empty).shape == (0,)
    F, J = circle_value_and_slope(p.coeffs, np.zeros(0))
    assert F.shape == J.shape == (0,)


def test_newton_ratio_keeps_a_0d_point_0d():
    p = coeffs(1.0, 2.0, 3.0)
    for z in (0.5 + 0.25j, 2.0 - 1.0j):
        ratio = newton_ratio(p, np.asarray(z))
        assert isinstance(ratio, np.ndarray) and ratio.shape == ()
        assert ratio == newton_ratio(p, np.array([z]))[0]


def test_padded_columns_divide_inside_errstate():
    # with c0 = c1 = 0 the zero-padded columns of both halves divide by
    # zero (0/0 inside, c_n/0 outside); the warnings filter turns any such
    # RuntimeWarning that leaks out of np.errstate into a failure
    p = coeffs(0.0, 0.0, 1.0, 1.0)
    z = np.array([0.5 + 0.25j, 1.5 - 0.75j])
    f, fp = z ** 3 + z ** 2, 3 * z ** 2 + 2 * z
    scale = np.abs(z) ** 3 + np.abs(z) ** 2
    assert np.allclose(newton_ratio(p, z), f / fp, rtol=1e-14, atol=0)
    assert np.allclose(log_abs_deriv(p, z), np.log(np.abs(fp)),
                       rtol=1e-14, atol=0)
    assert np.allclose(relative_residual(p, z), np.abs(f) / scale,
                       rtol=1e-14, atol=0)
    thetas = np.array([0.25, 2.0])
    F, _ = circle_value_and_slope(p.coeffs, thetas)
    assert np.allclose(np.abs(F), np.abs(np.exp(3j * thetas)
                                         + np.exp(2j * thetas)),
                       rtol=1e-14, atol=0)


def test_newton_ratio_overflows_to_inf_without_warning():
    # p'(0.49) = 1024 * 0.49^1023 is subnormal for z^1024 - 1, so
    # p / p' overflows; the solver reads the infinite ratio, and the
    # warnings filter turns a leaked overflow warning into a failure
    c = np.zeros(1025)
    c[0], c[-1] = -1.0, 1.0
    ratio = newton_ratio(Coefficients(c), np.array([0.49 + 0.0j]))
    assert np.isinf(ratio[0])


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


# ---------------------------------------------------------------- circles

def test_circle_values_match_direct():
    rng = np.random.default_rng(2)
    c = rng.standard_normal(12)
    m = 16 * 12
    vals = circle_values(c * 1.3 ** np.arange(c.size), m)
    for j in (0, 5, 77):
        z = 1.3 * np.exp(2j * np.pi * j / m)
        assert abs(vals[j] - P.polyval(z, c)) < 1e-10


@pytest.mark.parametrize("kind,n,m", [
    (RADEMACHER, 1024, 16 * 1025),     # even, the minmod grid
    (GAUSSIAN_REAL, 1600, 25725),      # odd 11-smooth, 3 5^2 7^3
    (UNIFORM_INT_RAW, 1600, 16 * 1601),  # prime factor 1601
])
def test_circle_values_real_path_matches_complex_fft(kind, n, m):
    # Higham (2002), section 24.1: a computed length-M FFT of x has 2-norm
    # error at most about log2(M) * eta * ||y||_2 with eta ~ mu + gamma_4
    # (sqrt 2 + mu) < 8u for accurate weights; two transforms are compared,
    # and ||y||_2 = sqrt(M) ||c||_2 (Parseval)
    c = sample_kac(CoefficientDistribution(kind), n, 30, 0).coeffs
    assert c.dtype == np.float64
    vals = circle_values(c, m)
    ref = np.fft.ifft(c.astype(np.complex128), m) * m
    eps = np.finfo(np.float64).eps / 2
    bound = 2 * math.log2(m) * 8 * eps * math.sqrt(m) * np.linalg.norm(c)
    assert vals.shape == (m,)
    assert np.linalg.norm(vals - ref) <= bound
    # f(conj z) = conj f(z) holds exactly on the grid
    assert np.array_equal(vals[1:], np.conj(vals[:0:-1]))
    assert vals[0].imag == 0


def test_circle_values_complex_path_is_the_inverse_fft():
    c = sample_kac(CoefficientDistribution(GAUSSIAN_COMPLEX), 300, 30, 0).coeffs
    m = 16 * 301
    assert (circle_values(c, m).tobytes()
            == (np.fft.ifft(c, m) * m).tobytes())


@pytest.mark.parametrize("c", [np.ones(9), np.ones(9, dtype=np.complex128)])
def test_circle_values_rejects_a_grid_below_the_coefficient_count(c):
    # a shorter FFT would drop c_k for k >= M instead of aliasing it
    with pytest.raises(ValueError, match="8-point circle grid"):
        circle_values(c, 8)
    assert np.allclose(circle_values(c, 9)[1:], 0.0, atol=1e-14)


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
            r = (1.0 + 1.0 / n) ** np.arange(c.size)
            mx = np.abs(circle_values(c * r, m)).max()
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
