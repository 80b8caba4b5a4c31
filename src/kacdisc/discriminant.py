"""Log-scale discriminants, the symmetric decomposition, Mahler measures,
and an exact big-integer resultant oracle.

The raw discriminant of a degree-n polynomial near the unit circle has
magnitude around n^(2n) e^(-cn), far outside double precision, so every
floating-point route here works with log|.| throughout; the exact Sylvester
oracle exists to certify the floating route at small degree, not to scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DoubleRootError, GridCollisionError, OracleCapError
from .polynomials import Coefficients, circle_values, log_abs_deriv
from .rootfind import ON_CIRCLE_GUARD, RootSet, close_root_pairs

ORACLE_DEGREE_CAP = 64

# Root pairs closer than this (relative) or derivative values below
# 1e-9 * n^1.5 * max|c| mark a repeated root.
PAIR_THRESHOLD = 1e-9
DERIV_THRESHOLD = 1e-9


@dataclass(frozen=True)
class DiscriminantBreakdown:
    """The three additive pieces of log|disc| plus normalization terms.

    total = sum_inside + sum_outside + mahler_term + log_n_term, and
    theorem_statistic = (total - 2 n log n) / n.  ``log_abs_disc_direct`` is
    (n-2) log|c_n| + sum_j log|f'(alpha_j)|, the total when the pieces are NaN.
    """

    n: int
    sum_inside: float
    sum_outside: float
    mahler_term: float
    log_n_term: float
    total_log_abs_disc: float
    theorem_statistic: float
    log_abs_disc_direct: float

    def csv_row(self) -> str:
        fields = (self.n, self.sum_inside, self.sum_outside, self.mahler_term,
                  self.log_n_term, self.total_log_abs_disc, self.theorem_statistic)
        return ",".join(repr(x) for x in fields)


@dataclass(frozen=True)
class MahlerResult:
    """log of the Mahler measure by two independent routes."""

    log_m_quadrature: float
    log_m_roots: float
    points_used: int
    nearest_root_distance_to_circle: float


def double_root_guard(rs: RootSet, p: Coefficients, logfp: np.ndarray) -> bool:
    """True iff the root set certifies a repeated root.

    Fires when some pair of roots lies within 1e-9*(1+|alpha|), or some
    |f'(alpha_j)| <= 1e-9 * n^1.5 * max|c_k|; ``logfp`` is log|f'| at the
    roots.
    """
    n = p.degree
    if n >= 2 and close_root_pairs(rs.roots, PAIR_THRESHOLD).size:
        return True
    threshold = DERIV_THRESHOLD * n ** 1.5 * float(np.max(np.abs(p.coeffs)))
    return bool(np.any(logfp <= math.log(threshold)))


def _guarded_log_abs_deriv(p: Coefficients, rs: RootSet) -> np.ndarray:
    """log|f'| at the roots, after the double-root guard."""
    logfp = log_abs_deriv(p, rs.roots)
    if double_root_guard(rs, p, logfp):
        raise DoubleRootError("repeated root: log|disc| is -inf")
    return logfp


def _direct_total(p: Coefficients, logfp: np.ndarray) -> float:
    """(n-2) log|c_n| + sum_j log|f'(alpha_j)|."""
    return (p.degree - 2) * math.log(abs(p.coeffs[-1])) + float(logfp.sum())


def log_abs_discriminant(p: Coefficients, rs: RootSet) -> float:
    """(n-2) log|c_n| + sum_j log|f'(alpha_j)|, all in log space."""
    return _direct_total(p, _guarded_log_abs_deriv(p, rs))


def _mahler_quadrature(p: Coefficients, quad_points: int) -> float:
    """Trapezoid mean of log|p| on the uniform unit-circle grid."""
    vals = np.abs(circle_values(p.coeffs, 1.0, quad_points))
    return float(np.mean(np.log(vals)))


def decompose(p: Coefficients, rs: RootSet,
              quad_points: int) -> DiscriminantBreakdown:
    """Split log|disc| into inside/outside root sums, a Mahler integral and
    the (2n-1) log n normalization, beside the direct total.

    Requires degree >= 2; raises DoubleRootError on a repeated root.  With a
    root on the unit circle (within guard) the three pieces are NaN and the
    total and statistic come from the direct route.
    """
    n = p.degree
    if n < 2:
        raise ValueError("decomposition needs degree >= 2")
    if quad_points < 16 * (n + 1):
        raise ValueError("quad_points must be at least 16*(degree+1)")
    logfp = _guarded_log_abs_deriv(p, rs)
    direct = _direct_total(p, logfp)
    logn = math.log(n)
    log_n_term = (2 * n - 1) * logn
    mod = np.abs(rs.roots)
    if np.any(np.abs(mod - 1.0) <= ON_CIRCLE_GUARD):
        sum_inside = sum_outside = mahler_term = float("nan")
        total = direct
    else:
        inside = mod < 1.0
        outside = ~inside
        sum_inside = float(np.sum(logfp[inside] - 1.5 * logn))
        sum_outside = float(np.sum(logfp[outside]
                                   - (n - 2) * np.log(mod[outside]) - 1.5 * logn))
        mahler_term = (n - 2) * (_mahler_quadrature(p, quad_points) - 0.5 * logn)
        total = sum_inside + sum_outside + mahler_term + log_n_term
    return DiscriminantBreakdown(
        n=n, sum_inside=sum_inside, sum_outside=sum_outside,
        mahler_term=mahler_term, log_n_term=log_n_term,
        total_log_abs_disc=total,
        theorem_statistic=(total - 2 * n * logn) / n,
        log_abs_disc_direct=direct)


def _sylvester_matrix(pc: list, qc: list) -> list:
    """Sylvester matrix rows over Python ints; pc, qc descending."""
    dp, dq = len(pc) - 1, len(qc) - 1
    size = dp + dq
    rows = []
    for i in range(dq):
        rows.append([0] * i + pc + [0] * (size - dp - 1 - i))
    for i in range(dp):
        rows.append([0] * i + qc + [0] * (size - dq - 1 - i))
    return rows


def _bareiss_det(m: list) -> int:
    """Fraction-free determinant of an integer matrix."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (pivot * m[i][j] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _as_exact_int(c) -> int:
    fc = float(c)
    if not fc.is_integer():
        raise TypeError("exact oracle needs integer coefficients")
    return int(fc)


def exact_discriminant(p: Coefficients) -> int:
    """Exact integer discriminant via the Sylvester resultant of (p, p').

    disc = (-1)^(n(n-1)/2) * Res(p, p') / c_n, computed fraction-free over
    Python integers; zero exactly when p has a repeated root.
    """
    n = p.degree
    if n > ORACLE_DEGREE_CAP:
        raise OracleCapError(f"degree {n} above oracle cap {ORACLE_DEGREE_CAP}")
    if np.iscomplexobj(p.coeffs):
        raise TypeError("exact oracle needs integer coefficients")
    coeffs = [_as_exact_int(c) for c in p.coeffs]
    if n == 1:
        return 1  # empty root-difference product
    pc = coeffs[::-1]
    qc = [k * coeffs[k] for k in range(n, 0, -1)]
    res = _bareiss_det(_sylvester_matrix(pc, qc))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    num = sign * res
    quot, rem = divmod(num, coeffs[-1])
    if rem:
        raise ArithmeticError("resultant not divisible by leading coefficient")
    return quot


def mahler(p: Coefficients, rs: RootSet, quad_points: int) -> MahlerResult:
    """log Mahler measure by circle quadrature and by the root product.

    Quadrature route: trapezoid mean of log|p| over the uniform grid.
    Root route: log|c_n| + sum of log|alpha| over roots outside the circle.
    """
    n = p.degree
    if quad_points < 16 * (n + 1):
        raise ValueError("quad_points must be at least 16*(degree+1)")
    mod = np.abs(rs.roots)
    nearest = float(np.min(np.abs(mod - 1.0))) if mod.size else math.inf
    if nearest <= 1e-14:
        raise GridCollisionError(
            "a root sits on the circle to within 1e-14 of a grid point")
    log_m_roots = math.log(abs(p.coeffs[-1])) + float(
        np.sum(np.log(mod[mod > 1.0])))
    log_m_quad = _mahler_quadrature(p, quad_points)
    return MahlerResult(log_m_quadrature=log_m_quad, log_m_roots=log_m_roots,
                        points_used=quad_points,
                        nearest_root_distance_to_circle=nearest)
