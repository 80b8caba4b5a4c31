"""Simultaneous root finding and root-location statistics.

The primary solver is an Ehrlich-Aberth iteration started on a circle of
radius (|c0/cn|)^(1/n) with angular jitter, which stops moving each root once
its step is below tolerance, followed by a Newton polish and,
for real inputs, conjugate-pair symmetrization.  If the iteration stalls, a
balanced companion-matrix eigenvalue solve is used as a fallback and polished
the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBoundError, NonConvergenceError
from .polynomials import Coefficients, newton_ratio, relative_residual

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 200

# Roots this close to the real axis (relative) are snapped onto it.
CONJUGATE_SNAP = 1e-12
# Roots with ||alpha| - 1| below this count as on the unit circle.
ON_CIRCLE_GUARD = 1e-12
# Rows of the Aberth pair sum formed at once (block x degree scratch).
PAIR_BLOCK = 64
# Root pairs closer than the window (relative) collapse onto their critical
# point when its residual is below the certificate tolerance.
DOUBLE_ROOT_WINDOW = 1e-5
DOUBLE_ROOT_CERTIFY_TOL = 1e-12


@dataclass(frozen=True)
class RootSet:
    """All roots of one polynomial with per-root residual certificates."""

    roots: np.ndarray
    residuals: np.ndarray
    iterations: int

    def __post_init__(self):
        self.roots.setflags(write=False)
        self.residuals.setflags(write=False)

    @property
    def count(self) -> int:
        return self.roots.size

    def to_jsonl(self) -> str:
        import json
        lines = [json.dumps({"re": float(r.real), "im": float(r.imag),
                             "residual": float(s)})
                 for r, s in zip(self.roots, self.residuals)]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RootStats:
    """Counts and discrepancy summaries of a root multiset."""

    annulus_counts: dict
    sector_count: int
    discrepancy: float
    inside_count: int
    outside_count: int
    on_circle_count: int


def _initial_guesses(p: Coefficients) -> np.ndarray:
    n = p.degree
    c0, cn = p.coeffs[0], p.coeffs[-1]
    r = abs(c0 / cn) ** (1.0 / n) if c0 != 0 else 1.0
    r = min(max(r, 1e-8), 1e8)
    # fixed-seed jitter keeps the solve a pure function of its input
    jitter = np.random.default_rng(0x5EED).uniform(-0.5, 0.5, n) / n
    theta = 2.0 * np.pi * (np.arange(n) + 0.35) / n + jitter
    return r * np.exp(1j * theta)


def _pair_sums(roots: np.ndarray, rows: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """sum_{j != i} 1/(z_i - z_j) for each i in ``rows``.

    The rows are taken in blocks of ``buf.shape[0]``, reusing ``buf`` (a
    block x n scratch array), so no n x n temporary is formed.  Each row is
    summed exactly as a row of the full difference matrix would be.
    """
    out = np.empty(rows.size, dtype=np.complex128)
    block = buf.shape[0]
    for start in range(0, rows.size, block):
        idx = rows[start:start + block]
        d = buf[:idx.size]
        np.subtract.outer(roots[idx], roots, out=d)
        d[np.arange(idx.size), idx] = np.inf
        np.divide(1.0, d, out=d)
        d.sum(axis=1, out=out[start:start + idx.size])
    return out


def close_root_pairs(roots: np.ndarray, rel: float) -> np.ndarray:
    """Index pairs (i, j), i != j, with |z_i - z_j| <= rel * (1 + |z_i|).

    Rows are scanned in blocks of PAIR_BLOCK, so no n x n array is formed;
    the pairs come back in row-major order, shape (count, 2).
    """
    bound = rel * (1.0 + np.abs(roots))
    found = [np.empty((0, 2), dtype=np.intp)]
    for start in range(0, roots.size, PAIR_BLOCK):
        rows = np.arange(start, min(start + PAIR_BLOCK, roots.size))
        d = np.abs(roots[rows, None] - roots[None, :])
        d[np.arange(rows.size), rows] = np.inf
        hit = np.argwhere(d <= bound[rows, None])
        hit[:, 0] += start
        found.append(hit)
    return np.concatenate(found)


def _aberth_iterate(p: Coefficients, roots: np.ndarray, tol: float,
                    max_iter: int):
    """Ehrlich-Aberth sweeps that update only the roots still moving.

    A root whose step falls below 0.1*tol relative to 1 + |root| is frozen:
    later sweeps leave it in place but keep it in every other root's pair
    sum.  Stops when no root is active or after ``max_iter`` sweeps, and
    returns the roots with the number of sweeps made.
    """
    roots = roots.copy()
    active = np.arange(roots.size)
    buf = np.empty((min(PAIR_BLOCK, roots.size), roots.size), dtype=np.complex128)
    iterations = 0
    for it in range(max_iter):
        iterations = it + 1
        z = roots[active]
        w = newton_ratio(p, z)
        w[~np.isfinite(w)] = 0.0
        s = _pair_sums(roots, active, buf)
        denom = 1.0 - w * s
        step = np.where(np.abs(denom) > 1e-300, w / denom, w)
        step[~np.isfinite(step)] = 0.0
        z = z - step
        roots[active] = z
        active = active[~(np.abs(step) / (1.0 + np.abs(z)) < 0.1 * tol)]
        if active.size == 0:
            break
    return roots, iterations


def _newton_polish(p: Coefficients, roots: np.ndarray, sweeps: int = 2) -> np.ndarray:
    for _ in range(sweeps):
        w = newton_ratio(p, roots)
        w[~np.isfinite(w)] = 0.0
        roots = roots - w
    return roots


def _symmetrize_conjugates(roots: np.ndarray) -> np.ndarray:
    """Snap near-real roots and average conjugate pairs for real inputs."""
    roots = roots.copy()
    near_real = np.abs(roots.imag) <= CONJUGATE_SNAP * (1.0 + np.abs(roots))
    roots[near_real] = roots[near_real].real
    upper = np.where(roots.imag > 0)[0]
    lower = np.where(roots.imag < 0)[0]
    if upper.size != lower.size:
        return roots  # unbalanced; leave as computed
    up_sorted = upper[np.lexsort((roots[upper].imag, roots[upper].real))]
    lo_sorted = lower[np.lexsort((-roots[lower].imag, roots[lower].real))]
    paired = 0.5 * (roots[up_sorted] + np.conj(roots[lo_sorted]))
    roots[up_sorted] = paired
    roots[lo_sorted] = np.conj(paired)
    return roots


def _collapse_certified_double_roots(p: Coefficients,
                                     roots: np.ndarray) -> np.ndarray:
    """Merge root pairs that certify as one double root.

    A simple iteration cannot separate a true double root beyond roughly the
    square root of the residual tolerance, so candidate pairs (closer than
    DOUBLE_ROOT_WINDOW relative) are refined: Newton on f' from the pair
    midpoint locates the critical point; if the polynomial residual there is
    below DOUBLE_ROOT_CERTIFY_TOL the pair collapses onto the critical point.
    Genuinely separate close roots fail the residual certificate and are left
    alone.
    """
    if roots.size < 2:
        return roots
    cand = close_root_pairs(roots, DOUBLE_ROOT_WINDOW)
    if cand.size == 0:
        return roots
    dcoeffs = p.coeffs[1:] * np.arange(1, p.degree + 1)
    dp = Coefficients(dcoeffs) if dcoeffs.size > 1 else None
    roots = roots.copy()
    for i, j in cand:
        if i >= j:
            continue
        mid = 0.5 * (roots[i] + roots[j])
        zeta = np.complex128(mid)
        if dp is not None:
            for _ in range(8):
                w = newton_ratio(dp, np.array([zeta]))[0]
                if not np.isfinite(w):
                    break
                zeta = zeta - w
        if relative_residual(p, np.array([zeta]))[0] <= DOUBLE_ROOT_CERTIFY_TOL:
            roots[i] = zeta
            roots[j] = zeta
    return roots


def _companion_roots(p: Coefficients) -> np.ndarray:
    """Eigenvalues of the monic companion matrix (LAPACK balances internally)."""
    monic = p.coeffs / p.coeffs[-1]
    n = p.degree
    comp = np.zeros((n, n), dtype=np.complex128)
    comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = -monic[:-1]
    return np.linalg.eigvals(comp)


def _finish(p: Coefficients, roots: np.ndarray, sweeps: int):
    """Newton polish, conjugate symmetrization (real inputs) and double-root
    collapse of a candidate root set; returns the roots and their residuals."""
    roots = _newton_polish(p, roots, sweeps)
    if p.is_real:
        roots = _symmetrize_conjugates(roots)
    roots = _collapse_certified_double_roots(p, roots)
    return roots, relative_residual(p, roots)


def find_roots(p: Coefficients, tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER) -> RootSet:
    """All complex roots with residuals |f(a)| / sum|c_k||a|^k, each at most
    ``tol``; raises NonConvergenceError otherwise."""
    n = p.degree
    # factor out exact zero roots (vanishing low-order coefficients)
    nz = np.nonzero(p.coeffs)[0]
    zero_mult = int(nz[0])
    if zero_mult == n:
        # pure monomial c*z^n: all roots are exactly zero
        return RootSet(np.zeros(n, dtype=np.complex128), np.zeros(n), 0)
    reduced = Coefficients(np.array(p.coeffs[zero_mult:])) if zero_mult else p

    roots, iters = _aberth_iterate(reduced, _initial_guesses(reduced), tol,
                                   max_iter)
    roots, residuals = _finish(reduced, roots, 2)
    if not (np.max(residuals) <= tol):
        alt, alt_res = _finish(reduced, _companion_roots(reduced), 3)
        if np.max(alt_res) < np.max(residuals):
            roots, residuals = alt, alt_res
        if not (np.max(residuals) <= tol):
            raise NonConvergenceError(
                f"root solve stalled at residual {np.max(residuals):.3e}",
                worst_residual=float(np.max(residuals)))

    if zero_mult:
        roots = np.concatenate([np.zeros(zero_mult, dtype=np.complex128), roots])
        residuals = np.concatenate([np.zeros(zero_mult), residuals])
    return RootSet(roots, residuals, iters)


def canonical_annulus(n: int) -> tuple:
    """Inner/outer radii of the annulus {1 - log^3(n)/n <= |z| <= 1}."""
    return (max(0.0, 1.0 - math.log(n) ** 3 / n), 1.0)


def omega_annulus(n: int, omega: float) -> tuple:
    """Two-sided annulus {1 - omega/n <= |z| <= 1 + omega/n}."""
    return (max(0.0, 1.0 - omega / n), 1.0 + omega / n)


def root_stats(rs: RootSet, n: int, annuli: list | None = None) -> RootStats:
    """Annulus counts, almost-real sector count, and dyadic arc discrepancy.

    The sector is the pair of angular slices of half-width n^(-1/2) around
    angles 0 and pi, intersected with the canonical annulus.  Discrepancy is
    max over dyadic arcs [2 pi j / 2^k, 2 pi (j+1) / 2^k), k <= ceil(log2 n),
    of |count - n/2^k|.
    """
    mod = np.abs(rs.roots)
    ang = np.mod(np.angle(rs.roots), 2.0 * np.pi)

    counts = {}
    for (rin, rout) in (annuli or []):
        counts[(rin, rout)] = int(np.count_nonzero((mod >= rin) & (mod <= rout)))

    on_circle = np.abs(mod - 1.0) <= ON_CIRCLE_GUARD
    inside = mod < 1.0 - ON_CIRCLE_GUARD
    outside = mod > 1.0 + ON_CIRCLE_GUARD

    rin, rout = canonical_annulus(n)
    half_width = 1.0 / math.sqrt(n)
    near_zero = np.minimum(ang, 2.0 * np.pi - ang) <= half_width
    near_pi = np.abs(ang - np.pi) <= half_width
    in_annulus = (mod >= rin) & (mod <= rout)
    sector = int(np.count_nonzero(in_annulus & (near_zero | near_pi)))

    kmax = max(1, math.ceil(math.log2(n)))
    disc = 0.0
    for k in range(1, kmax + 1):
        m = 2 ** k
        hist, _ = np.histogram(ang, bins=m, range=(0.0, 2.0 * np.pi))
        disc = max(disc, float(np.max(np.abs(hist - n / m))))

    return RootStats(annulus_counts=counts, sector_count=sector,
                     discrepancy=disc,
                     inside_count=int(np.count_nonzero(inside)),
                     outside_count=int(np.count_nonzero(outside)),
                     on_circle_count=int(np.count_nonzero(on_circle)))


def erdos_turan_bound(p: Coefficients, max_on_circle: float) -> float:
    """Angular-count bound (2/pi) sqrt(n) + 16 sqrt(n log(M / sqrt(|c0 cn|))).

    M is an upper bound for the maximum of |f| on the unit circle; callers
    assert sector counts against the returned value.
    """
    c0, cn = p.coeffs[0], p.coeffs[-1]
    if c0 == 0 or cn == 0:
        raise InvalidBoundError("bound needs nonzero first and last coefficients")
    floor = math.sqrt(abs(c0) * abs(cn))
    if max_on_circle < floor:
        raise InvalidBoundError(
            f"circle maximum {max_on_circle:.3e} below sqrt(|c0 cn|) = {floor:.3e}")
    n = p.degree
    return (2.0 / math.pi) * math.sqrt(n) + 16.0 * math.sqrt(
        n * math.log(max_on_circle / floor))
