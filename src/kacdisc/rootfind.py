"""Simultaneous root finding and root-location statistics.

The solver is an Ehrlich-Aberth iteration started on a circle of radius
(|c0/cn|)^(1/n) with angular jitter, which stops moving each root once its
step is below tolerance, followed by one finishing step: conjugate-pair
symmetrization for real inputs and certified double-root collapse.  The
sweep that froze a root already landed it at machine precision, as Aberth's
cubic convergence predicts, so no Newton polish follows.  There is no second
solver: a root set that fails its residual certificate raises
NonConvergenceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBoundError, NonConvergenceError
from .polynomials import Coefficients, newton_ratio, relative_residual

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 200
# Largest tol.  The relative residual |f(z)| / sum|c_k||z|^k is the smallest
# relative change of the coefficients that makes z an exact root; it never
# exceeds 1, so a tol of 1 or more accepts any point.  Above 1e-3 a certified
# root is a root only of some polynomial whose coefficients differ from the
# given ones in the third digit.
ROOTS_TOL_MAX = 1e-3

# Roots this close to the real axis (relative) are snapped onto it.
CONJUGATE_SNAP = 1e-12
# Roots with ||alpha| - 1| below this count as on the unit circle.
ON_CIRCLE_GUARD = 1e-12
# Rows of the Aberth pair sum formed at once (block x degree scratch).
PAIR_BLOCK = 64
# A sweep whose exact pair sum would divide at least this many pairs takes
# the node-polynomial route, if that polynomial's coefficients are at most
# NODE_COEFF_MAX in modulus.
NODE_ROUTE_PAIRS = 2 ** 17
NODE_COEFF_MAX = 2.0 ** 20
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

    annulus_count: int
    sector_count: int
    discrepancy: float
    inside_count: int
    outside_count: int


def _initial_guesses(p: Coefficients) -> np.ndarray:
    n = p.degree
    c0, cn = p.coeffs[0], p.coeffs[-1]
    r = abs(c0 / cn) ** (1.0 / n) if c0 != 0 else 1.0
    r = min(max(r, 1e-8), 1e8)
    # fixed-seed jitter keeps the solve a pure function of its input
    jitter = np.random.default_rng(0x5EED).uniform(-0.5, 0.5, n) / n
    theta = 2.0 * np.pi * (np.arange(n) + 0.35) / n + jitter
    return r * np.exp(1j * theta)


def _pair_sums(roots: np.ndarray, rows: np.ndarray, flat=None) -> np.ndarray:
    """sum_{j != i} 1/(z_i - z_j) for each i in ``rows``, in ``rows`` order.

    Each pair of rows is divided once, since 1/(z_j - z_i) = -1/(z_i - z_j).
    With the rows first and the other roots after them, block [a, b) of
    PAIR_BLOCK rows (formed in one PAIR_BLOCK x n scratch array, so no
    n x n temporary exists) divides against rows a.. and every other root.
    It adds its row sums to rows [a, b) and subtracts its column sums over
    the rows after b from those rows.  The other roots count in every
    row's sum but get no sum of their own.  ``flat``, the scratch, needs
    min(PAIR_BLOCK, m) * n entries; a solve passes one for all its sweeps.
    """
    m, n = rows.size, roots.size
    rest = np.ones(n, dtype=bool)
    rest[rows] = False
    z = np.concatenate([roots[rows], roots[rest]])
    out = np.zeros(m, dtype=np.complex128)
    if flat is None:
        flat = np.empty(min(PAIR_BLOCK, m) * n, dtype=np.complex128)
    for a in range(0, m, PAIR_BLOCK):
        b = min(a + PAIR_BLOCK, m)
        d = flat[:(b - a) * (n - a)].reshape(b - a, n - a)
        np.subtract.outer(z[a:b], z[a:], out=d)
        np.fill_diagonal(d, np.inf)
        np.divide(1.0, d, out=d)
        out[a:b] += d.sum(axis=1)
        out[b:] -= d[:, b - a:m - a].sum(axis=0)
    return out


def _node_coeffs(y: np.ndarray) -> np.ndarray:
    """Ascending coefficients of the monic node polynomial prod_j (x - y_j).

    A balanced product tree: slot j of a power-of-two row holds x - y_j,
    the roots sorted by angle (the slots past n hold the unit factor), and
    each level of L nodes multiplies node g by nodes g + L/4, g + 2L/4 and
    g + 3L/4 (by node g + L/2 alone at a last level of two nodes).  So
    node g of L is the product over the roots g, g + L, g + 2L, ... of the
    angle order: its roots are spread evenly in angle and its coefficients
    stay small.  The product of k degree-d nodes is a cyclic FFT of
    power-of-two length kd, whose x^(kd) term, the product of the top
    coefficients wrapped onto x^0, is subtracted there and appended.
    """
    n = y.size
    c = np.zeros((1 << (n - 1).bit_length(), 2), dtype=np.complex128)
    c[:n, 0] = -y[np.argsort(np.angle(y))]
    c[:n, 1] = 1.0
    c[n:, 0] = 1.0
    while c.shape[0] > 1:
        k, d = min(4, c.shape[0]), c.shape[1] - 1
        nodes = c.reshape(k, -1, d + 1)
        prod = np.fft.ifft(np.prod(np.fft.fft(nodes, k * d), axis=0))
        top = np.prod(nodes[..., d], axis=0)
        prod[:, 0] -= top
        c = np.concatenate([prod, top[:, None]], axis=1)
    return c[0, :n + 1]


def _node_pair_sums(roots: np.ndarray, rows: np.ndarray):
    """sum_{j != i} 1/(z_i - z_j) for each i in ``rows`` from the node
    polynomial N = prod_j (x - z_j): the sum is N''(z_i) / (2 N'(z_i)),
    one over twice the Newton ratio of N'.

    The roots are first divided by their geometric mean modulus 2^e (e the
    mean of log2 |z|), so roots near one circle sit near the unit circle,
    where N's values are not lost under its coefficients' rounding.
    Rounding e to a power of two would make the scaling exact, but leaves
    |y|^n as far as 2^(n/2) from 1: on a circle of radius 0.9 at n = 700
    the sums were wrong in the first digit.
    Returns None when e is not finite (a root is 0, infinite or NaN), or
    when some coefficient of N exceeds NODE_COEFF_MAX in modulus or is not
    finite: its values then cancel too much to trust.
    """
    with np.errstate(divide="ignore"):
        e = float(np.mean(np.log2(np.abs(roots))))
    if not math.isfinite(e):
        return None
    scale = 2.0 ** -e
    y = roots * scale
    with np.errstate(over="ignore", invalid="ignore"):
        node = _node_coeffs(y)
        if not np.max(np.abs(node)) <= NODE_COEFF_MAX:  # also rejects NaN
            return None
    dnode = Coefficients(node[1:] * np.arange(1, roots.size + 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        return 0.5 * scale / newton_ratio(dnode, y[rows])


def close_root_pairs(roots: np.ndarray, rel: float) -> np.ndarray:
    """Index pairs (i, j), i != j, with |z_i - z_j| <= rel * (1 + |z_i|).

    A sort-then-sweep neighbour search (after Shamos & Hoey's closest-point
    sweep): with the roots sorted by real part, the roots k = 1, 2, ...
    places apart are compared while some real-part gap at that distance is
    within the largest bound.  The gaps grow with k, and |z_i - z_j| is at
    least the real-part gap, so no later k can hold a pair.  NaN roots have
    no bound and pair with nothing.  The pairs come back in row-major order,
    shape (count, 2), exactly as from a scan of the full distance matrix.
    """
    bound = rel * (1.0 + np.abs(roots))
    reach = np.max(bound[~np.isnan(bound)], initial=0.0)
    found = [np.empty((0, 2), dtype=np.intp)]
    order = np.argsort(roots.real)
    x = roots.real[order]
    for k in range(1, roots.size):
        near = np.flatnonzero(x[k:] - x[:-k] <= reach)
        if near.size == 0:
            break
        i, j = order[near], order[near + k]
        d = np.abs(roots[i] - roots[j])
        for a, b in ((i, j), (j, i)):
            hit = d <= bound[a]
            found.append(np.stack([a[hit], b[hit]], axis=1))
    pairs = np.concatenate(found)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def _aberth_iterate(p: Coefficients, roots: np.ndarray, tol: float,
                    max_iter: int):
    """Ehrlich-Aberth sweeps that update only the roots still moving.

    A root whose step falls below 0.1*tol relative to 1 + |root| is frozen:
    later sweeps leave it in place but keep it in every other root's pair
    sum.  Stops when no root is active or after ``max_iter`` sweeps, and
    returns the roots with the number of sweeps made.

    Where the Newton ratio w = p/p' is infinite (p' underflowed, as at
    |z| ~ 0.31 on z^1024 - 1, or the ratio overflowed), the step is the
    limit of w / (1 - w s) as w -> inf, -1/s; no step would freeze the
    root at a non-root.  A NaN ratio (0/0) gives no step.

    The pair sums s come from the node polynomial (:func:`_node_pair_sums`)
    in a sweep whose exact sum would divide at least NODE_ROUTE_PAIRS pairs,
    m (n - m/2) for m active of n roots, unless its coefficients fail
    NODE_COEFF_MAX; every other sweep takes :func:`_pair_sums`.  The route
    moves the path, not the result: the step is 0 exactly where w is,
    whatever s, and the roots still face the residual certificate.
    """
    roots = roots.copy()
    active = np.arange(roots.size)
    # one pair-sum scratch for every exact sweep, sized at the first (the
    # active set only shrinks): with a new one per sweep (256 KB at n = 256)
    # glibc's malloc returned its pages to the system and faulted them in
    # again, about 400 page faults per solve
    flat = None
    iterations = 0
    for it in range(max_iter):
        iterations = it + 1
        z = roots[active]
        w = newton_ratio(p, z)
        far = np.isinf(w)
        w[~np.isfinite(w)] = 0.0
        s = None
        m = active.size
        if m * (roots.size - m / 2) >= NODE_ROUTE_PAIRS:
            s = _node_pair_sums(roots, active)
        if s is None:
            if flat is None:
                flat = np.empty(min(PAIR_BLOCK, m) * roots.size,
                                dtype=np.complex128)
            s = _pair_sums(roots, active, flat)
        denom = 1.0 - w * s
        step = np.where(np.abs(denom) > 1e-300, w / denom, w)
        step[far] = -1.0 / s[far]
        step[~np.isfinite(step)] = 0.0
        z = z - step
        roots[active] = z
        active = active[~(np.abs(step) / (1.0 + np.abs(z)) < 0.1 * tol)]
        if active.size == 0:
            break
    return roots, iterations


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
    cand = close_root_pairs(roots, DOUBLE_ROOT_WINDOW)
    if cand.size == 0:
        return roots
    dp = Coefficients(p.coeffs[1:] * np.arange(1, p.degree + 1))
    roots = roots.copy()
    for i, j in cand:
        if i >= j:
            continue
        zeta = np.complex128(0.5 * (roots[i] + roots[j]))
        for _ in range(8):
            w = newton_ratio(dp, np.array([zeta]))[0]
            if not np.isfinite(w):
                break
            zeta = zeta - w
        if relative_residual(p, np.array([zeta]))[0] <= DOUBLE_ROOT_CERTIFY_TOL:
            roots[i] = zeta
            roots[j] = zeta
    return roots


def _unit_scaled(coeffs: np.ndarray) -> Coefficients:
    """The coefficients times the power of two that puts max |c_k| in [1, 2).

    ``np.ldexp`` on each part scales exactly (unless it takes a coefficient
    below the normal range), so the roots, the solver's steps and every
    relative residual are those of the given coefficients, while values
    and scales at the stacked points stay far from overflow.  The exponent
    is read from |c_k| / 2, which is finite for every finite complex c_k.
    """
    parts = coeffs.view(np.float64)
    half = np.ldexp(parts, -1).view(coeffs.dtype)
    _, e = np.frexp(np.max(np.abs(half)))
    return Coefficients(np.ldexp(parts, -e).view(coeffs.dtype))


def find_roots(p: Coefficients, tol: float = DEFAULT_TOL) -> RootSet:
    """All complex roots with residuals |f(a)| / sum|c_k||a|^k, each at most
    ``tol``; raises NonConvergenceError otherwise, and ValueError unless
    0 < tol <= ROOTS_TOL_MAX."""
    if not 0 < tol <= ROOTS_TOL_MAX:  # also rejects NaN
        raise ValueError(f"tol must be > 0 and <= {ROOTS_TOL_MAX}, got {tol!r}")
    n = p.degree
    # factor out exact zero roots (vanishing low-order coefficients)
    nz = np.nonzero(p.coeffs)[0]
    zero_mult = int(nz[0])
    if zero_mult == n:
        # pure monomial c*z^n: all roots are exactly zero
        return RootSet(np.zeros(n, dtype=np.complex128), np.zeros(n), 0)
    reduced = _unit_scaled(p.coeffs[zero_mult:])

    roots, iters = _aberth_iterate(reduced, _initial_guesses(reduced), tol,
                                   DEFAULT_MAX_ITER)
    if reduced.is_real:
        roots = _symmetrize_conjugates(roots)
    roots = _collapse_certified_double_roots(reduced, roots)
    residuals = relative_residual(reduced, roots)
    worst = float(np.max(residuals))
    if not worst <= tol:
        raise NonConvergenceError(f"root solve stalled at residual {worst:.3e}",
                                  worst_residual=worst)

    if zero_mult:
        roots = np.concatenate([np.zeros(zero_mult, dtype=np.complex128), roots])
        residuals = np.concatenate([np.zeros(zero_mult), residuals])
    return RootSet(roots, residuals, iters)


def canonical_annulus(n: int) -> tuple:
    """Inner/outer radii of the annulus {1 - log^3(n)/n <= |z| <= 1}."""
    return (max(0.0, 1.0 - math.log(n) ** 3 / n), 1.0)


def omega_annulus(n: int) -> tuple:
    """Two-sided annulus {1 - omega/n <= |z| <= 1 + omega/n}, omega = log^2 n."""
    omega = math.log(n) ** 2
    return (max(0.0, 1.0 - omega / n), 1.0 + omega / n)


def root_stats(rs: RootSet, n: int, annulus: tuple) -> RootStats:
    """Count in the annulus (lo, hi), almost-real sector count, and dyadic
    arc discrepancy.

    The sector is the pair of angular slices of half-width n^(-1/2) around
    angles 0 and pi, intersected with the canonical annulus.  Discrepancy is
    max over dyadic arcs [2 pi j / 2^k, 2 pi (j+1) / 2^k), k <= ceil(log2 n),
    of |count - n/2^k|.
    """
    mod = np.abs(rs.roots)
    ang = np.mod(np.angle(rs.roots), 2.0 * np.pi)

    lo, hi = annulus
    count = int(np.count_nonzero((mod >= lo) & (mod <= hi)))
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

    return RootStats(annulus_count=count, sector_count=sector,
                     discrepancy=disc,
                     inside_count=int(np.count_nonzero(inside)),
                     outside_count=int(np.count_nonzero(outside)))


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
