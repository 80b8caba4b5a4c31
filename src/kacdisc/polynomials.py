"""Coefficient distributions, seeded sampling, and polynomial evaluation.

Coefficients are stored in ascending order (c0 first).  Everything here is
pure: sampling is a deterministic function of (distribution, degree, master
seed, trial index), and all returned objects are immutable, so values can be
shared freely between worker processes.
"""

from __future__ import annotations

import ctypes
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateDegreeError, NonFiniteCoefficientError


def _pin_blas_to_one_thread():
    """Run numpy's bundled OpenBLAS on one thread.

    The evaluation kernel's products are small GEMMs, and OpenBLAS's own
    threads would compete with the experiment pool's workers, which fork
    from this process and inherit the pin; so the worker count alone sets
    how many CPUs a run uses.  Nothing is done when numpy carries no
    bundled OpenBLAS.
    """
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in libs.glob("libscipy_openblas64_*.so"):
        ctypes.CDLL(str(lib)).scipy_openblas_set_num_threads64_(1)


_pin_blas_to_one_thread()

RADEMACHER = "rademacher"
GAUSSIAN_REAL = "gaussian_real"
GAUSSIAN_COMPLEX = "gaussian_complex"
UNIFORM_INT_CENTERED = "uniform_int_centered"
UNIFORM_INT_RAW = "uniform_int_raw"

KINDS = (RADEMACHER, GAUSSIAN_REAL, GAUSSIAN_COMPLEX,
         UNIFORM_INT_CENTERED, UNIFORM_INT_RAW)


@dataclass(frozen=True)
class CoefficientDistribution:
    """A named coefficient law for random polynomials.

    ``kind`` is one of :data:`KINDS`.  ``k`` is the support size for the
    uniform-integer kinds (values 1..k before centering); it must be an int
    >= 2 for every kind, so no echo of a law shows an unusable K.
    """

    kind: str
    k: int = 240

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if type(self.k) is not int or self.k < 2:
            raise ValueError(f"K must be an integer >= 2, got {self.k!r}")

    @property
    def atom_at_zero(self) -> bool:
        """Centered uniform integers hit zero exactly when k is odd."""
        return self.kind == UNIFORM_INT_CENTERED and self.k % 2 == 1

    @property
    def theorem_eligible(self) -> bool:
        """Mean zero, unit variance, and no atom at zero."""
        return self.kind != UNIFORM_INT_RAW and not self.atom_at_zero

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == RADEMACHER:
            return rng.integers(0, 2, size).astype(np.float64) * 2.0 - 1.0
        if self.kind == GAUSSIAN_REAL:
            return rng.standard_normal(size)
        if self.kind == GAUSSIAN_COMPLEX:
            return (rng.standard_normal(size)
                    + 1j * rng.standard_normal(size)) / math.sqrt(2.0)
        if self.kind == UNIFORM_INT_CENTERED:
            u = rng.integers(1, self.k + 1, size).astype(np.float64)
            sigma = math.sqrt((self.k ** 2 - 1) / 12.0)
            return (u - (self.k + 1) / 2.0) / sigma
        # uniform_int_raw
        return rng.integers(1, self.k + 1, size).astype(np.float64)


@dataclass(frozen=True)
class Coefficients:
    """An immutable, finite coefficient sequence c0..cn with nonzero
    leading term."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs)
        if arr.ndim != 1 or arr.size < 2:
            raise DegenerateDegreeError("need at least two coefficients (degree >= 1)")
        if not np.iscomplexobj(arr):
            arr = arr.astype(np.float64)
        else:
            arr = arr.astype(np.complex128)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteCoefficientError("coefficients must be finite")
        if arr[-1] == 0:
            raise DegenerateDegreeError("leading coefficient is zero")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.coeffs)

    def to_json(self) -> str:
        if self.is_real:
            entries = [float(c) for c in self.coeffs]
        else:
            entries = [[float(c.real), float(c.imag)] for c in self.coeffs]
        return json.dumps({"degree": self.degree, "coeffs": entries})

    @classmethod
    def from_json(cls, text: str) -> "Coefficients":
        obj = json.loads(text)
        raw = obj["coeffs"]
        if any(isinstance(e, list) for e in raw):
            arr = np.array([complex(e[0], e[1]) if isinstance(e, list) else complex(e)
                            for e in raw])
        else:
            arr = np.array(raw, dtype=np.float64)
        if obj.get("degree") is not None and obj["degree"] != len(raw) - 1:
            raise ValueError("stated degree does not match coefficient count")
        return cls(arr)


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Counter-derived stream for one trial: independent of scheduling order."""
    if master_seed < 0 or trial < 0:
        raise ValueError(f"seed and trial must be >= 0, got {master_seed} and {trial}")
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(trial,)))


def sample_kac(dist: CoefficientDistribution, n: int, master_seed: int,
               trial: int) -> Coefficients:
    """Draw the n+1 coefficients of a random degree-n polynomial.

    Deterministic in (dist, n, master_seed, trial).  Raises
    DegenerateDegreeError if the leading draw is zero, which only a law with
    an atom at zero can give.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    return Coefficients(dist.draw(trial_rng(master_seed, trial), n + 1))


def _stack(z: np.ndarray):
    """The evaluation axis of the points z: (w, h, pos).

    A point with |z| <= 1 is evaluated as p(z) = sum_k c_k z^k and any other
    as the reversed polynomial q(u) = u^n p(1/u) at u = 1/z, so no power of a
    modulus above one is ever formed.  The axis ``w`` holds the inside
    points before column ``h`` and the reciprocals of the outside ones from
    column ``h`` on, each half zero-padded to a multiple of 16 points, the
    inside half at its front and the outside half at its end.  Every
    product and elementwise loop over the axis then has a length that is a
    multiple of 16, on which numpy's and OpenBLAS's vector paths round each
    point alike, so a point's bits do not depend on the other points of its
    call (a one-column product goes to gemv and a one-point in-place
    product to a scalar loop, which round differently).  ``pos`` has the
    shape of z and holds each point's column, so ``pos < h`` marks the
    inside points and ``x[pos]`` reads a result on the axis back in the
    order of z.  The padded columns hold w = 0, where a quotient of the
    values may divide by zero, so callers divide only inside
    ``np.errstate``.
    """
    inside = np.abs(z) <= 1.0
    mi = int(np.count_nonzero(inside))
    h = -(-mi // 16) * 16
    mo = z.size - mi
    w = np.zeros(h + -(-mo // 16) * 16, dtype=np.complex128)
    w[h - mi:h] = z[inside]
    w[h:h + mo] = 1.0 / z[~inside]
    pos = np.empty(z.shape, dtype=np.intp)
    pos[inside] = np.arange(h - mi, h)
    pos[~inside] = np.arange(h, h + mo)
    return w, h, pos


def _blocked_values(coeffs: np.ndarray, w: np.ndarray, h: int, deriv: bool):
    """Values (and derivatives) on the point axis in about sqrt(n) steps.

    Paterson-Stockmeyer baby steps / giant steps: with B = ceil(sqrt(n+1)),
    p(w) = sum_k V_k (w^B)^k where V_k = sum_j c_(kB+j) w^j.  The (B x
    points) power table w^0..w^(B-1) is formed once per point of the axis
    of :func:`_stack` by doubling: for s = 1, 2, 4, ... rows [s, 2s) are
    rows [0, s) times w^s = w^(s-1) w, one broadcast product over the
    whole padded axis, so ceil(log2 B) of them fill it and w^j still
    takes j - 1 products.  The zero-padded blocks of B coefficients are
    contracted against it by one ``np.matmul`` (a BLAS GEMM, pinned to one
    thread when this module is imported) per half, and Horner in w^B runs
    over the ceil((n+1)/B) block values.  Real coefficients are contracted
    in float64 on the table's float64 view.  The derivative reuses the
    power table on the coefficients (k+1) c_(k+1).  The columns before
    ``h`` take c_k, the rest the reversed coefficients.
    """
    n = coeffs.size - 1
    r = math.isqrt(n + 1)
    nb = r if r * r == n + 1 else r + 1
    nk = -(-(n + 1) // nb)
    rows = 2 if deriv else 1
    cols = np.zeros((2, rows, nk * nb), dtype=coeffs.dtype)
    cols[0, 0, :n + 1] = coeffs
    cols[1, 0, :n + 1] = coeffs[::-1]
    if deriv:
        mult = np.arange(1, n + 1)
        cols[0, 1, :n] = coeffs[1:] * mult
        cols[1, 1, :n] = coeffs[-2::-1] * mult
    # row k * rows + s of a half holds block k of coefficient row s
    blocks = (cols.reshape(2, rows, nk, nb).transpose(0, 2, 1, 3)
              .reshape(2, nk * rows, nb))
    powers = np.empty((nb, w.size), dtype=np.complex128)
    powers[0] = 1.0
    s = 1
    while s < nb:
        t = min(2 * s, nb)
        np.multiply(powers[:t - s], powers[s - 1] * w, out=powers[s:t])
        s = t
    giant = powers[-1] * w
    vals = np.empty((nk, rows, w.size), dtype=np.complex128)
    table, out, m = powers, vals.reshape(nk * rows, -1), h
    if not np.iscomplexobj(coeffs):
        # the float64 view of the table interleaves Re w^j and Im w^j of
        # each point along row j, as the float64 view of vals interleaves
        # the parts of the block values: real blocks contract against it
        # straight into vals
        table, out, m = table.view(np.float64), out.view(np.float64), 2 * h
    for half, sl in zip(blocks, (slice(None, m), slice(m, None))):
        np.matmul(half, table[:, sl], out=out[:, sl])
    acc = vals[-1]
    for k in range(nk - 2, -1, -1):
        acc *= giant
        acc += vals[k]
    return acc[0], (acc[1] if deriv else None)


def _giant_first_with_scale(coeffs: np.ndarray, w: np.ndarray, h: int):
    """Values and scales sum_k |c_k| |w|^k on the evaluation axis in about
    3 sqrt(n) vectorised steps: the residual certificate's own evaluator.

    The Paterson-Stockmeyer split taken giant steps first: with
    B = ceil(sqrt(n+1)), nk = ceil((n+1)/B) and W = w^B, formed by B - 1
    products, p(w) = sum_j w^j V_j where V_j = sum_k c_(kB+j) W^k.  The
    (nk x points) giant table W^0..W^(nk-1) is formed once per point of
    the axis of :func:`_stack` (nk - 1 products), the transposed
    coefficient columns are contracted against it by one ``np.matmul`` per
    half (in float64 on the table's float64 view for real coefficients)
    and Horner in w runs over the B column values.  The scale takes the
    same steps in float64 on |c_k| and |w|.  The solver's kernel
    (:func:`_blocked_values`) runs the opposite order, baby powers and
    block values and then Horner in w^B, and this shares none of its
    arithmetic or arrays, only the point layout.  The columns before ``h``
    take c_k, the rest the reversed coefficients.
    """
    n = coeffs.size - 1
    r = math.isqrt(n + 1)
    nb = r if r * r == n + 1 else r + 1
    nk = -(-(n + 1) // nb)
    cols = np.zeros((2, nk * nb), dtype=coeffs.dtype)
    cols[0, :n + 1] = coeffs
    cols[1, :n + 1] = coeffs[::-1]
    # column j of a half's (B x nk) matrix is coefficient c_(kB+j) at row k
    cols = cols.reshape(2, nk, nb).transpose(0, 2, 1)
    acols = np.abs(cols)
    aw = np.abs(w)
    big, abig = w.copy(), aw.copy()
    for _ in range(nb - 1):
        big *= w
        abig *= aw
    # the rows are filled by a loop, which runs faster than an accumulate
    # along them
    giant = np.empty((nk, w.size), dtype=np.complex128)
    agiant = np.empty((nk, w.size), dtype=np.float64)
    giant[0], agiant[0] = 1.0, 1.0
    for k in range(1, nk):
        np.multiply(giant[k - 1], big, out=giant[k])
        np.multiply(agiant[k - 1], abig, out=agiant[k])
    vals = np.empty((nb, w.size), dtype=np.complex128)
    scales = np.empty((nb, w.size), dtype=np.float64)
    table, out, m = giant, vals, h
    if not np.iscomplexobj(coeffs):
        # the float64 views interleave the parts of each point, so real
        # columns contract against the table straight into vals
        table, out, m = giant.view(np.float64), vals.view(np.float64), 2 * h
    for half, sl, asl in ((0, slice(None, m), slice(None, h)),
                          (1, slice(m, None), slice(h, None))):
        np.matmul(cols[half], table[:, sl], out=out[:, sl])
        np.matmul(acols[half], agiant[:, asl], out=scales[:, asl])
    f, s = vals[-1], scales[-1]
    for j in range(nb - 2, -1, -1):
        f *= w
        f += vals[j]
        s *= aw
        s += scales[j]
    return f, s


def log_abs_deriv(p: Coefficients, z: np.ndarray) -> np.ndarray:
    """log|p'(z)| elementwise, with the same overflow-safe split."""
    n = p.degree
    dcoeffs = p.coeffs[1:] * np.arange(1, n + 1)
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    w, h, pos = _stack(z)
    f, _ = _blocked_values(dcoeffs, w, h, False)
    outside = pos >= h
    with np.errstate(divide="ignore"):
        out = np.log(np.abs(f[pos]))
        out[outside] += (n - 1) * np.log(np.abs(z[outside]))
    return out


def newton_ratio(p: Coefficients, z: np.ndarray) -> np.ndarray:
    """p(z)/p'(z) elementwise without overflow.

    For |z| > 1, with q(u) = u^n p(1/u) (reversed coefficients),
    p/p' at z = 1/u equals q(u) / (u * (n q(u) - u q'(u))).
    """
    n = p.degree
    w, h, pos = _stack(np.asarray(z, dtype=np.complex128))
    f, fp = _blocked_values(p.coeffs, w, h, True)
    u = w[h:]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # outside, the denominator u (n q - u q') takes the place of q'
        fp[h:] = u * (n * f[h:] - u * fp[h:])
        ratio = f / fp
    # the ellipsis keeps the result of a 0-d z a 0-d array, not a scalar
    return ratio[pos, ...]


def relative_residual(p: Coefficients, z: np.ndarray) -> np.ndarray:
    """|p(z)| / sum_k |c_k||z|^k elementwise, stable for any modulus.

    Values and scales come from :func:`_giant_first_with_scale`, which
    takes the Paterson-Stockmeyer split in the opposite order to the
    solver's kernel and shares none of its intermediates, so the
    certificate is independent of the solve it checks.  With
    B = ceil(sqrt(n+1)) and nk = ceil((n+1)/B), its forward error at the
    stacked point w is at most sum_i gamma_(3i + (i mod B) + nk) |c_i| |w|^i
    for the value and sum_i gamma_(2i + (i mod B) + nk + 1) |c_i| |w|^i
    for the scale; outside the circle w = fl(1/z), which adds 6i to each
    index (derived in ``tests/test_polynomials.py``).  A point whose value
    or scale is not finite (coefficients too large for float64) gets
    residual inf, never 0.
    """
    w, h, pos = _stack(np.atleast_1d(np.asarray(z, dtype=np.complex128)))
    with np.errstate(over="ignore", invalid="ignore"):
        f, s = _giant_first_with_scale(p.coeffs, w, h)
        res = np.abs(f) / s
    res[~(np.isfinite(f) & np.isfinite(s))] = np.inf
    return res[pos]


def circle_value_and_slope(coeffs: np.ndarray, thetas: np.ndarray):
    """Values F and angular derivatives J of the polynomial at e^(i theta).

    One deriv pass of the shared evaluation kernel: inside its split
    F = f(z) and J = i z f'(z); in the reversed half F = q(u) and
    J = -i u q'(u) with u = 1/z, since q(u) = u^n f(z) has the same modulus
    as f on the circle (up to |z|^n = 1 +- n eps).  Both are returned in the
    order of ``thetas``.
    """
    w, h, pos = _stack(np.exp(1j * thetas))
    f, fp = _blocked_values(coeffs, w, h, True)
    jac = w * fp
    jac[:h] *= 1j
    jac[h:] *= -1j
    return f[pos], jac[pos]


def circle_values(coeffs: np.ndarray, grid_points: int) -> np.ndarray:
    """Values of the polynomial on the uniform angular grid of the unit
    circle.

    Entry j is the value at exp(2*pi*i*j/grid_points), computed in one FFT
    pass.  For real coefficients that pass is a half-length real FFT r,
    whose entry j is f(exp(-2*pi*i*j/M)) for j <= M//2 (M = grid_points);
    as f(conj z) = conj f(z), entry j of the grid is conj(r[j]) up to M//2
    and r[M - j] above.  An FFT shorter than the coefficient list would
    drop c_k for k >= M instead of aliasing it, so such a grid raises
    ValueError.
    """
    c = np.asarray(coeffs)
    if grid_points < c.size:
        raise ValueError(f"a {grid_points}-point circle grid cannot hold "
                         f"{c.size} coefficients")
    if np.iscomplexobj(c):
        return np.fft.ifft(np.asarray(coeffs, dtype=np.complex128),
                           grid_points) * grid_points
    r = np.fft.rfft(c, grid_points)
    vals = np.empty(grid_points, dtype=np.complex128)
    np.conjugate(r, out=vals[:r.size])
    vals[r.size:] = r[grid_points - r.size:0:-1]
    return vals
