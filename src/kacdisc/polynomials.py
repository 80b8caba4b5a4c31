"""Coefficient distributions, seeded sampling, and polynomial evaluation.

Coefficients are stored in ascending order (c0 first).  Everything here is
pure: sampling is a deterministic function of (distribution, degree, master
seed, trial index), and all returned objects are immutable, so values can be
shared freely between worker processes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDegreeError, DegenerateReciprocalError,
                     NonFiniteCoefficientError)

RADEMACHER = "rademacher"
GAUSSIAN_REAL = "gaussian_real"
GAUSSIAN_COMPLEX = "gaussian_complex"
UNIFORM_INT_CENTERED = "uniform_int_centered"
UNIFORM_INT_RAW = "uniform_int_raw"
FIXED = "fixed"

KINDS = (RADEMACHER, GAUSSIAN_REAL, GAUSSIAN_COMPLEX,
         UNIFORM_INT_CENTERED, UNIFORM_INT_RAW, FIXED)


@dataclass(frozen=True)
class CoefficientDistribution:
    """A named coefficient law for random polynomials.

    ``kind`` is one of :data:`KINDS`.  ``k`` is the support size for the
    uniform-integer kinds (values 1..k before centering).  ``coeffs`` pins an
    explicit coefficient sequence for the ``fixed`` kind, which exists for
    wiring checks.
    """

    kind: str
    k: int = 240
    coeffs: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind in (UNIFORM_INT_CENTERED, UNIFORM_INT_RAW) and self.k < 2:
            raise ValueError("uniform integer kinds need k >= 2")
        if self.kind == FIXED and not self.coeffs:
            raise ValueError("fixed kind needs explicit coefficients")

    @property
    def atom_at_zero(self) -> bool:
        """Centered uniform integers hit zero exactly when k is odd."""
        return self.kind == UNIFORM_INT_CENTERED and self.k % 2 == 1

    @property
    def theorem_eligible(self) -> bool:
        """Mean zero, unit variance, and no atom at zero."""
        return (self.kind in (RADEMACHER, GAUSSIAN_REAL, GAUSSIAN_COMPLEX,
                              UNIFORM_INT_CENTERED)
                and not self.atom_at_zero)

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
        if self.kind == UNIFORM_INT_RAW:
            return rng.integers(1, self.k + 1, size).astype(np.float64)
        # fixed
        if size != len(self.coeffs):
            raise ValueError(
                f"fixed distribution has {len(self.coeffs)} coefficients, "
                f"requested {size}")
        return np.asarray(self.coeffs, dtype=np.float64)


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
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(trial,)))


def sample_kac(dist: CoefficientDistribution, n: int, master_seed: int,
               trial: int) -> Coefficients:
    """Draw the n+1 coefficients of a random degree-n polynomial.

    Deterministic in (dist, n, master_seed, trial).  Raises
    DegenerateDegreeError if the terminal draw is zero (impossible for the
    built-in random kinds, possible for ``fixed``).
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    rng = trial_rng(master_seed, trial)
    draws = dist.draw(rng, n + 1)
    if draws[-1] == 0:
        raise DegenerateDegreeError("terminal coefficient draw was zero")
    return Coefficients(draws)


def _stacked_horner(coeffs: np.ndarray, z: np.ndarray, deriv: bool = False,
                    scale: bool = False):
    """Evaluate over the stacked points [z inside | 1/z outside].

    A point with |z| <= 1 is evaluated as p(z) = sum_k c_k z^k and any other
    as the reversed polynomial q(u) = u^n p(1/u) at u = 1/z, so no power of a
    modulus above one is ever formed.

    Values and derivatives come from the blocked scheme of
    :func:`_blocked_values`.  With ``scale`` the values come instead from a
    plain Horner loop that also accumulates the scales; only the residual
    certificate asks for them, so it shares no arithmetic with the solver
    it checks.

    Returns (inside, mi, w, f, fp, s): the mask, the number of inside
    points, then the stacked points, values, derivatives (None unless
    ``deriv``; never with ``scale``) and scales sum_k |c_k| |w|^k (None
    unless ``scale``), each with its first ``mi`` entries inside.
    """
    inside = np.abs(z) <= 1.0
    w = np.concatenate([z[inside], 1.0 / z[~inside]])
    mi = int(np.count_nonzero(inside))
    if scale:
        f, s = _horner_with_scale(coeffs, w, mi)
        return inside, mi, w, f, None, s
    f, fp = _blocked_values(coeffs, w, mi, deriv)
    return inside, mi, w, f, fp, None


def _blocked_values(coeffs: np.ndarray, w: np.ndarray, mi: int, deriv: bool):
    """Values (and derivatives) at stacked points in about sqrt(n) steps.

    Paterson-Stockmeyer baby steps / giant steps: with B = ceil(sqrt(n+1)),
    p(w) = sum_k V_k (w^B)^k where V_k = sum_j c_(kB+j) w^j.  The power
    table w^0..w^(B-1) is formed once per point, every zero-padded block
    of B coefficients is contracted against it in one ``np.einsum`` per
    half (plain c_einsum: a BLAS product would start OpenBLAS threads that
    oversubscribe the worker pool), and Horner in w^B runs over the
    ceil((n+1)/B) block values.  The derivative reuses the power table on
    the coefficients (k+1) c_(k+1).  The first ``mi`` points take c_k, the
    rest the reversed coefficients.
    """
    n = coeffs.size - 1
    r = math.isqrt(n + 1)
    nb = r if r * r == n + 1 else r + 1
    nk = -(-(n + 1) // nb)
    rows = 2 if deriv else 1
    blocks = np.zeros((2, rows, nk * nb), dtype=coeffs.dtype)
    blocks[0, 0, :n + 1] = coeffs
    blocks[1, 0, :n + 1] = coeffs[::-1]
    if deriv:
        mult = np.arange(1, n + 1)
        blocks[0, 1, :n] = coeffs[1:] * mult
        blocks[1, 1, :n] = coeffs[-2::-1] * mult
    blocks = blocks.reshape(2, rows, nk, nb)
    powers = np.empty((w.size, nb), dtype=np.complex128)
    powers[:, 0] = 1.0
    powers[:, 1:] = w[:, None]
    np.multiply.accumulate(powers, axis=1, out=powers)
    giant = powers[:, -1] * w
    vals = np.empty((nk, rows, w.size), dtype=np.complex128)
    np.einsum("skj,mj->ksm", blocks[0], powers[:mi], out=vals[:, :, :mi])
    np.einsum("skj,mj->ksm", blocks[1], powers[mi:], out=vals[:, :, mi:])
    acc = vals[-1]
    for k in range(nk - 2, -1, -1):
        acc *= giant
        acc += vals[k]
    return acc[0], (acc[1] if deriv else None)


def _horner_with_scale(coeffs: np.ndarray, w: np.ndarray, mi: int):
    """One Horner loop giving values and scales sum_k |c_k| |w|^k.

    Both halves share every multiply; at step k only the added coefficient
    differs (c_(n-k) inside, c_k outside), so each element sees the same
    operations as in a separate pass over its half.
    """
    f = np.empty_like(w)
    f[:mi], f[mi:] = coeffs[-1], coeffs[0]
    f_in, f_out = f[:mi], f[mi:]
    aco = np.abs(coeffs)
    aw = np.abs(w)
    s = np.empty(w.shape, dtype=np.float64)
    s[:mi], s[mi:] = aco[-1], aco[0]
    s_in, s_out = s[:mi], s[mi:]
    if not w.size:
        return f, s
    for c_in, c_out, a_in, a_out in zip(coeffs[-2::-1], coeffs[1:],
                                        aco[-2::-1], aco[1:]):
        f *= w
        f_in += c_in
        f_out += c_out
        s *= aw
        s_in += a_in
        s_out += a_out
    return f, s


def log_abs_deriv(p: Coefficients, z: np.ndarray) -> np.ndarray:
    """log|p'(z)| elementwise, with the same overflow-safe split."""
    n = p.degree
    dcoeffs = p.coeffs[1:] * np.arange(1, n + 1)
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    inside, mi, _, f, _, _ = _stacked_horner(dcoeffs, z)
    out = np.empty(z.shape, dtype=np.float64)
    with np.errstate(divide="ignore"):
        out[inside] = np.log(np.abs(f[:mi]))
        out[~inside] = ((n - 1) * np.log(np.abs(z[~inside]))
                        + np.log(np.abs(f[mi:])))
    return out


def newton_ratio(p: Coefficients, z: np.ndarray) -> np.ndarray:
    """p(z)/p'(z) elementwise without overflow.

    For |z| > 1, with q(u) = u^n p(1/u) (reversed coefficients),
    p/p' at z = 1/u equals q(u) / (u * (n q(u) - u q'(u))).
    """
    n = p.degree
    z = np.asarray(z, dtype=np.complex128)
    inside, mi, w, f, fp, _ = _stacked_horner(p.coeffs, z, deriv=True)
    out = np.empty(z.shape, dtype=np.complex128)
    u, qb, qd = w[mi:], f[mi:], fp[mi:]
    with np.errstate(divide="ignore", invalid="ignore"):
        out[inside] = f[:mi] / fp[:mi]
        out[~inside] = qb / (u * (n * qb - u * qd))
    return out


def relative_residual(p: Coefficients, z: np.ndarray) -> np.ndarray:
    """|p(z)| / sum_k |c_k||z|^k elementwise, stable for any modulus."""
    z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    inside, mi, _, f, _, s = _stacked_horner(p.coeffs, z, scale=True)
    out = np.empty(z.shape, dtype=np.float64)
    out[inside] = np.abs(f[:mi]) / s[:mi]
    out[~inside] = np.abs(f[mi:]) / s[mi:]
    return out


def reciprocal(p: Coefficients) -> Coefficients:
    """Coefficient reversal; roots map to their reciprocals."""
    if p.coeffs[0] == 0:
        raise DegenerateReciprocalError("constant coefficient is zero")
    return Coefficients(np.array(p.coeffs[::-1]))


def circle_values(coeffs: np.ndarray, radius: float, grid_points: int) -> np.ndarray:
    """Values of the polynomial on the uniform angular grid at given radius.

    Entry j is the value at radius * exp(2*pi*i*j/grid_points), computed in
    one FFT pass.
    """
    scaled = np.asarray(coeffs, dtype=np.complex128) * (radius ** np.arange(coeffs.size))
    return np.fft.ifft(scaled, grid_points) * grid_points
