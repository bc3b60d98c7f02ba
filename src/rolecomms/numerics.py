"""Small numeric utilities: 2D vectors, eigenvalues, bisection, seeded sampling.

The random generator is splitmix64 (Steele, Lea & Flood's 64-bit mixer with a
golden-ratio Weyl increment). It is pinned by construction so that equal seeds
produce bit-identical streams on every platform and Python version: draw k
(k = 1, 2, ...) of the stream seeded s is _mix64((s + k * _WEYL) mod 2**64),
whether it is mixed alone or in a numpy uint64 block, whose arithmetic wraps
the same way. Gaussian samples come from a Box-Muller transform of two raw
draws per call, never from rejection sampling, so the stream position after k
calls is always 2k draws.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import BracketingError, NumericError

_MASK64 = (1 << 64) - 1
_WEYL = 0x9E3779B97F4A7C15
_TWO_PI = 2.0 * math.pi

# A stream mixes its first _HEAD draws one at a time, so short streams (an
# environment's) never pay numpy's per-call cost, and later ones _BLOCK at once.
_HEAD = 32
_BLOCK = 256
_WEYL_STEPS = np.array([k * _WEYL & _MASK64 for k in range(1, _BLOCK + 1)], dtype=np.uint64)
# np.uint64, so that numpy 1.x's value-based casting cannot widen them to float
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)


class Vec2(NamedTuple):
    x: float
    y: float

    def __add__(self, other):  # type: ignore[override]
        return Vec2(self.x + other[0], self.y + other[1])

    def __sub__(self, other):
        return Vec2(self.x - other[0], self.y - other[1])

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y)


def _mix64(z: int) -> int:
    """splitmix64 output mixer."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *salts: int) -> int:
    """Derive an independent child seed from a base seed and salt values.

    Each salt is absorbed through one splitmix64 round, so distinct salt
    tuples give statistically independent streams.
    """
    s = _mix64(seed & _MASK64)
    for salt in salts:
        s = _mix64((s + _WEYL + (salt & _MASK64)) & _MASK64)
    return s


class Rng:
    """Deterministic splitmix64 stream.

    Draws past the first _HEAD come from numpy blocks, next draw last in `_block`.

    Single-owner: do not share one instance across concurrent tasks; derive
    child seeds with :func:`derive_seed` instead.
    """

    __slots__ = ("_state", "_head", "_block")

    def __init__(self, seed: int):
        self._state = seed & _MASK64  # the Weyl sum of the last draw computed
        self._head = _HEAD
        self._block: list[int] = []

    def next_u64(self) -> int:
        block = self._block
        if block:
            return block.pop()
        if self._head:
            self._head -= 1
            self._state = (self._state + _WEYL) & _MASK64
            return _mix64(self._state)
        z = _WEYL_STEPS + np.uint64(self._state)
        self._state = (self._state + _BLOCK * _WEYL) & _MASK64
        # _mix64 of each element; uint64 arrays wrap without a warning
        z ^= z >> _S30
        z *= _M1
        z ^= z >> _S27
        z *= _M2
        z ^= z >> _S31
        self._block = block = z[::-1].tolist()
        return block.pop()

    def uniform(self) -> float:
        """Uniform draw in the half-open interval (0, 1]."""
        block = self._block
        z = block.pop() if block else self.next_u64()
        return ((z >> 11) + 1) * (1.0 / 9007199254740992.0)


def gaussian(rng: Rng, mean: float, stddev: float) -> float:
    """One sample from N(mean, stddev^2) via the Box-Muller transform.

    stddev = 0 returns the mean exactly and consumes no draws; otherwise the
    call consumes exactly two raw draws regardless of inputs.
    """
    if stddev < 0:
        raise ValueError(f"stddev must be >= 0, got {stddev}")
    if stddev == 0.0:
        return mean
    u1 = rng.uniform()
    u2 = rng.uniform()
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(_TWO_PI * u2)
    return mean + stddev * z


def bisect(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Root of a sign-changing function by interval halving.

    Runs until the bracket width drops below tol; the iteration count is at
    most ceil(log2((hi - lo) / tol)) + 1. Raises BracketingError when f(lo)
    and f(hi) share a sign.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise BracketingError(f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")
    lo_pos = flo > 0
    while (hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # bracket at floating-point resolution
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0) == lo_pos:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def eig2x2(m) -> tuple[complex, complex]:
    """Both eigenvalues of a real 2x2 matrix, in closed form.

    Returns the roots of lambda^2 - tr(m) lambda + det(m). For real input the
    pair is either both real or a conjugate pair.
    """
    a = np.asarray(m, dtype=float)
    if a.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    tr = a[0, 0] + a[1, 1]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        root = math.sqrt(disc)
        # Add the half-trace and half-root with matching signs first to avoid
        # cancellation, then recover the partner root from the product.
        if tr >= 0.0:
            r1 = 0.5 * (tr + root)
        else:
            r1 = 0.5 * (tr - root)
        # r1 == 0 forces tr == root == 0, hence det == 0 and both roots are 0.
        r2 = det / r1 if r1 != 0.0 else 0.0
        return complex(r1), complex(r2)
    imag = 0.5 * math.sqrt(-disc)
    re = 0.5 * tr
    return complex(re, imag), complex(re, -imag)


_EIG_MAX_DIM = 8


def eig_general(m, tol: float = 1e-9) -> tuple[complex, ...]:
    """Eigenvalues of a small dense matrix (n <= 8).

    Backed by LAPACK's Hessenberg-reduction + shifted-QR iteration. Each
    returned value is verified to make (m - lambda I) rank deficient to within
    tol (scaled by the matrix norm); verification failure or non-convergence
    of the iteration raises NumericError. Output is sorted by (real, imag)
    for deterministic ordering.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > _EIG_MAX_DIM:
        raise ValueError(f"matrix dimension {n} exceeds the supported cap {_EIG_MAX_DIM}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue iteration did not converge: {exc}") from exc
    scale = max(1.0, float(np.linalg.norm(a, ord="fro")))
    eye = np.eye(n)
    for lam in vals:
        sigma_min = np.linalg.svd(a - lam * eye, compute_uv=False)[-1]
        if sigma_min > tol * scale:
            raise NumericError(
                f"eigenvalue {lam} fails the residual check: sigma_min={sigma_min:.3e}"
            )
    ordered = sorted((complex(v) for v in vals), key=lambda z: (z.real, z.imag))
    return tuple(ordered)
