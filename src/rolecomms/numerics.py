"""Small numeric utilities: eigenvalues and seeded sampling.

The random generator is splitmix64 (Steele, Lea & Flood's 64-bit mixer with a
golden-ratio Weyl increment). It is pinned by construction so that equal seeds
produce bit-identical streams on every platform and Python version: draw k
(k = 1, 2, ...) of the stream seeded s is _mix64((s + k * _WEYL) mod 2**64),
whether it is mixed alone or in a numpy uint64 block, whose arithmetic wraps
the same way. There is no raw-integer draw: draw z is seen only as the uniform
((z >> 11) + 1) / 2**53 in (0, 1], and a block holds the exact uniforms.
Gaussian samples come from a Box-Muller transform of two uniforms per call,
never from rejection sampling, so after k calls the stream is 2k draws on.

numpy is imported on first use: by a stream's first block (draw 33 on) and by
`eigenvalues`. A program that makes no longer stream and solves no
eigenproblem never loads it.
"""

from __future__ import annotations

import functools
import math

from .errors import NumericError

_MASK64 = (1 << 64) - 1
_WEYL = 0x9E3779B97F4A7C15
_TWO_PI = 2.0 * math.pi
_INF = math.inf

# A stream mixes its first _HEAD draws one at a time, so short streams (an
# environment's) never pay numpy's per-call cost nor load it, and later ones
# _BLOCK at once.
_HEAD = 32
_BLOCK = 256


def _mix64(z: int) -> int:
    """splitmix64 output mixer."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


@functools.cache
def _block_mixer():
    """The function mapping a Weyl sum to the next _BLOCK draws' uniforms, last first.

    Built on the first block, which is where numpy is imported.
    """
    import numpy as np

    steps = np.array([k * _WEYL & _MASK64 for k in range(1, _BLOCK + 1)], dtype=np.uint64)
    # np.uint64, so that numpy 1.x's value-based casting cannot widen them to float
    m1, m2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
    s11, s27, s30, s31, one = (np.uint64(k) for k in (11, 27, 30, 31, 1))

    def mix_block(state: int) -> list[float]:
        z = steps + np.uint64(state)
        # _mix64 of each element; uint64 arrays wrap without a warning
        z ^= z >> s30
        z *= m1
        z ^= z >> s27
        z *= m2
        z ^= z >> s31
        # (z >> 11) + 1 <= 2**53 converts without rounding; scaling by 2**-53 is exact
        return (((z >> s11) + one).astype(np.float64) * 2.0**-53)[::-1].tolist()

    return mix_block


def derive_seed(seed: int, salt: int) -> int:
    """Derive an independent child seed from a base seed and a salt.

    The salt is absorbed through one splitmix64 round, so distinct salts
    give statistically independent streams.
    """
    s = _mix64(seed & _MASK64)
    return _mix64((s + _WEYL + (salt & _MASK64)) & _MASK64)


class Rng:
    """Deterministic splitmix64 stream of uniforms.

    Uniforms past the first _HEAD come from numpy blocks, next draw last in
    `_block`; `uniform` and `gaussian` pop from it, or call `_refill` if empty.

    Single-owner: do not share one instance across concurrent tasks; derive
    child seeds with :func:`derive_seed` instead.
    """

    __slots__ = ("_state", "_head", "_block")

    def __init__(self, seed: int):
        self._state = seed & _MASK64  # the Weyl sum of the last draw computed
        self._head = _HEAD
        self._block: list[float] = []

    def uniform(self) -> float:
        """Uniform draw in the half-open interval (0, 1]."""
        block = self._block
        return block.pop() if block else self._refill()

    def _refill(self) -> float:
        # a caller's list may be stale: a refill before it replaced `_block`
        block = self._block
        if block:
            return block.pop()
        if self._head:
            self._head -= 1
            self._state = (self._state + _WEYL) & _MASK64
            return ((_mix64(self._state) >> 11) + 1) * (1.0 / 9007199254740992.0)
        self._block = block = _block_mixer()(self._state)
        self._state = (self._state + _BLOCK * _WEYL) & _MASK64
        return block.pop()


def gaussian(rng: Rng, stddev: float) -> float:
    """One sample from N(0, stddev^2) via the Box-Muller transform.

    stddev = 0 returns 0.0 and consumes no draws; otherwise the call pops
    exactly two uniforms from the stream's block, as `uniform` does. A
    negative, NaN or infinite stddev raises ValueError.
    """
    if not 0.0 <= stddev < _INF:
        raise ValueError(f"stddev must be finite and >= 0, got {stddev}")
    if stddev == 0.0:
        return 0.0
    block = rng._block
    u1 = block.pop() if block else rng._refill()
    u2 = block.pop() if block else rng._refill()
    return stddev * (math.sqrt(-2.0 * math.log(u1)) * math.cos(_TWO_PI * u2))


_EIG_MAX_DIM = 8
# the bound on the smallest singular value of (m - lambda I) / scale
_EIG_TOL = 1e-9


def eigenvalues(m) -> tuple[complex, ...]:
    """Eigenvalues of a real n x n matrix, 1 <= n <= 8, sorted by (real, imag).

    The size picks the solver, each where it is exact. A 2x2 takes the closed
    form, the roots of lambda^2 - tr(m) lambda + det(m). Any other size takes
    LAPACK's shifted-QR iteration on the unscaled matrix, and each value must
    make (m - lambda I) rank deficient to within _EIG_TOL of the largest
    entry; a failed check or iteration raises NumericError. A root too large
    for a float is infinite, and is returned unchecked for the caller to refuse.
    """
    import numpy as np

    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if not 1 <= n <= _EIG_MAX_DIM:
        raise ValueError(f"matrix dimension {n} is outside the supported 1..{_EIG_MAX_DIM}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    amax = float(np.abs(a).max())
    if n == 2:
        # The trace squared and the determinant over- or underflow long before
        # the roots do (det = -1e-140 * -1e-200 is 0), so the matrix is scaled
        # by 2^-shift to put its largest entry in [1, 2). Every step below then
        # scales exactly, sqrt included, unless a value falls 2^1022 below it.
        shift = math.frexp(amax)[1] - 1 if amax else 0
        (p, q), (r, s) = ([math.ldexp(x, -shift) for x in row] for row in a.tolist())
        # a float multiply, which overflows to infinity where math.ldexp would raise
        unscale = 2.0**shift
        tr = p + s
        det = p * s - q * r
        disc = tr * tr - 4.0 * det
        if disc >= 0.0:
            root = math.sqrt(disc)
            # Add the half-trace and half-root with matching signs first to
            # avoid cancellation, then recover the partner root from the product.
            r1 = 0.5 * (tr + root) if tr >= 0.0 else 0.5 * (tr - root)
            # r1 == 0 forces tr == root == 0, hence det == 0 and both roots are 0.
            vals = (r1 * unscale, (det / r1 if r1 != 0.0 else 0.0) * unscale)
        else:
            imag = 0.5 * math.sqrt(-disc) * unscale
            vals = (complex(0.5 * tr * unscale, imag), complex(0.5 * tr * unscale, -imag))
    else:
        try:
            vals = np.linalg.eigvals(a)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"eigenvalue iteration did not converge: {exc}") from exc
        if np.all(np.isfinite(vals)):
            # The check runs on m / scale: unscaled, m - lambda I and its
            # Frobenius norm overflow from entries near 1e308 and 1e154. The
            # largest entry is within a factor of n of that norm; NaN fails it.
            scale = max(1.0, amax)
            eye = np.eye(n)
            for lam in vals:
                sigma_min = np.linalg.svd(a / scale - (lam / scale) * eye, compute_uv=False)[-1]
                if not sigma_min <= _EIG_TOL:
                    raise NumericError(f"eigenvalue {lam} fails the residual check: sigma_min={sigma_min:.3e}")
    return tuple(sorted((complex(v) for v in vals), key=lambda z: (z.real, z.imag)))
