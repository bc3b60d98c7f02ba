import cmath
import math
import random

import numpy as np
import pytest

import rolecomms
from rolecomms import numerics
from rolecomms.errors import NumericError
from rolecomms.numerics import (
    _BLOCK,
    _HEAD,
    _MASK64,
    _WEYL,
    MAX_SEED,
    Rng,
    _mix64,
    derive_seed,
    eigenvalues,
    gaussian,
)
from rolecomms.potential_field import FieldParams, repulsive_magnitude
from rolecomms.table_sim import infer_obstacle


def char_poly_residual(m, lam):
    m = np.asarray(m, dtype=float)
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return abs(lam * lam - tr * lam + det)


def by_real_imag(values):
    return tuple(sorted(values, key=lambda z: (z.real, z.imag)))


class TestClosedForm:
    """A 2x2 matrix takes the closed form."""

    def test_identity(self):
        assert eigenvalues([[1, 0], [0, 1]]) == (1 + 0j, 1 + 0j)

    def test_rotation_generator(self):
        assert eigenvalues([[0, 1], [-1, 0]]) == (-1j, 1j)

    def test_speaker_listener_closed_loop_is_one_plus_minus_i(self):
        # closed loop of the double-integrator example: only the first
        # speaker gain enters the spectrum, the listener gains cancel out
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        B = np.array([[0.0, 0.0], [1.0, 0.0]])
        rng = random.Random(7)
        for _ in range(25):
            k21 = rng.uniform(-10, 10)
            k22 = rng.uniform(-10, 10)
            K = np.array([[1.0, 0.0], [k21, k22]])
            assert eigenvalues(A - B @ K) == (1 - 1j, 1 + 1j)

    def test_characteristic_polynomial_residual(self):
        rng = random.Random(99)
        for _ in range(300):
            m = [[rng.uniform(-100, 100) for _ in range(2)] for _ in range(2)]
            for lam in eigenvalues(m):
                assert char_poly_residual(m, lam) < 1e-10 * max(
                    1.0, abs(lam) ** 2
                )

    def test_conjugate_or_real_pair(self):
        rng = random.Random(3)
        for _ in range(100):
            m = [[rng.uniform(-5, 5) for _ in range(2)] for _ in range(2)]
            e1, e2 = eigenvalues(m)
            if e1.imag != 0:
                assert e2 == e1.conjugate() and e1.imag < 0
            else:
                assert e2.imag == 0 and e1.real <= e2.real

    @pytest.mark.parametrize(
        "m",
        [
            # once a determinant underflowing to 0: a real pair [-5e-171, 0]
            [[-1e-170, 2e-170], [-3e-170, 0.0]],
            # once a real pair rather than 1e-200 +- 1e-200i
            [[1e-200, 1e-200], [-1e-200, 1e-200]],
            # once a trace squared overflowing to inf: "not finite"
            [[1e300, 0.0], [0.0, 1e308]],
            [[-1.7e308, 1.7e308], [-1.7e308, -1.7e308]],
            [[5e-324, 0.0], [0.0, -5e-324]],
            # once a determinant 1e-340 underflowing to 0: roots -1e-140, -0.0
            [[-1e-140, 0.0], [0.0, -1e-200]],
        ],
        ids=["underflowing_det", "underflowing_complex", "overflowing_trace", "largest", "smallest",
             "underflowing_real_det"],
    )
    def test_matches_numpy_at_extreme_magnitudes(self, m):
        ours = eigenvalues(m)
        theirs = by_real_imag(np.linalg.eigvals(np.array(m)))
        for a, b in zip(ours, theirs):
            assert cmath.isfinite(a)
            assert abs(a.real - b.real) <= 1e-14 * abs(b) and abs(a.imag - b.imag) <= 1e-14 * abs(b)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"^expected a square matrix, got shape \(2, 3\)"):
            eigenvalues([[1, 2, 3], [4, 5, 6]])

    @pytest.mark.parametrize("m", [[[math.inf, 0], [0, 1]], np.diag([1.0, math.nan, 2.0])], ids=["2x2", "3x3"])
    def test_rejects_nonfinite(self, m):
        with pytest.raises(ValueError, match="^matrix entries must be finite"):
            eigenvalues(m)

    def test_overflowing_root_is_infinite(self):
        # the eigenvalues of this matrix are 2e308 and 0
        assert eigenvalues([[1e308, 1e308], [1e308, 1e308]]) == (0j, complex(math.inf))

    def test_scaling_keeps_the_closed_form_bits(self):
        def closed_form(m):
            # the formula on the unscaled entries, where nothing over- or
            # underflows for magnitudes within (1e-140, 1e140)
            (p, q), (r, s) = m
            tr = p + s
            det = p * s - q * r
            disc = tr * tr - 4.0 * det
            if disc >= 0.0:
                root = math.sqrt(disc)
                r1 = 0.5 * (tr + root) if tr >= 0.0 else 0.5 * (tr - root)
                return complex(r1), complex(det / r1 if r1 != 0.0 else 0.0)
            imag = 0.5 * math.sqrt(-disc)
            return complex(0.5 * tr, imag), complex(0.5 * tr, -imag)

        def bits(values):
            return [(z.real.hex(), z.imag.hex()) for z in values]

        rng = random.Random(20)
        for _ in range(5000):
            scale = 10.0 ** rng.uniform(-140, 140)
            m = [[rng.uniform(-1, 1) * scale for _ in range(2)] for _ in range(2)]
            assert bits(eigenvalues(m)) == bits(by_real_imag(closed_form(m)))


class TestLapack:
    """Every size but 2 takes LAPACK, each value checked."""

    def test_diagonal(self):
        vals = eigenvalues(np.diag([2.0, 3.0, 5.0]))
        assert np.allclose([v.real for v in vals], [2, 3, 5])
        assert all(v.imag == 0 for v in vals)

    def test_one_by_one(self):
        assert eigenvalues([[-2.5]]) == (-2.5 + 0j,)

    def test_companion_cube_roots_of_unity(self):
        companion = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
        vals = eigenvalues(companion)
        expected = by_real_imag(cmath.exp(2j * cmath.pi * k / 3) for k in range(3))
        for a, b in zip(vals, expected):
            assert abs(a - b) < 1e-9

    @pytest.mark.parametrize("n", [0, 9])
    def test_dimension_cap(self, n):
        with pytest.raises(ValueError, match=f"^matrix dimension {n} is outside the supported 1..8"):
            eigenvalues(np.eye(n))

    @pytest.mark.parametrize("scale", [1.0, 1e300])
    def test_tight_tolerance_raises(self, monkeypatch, scale):
        # LAPACK's iterated roots carry ~1e-16 backward error, which the
        # residual verification must catch at an impossible tolerance; at
        # 1e300 the matrix's Frobenius norm overflows, its largest entry not
        monkeypatch.setattr(numerics, "_EIG_TOL", 1e-18)
        companion = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]]) * scale
        with pytest.raises(NumericError, match="fails the residual check"):
            eigenvalues(companion)

    def test_non_convergence_raises(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(NumericError, match="^eigenvalue iteration did not converge"):
            eigenvalues(np.eye(3))

    def test_non_finite_value_is_returned_unverified(self, monkeypatch):
        # the eigenvalues 3e308 and 0 (twice) are beyond the float range and
        # below LAPACK's accuracy; no tolerance is applied to what cannot be
        # checked
        monkeypatch.setattr(numerics, "_EIG_TOL", 0.0)
        vals = eigenvalues(np.full((3, 3), 1e308))
        assert len(vals) == 3 and all(cmath.isfinite(v) for v in vals[:2])
        assert vals[2] == complex(math.inf)

    def test_extreme_diagonal_passes_the_check(self):
        # unscaled, m - lambda I holds -2e308, which is -inf
        assert eigenvalues(np.diag([1e308, -1e308, 1.0])) == (-1e308 + 0j, 1 + 0j, 1e308 + 0j)


class TestBisect:
    def test_repulsive_magnitude_inversion(self):
        # (1/rho - 1/rho0)(1/rho) = c with w_rep = rho0 = 1, c = 2 has the
        # root rho = 0.5; the bisection that inverts the field magnitude runs
        # inside infer_obstacle
        params = FieldParams(w_att=1.0, w_rep=1.0, w_v=0.125, rho0=1.0)
        c = 2.0
        q = (5.0, 0.0)
        # at q with the goal at (10, 0) the attractive term is (-1, 0), so
        # v = w_v*(c + 1, 0) leaves a residual of (c, 0); radius 0 puts the
        # center at boundary distance rho from q
        got = infer_obstacle((params.w_v * (c + 1.0), 0.0), q, (10.0, 0.0), params, 0.0, tol=1e-10)
        root = math.dist(got[:2], q)
        assert abs(root - 0.5) < 1e-9
        assert abs(repulsive_magnitude(root, params) - c) < 1e-7  # forward substitution


class TestRng:
    def test_known_stream_head(self):
        # splitmix64 reference vector for seed 0, as its uniform
        assert Rng(0).uniform() == ((0xE220A8397B1DCDAF >> 11) + 1) / 2**53

    def test_same_seed_same_stream(self):
        a = Rng(123456789)
        b = Rng(123456789)
        assert [a.uniform() for _ in range(1000)] == [b.uniform() for _ in range(1000)]

    def test_uniform_in_half_open_interval(self):
        rng = Rng(42)
        for _ in range(10000):
            u = rng.uniform()
            assert 0.0 < u <= 1.0

    def test_derive_seed_varies_with_salt(self):
        seeds = {derive_seed(7, salt) for salt in range(100)}
        assert len(seeds) == 100

    @pytest.mark.parametrize("seed", [-1, MAX_SEED + 1])
    def test_derive_seed_refuses_a_seed_outside_the_range(self, seed):
        # -1 once derived the same stream as MAX_SEED
        with pytest.raises(ValueError, match=rf"^seed must be in \[0, {MAX_SEED}\], got {seed}$"):
            derive_seed(seed, 0)


def unxorshift(y: int, shift: int) -> int:
    """The x with x ^ (x >> shift) == y; each pass fixes shift more high bits."""
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def unmix64(z: int) -> int:
    """The inverse of _mix64: each xorshift undone, each multiplier by its
    inverse modulo 2**64."""
    z = unxorshift(z, 31)
    z = z * pow(0x94D049BB133111EB, -1, 2**64) & _MASK64
    z = unxorshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 2**64) & _MASK64
    return unxorshift(z, 30)


class TestUniformConversion:
    """A draw's uniform ((z >> 11) + 1) / 2**53 is exact at its extremes, in
    the scalar head and in a numpy block."""

    @pytest.mark.parametrize("k", [1, _HEAD + 1])
    @pytest.mark.parametrize(
        "raw, want",
        [(2**64 - 1, 1.0), (0, 2.0**-53), (2**11 - 1, 2.0**-53), (2**11, 2.0**-52)],
    )
    def test_extreme_raw_draws(self, k, raw, want):
        # the seed whose draw k is raw
        assert _mix64(unmix64(raw)) == raw
        seed = (unmix64(raw) - k * _WEYL) & _MASK64
        rng = Rng(seed)
        for _ in range(k - 1):
            rng.uniform()
        assert rng.uniform() == want


# whether numpy is loaded before the stream's draws and after, then each draw
# of a uniform ("u") and gaussian ("g") call sequence, in hex
_FIRST_BLOCK_PROBE = """
import sys
from rolecomms.numerics import Rng, gaussian
before = "numpy" in sys.modules
rng = Rng(int(sys.argv[1]))
values = [0.5 + gaussian(rng, 2.0) if op == "g" else rng.uniform() for op in sys.argv[2]]
print(before, "numpy" in sys.modules, *(v.hex() for v in values))
"""


class TestBlockStream:
    """Draws made ahead in numpy blocks equal the scalar definition."""

    DRAWS = 1000
    # the last scalar draw and the last draw of each block; a gaussian
    # starting at one takes its two draws across the boundary
    BOUNDARIES = tuple(range(_HEAD, DRAWS, _BLOCK))
    # the first draw of each block; a gaussian starting at one builds the
    # block for its first draw and pops its second from it, as every noisy
    # game stream does at draw 33
    FIRSTS = tuple(k + 1 for k in BOUNDARIES)
    SEEDS = (0, 1, 2**63, 2**64 - 1, 2**64 - _WEYL)

    @staticmethod
    def scalar_uniform(seed: int, k: int) -> float:
        return ((_mix64((seed + k * _WEYL) & _MASK64) >> 11) + 1) * (1.0 / 9007199254740992.0)

    def calls(self, gauss_at: tuple[int, ...]) -> str:
        """Uniform ("u") and gaussian ("g") calls over draws 1..DRAWS,
        alternating, with a gaussian starting at each draw of gauss_at."""
        ops, k, starts = "", 1, []
        while k <= self.DRAWS:
            gauss = k in gauss_at or (k < self.DRAWS and k + 1 not in gauss_at and len(ops) % 2)
            ops += "g" if gauss else "u"
            if gauss:
                starts.append(k)
            k += 2 if gauss else 1
        assert k == self.DRAWS + 1 and set(gauss_at) <= set(starts) and len(gauss_at) == 4
        return ops

    def scalar_values(self, seed: int, ops: str) -> list[float]:
        values, k = [], 1
        for op in ops:
            if op == "u":
                values.append(self.scalar_uniform(seed, k))
                k += 1
            else:
                u1 = self.scalar_uniform(seed, k)
                u2 = self.scalar_uniform(seed, k + 1)
                z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
                values.append(0.5 + 2.0 * z)
                k += 2
        return values

    def assert_stream_matches(self, seed: int, gauss_at: tuple[int, ...]) -> None:
        rng = Rng(seed)
        ops = self.calls(gauss_at)
        got = [0.5 + gaussian(rng, 2.0) if op == "g" else rng.uniform() for op in ops]
        assert got == self.scalar_values(seed, ops)
        assert rng.uniform() == self.scalar_uniform(seed, self.DRAWS + 1)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mixed_calls_match_scalar_definition(self, seed):
        self.assert_stream_matches(seed, self.BOUNDARIES)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gaussian_starting_a_block_matches_scalar_definition(self, seed):
        self.assert_stream_matches(seed, self.FIRSTS)

    def test_first_block_loads_numpy_and_matches_scalar_definition(self, fresh_python):
        # the tests above run where numpy is loaded already; here a fresh
        # interpreter draws the first block, which loads it
        seed = 2**64 - _WEYL
        for gauss_at in (self.BOUNDARIES, self.FIRSTS):
            ops = self.calls(gauss_at)
            out = fresh_python(_FIRST_BLOCK_PROBE, str(seed), ops).split()
            assert out[:2] == ["False", "True"]
            assert out[2:] == [v.hex() for v in self.scalar_values(seed, ops)]


class TestGaussian:
    def test_zero_stddev_returns_zero_exactly(self):
        rng = Rng(1)
        assert math.copysign(1.0, gaussian(rng, 0.0)) == 1.0
        assert 3.0 + gaussian(rng, 0.0) == 3.0
        # and consumes nothing: identical next draw to a fresh stream
        assert rng.uniform() == Rng(1).uniform()

    def test_negative_stddev_raises(self):
        with pytest.raises(ValueError):
            gaussian(Rng(1), -1.0)

    @pytest.mark.parametrize("stddev", [math.nan, math.inf])
    def test_nan_or_infinite_stddev_raises_without_draws(self, stddev):
        rng = Rng(1)
        with pytest.raises(ValueError, match="stddev must be finite"):
            gaussian(rng, stddev)
        assert rng.uniform() == Rng(1).uniform()

    def test_same_seed_same_sample(self):
        assert gaussian(Rng(77), 1.0) == gaussian(Rng(77), 1.0)

    def test_clt_mean_bound(self):
        rng = Rng(2026)
        n = 100_000
        total = 0.0
        for _ in range(n):
            total += gaussian(rng, 1.0)
        assert abs(total / n) < 4.0 / math.sqrt(n)

    def test_sample_variance(self):
        rng = Rng(515)
        n = 100_000
        samples = [gaussian(rng, 1.0) for _ in range(n)]
        mean = sum(samples) / n
        var = sum((x - mean) ** 2 for x in samples) / n
        assert abs(var - 1.0) < 0.02


def test_vec2_is_retired():
    # a point is a plain (x, y) tuple everywhere
    assert not hasattr(rolecomms, "Vec2")
    assert not hasattr(numerics, "Vec2")


def test_next_u64_is_retired():
    # a stream yields uniforms only; its blocks hold no raw integers
    assert not hasattr(Rng, "next_u64")
