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
    Rng,
    _mix64,
    derive_seed,
    eig2x2,
    eig_general,
    gaussian,
)
from rolecomms.potential_field import FieldParams, repulsive_magnitude
from rolecomms.table_sim import infer_obstacle


def char_poly_residual(m, lam):
    m = np.asarray(m, dtype=float)
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return abs(lam * lam - tr * lam + det)


class TestEig2x2:
    def test_identity(self):
        assert eig2x2([[1, 0], [0, 1]]) == (1 + 0j, 1 + 0j)

    def test_rotation_generator(self):
        e1, e2 = eig2x2([[0, 1], [-1, 0]])
        assert e1 == 1j and e2 == -1j

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
            e1, e2 = eig2x2(A - B @ K)
            assert sorted([e1, e2], key=lambda z: z.imag) == [1 - 1j, 1 + 1j]

    def test_characteristic_polynomial_residual(self):
        rng = random.Random(99)
        for _ in range(300):
            m = [[rng.uniform(-100, 100) for _ in range(2)] for _ in range(2)]
            for lam in eig2x2(m):
                assert char_poly_residual(m, lam) < 1e-10 * max(
                    1.0, abs(lam) ** 2
                )

    def test_conjugate_or_real_pair(self):
        rng = random.Random(3)
        for _ in range(100):
            m = [[rng.uniform(-5, 5) for _ in range(2)] for _ in range(2)]
            e1, e2 = eig2x2(m)
            if e1.imag != 0:
                assert e2 == e1.conjugate()
            else:
                assert e2.imag == 0

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            eig2x2([[1, 2, 3], [4, 5, 6], [7, 8, 9]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            eig2x2([[math.inf, 0], [0, 1]])


class TestEigGeneral:
    def test_diagonal(self):
        vals = eig_general(np.diag([2.0, 3.0, 5.0]))
        assert np.allclose([v.real for v in vals], [2, 3, 5])
        assert all(v.imag == 0 for v in vals)

    def test_matches_eig2x2_on_2x2(self):
        rng = random.Random(11)
        for _ in range(100):
            m = [[rng.uniform(-10, 10) for _ in range(2)] for _ in range(2)]
            general = eig_general(m, tol=1e-9)
            closed = sorted(eig2x2(m), key=lambda z: (z.real, z.imag))
            for a, b in zip(general, closed):
                assert abs(a - b) < 1e-9 * max(1.0, abs(b))

    def test_companion_cube_roots_of_unity(self):
        companion = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
        vals = eig_general(companion)
        expected = sorted(
            (cmath.exp(2j * cmath.pi * k / 3) for k in range(3)),
            key=lambda z: (z.real, z.imag),
        )
        for a, b in zip(vals, expected):
            assert abs(a - b) < 1e-9

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            eig_general(np.eye(9))

    def test_tight_tolerance_raises(self):
        # LAPACK's iterated roots carry ~1e-16 backward error, which the
        # residual verification must catch at an impossible tolerance
        companion = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
        with pytest.raises(NumericError):
            eig_general(companion, tol=1e-18)


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
        # splitmix64 reference vector for seed 0
        assert Rng(0).next_u64() == 0xE220A8397B1DCDAF

    def test_same_seed_same_stream(self):
        a = Rng(123456789)
        b = Rng(123456789)
        assert [a.next_u64() for _ in range(1000)] == [b.next_u64() for _ in range(1000)]

    def test_uniform_in_half_open_interval(self):
        rng = Rng(42)
        for _ in range(10000):
            u = rng.uniform()
            assert 0.0 < u <= 1.0

    def test_derive_seed_varies_with_salt(self):
        seeds = {derive_seed(7, salt) for salt in range(100)}
        assert len(seeds) == 100


# whether numpy is loaded before the stream's draws and after, then each draw
# of a uniform ("u") and gaussian ("g") call sequence, in hex
_FIRST_BLOCK_PROBE = """
import sys
from rolecomms.numerics import Rng, gaussian
before = "numpy" in sys.modules
rng = Rng(int(sys.argv[1]))
values = [gaussian(rng, 0.5, 2.0) if op == "g" else rng.uniform() for op in sys.argv[2]]
print(before, "numpy" in sys.modules, *(v.hex() for v in values))
"""


class TestBlockStream:
    """Draws made ahead in numpy blocks equal the scalar definition."""

    DRAWS = 1000
    # the last scalar draw and the last draw of each block; the next call
    # to gaussian at one of these takes its two draws across the boundary
    BOUNDARIES = tuple(range(_HEAD, DRAWS, _BLOCK))

    @staticmethod
    def scalar_draw(seed: int, k: int) -> int:
        return _mix64((seed + k * _WEYL) & _MASK64)

    def scalar_uniform(self, seed: int, k: int) -> float:
        return ((self.scalar_draw(seed, k) >> 11) + 1) * (1.0 / 9007199254740992.0)

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, 2**64 - _WEYL])
    def test_mixed_calls_match_scalar_definition(self, seed):
        rng = Rng(seed)
        k = 1  # the next draw
        cycle = 0
        straddled = []
        while k <= self.DRAWS:
            if k in self.BOUNDARIES:
                op = "gaussian"
                straddled.append(k)
            elif k + 1 in self.BOUNDARIES or k == self.DRAWS:
                op = "uniform"
            else:
                op = ("next_u64", "uniform", "gaussian")[cycle % 3]
                cycle += 1
            if op == "next_u64":
                assert rng.next_u64() == self.scalar_draw(seed, k)
                k += 1
            elif op == "uniform":
                assert rng.uniform() == self.scalar_uniform(seed, k)
                k += 1
            else:
                u1 = self.scalar_uniform(seed, k)
                u2 = self.scalar_uniform(seed, k + 1)
                z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
                assert gaussian(rng, 0.5, 2.0) == 0.5 + 2.0 * z
                k += 2
        # the scalar/block switch and three block boundaries
        assert straddled == list(self.BOUNDARIES) and len(straddled) == 4
        assert rng.next_u64() == self.scalar_draw(seed, self.DRAWS + 1)

    def test_first_block_loads_numpy_and_matches_scalar_definition(self, fresh_python):
        # the tests above run where numpy is loaded already; here a fresh
        # interpreter draws the first block, which loads it. Uniform and
        # gaussian calls alternate, with a gaussian across each boundary.
        ops, k = "", 1
        while k <= self.DRAWS:
            gauss = k in self.BOUNDARIES or (k < self.DRAWS and k + 1 not in self.BOUNDARIES and len(ops) % 2)
            ops += "g" if gauss else "u"
            k += 2 if gauss else 1
        seed = 2**64 - _WEYL
        expected, k = [], 1
        for op in ops:
            if op == "u":
                expected.append(self.scalar_uniform(seed, k).hex())
                k += 1
            else:
                u1 = self.scalar_uniform(seed, k)
                u2 = self.scalar_uniform(seed, k + 1)
                z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
                expected.append((0.5 + 2.0 * z).hex())
                k += 2
        out = fresh_python(_FIRST_BLOCK_PROBE, str(seed), ops).split()
        assert out[:2] == ["False", "True"]
        assert out[2:] == expected and k == self.DRAWS + 1


class TestGaussian:
    def test_zero_stddev_returns_mean_exactly(self):
        rng = Rng(1)
        assert gaussian(rng, 3.0, 0.0) == 3.0
        # and consumes nothing: identical next draw to a fresh stream
        assert rng.next_u64() == Rng(1).next_u64()

    def test_negative_stddev_raises(self):
        with pytest.raises(ValueError):
            gaussian(Rng(1), 0.0, -1.0)

    @pytest.mark.parametrize("stddev", [math.nan, math.inf])
    def test_nan_or_infinite_stddev_raises_without_draws(self, stddev):
        rng = Rng(1)
        with pytest.raises(ValueError, match="stddev must be finite"):
            gaussian(rng, 0.0, stddev)
        assert rng.next_u64() == Rng(1).next_u64()

    def test_same_seed_same_sample(self):
        assert gaussian(Rng(77), 0.0, 1.0) == gaussian(Rng(77), 0.0, 1.0)

    def test_clt_mean_bound(self):
        rng = Rng(2026)
        n = 100_000
        total = 0.0
        for _ in range(n):
            total += gaussian(rng, 0.0, 1.0)
        assert abs(total / n) < 4.0 / math.sqrt(n)

    def test_sample_variance(self):
        rng = Rng(515)
        n = 100_000
        samples = [gaussian(rng, 0.0, 1.0) for _ in range(n)]
        mean = sum(samples) / n
        var = sum((x - mean) ** 2 for x in samples) / n
        assert abs(var - 1.0) < 0.02


def test_vec2_is_retired():
    # a point is a plain (x, y) tuple everywhere
    assert not hasattr(rolecomms, "Vec2")
    assert not hasattr(numerics, "Vec2")
