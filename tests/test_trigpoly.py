import math

import numpy as np
import pytest

from concentra.errors import DomainError
from concentra.trigpoly import (CoeffPoly, Grid, Spectrum, eval_grid, eval_point,
                                fold_power, to_coeffs)
from conftest import dirichlet_value


def direct_kernel_sum(n, x):
    return sum(np.exp(2j * np.pi * v * x) for v in range(n))


class TestDirichletValue:
    def test_at_zero(self):
        assert dirichlet_value(5, 0.0) == 5 + 0j

    def test_root_of_unity(self):
        assert abs(dirichlet_value(3, 1 / 3)) <= 1e-12

    def test_peak_modulus(self):
        got = abs(dirichlet_value(8, 1 / 16))
        assert abs(got - 1 / math.sin(math.pi / 16)) <= 1e-12

    def test_matches_direct_sum(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 65))
            x = float(rng.uniform(-2, 2))
            v = dirichlet_value(n, x)
            assert abs(v - direct_kernel_sum(n, x)) <= 1e-12 * n
            s = math.sin(math.pi * x)
            if abs(s) > 1e-9:
                assert abs(abs(v) - abs(math.sin(math.pi * n * x) / s)) <= 1e-10

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            dirichlet_value(0, 0.3)


class TestCoeffs:
    def test_interval_is_all_ones(self):
        c = to_coeffs(Spectrum(tuple(range(5)), 5))
        assert np.array_equal(c.coeffs, np.ones(5))
        assert c.nonneg

    def test_empty(self):
        c = to_coeffs(Spectrum((), 4))
        assert np.array_equal(c.coeffs, np.zeros(4))

    def test_sparse(self):
        c = to_coeffs(Spectrum((0, 3), 7))
        assert np.array_equal(c.coeffs.real, [1, 0, 0, 1, 0, 0, 0])

    def test_spectrum_validation(self):
        with pytest.raises(DomainError):
            Spectrum((0, 5), 5)
        with pytest.raises(DomainError):
            Spectrum((-1, 2), 5)


class TestEvalPoint:
    def test_all_ones_at_zero(self):
        assert eval_point(to_coeffs(Spectrum(tuple(range(5)), 5)), 0.0) == 5

    def test_matches_kernel(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 30))
            x = float(rng.uniform(0, 1))
            p = to_coeffs(Spectrum(tuple(range(n)), n))
            assert abs(eval_point(p, x) - dirichlet_value(n, x)) <= 1e-12 * n

    def test_hand_value(self):
        p = CoeffPoly(np.array([1, 0, 1], dtype=complex))
        assert abs(eval_point(p, 0.25)) <= 1e-15


class TestEvalGrid:
    def test_full_spectrum_is_scaled_delta(self):
        v = eval_grid(to_coeffs(Spectrum(tuple(range(4)), 4)), Grid(4))
        assert np.allclose(v, [4, 0, 0, 0], atol=1e-12)

    def test_two_frequencies_moduli(self):
        v = eval_grid(to_coeffs(Spectrum((0, 1), 5)), Grid(5))
        got = np.abs(v) ** 2
        want = 2 + 2 * np.cos(2 * np.pi * np.arange(5) / 5)
        assert np.max(np.abs(got - want)) <= 1e-9

    def test_agrees_with_eval_point(self, rng):
        for _ in range(40):
            q = int(rng.integers(2, 40))
            d = int(rng.integers(1, 2 * q))       # aliasing allowed
            coeffs = rng.normal(size=d) + 1j * rng.normal(size=d)
            p = CoeffPoly(coeffs)
            scale = np.abs(coeffs).sum()
            g = Grid(q)
            got = eval_grid(p, g)
            want = eval_point(p, g.points())
            assert np.max(np.abs(got - want)) <= 1e-10 * max(scale, 1)

    def test_stacked_rows_match_each_row_alone(self, rng):
        # padded, exact-length and aliased rows; 4099 is prime, so the
        # transform takes the Bluestein path
        for q, d in ((17, 12), (17, 17), (16, 40), (4099, 4099)):
            C = rng.normal(size=(5, d)) + 1j * rng.normal(size=(5, d))
            before = C.copy()
            got = eval_grid(CoeffPoly(C), Grid(q))
            assert got.shape == (5, q) and np.array_equal(C, before)
            for row, c in zip(got, C):
                assert np.array_equal(row, eval_grid(CoeffPoly(c), Grid(q)))
            for row, c in zip(got[:, :64], C):
                want = eval_point(CoeffPoly(c), Grid(q).points()[:64])
                assert np.max(np.abs(row - want)) <= 1e-9 * d

    def test_parseval(self, rng):
        for _ in range(50):
            q = int(rng.integers(2, 128))
            nf = int(rng.integers(1, q + 1))
            freqs = tuple(sorted(rng.choice(q, nf, replace=False).tolist()))
            s = Spectrum(freqs, q)
            v = np.abs(eval_grid(to_coeffs(s), Grid(q)))
            assert abs((v ** 2).sum() - q * nf) <= 1e-9 * q * nf

    def test_translation_modulus_invariance(self, rng):
        for _ in range(25):
            q = int(rng.integers(3, 64))
            nf = int(rng.integers(1, q))
            freqs = sorted(rng.choice(q, nf, replace=False).tolist())
            d = int(rng.integers(1, q))
            a = np.abs(eval_grid(to_coeffs(Spectrum(tuple(freqs), q)), Grid(q)))
            shifted = tuple(sorted((h + d) % q for h in freqs))
            b = np.abs(eval_grid(to_coeffs(Spectrum(shifted, q)), Grid(q)))
            assert np.max(np.abs(a - b)) <= 1e-9 * max(nf, 1)

    def test_dilation_permutes_moduli(self, rng):
        for _ in range(25):
            q = int(rng.integers(3, 64))
            cs = [c for c in range(2, q) if math.gcd(c, q) == 1]
            if not cs:
                continue
            c = int(rng.choice(cs))
            nf = int(rng.integers(1, q))
            freqs = sorted(rng.choice(q, nf, replace=False).tolist())
            a = np.abs(eval_grid(to_coeffs(Spectrum(tuple(freqs), q)), Grid(q)))
            dil = tuple(sorted(c * h % q for h in freqs))
            b = np.abs(eval_grid(to_coeffs(Spectrum(dil, q)), Grid(q)))
            perm = (c * np.arange(q)) % q
            assert np.max(np.abs(b - a[perm])) <= 1e-9 * max(nf, 1)


class TestFoldPower:
    def test_identity_power(self):
        p = to_coeffs(Spectrum(tuple(range(3)), 3))
        out = fold_power(p, 1, 8)
        assert np.allclose(out.coeffs[:3].real, 1.0, atol=1e-12)
        assert np.allclose(out.coeffs[3:], 0.0, atol=1e-12)

    def test_square_no_folding(self):
        out = fold_power(to_coeffs(Spectrum((0, 1), 2)), 2, 8)
        assert np.allclose(out.coeffs.real, [1, 2, 1, 0, 0, 0, 0, 0], atol=1e-9)

    def test_cube_with_folding(self):
        out = fold_power(to_coeffs(Spectrum((0, 1, 2), 3)), 3, 4)
        # convolution cube of (1,1,1) folded mod 4
        conv = np.zeros(7)
        base = np.array([1.0, 1, 1])
        c2 = np.convolve(base, base)
        c3 = np.convolve(c2, base)
        folded = np.zeros(4)
        np.add.at(folded, np.arange(7) % 4, c3)
        assert np.allclose(out.coeffs.real, folded, atol=1e-9)
        vals = eval_grid(out, Grid(4))
        want = eval_point(to_coeffs(Spectrum((0, 1, 2), 3)), Grid(4).points()) ** 3
        assert np.max(np.abs(vals - want)) <= 1e-9

    def test_precondition_is_nonneg(self):
        P = CoeffPoly(np.array([0.5, 1.0, 0.25]))
        out = fold_power(P, 2, 5)
        assert np.allclose(out.coeffs.real, np.convolve(P.coeffs.real, P.coeffs.real))
        with pytest.raises(DomainError):
            fold_power(CoeffPoly(np.array([1, 1j])), 2, 4)

    def test_nonneg_preserved(self):
        out = fold_power(to_coeffs(Spectrum(tuple(range(50)), 200)), 3, 200)
        assert out.nonneg
        assert np.all(out.coeffs.real >= 0)

    def test_rejects_bad_power(self):
        with pytest.raises(DomainError):
            fold_power(to_coeffs(Spectrum((0,), 2)), 0, 4)
