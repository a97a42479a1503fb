import math
import warnings

import numpy as np
import pytest

from concentra import rounding
from concentra.errors import DomainError
from concentra.trigpoly import CoeffPoly, Grid, Spectrum, eval_grid, eval_point, \
    fold_power, to_coeffs


def folded_kernel_power(n, L, q):
    return fold_power(to_coeffs(Spectrum(tuple(range(n)), q)), L, q)


class TestHypotheses:
    def test_constant_poly_fails_first(self):
        P = CoeffPoly(np.array([1.0 + 0j]))
        consts = rounding.hypothesis_constants(P, 10, 2.0)
        assert consts["c_cond_c"] < 0.5

    def test_full_kernel_fails_second(self):
        q = 8
        P = to_coeffs(Spectrum(tuple(range(q)), q))   # vanishes off 0
        consts = rounding.hypothesis_constants(P, q, 2.0)
        assert consts["c_concentr"] < 0.1

    def test_folded_power_passes_at_small_c(self):
        q, n, L = 499, 125, 3
        P = rounding.normalize_peak(folded_kernel_power(n, L, q))
        consts = rounding.hypothesis_constants(P, q, 3.0)
        c = 0.9 * min(consts["c_cond_c"], consts["c_concentr"])
        # both hypotheses, evaluated from their definitions at c
        a = np.abs(P.coeffs)
        vals = np.abs(eval_point(P, np.arange(q) / q))
        assert c * q * a.max() <= a.sum() <= vals[1] / c
        assert vals[1] >= c * np.sum(vals ** 3) ** (1 / 3)

    def test_degree_guard(self):
        P = to_coeffs(Spectrum(tuple(range(6)), 6))
        with pytest.raises(DomainError):
            rounding.hypothesis_constants(P, 4, 2.0)

    @pytest.mark.parametrize("p", [0.0, -1.0, math.nan, math.inf])
    def test_p_must_be_finite_and_positive(self, p):
        P = rounding.normalize_peak(folded_kernel_power(10, 2, 51))
        with pytest.raises(DomainError):
            rounding.hypothesis_constants(P, 51, p)


class TestBernoulliRound:
    def test_equal_coefficients_keep_everything(self):
        P = to_coeffs(Spectrum((0, 2, 5), 7))
        for seed in (0, 1, 99):
            assert rounding.bernoulli_round(P, seed).freqs == (0, 2, 5)

    def test_zero_or_max_is_deterministic(self):
        c = np.zeros(9)
        c[[1, 4, 6]] = 3.5
        for seed in (0, 7):
            out = rounding.bernoulli_round(CoeffPoly(c.astype(complex)), seed)
            assert out.freqs == (1, 4, 6)

    def test_unbiased_coefficientwise(self, rng):
        q = 50
        alpha = rng.uniform(0, 1, size=q)
        alpha[rng.integers(0, q)] = 1.0
        P = CoeffPoly(alpha.astype(complex))
        counts = np.zeros(q)
        trials = 10_000
        for seed in range(trials):
            for h in rounding.bernoulli_round(P, seed).freqs:
                counts[h] += 1
        freq = counts / trials
        tol = 3 * np.sqrt(alpha * (1 - alpha) / trials) + 0.01
        assert np.all(np.abs(freq - alpha) <= tol)

    def test_pure_function_of_seed(self):
        P = rounding.normalize_peak(folded_kernel_power(20, 2, 97))
        assert rounding.bernoulli_round(P, 5).freqs == rounding.bernoulli_round(P, 5).freqs

    def test_nonneg_is_computed(self):
        # a nonnegative polynomial is accepted as it stands: no flag to set
        P = CoeffPoly(np.array([0.5, 1.0, 0.25]))
        assert P.nonneg and not CoeffPoly(np.array([1, 1j])).nonneg
        assert rounding.bernoulli_round(P, 0).degree_bound == 3
        assert rounding.monte_carlo(P, 5, 2.0, 0.5, 3, 0).trials == 3
        assert rounding.hypothesis_constants(P, 5, 2.0)["sigma"] == 1.75

    def test_requires_nonneg(self):
        with pytest.raises(DomainError):
            rounding.bernoulli_round(CoeffPoly(np.array([1j, 1.0])), 0)
        with pytest.raises(DomainError):
            rounding.bernoulli_round(CoeffPoly(np.zeros(3, complex)), 0)

    def test_seeds_above_2_63_draw_distinct_streams(self):
        a = rounding._stream(2**64 - 2, 0).random(4)
        b = rounding._stream(2**64 - 3, 0).random(4)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_the_key_range_rejected(self, seed):
        # no seed aliases another one's stream modulo 2^64
        P = to_coeffs(Spectrum((0, 1, 2), 7))
        for call in (lambda: rounding.bernoulli_round(P, seed),
                     lambda: rounding.monte_carlo(P, 7, 3.0, 0.2, 2, seed),
                     lambda: rounding.moment_check(np.ones(3), np.ones(3) / 2, 3.0, 10, seed)):
            with pytest.raises(DomainError, match="seed must lie in"):
                call()


class TestLpNorm:
    """The module's one ell^p norm, of deviations and of hypothesis (ii)."""

    @pytest.mark.parametrize("p", [1.0, 2.5, 3.0, 9.0])
    def test_plain_where_the_sum_is_finite(self, rng, p):
        x = rng.normal(size=50) + 1j * rng.normal(size=50)
        assert rounding._lp_norm(x, p) == float(np.sum(np.abs(x) ** p)) ** (1.0 / p)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_scale_free_where_the_sum_overflows_or_underflows(self, scale):
        x = scale * np.array([3.0, 4.0j, 0.0])
        assert rounding._lp_norm(x, 2.0) == pytest.approx(5.0 * scale, rel=1e-15)
        assert rounding._lp_norm(np.zeros(3), 2.0) == 0.0

    def test_large_p_concentration_constant(self):
        # the sum of |P(k/q)|^150 overflows a float; c_concentr read 0
        q, p = 499, 150.0
        P = rounding.normalize_peak(folded_kernel_power(100, 3, q))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            consts = rounding.hypothesis_constants(P, q, p)
        assert 0.8 < consts["c_concentr"] <= 1.0


class TestVerifyTrial:
    def test_roundtrip_on_idempotent(self):
        P = to_coeffs(Spectrum((0, 3, 4), 9))
        tr = rounding.verify_trial(P, Spectrum((0, 3, 4), 9), 9, 2.0, 0.1)
        assert tr.mean_dev == 0
        assert tr.at_point_margin == pytest.approx(0.1, abs=1e-12)
        assert tr.success

    def test_mean_dev_matches_direct_sum(self, rng):
        q = 61
        P = rounding.normalize_peak(folded_kernel_power(15, 2, q))
        Q = rounding.bernoulli_round(P, 12)
        tr = rounding.verify_trial(P, Q, q, 3.0, 0.2)
        xs = np.arange(q) / q
        dev = sum(abs(eval_point(to_coeffs(Q), x) - eval_point(P, x)) ** 3
                  for x in xs) ** (1 / 3)
        P1 = abs(eval_point(P, 1 / q))
        assert abs(tr.mean_dev - dev / P1) <= 1e-9

    def test_normalizes_P(self):
        P = folded_kernel_power(10, 2, 51)     # peak is 10, not 1
        Q = rounding.bernoulli_round(P, 3)
        assert (rounding.verify_trial(P, Q, 51, 2.0, 0.1)
                == rounding.verify_trial(rounding.normalize_peak(P), Q, 51, 2.0, 0.1))


class TestMonteCarlo:
    def test_zero_trials_rejected(self):
        P = to_coeffs(Spectrum((0, 1), 5))
        with pytest.raises(DomainError):
            rounding.monte_carlo(P, 5, 2.0, 0.1, 0, 0)

    def test_degree_at_least_q_rejected(self):
        P = to_coeffs(Spectrum(tuple(range(6)), 6))
        with pytest.raises(DomainError):
            rounding.monte_carlo(P, 4, 2.0, 0.1, 5, 0)

    def test_requires_nonneg(self):
        P = CoeffPoly(np.array([1, 1j, 0.5]))
        with pytest.raises(DomainError):
            rounding.monte_carlo(P, 5, 2.0, 0.1, 5, 0)

    def test_empty_polynomial_rejected(self):
        P = CoeffPoly(np.zeros(0, complex))
        with pytest.raises(DomainError):
            rounding.monte_carlo(P, 5, 2.0, 0.1, 5, 0)
        with pytest.raises(DomainError):
            rounding.verify_trial(P, Spectrum((0,), 5), 5, 2.0, 0.1)

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 2])
    def test_one_trial_is_verify_trial_of_bernoulli_round(self, seed):
        q = 97
        P = folded_kernel_power(24, 3, q)      # peak 432: both paths normalize
        rep = rounding.monte_carlo(P, q, 3.0, 0.2, 1, seed)
        tr = rounding.verify_trial(rounding.normalize_peak(P),
                                   rounding.bernoulli_round(P, seed), q, 3.0, 0.2)
        assert rep.frequency == float(tr.success)
        assert rep.mean_at_point_margin == tr.at_point_margin
        assert rep.mean_dev_quantiles["q50"] == tr.mean_dev

    def test_idempotent_input_always_succeeds(self):
        P = to_coeffs(Spectrum((0, 1, 3), 8))
        rep = rounding.monte_carlo(P, 8, 2.0, 0.1, 25, 4)
        assert rep.frequency == 1.0

    def test_bit_identical_repeat(self):
        P = folded_kernel_power(30, 3, 127)
        a = rounding.monte_carlo(P, 127, 3.0, 0.3, 40, 9)
        b = rounding.monte_carlo(P, 127, 3.0, 0.3, 40, 9)
        assert a == b

    def test_each_trial_is_verify_trial_of_its_stream(self):
        # 2^17 points hold a few trials per block: 17 trials span two full
        # blocks and a partial one at 8 rows a block.  P is shorter than q,
        # so the draws leave a zero tail on the grid.
        q, seed, trials = 2 ** 17, 5, 17
        P = rounding.normalize_peak(
            CoeffPoly(folded_kernel_power(q // 4, 3, q).coeffs[: q - 1000]))
        alpha = P.coeffs.real
        runs = []
        for i in range(trials):
            u = np.random.Generator(np.random.Philox(key=[seed, i])).random(len(alpha))
            Q = Spectrum(tuple(np.nonzero(u < alpha)[0].tolist()), q)
            runs.append(rounding.verify_trial(P, Q, q, 3.0, 0.2))
        rep = rounding.monte_carlo(P, q, 3.0, 0.2, trials, seed)
        margins = np.array([r.at_point_margin for r in runs])
        devs = np.array([r.mean_dev for r in runs])
        assert rep.frequency == sum(r.success for r in runs) / trials
        assert rep.mean_at_point_margin == float(margins.mean())
        assert list(rep.mean_dev_quantiles.values()) == \
            np.quantile(devs, [0.1, 0.5, 0.9]).tolist()

    @pytest.mark.parametrize("n, q, eps, trials, seed, want", [
        (30, 127, 0.3, 40, 9, ("0x0.0p+0", "0x1.44c667c6b0263p-2", "0x1.1ba6fcf9778f5p-1",
                               "0x1.3182c427d9980p-1", "0x1.4acfe05d069c0p-1")),
        (125, 499, 0.2, 200, 1, ("0x0.0p+0", "0x1.9eaa864c2bbd4p-3", "0x1.d3f9bb1442a9bp-2",
                                 "0x1.e929c415b40e2p-2", "0x1.0170d22003e8dp-1")),
    ])
    def test_report_pinned(self, n, q, eps, trials, seed, want):
        # frequency, mean margin and the q10/q50/q90 deviations, bit for bit
        rep = rounding.monte_carlo(folded_kernel_power(n, 3, q), q, 3.0, eps, trials, seed)
        got = (rep.frequency, rep.mean_at_point_margin, *rep.mean_dev_quantiles.values())
        assert tuple(x.hex() for x in got) == want
        assert (rep.q, rep.p, rep.epsilon, rep.trials, rep.seed) == (q, 3.0, eps, trials, seed)

    @pytest.mark.parametrize("q", [499, 2003])
    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
    def test_median_deviation_follows_mean_field_law(self, q, p):
        # the folded cube of D_{q//4}, built here by FFT convolution: each grid
        # value of Q - P is near a complex Gaussian of variance
        # V = sum a(1 - a), so sum_k |Q - P|^p ~ q V^(p/2) Gamma(1 + p/2)
        n = q // 4
        m = 1 << (3 * n).bit_length()
        cube = np.rint(np.fft.irfft(np.fft.rfft(np.ones(n), m) ** 3, m))
        a = np.zeros(q)
        np.add.at(a, np.arange(m) % q, cube)
        a /= a.max()
        V = float(np.sum(a * (1 - a)))
        peak = abs(np.sum(a * np.exp(2j * np.pi * np.arange(q) / q)))
        predicted = (q * V ** (p / 2) * math.gamma(1 + p / 2)) ** (1 / p) / peak
        rep = rounding.monte_carlo(folded_kernel_power(n, 3, q), q, p, 0.2, 40, 1)
        assert rep.mean_dev_quantiles["q50"] == pytest.approx(predicted, rel=0.03)

    def test_variance_of_peak_value(self):
        # empirical variance of the rounded value at 1/q tracks sum a(1-a)
        q = 499
        P = rounding.normalize_peak(folded_kernel_power(125, 3, q))
        alpha = P.coeffs.real
        var_true = float(np.sum(alpha * (1 - alpha)))
        Pv = eval_grid(P, Grid(q))
        vals = []
        for i in range(800):
            u = np.random.Generator(np.random.Philox(key=[3, i])).random(q)
            keep = (u < alpha).astype(complex)
            vals.append(np.fft.ifft(keep)[1] * q)
        vals = np.array(vals)
        emp = float(np.mean(np.abs(vals - Pv[1]) ** 2))
        assert emp <= var_true * 1.25 + 1.0
        assert emp >= var_true * 0.75 - 1.0


class TestMomentCheck:
    def test_degenerate_probabilities(self):
        rep = rounding.moment_check(np.ones(8), np.array([0, 1, 0, 1, 1, 0, 0, 1.0]),
                                    3.0, 500, 2)
        assert rep.ratio == 0.0

    def test_against_independent_generator(self):
        n, trials = 100, 100_000
        rep = rounding.moment_check(np.ones(n), np.full(n, 0.5), 3.0, trials, 13)
        g = np.random.default_rng(99)   # different generator family
        X = (g.random((trials, n)) < 0.5).astype(float)
        S = (X - 0.5).sum(axis=1)
        oracle = np.mean(np.abs(S) ** 3) / (1 + n / 2) ** 1.5
        assert abs(rep.ratio - oracle) <= 0.1 * oracle

    @pytest.mark.parametrize("p", [3.0, 5.0])
    def test_no_growth_when_doubling_n(self, p):
        r1 = rounding.moment_check(np.ones(200), np.full(200, 0.5), p, 40_000, 21)
        r2 = rounding.moment_check(np.ones(400), np.full(400, 0.5), p, 40_000, 22)
        assert abs(r2.ratio - r1.ratio) <= 0.5 * r1.ratio

    @pytest.mark.parametrize("b, want", [
        (np.ones(2000), "0x1.fbfcc1075b66ep+13"),
        (np.exp(2j * np.pi * np.arange(500) / 7), "0x1.ed26978129809p+10"),
    ], ids=["real", "complex"])
    def test_moment_pinned(self, b, want):
        # two full blocks of 1024 draws and a partial one; a complex b takes the
        # complex product.  Any change to how the uniforms are drawn shows.
        trials = 2 * 1024 + 5
        rep = rounding.moment_check(b, np.full(len(b), 0.5), 3.0, trials, 7)
        assert rep.empirical_moment.hex() == want

    def test_frozen_ceiling(self):
        # calibration grid ceiling: 10x the max ratio observed at freeze time
        for p in (2.5, 3.0, 5.0):
            for n in (20, 200, 2000):
                rep = rounding.moment_check(np.ones(n), np.full(n, 0.5), p, 20_000, 31)
                assert rep.ratio < 12.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("b", [np.ones(2000), np.full(2000, 1e200)])
    def test_overflow_is_a_domain_error(self, b):
        # |S|^300 and (1 + sigma)^150 overflow a float; so does max|b|^300
        with pytest.raises(DomainError, match="overflow"):
            rounding.moment_check(b, np.full(2000, 0.5), 300.0, 10, 1)

    @pytest.mark.parametrize("alpha, p, message", [
        (np.array([0.5, math.nan, 0.5]), 3.0, "alpha entries"),
        (np.ones(3) / 2, math.nan, "needs finite p > 2"),
        (np.ones(3) / 2, math.inf, "needs finite p > 2")])
    def test_nan_rejected_before_the_draws(self, alpha, p, message):
        with pytest.raises(DomainError, match=message):
            rounding.moment_check(np.ones(3), alpha, p, 10, 0)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            rounding.moment_check(np.ones(3), np.ones(4) / 2, 3.0, 10, 0)
        with pytest.raises(DomainError):
            rounding.moment_check(np.ones(3), np.array([0.5, 1.5, 0.5]), 3.0, 10, 0)
        with pytest.raises(DomainError):
            rounding.moment_check(np.ones(3), np.ones(3) / 2, 2.0, 10, 0)
        for b, alpha in (([], []), (np.ones((3, 3)), np.ones(3) / 2),
                         (np.ones(3), np.ones((3, 3)) / 2)):
            with pytest.raises(DomainError, match="non-empty vectors"):
                rounding.moment_check(b, alpha, 3.0, 10, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: rounding.verify_trial(to_coeffs(Spectrum((0, 1), 7)), Spectrum((0, 7), 8),
                                   7, 3.0, 0.2),
     "degree bound of Q must be <= q"),
    # sum_{h<4} i^h: exactly 0 from the size-4 transform
    (lambda: rounding.verify_trial(CoeffPoly(np.ones(4)), Spectrum((0,), 4), 4, 3.0, 0.2),
     r"\|P\(1/q\)\| vanishes"),
    (lambda: rounding.moment_check(np.ones(3), np.ones(3) / 2, 3.0, 0, 0),
     "need trials >= 1"),
], ids=["verify-Q-beyond-q", "verify-P-vanishes-at-target", "moment-trials-0"])
def test_boundary_check_raises(call, message):
    with pytest.raises(DomainError, match=message):
        call()
