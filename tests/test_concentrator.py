import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from concentra import concentrator as conc
from concentra.errors import BudgetError, DomainError
from concentra.rounding import bernoulli_round
from concentra.trigpoly import Spectrum, eval_point, fold_power, to_coeffs
from conftest import dirichlet_value

E_TWO = conc.IntervalSet(((0.30, 0.35), (0.65, 0.70)), symmetric=True)


class TestIntervalSet:
    def test_validation(self):
        with pytest.raises(DomainError):
            conc.IntervalSet(((0.2, 0.1),))
        with pytest.raises(DomainError):
            conc.IntervalSet(((0.0, 0.5), (0.4, 0.6)))
        with pytest.raises(DomainError):
            conc.IntervalSet(((0.5, 1.2),))
        with pytest.raises(DomainError):
            conc.IntervalSet(((0.1, 0.2),), symmetric=True)

    def test_symmetric_accepts_reflection_pairs(self):
        conc.IntervalSet(((0.30, 0.35), (0.65, 0.70)), symmetric=True)
        conc.IntervalSet(((0.0, 1.0),), symmetric=True)
        conc.IntervalSet(((0.4, 0.6),), symmetric=True)

    def test_symmetric_is_computed(self):
        assert conc.IntervalSet(((0.30, 0.35), (0.65, 0.70))).symmetric
        assert not conc.IntervalSet(((0.1, 0.2),)).symmetric

    def test_measure_and_overlap(self):
        assert E_TWO.measure() == pytest.approx(0.1)
        assert E_TWO.window_overlap(0.31, 0.34) == pytest.approx(0.03)
        # wrapping window
        assert E_TWO.window_overlap(-0.4, 0.0) == pytest.approx(0.05)


class TestFindFraction:
    def test_full_circle_takes_first_q(self):
        E = conc.IntervalSet(((0.0, 1.0),))
        hit = conc.find_fraction(E, 1.0, 0.1, 10, 100)
        assert hit is not None
        assert (hit.q, hit.a, hit.coverage) == (11, 1, 1.0)

    def test_two_interval_hand_result(self):
        hit = conc.find_fraction(E_TWO, 1.0, 0.1, 10, 200)
        assert (hit.a, hit.q) == (4, 13)
        assert hit.coverage == pytest.approx(1.0)

    def test_impossible_window_flags(self):
        E = conc.IntervalSet(((0.5, 0.500001),))
        assert conc.find_fraction(E, 1.0, 0.01, 2, 6) is None

    def test_respects_nu_coprimality(self):
        E = conc.IntervalSet(((0.0, 1.0),))
        hit = conc.find_fraction(E, 1.0, 0.1, 10, 100, nu=11)
        assert math.gcd(hit.q, 11) == 1

    @pytest.mark.parametrize("nu", [2, 3, 5, 7])
    def test_gap_factor_targets(self, nu):
        # with nu = 2 no target lands in E_TWO: every examined fraction is
        # still an admissible one
        for E in (E_TWO, conc.IntervalSet(((0.0, 1.0),))):
            trace = []
            hit = conc.find_fraction(E, 0.5, 0.05, 8, 400, nu=nu, trace=trace)
            for q, a, _ in trace:
                assert math.gcd(nu, q) == 1 and (nu * a) % q in (1, q - 1)
            assert hit is None or (hit.q, hit.a, hit.coverage) == trace[-1]
        assert hit is not None

    def test_rejects_zero_gap_factor(self):
        with pytest.raises(DomainError):
            conc.find_fraction(E_TWO, 0.5, 0.05, 8, 100, nu=0)


class TestChooseN:
    def test_halving_delta_doubles_n(self):
        n1 = conc.choose_n(2.0, 0.1, 0.01)
        n2 = conc.choose_n(2.0, 0.1, 0.005)
        assert abs(n2 - 2 * n1) <= 1

    def test_hand_value(self):
        kp = (math.pi / 2) ** 2
        want = math.ceil((2 * kp / 0.1) / 0.01)
        assert conc.choose_n(2.0, 0.1, 0.01) == want

    def test_posterior_tail_containment(self, rng):
        # the operative contract: the built kernel leaves <= eps of its
        # p-mass outside (-delta, delta)
        checked = 0
        while checked < 20:
            p = float(rng.uniform(1.5, 4.0))
            eps = float(rng.uniform(0.05, 0.4))
            delta = float(rng.uniform(0.002, 0.05))
            n = conc.choose_n(p, eps, delta)
            if n > 20000:
                continue
            xs = np.linspace(1e-9, 0.5, 200001)
            vals = np.abs(np.sin(np.pi * n * xs) / np.sin(np.pi * xs)) ** p
            total = 2 * np.trapezoid(vals, xs)
            outside = 2 * np.trapezoid(vals[xs > delta], xs[xs > delta])
            assert outside <= eps * total
            checked += 1

    def test_domain(self):
        with pytest.raises(DomainError):
            conc.choose_n(1.0, 0.1, 0.01)

    @pytest.mark.parametrize("args, message", [
        ((math.nan, 0.1, 0.01), "needs p > 1"), ((2.0, math.nan, 0.01), "0 < eps < 1"),
        ((2.0, 0.1, math.nan), "delta > 0")])
    def test_nan_rejected(self, args, message):
        with pytest.raises(DomainError, match=message):
            conc.choose_n(*args)

    @pytest.mark.parametrize("args, message", [
        ((math.inf, 0.05, 0.01), "needs p > 1, finite"),
        ((2.0, 0.05, math.inf), "finite delta > 0")])
    def test_infinite_p_or_delta_rejected(self, args, message):
        # they gave a kernel length of 100 (p) and 0 (delta)
        with pytest.raises(DomainError, match=message):
            conc.choose_n(*args)


class TestAssembly:
    def test_unit_witness_gives_arithmetic_progression(self):
        out = conc.build_Q(Spectrum((0,), 3), 4, 3)
        assert out.freqs == (0, 3, 6, 9)

    def test_direct_sum(self):
        assert conc.build_Q(Spectrum((0, 1), 5), 2, 5).freqs == (0, 1, 5, 6)

    def test_factorization_identity(self, rng):
        R = Spectrum((0, 2, 3), 7)
        Q = conc.build_Q(R, 4, 7)
        pR = to_coeffs(R)
        pQ = to_coeffs(Q)
        for _ in range(300):
            x = float(rng.uniform(0, 1))
            lhs = eval_point(pQ, x)
            rhs = eval_point(pR, x) * dirichlet_value(4, 7 * x)
            assert abs(lhs - rhs) <= 1e-9 * 12

    def test_collision_rejected(self):
        with pytest.raises(DomainError):
            conc.build_Q(Spectrum((0, 7), 8), 3, 7)

    def test_gap_factor_assembly(self):
        assert conc.build_Q(Spectrum((0, 2), 7), 3, 7, nu=3).freqs == (0, 6, 7, 13, 14, 20)
        with pytest.raises(DomainError):
            conc.build_Q(Spectrum((0, 3), 7), 2, 7, nu=3)


def direct_samples(freqs, x):
    """|sum_h e(h x)| at the points x, each a direct sum of exponentials."""
    h = np.asarray(freqs, dtype=np.float64)
    return np.concatenate([np.abs(np.exp(2j * np.pi * np.outer(xs, h)).sum(axis=1))
                           for xs in np.array_split(x, len(x) // 2048 + 1)])


def simpson_reference(freqs, E, p, mesh):
    """Reference for ``measure`` at any p: the equispaced circle rule and a
    composite Simpson rule per interval at ``mesh`` samples per unit degree."""
    f = lambda x: direct_samples(freqs, x) ** p
    N = mesh * max(freqs[-1], 1)
    int_T = float(f(np.arange(N) / N).mean())
    int_E = 0.0
    for lo, hi in E.intervals:
        nodes = max(8, math.ceil((hi - lo) * N))
        n = max(2, nodes + nodes % 2)
        y = f(np.linspace(lo, hi, n + 1))
        int_E += (hi - lo) / n / 3 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-2:2].sum())
    return int_E, int_T


def sin_phase(d, x):
    return math.sin(2 * math.pi * float(Fraction(x) * d % 1))


def interpolant_integrals(freqs, E, p, N):
    """FFT-free oracle for one rule of ``measure`` at p that is not even:
    samples of |Q|^p by direct summation, the coefficients g(d), d < N/2, of
    their interpolant by direct cosine sums, integrated with exact phases.
    Returns (int_E, int_T, largest |g(d)| for 3N/8 <= d < N/2)."""
    g = direct_samples(freqs, np.arange(N) / N) ** p
    j = np.arange(N)
    gh = np.concatenate([np.cos(2 * np.pi * (np.outer(ds, j) % N) / N) @ g / N
                         for ds in np.array_split(np.arange((N + 1) // 2), N // 512 + 1)])
    terms = [gh[0] * math.fsum(hi - lo for lo, hi in E.intervals)]
    for d in range(1, len(gh)):
        s = math.fsum(sin_phase(d, hi) - sin_phase(d, lo) for lo, hi in E.intervals)
        terms.append(gh[d] * s / (math.pi * d))
    return math.fsum(terms), float(gh[0]), float(np.abs(gh[3 * N // 8:]).max())


def exact_integrals(freqs, E, p):
    """Oracle for p in {2, 4}: the coefficients of |Q|^p as integer
    autocorrelation counts, integrated over E with Fraction-exact phases."""
    ind = np.zeros(freqs[-1] + 1, dtype=np.int64)
    ind[list(freqs)] = 1
    w = np.convolve(ind, ind[::-1])
    if p == 4:
        w = np.convolve(w, w)
    w = w[len(w) // 2:].tolist()          # d = 0, 1, ...; w(-d) = w(d)
    terms = [w[0] * math.fsum(hi - lo for lo, hi in E.intervals)]
    for d in range(1, len(w)):
        if w[d]:
            s = math.fsum(sin_phase(d, hi) - sin_phase(d, lo) for lo, hi in E.intervals)
            terms.append(w[d] * s / (math.pi * d))
    return math.fsum(terms), float(w[0])


def assert_within_bound(rep, freqs, E, p):
    int_E, int_T = exact_integrals(freqs, E, p)
    assert abs(rep.int_E - int_E) <= rep.quadrature_error_est
    assert abs(rep.int_T - int_T) <= rep.quadrature_error_est
    # at these sizes the FFT error bound is below 1/2, so the integer
    # coefficients of |Q|^p are recovered exactly
    assert rep.int_T == int_T


class TestMeasure:
    def test_matches_direct_summation(self, rng):
        E_THREE = conc.IntervalSet(((0.0, 0.013), (0.4, 0.6), (0.987, 1.0)), symmetric=True)
        for _ in range(12):
            deg = int(rng.integers(10, 501))
            nf = int(rng.integers(1, 60))
            freqs = tuple(sorted(rng.choice(deg, nf, replace=False).tolist()))
            p = float(rng.choice([1.5, 2.0, 3.0, 4.0]))
            E = E_TWO if rng.random() < 0.5 else E_THREE
            rep = conc.measure(Spectrum(freqs, deg), E, p)
            if p in (2.0, 4.0):
                # even p is exact up to rounding: the same-rule Simpson
                # oracle no longer applies, the exact counts do
                assert_within_bound(rep, freqs, E, p)
                assert rep.quadrature_error_est <= 1e-10 * rep.int_T
                continue
            fine = interpolant_integrals(freqs, E, p, conc._smooth_size(8 * freqs[-1]))
            coarse = interpolant_integrals(freqs, E, p, conc._smooth_size(4 * freqs[-1]))
            assert rep.int_E == pytest.approx(fine[0], rel=1e-10, abs=1e-10)
            assert rep.int_T == pytest.approx(fine[1], rel=1e-10)
            est = abs(fine[0] - coarse[0]) + abs(fine[1] - coarse[1]) + fine[2]
            assert rep.quadrature_error_est == pytest.approx(
                est + 1e-12 * (1 + fine[1]), rel=1e-6, abs=1e-9 * fine[1])

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), deg=st.integers(1, 300),
           p=st.sampled_from([1.5, 3.0]),
           ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6, unique=True))
    def test_estimate_covers_simpson_reference(self, seed, deg, p, ends):
        ends = sorted(ends)[: len(ends) // 2 * 2]
        E = conc.IntervalSet(tuple(zip(ends[::2], ends[1::2])))
        rng = np.random.default_rng(seed)
        nf = int(rng.integers(1, deg + 2))
        freqs = tuple(sorted(rng.choice(deg + 1, nf, replace=False).tolist()))
        rep = conc.measure(Spectrum(freqs, deg + 1), E, p)
        int_E, int_T = simpson_reference(freqs, E, p, 64)
        assert abs(rep.int_E - int_E) <= rep.quadrature_error_est
        assert abs(rep.int_T - int_T) <= rep.quadrature_error_est

    def test_full_circle_ratio_one(self):
        E = conc.IntervalSet(((0.0, 1.0),))
        rep = conc.measure(Spectrum(tuple(range(6)), 6), E, 2.0)
        assert rep.ratio == pytest.approx(1.0, abs=1e-9)

    def test_constant_gives_measure(self):
        rep = conc.measure(Spectrum((0,), 1), E_TWO, 3.0)
        assert rep.ratio == pytest.approx(E_TWO.measure(), abs=1e-9)

    def test_parseval_random_spectra(self, rng):
        for _ in range(30):
            deg = int(rng.integers(10, 501))
            nf = int(rng.integers(1, min(deg, 40)))
            freqs = tuple(sorted(rng.choice(deg, nf, replace=False).tolist()))
            rep = conc.measure(Spectrum(freqs, deg + 1), E_TWO, 2.0,
                               mesh_per_unit_degree=8)
            assert rep.parseval_rel_err <= 1e-6

    def test_mesh_floor(self):
        with pytest.raises(DomainError):
            conc.measure(Spectrum((0, 1), 2), E_TWO, 2.0, mesh_per_unit_degree=2)

    @pytest.mark.parametrize("p", [-1.0, 0.0, math.nan, math.inf])
    def test_p_domain(self, p):
        with pytest.raises(DomainError, match="need finite p > 0"):
            conc.measure(Spectrum((0, 1), 2), E_TWO, p)

    @pytest.mark.parametrize("p", [200.0, 201.0])
    def test_power_overflow_is_a_domain_error(self, p):
        # |Q(0)|^p = 41^p overflows a float; the integrals are absolute, so
        # no rescaling keeps them: a DomainError, and no RuntimeWarning
        Q = Spectrum(tuple(range(41)), 41)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="overflows"):
                conc.measure(Q, E_TWO, p)

    def test_richardson_estimate_covers_halving(self):
        # the mesh is used at p that is not even only
        Q = Spectrum((0, 3, 11, 17), 18)
        fine = conc.measure(Q, E_TWO, 3.0, mesh_per_unit_degree=16)
        half = conc.measure(Q, E_TWO, 3.0, mesh_per_unit_degree=8)
        assert abs(fine.int_T - half.int_T) < fine.quadrature_error_est


class TestExactEven:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), deg=st.integers(0, 300),
           p=st.sampled_from([2.0, 4.0]),
           ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6, unique=True))
    def test_within_bound_of_exact_counts(self, seed, deg, p, ends):
        ends = sorted(ends)[: len(ends) // 2 * 2]
        E = conc.IntervalSet(tuple(zip(ends[::2], ends[1::2])))
        rng = np.random.default_rng(seed)
        nf = int(rng.integers(1, deg + 2))
        freqs = tuple(sorted(rng.choice(deg + 1, nf, replace=False).tolist()))
        assert_within_bound(conc.measure(Spectrum(freqs, deg + 1), E, p), freqs, E, p)

    @pytest.mark.parametrize("seed", [25, 142, 160])
    def test_rounded_idempotent_within_bound(self, seed):
        # the mesh-doubling estimate fell below the true error on these
        P = fold_power(to_coeffs(Spectrum(tuple(range(900)), 3001)), 2, 3001)
        Q = bernoulli_round(P, seed)
        for p in (2.0, 4.0):
            assert_within_bound(conc.measure(Q, E_TWO, p), Q.freqs, E_TWO, p)

    @pytest.mark.parametrize("x", [0.0, 1.0, 0.5, 0.31, 0.6885, 0.013, 1e-5, 2.0 ** -70, 5e-324])
    def test_phases_reduced_exactly(self, x):
        d = np.array([0, 1, 2, 3, 1000, 399732, 2 ** 24 - 1, 2 ** 30 - 1], dtype=np.int64)
        want = [float(Fraction(x) * int(v) % 1) for v in d]
        assert conc._frac_times(d, x).tolist() == want

    def test_smooth_size(self):
        def smooth(m):
            for f in (2, 3, 5):
                while m % f == 0:
                    m //= f
            return m == 1
        sizes = [conc._smooth_size(n) for n in range(1, 3001)]
        want = [next(m for m in range(n, 2 * n + 1) if smooth(m)) for n in range(1, 3001)]
        assert sizes == want

    def test_smooth_size_over_cap_is_a_budget_error(self, monkeypatch):
        Q = Spectrum((0, 486), 487)      # p deg + 1 = 973, next 5-smooth size 1000
        monkeypatch.setattr(conc, "_SAMPLE_CAP", 999)
        with pytest.raises(BudgetError):
            conc.measure(Q, E_TWO, 2.0)
        monkeypatch.setattr(conc, "_SAMPLE_CAP", 1000)
        assert conc.measure(Q, E_TWO, 2.0).int_T == 2.0


class TestEndToEnd:
    def test_two_interval_run(self):
        res = conc.end_to_end(E_TWO, 2.0, 0.05)
        assert res.plan.q == 13 and res.plan.a == 4
        assert res.report.ratio >= 0.9 * res.predicted_ratio * (1 - 0.05) ** 2
        assert res.report.ratio <= 1.0
        assert res.report.parseval_rel_err <= 1e-6

    def test_full_circle(self):
        E = conc.IntervalSet(((0.0, 1.0),), symmetric=True)
        res = conc.end_to_end(E, 2.0, 0.05, q_max=60)
        assert res.report.ratio >= 1 - 1e-6

    def test_gap_run(self):
        res = conc.end_to_end(E_TWO, 2.0, 0.05, nu=3)
        assert res.min_gap >= 3
        assert res.spectrum.min_gap() >= 3
        assert res.report.ratio >= 0.9 * res.predicted_ratio * (1 - 0.05) ** 2
        assert res.pathway == "dirichlet-peak-gapped"

    @pytest.mark.parametrize("E, p, nu, q, n, predicted, measured", [
        # the cap q // nu admits n = 4 (blocks 13 - 3 * 3 = 4 >= 3 apart)
        (E_TWO, 2.0, 3, 13, 4, 0.45485, 0.45479),
        # the best admissible row n = 4 lies off the series minimizer, t* q = 3.4
        (conc.IntervalSet(((5 / 11 - 0.005, 5 / 11 + 0.005),
                           (6 / 11 - 0.005, 6 / 11 + 0.005))), 3.0, 2, 11, 4, 0.481565, 0.48148),
    ], ids=["q13-nu3-p2", "q11-nu2-p3"])
    def test_gapped_witness_is_best_admissible_interval(self, E, p, nu, q, n, predicted,
                                                        measured):
        res = conc.end_to_end(E, p, 0.05, nu=nu)
        assert res.plan.q == q and res.plan.R.freqs == tuple(range(n))
        assert res.min_gap >= nu
        # every interval {0..m-1} whose blocks keep the gaps, scored from
        # the closed form of the Dirichlet kernel
        levels = []
        for m in range(1, q // nu + 1):
            mp = np.abs(dirichlet_value(m, np.arange(q) / q)) ** p
            levels.append(2 * mp[1] / mp.sum())
        assert res.predicted_ratio == pytest.approx(max(levels), rel=1e-12)
        assert res.predicted_ratio == pytest.approx(predicted, abs=5e-6)
        assert res.report.ratio == pytest.approx(measured, abs=5e-5)

    def test_witness_exact_up_to_the_one_cap(self):
        # the window lands at a/q = 5/23; the witness is the 5^-1-dilate of
        # the exact level's witness, not a heuristic one
        c = 5 / 23
        E = conc.IntervalSet(((c - 0.001, c + 0.001), (1 - c - 0.001, 1 - c + 0.001)))
        res = conc.end_to_end(E, 2.0, 0.05)
        assert (res.plan.q, res.plan.a) == (23, 5)
        exact = conc.discrete.exact_gamma_sharp(23, 2.0).spectrum.freqs
        assert res.plan.R.freqs == tuple(sorted(14 * h % 23 for h in exact))
        assert res.plan.R.freqs == (0, 4, 5, 9, 10, 13, 14, 18, 19)

    def test_unflagged_symmetric_set_runs(self):
        res = conc.end_to_end(conc.IntervalSet(E_TWO.intervals), 2.0, 0.05)
        ref = conc.end_to_end(E_TWO, 2.0, 0.05)
        assert (res.plan, res.report) == (ref.plan, ref.report)

    def test_requires_symmetric(self):
        E = conc.IntervalSet(((0.1, 0.2),))
        with pytest.raises(DomainError):
            conc.end_to_end(E, 2.0, 0.05)

    def test_small_p_out_of_scope(self):
        with pytest.raises(DomainError):
            conc.end_to_end(E_TWO, 1.0, 0.05)

    def test_kernel_beyond_sample_cap_is_a_budget_error(self, monkeypatch):
        # at p = 1.2 the kernel length is about 1.25e14: stop before assembling it
        def unreachable(*args):
            raise AssertionError("build_Q reached")
        monkeypatch.setattr(conc, "build_Q", unreachable)
        t0 = time.perf_counter()
        with pytest.raises(BudgetError):
            conc.end_to_end(E_TWO, 1.2, 0.05)
        assert time.perf_counter() - t0 < 1.0

    def test_assembled_degree_beyond_sample_cap_is_a_budget_error(self, monkeypatch):
        # a cap just above q (n - 1) passes the kernel's check, and the
        # witness's own degree then takes the assembly past it
        q, n = 13, conc.choose_n(2.0, 0.05, 0.5 / 13)
        assert conc.find_fraction(E_TWO, 0.5, 0.05, 8, 4000).q == q
        monkeypatch.setattr(conc, "_SAMPLE_CAP", q * (n - 1) + 1)

        def unreachable(*args):
            raise AssertionError("build_Q reached")
        monkeypatch.setattr(conc, "build_Q", unreachable)
        with pytest.raises(BudgetError, match=r"assembled degree \d+ needs"):
            conc.end_to_end(E_TWO, 2.0, 0.05)

    def test_sample_cap_checked_before_witness_search(self, monkeypatch):
        # q = 601 and n = 118633 give q (n - 1) = 71,297,832 >= 2^25 whatever
        # the witness: no grid search runs
        def unreachable(*args, **kwargs):
            raise AssertionError("witness search reached")
        monkeypatch.setattr(conc.discrete, "gamma_sharp", unreachable)
        E = conc.IntervalSet(((200 / 601 - 2e-6, 200 / 601 + 2e-6),
                              (401 / 601 - 2e-6, 401 / 601 + 2e-6)), symmetric=True)
        hit = conc.find_fraction(E, 0.5, 0.05, 8, 4000)
        assert hit is not None and hit.q == 601
        assert conc.choose_n(2.0, 0.05, 0.5 / 601) == 118633
        with pytest.raises(BudgetError):
            conc.end_to_end(E, 2.0, 0.05)

    def test_uncovered_window_is_a_budget_error(self):
        E = conc.IntervalSet(((0.499999, 0.500001),), symmetric=True)
        assert conc.find_fraction(E, 0.5, 0.05, 8, 40) is None
        with pytest.raises(BudgetError):
            conc.end_to_end(E, 2.0, 0.05, q_max=40)


@pytest.mark.parametrize("call, message", [
    (lambda: conc.IntervalSet(()), "empty interval set"),
    (lambda: conc.find_fraction(E_TWO, 0.5, 0.05, 40, 40), "need q0 < q_max"),
    (lambda: conc.build_Q(Spectrum((), 5), 3, 5), "witness spectrum is empty"),
    (lambda: conc.build_Q(Spectrum((0, 1), 5), 3, 5, nu=0), "gap factor nu must be >= 1"),
    (lambda: conc.measure(Spectrum((), 5), E_TWO, 2.0), "cannot measure the zero polynomial"),
], ids=["empty-set", "q0-not-below-q-max", "empty-witness", "nu-0", "zero-polynomial"])
def test_boundary_check_raises(call, message):
    with pytest.raises(DomainError, match=message):
        call()
