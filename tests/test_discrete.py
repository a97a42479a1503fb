import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from concentra import bounds, discrete
from concentra.errors import BudgetError, DomainError
from concentra.trigpoly import Grid, Spectrum, eval_grid, to_coeffs
from conftest import brute_force_gamma_sharp


class TestRatio:
    def test_constant(self):
        v = eval_grid(to_coeffs(Spectrum((0,), 3)), Grid(3))
        assert discrete.ratio(v, 1.0, 1) == pytest.approx(2 / 3, abs=1e-15)

    def test_two_frequency_example(self):
        v = eval_grid(to_coeffs(Spectrum((0, 1), 5)), Grid(5))
        want = 2 * (2 + 2 * math.cos(2 * math.pi / 5)) / 10
        assert discrete.ratio(v, 2.0, 1) == pytest.approx(want, abs=1e-12)

    def test_full_spectrum_is_zero(self):
        v = eval_grid(to_coeffs(Spectrum(tuple(range(7)), 7)), Grid(7))
        assert discrete.ratio(v, 1.5, 1) <= 1e-12

    def test_target_range(self):
        v = eval_grid(to_coeffs(Spectrum((0,), 5)), Grid(5))
        with pytest.raises(DomainError):
            discrete.ratio(v, 1.0, 0)
        with pytest.raises(DomainError):
            discrete.ratio(v, 1.0, 5)


class TestExactSearch:
    def test_q3_exact_two_thirds(self):
        for p in (1.0, 2.0):
            rep = discrete.exact_gamma_sharp(3, p)
            assert rep.ratio == 2 / 3
            assert rep.spectrum.freqs == (0,)

    def test_q5_feasible_point(self):
        rep = discrete.exact_gamma_sharp(5, 2.0)
        assert rep.ratio >= 0.5236

    def test_budget_error_mentions_heuristic(self):
        with pytest.raises(BudgetError, match="heuristic"):
            discrete.exact_gamma_sharp(30, 2.0)

    @pytest.mark.parametrize("kwargs", [
        {"restarts": -1}, {"mode": "exhaustive", "restarts": -1},
        {"mode": "heuristic", "restarts": -1}, {"mode": "star"}, {"mode": 26}])
    def test_dispatcher_domain(self, kwargs):
        with pytest.raises(DomainError):
            discrete.gamma_sharp(5, 1.0, **kwargs)

    def test_dispatcher_modes(self):
        assert discrete.gamma_sharp(5, 1.0, mode="heuristic").method == "heuristic"
        assert discrete.gamma_sharp(5, 1.0).method == "exhaustive"
        with pytest.raises(BudgetError):
            discrete.gamma_sharp(discrete.EXHAUSTIVE_CAP + 1, 1.0, mode="exhaustive")

    @pytest.mark.parametrize("q", [5, 8, 11, 12, 14, 18, 20])
    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_pruning_soundness(self, q, p):
        a = discrete.exact_gamma_sharp(q, p, use_pruning=True)
        b = discrete.exact_gamma_sharp(q, p, use_pruning=False)
        assert a.ratio == b.ratio
        assert a.spectrum.freqs == b.spectrum.freqs

    @pytest.mark.parametrize("lead, freqs", [
        (True, (0, 3, 17, 18)), (True, (0, 1, 2, 16)), (True, (0,)),
        (False, (5, 17, 18)), (False, (16,)), (False, (0, 15))])
    def test_scan_finds_each_spectrum_by_its_values(self, lead, freqs):
        # 17 or 18 mask bits: two or four batches; value vectors of
        # distinct spectra differ, so exactly one spectrum scores 0
        q = 19
        k = np.arange(q)
        E = np.exp(2j * np.pi * np.outer(k, k) / q)
        want = E[list(freqs)].sum(axis=0)
        pool, evals = discrete._scan(
            E, lead, lambda V: -np.abs(V - want).sum(axis=1)[:, None])
        assert [s.freqs for s in pool] == [freqs]
        assert evals == 1 << (q - 1 if lead else q)

    @pytest.mark.parametrize("q", [5, 19, 8, 9, 12, 15, 16])
    def test_dilation_pruning_keeps_one_mask_per_orbit(self, q):
        # Burnside: a unit u splits the q - 1 mask bits (the non-zero
        # residues) into cycles, and the orbits number the mean of 2^cycles
        def cycles(u):
            seen, n = set(), 0
            for h in range(1, q):
                n += h not in seen
                while h not in seen:
                    seen.add(h)
                    h = u * h % q
            return n

        units = [u for u in range(1, q) if math.gcd(u, q) == 1]
        orbits = sum(1 << cycles(u) for u in units) // len(units)
        k = np.arange(q)
        E = np.exp(2j * np.pi * np.outer(k, k) / q)
        _, evals = discrete._scan(E, True, lambda V: np.zeros((len(V), 1)),
                                  discrete._canonical_weights(q))
        assert evals == orbits

    @pytest.mark.parametrize("W", [False, True])
    @pytest.mark.parametrize("limit", [0, 1, 2, 8, 17])
    def test_scan_limit_scores_each_mask_once(self, limit, W):
        # q = 19: 18 mask bits, four batches; the one value column is the
        # mask itself, so the score sees which masks were scored
        q = 19
        E = np.concatenate([[0.0], 2.0 ** np.arange(q - 1)])[:, None]
        seen = []

        def score(V):
            seen.append(V[:, 0].astype(np.int64))
            return -V    # one best mask (0) keeps the pool small

        weights = discrete._canonical_weights(q) if W else None
        pool, evals = discrete._scan(E, True, score, weights, limit=limit)
        masks = np.arange(1 << (q - 1))
        keep = np.bitwise_count(masks) <= limit
        if W:
            # bit i is frequency i + 1; dilation by c sends it to c (i + 1) mod q
            bits = (masks[:, None] >> np.arange(q - 1)) & 1
            for c in range(2, q):
                keep &= masks <= bits @ (1 << (c * np.arange(1, q) % q - 1))
        else:
            assert keep.sum() == sum(math.comb(q - 1, i) for i in range(limit + 1))
        np.testing.assert_array_equal(np.sort(np.concatenate(seen)), masks[keep])
        assert evals == keep.sum() and [s.freqs for s in pool] == [(0,)]

    @pytest.mark.parametrize("q, p", [(12, 1.0), (15, 2.0), (16, 4.0), (18, 3.0)])
    def test_reduced_scan_rebuilds_the_full_candidates(self, q, p):
        # the scan without either reduction: all q columns, every unit as a
        # target, every mask; its candidates must all be re-evaluated
        k = np.arange(q)
        E = np.exp(2j * np.pi * np.outer(k, k) / q)
        units = discrete._units(q)

        def score(V):
            mp = np.abs(V) ** p
            return 2.0 * mp[:, units] / mp.sum(axis=1)[:, None]

        pool, _ = discrete._scan(E, True, score)
        top, witness, n = discrete._best_of(
            pool, True, lambda s: discrete.concentration_ratio(s, p, 1))
        rep = discrete.exact_gamma_sharp(q, p)
        # the reduced scan scores the masks of popcount < q/2 that no unit
        # maps lower, each at the unit targets a <= q/2
        masks = np.arange(1 << (q - 1))
        bits = (masks[:, None] >> np.arange(q - 1)) & 1
        keep = np.bitwise_count(masks) < q // 2
        for c in units[1:]:
            keep &= masks <= bits @ (1 << (c * np.arange(1, q) % q - 1))
        scanned = int(keep.sum()) * int(np.sum(2 * units <= q))
        assert (rep.ratio, rep.spectrum.freqs) == (top, witness)
        assert rep.evaluations == scanned + n

    def test_q2_with_pruning(self):
        for p in (1.0, 2.0):
            a = discrete.exact_gamma_sharp(2, p, use_pruning=True)
            b = discrete.exact_gamma_sharp(2, p, use_pruning=False)
            assert (a.ratio, a.spectrum.freqs) == (b.ratio, b.spectrum.freqs) == (1.0, (0,))

    def test_p2_closed_form(self):
        # Parseval: the grid 2-sum of an n-frequency spectrum is q n, and
        # |f(1/q)| is largest for an interval, |D_n(1/q)| = sin(pi n/q)/sin(pi/q)
        for q in range(3, 24):
            n = np.arange(1, q)
            closed = 2 * np.sin(np.pi * n / q) ** 2 / (np.sin(np.pi / q) ** 2 * q * n)
            rep = discrete.exact_gamma_sharp(q, 2.0)
            assert rep.ratio == pytest.approx(closed.max(), rel=1e-12, abs=0)

    @pytest.mark.parametrize("p", [1.0, 3.0, 4.0])
    def test_interval_is_optimal_to_q19(self, p):
        for q in range(3, 20):
            rep = discrete.exact_gamma_sharp(q, p)
            best = discrete.dirichlet_table(q, p).best
            assert rep.ratio == pytest.approx(best, rel=1e-12, abs=0)

    def test_q25_p10_beats_every_interval(self):
        rep = discrete.exact_gamma_sharp(25, 10.0)
        best = discrete.dirichlet_table(25, 10.0).best
        assert rep.spectrum.freqs == (0, 22, 24)
        assert rep.ratio / best - 1 == pytest.approx(0.00318, abs=5e-6)

    def test_matches_independent_brute_force(self):
        for q, p in ((7, 1.0), (9, 2.0), (11, 4.0), (18, 2.0)):
            rep = discrete.exact_gamma_sharp(q, p)
            top, witness = brute_force_gamma_sharp(q, p)
            assert rep.ratio == top
            assert rep.spectrum.freqs == witness

    def test_trivial_bound(self):
        for q in (3, 6, 9):
            for p in (1.0, 2.0, 3.3):
                rep = discrete.exact_gamma_sharp(q, p)
                assert rep.ratio <= 2 / 3 + 1e-9

    def test_report_recomputes(self):
        rep = discrete.exact_gamma_sharp(9, 1.7)
        again = discrete.concentration_ratio(rep.spectrum, 1.7, rep.target)
        assert abs(rep.ratio - again) <= 1e-9

    def test_norm_comparison_inequality(self):
        # ratio_p >= 2 (ratio_p' / 2)^(p/p') for p > p', per witness
        for q in (7, 10, 13):
            rep = discrete.exact_gamma_sharp(q, 2.0)
            r2 = discrete.concentration_ratio(rep.spectrum, 2.0, 1)
            r4 = discrete.concentration_ratio(rep.spectrum, 4.0, 1)
            assert r4 >= 2 * (r2 / 2) ** 2 - 1e-12


class TestHeuristic:
    def test_dominates_dirichlet(self):
        for q, p in ((20, 1.0), (37, 2.0), (64, 3.0)):
            h = discrete.heuristic_gamma_sharp(q, p, restarts=2, seed=5)
            t = discrete.dirichlet_table(q, p)
            assert h.ratio >= t.best - 1e-12

    @pytest.mark.parametrize("q", [6, 10, 14, 16])
    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_matches_exact_small_q(self, q, p):
        e = discrete.exact_gamma_sharp(q, p)
        h = discrete.heuristic_gamma_sharp(q, p, restarts=8, seed=3)
        assert abs(e.ratio - h.ratio) <= 1e-12

    def test_q101_near_limit_level(self):
        h = discrete.heuristic_gamma_sharp(101, 2.0, restarts=4, seed=7)
        assert h.ratio >= 0.4613 - 0.05

    def test_deterministic(self):
        a = discrete.heuristic_gamma_sharp(31, 1.0, restarts=3, seed=11)
        b = discrete.heuristic_gamma_sharp(31, 1.0, restarts=3, seed=11)
        assert a.ratio == b.ratio and a.spectrum.freqs == b.spectrum.freqs

    @pytest.mark.parametrize("q, p, seed, level", [
        (499, 1.0, 0, 0.21530799123320146),
        (256, 4.0, 0, 0.4954249808127286),
        (199, 3.0, 3, 0.4944885047397929)])
    def test_pinned_levels(self, q, p, seed, level):
        # levels only: the witness may move among equal-level ties
        h = discrete.heuristic_gamma_sharp(q, p, restarts=4, seed=seed)
        assert h.ratio == pytest.approx(level, rel=1e-12, abs=0)

    @pytest.mark.parametrize("q, p, ratio, evaluations, witness", [
        (1009, 1.0, "0x1.99c030a25d914p-3", 283528, "0ba1981a53161a1a"),
        (1009, 2.0, "0x1.d85fcdbbc214ep-2", 283528, "f2b2bac7f1e2f345"),
        (101, 3.0, "0x1.f997695a213cdp-2", 21007, "8a70830017667bee"),
        (499, 4.0, "0x1.fb58094a0b723p-2", 392213, "dbbe419a93c0ef57"),
        (211, 2.5, "0x1.f231e2430b71dp-2", 74904, "d898efa045ddf808")])
    def test_pinned_reports(self, q, p, ratio, evaluations, witness):
        # below the guard of _pow_abs (p ln q < 700) the ascent's powers are
        # the plain ones: ratio, witness and evaluations keep their bits
        h = discrete.heuristic_gamma_sharp(q, p, restarts=4, seed=1)
        digest = hashlib.sha256(repr(h.spectrum.freqs).encode()).hexdigest()[:16]
        assert (h.ratio.hex(), h.evaluations, digest) == (ratio, evaluations, witness)

    def test_large_p_walk_scores_its_end_point(self):
        # p ln q >= 700, and from an interval of 8, |f(0)|^400 >= 7^400
        # overflows a float: the ascent scales those rows by their maximum,
        # as the exact scans do, so the walk's score is still the ratio of
        # its end point, and no lower than that of its start
        q, p, start = 101, 400.0, tuple(range(8))
        E = discrete._half_table(q)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            members, score, _ = discrete._ascend(q, p, E, start)
        here = discrete.concentration_ratio(Spectrum(tuple(members.tolist()), q), p, 1)
        assert score == pytest.approx(here, rel=1e-12)
        assert here >= discrete.concentration_ratio(Spectrum(start, q), p, 1)

    def test_dirichlet_rows_counted_once(self, monkeypatch):
        # with ascents that cost nothing, only the q - 1 table rows remain
        monkeypatch.setattr(discrete, "_ascend",
                            lambda q, p, E, st, max_steps=None: (np.array(st), 0.0, 0))
        assert discrete.heuristic_gamma_sharp(41, 1.0).evaluations == 40


@st.composite
def spectra(draw):
    q = draw(st.integers(3, 64))
    bits = draw(st.lists(st.booleans(), min_size=q, max_size=q))
    return q, tuple(h for h in range(q) if bits[h])


class TestAscentStep:
    """One step of the half-spectrum ascent against the full-grid evaluator."""

    @settings(max_examples=150, deadline=None)
    @given(spectra(), st.sampled_from([1.0, 2.0, 3.0, 4.0]))
    def test_step_matches_oracle(self, spec, p):
        q, H = spec
        k = np.arange(q)
        E = np.exp(2j * np.pi * np.outer(k, k[:q // 2 + 1]) / q)
        flips = [tuple(sorted(set(H) ^ {h})) for h in range(q)]
        oracle = [discrete.concentration_ratio(Spectrum(f, q), p, 1) for f in flips]
        tables, pow_abs = [], discrete._pow_abs

        def spy(a2, power, n):
            if a2.ndim == 2:
                tables.append(a2.copy())
            return pow_abs(a2, power, n)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(discrete, "_pow_abs", spy)
            members, score, evals = discrete._ascend(q, p, E, H, max_steps=1)
        got = tuple(int(h) for h in members)
        here = discrete.concentration_ratio(Spectrum(got, q), p, 1)
        assert evals == q
        assert abs(score - here) <= 1e-12
        if got == H:
            assert max(oracle) <= here + 1e-12
        else:
            assert oracle[flips.index(got)] >= max(oracle) - 1e-12
        if p == 2.0:
            # Parseval: flipping h in or out gives grid 2-sum q(|H| +- 1)
            denom = tables[0] @ discrete._half_weights(q)
            want = q * (len(H) + np.where(np.isin(k, H), -1.0, 1.0))
            np.testing.assert_allclose(denom, want, rtol=1e-9, atol=1e-9)


class TestDirichletTable:
    def test_single_frequency_row(self):
        for q in (5, 12, 30):
            t = discrete.dirichlet_table(q, 2.5)
            assert t.rows[0] == (1, pytest.approx(2 / q, abs=1e-12))

    def test_best_is_feasible_bound(self):
        t = discrete.dirichlet_table(17, 2.0)
        e = discrete.exact_gamma_sharp(17, 2.0)
        assert t.best <= e.ratio + 1e-12

    def test_large_p_rows_are_finite(self):
        # |M|^150 overflows in most rows at q = 1009; those rows are divided
        # by their maximum first, and every row whose plain power sum is
        # finite keeps its plain ratio bit for bit
        q, p = 1009, 150.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            t = discrete.dirichlet_table(q, p)
        n, k = np.arange(1, q), np.arange(1, q)
        M = np.column_stack([n, np.abs(np.sin(np.pi * np.outer(n, k) / q))
                             / np.sin(np.pi * k / q)])
        with np.errstate(invalid="ignore", over="ignore"):
            sums = (M ** p).sum(axis=1)
            plain = 2.0 * M[:, 1] ** p / sums
        ok = np.isfinite(sums)      # elsewhere the plain ratio is nan or a spurious 0
        ratios = np.array([r for _, r in t.rows])
        assert np.all(np.isfinite(ratios)) and 0 < np.sum(ok) < q - 1
        assert np.array_equal(ratios[ok], plain[ok])
        assert t.best_n == 45
        assert t.best == pytest.approx(0.4842269, abs=1e-7)

    def test_large_p_sum_does_not_warn(self):
        # the powers are finite one by one but sum to inf in some rows: that
        # sum is taken under the guard's errstate too
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            t = discrete.dirichlet_table(211, 250.5)
        assert all(0 <= r <= 1 for _, r in t.rows) and t.best_n > 1

    def test_large_prime_log_shape(self):
        t = discrete.dirichlet_table(1009, 1.0)
        assert 0.1 < t.best * math.log(1009) < 10


class TestGridToSeries:
    """The interval table against the series level it converges to, 2 over
    the minimum of B(p, t) over t, from ``bounds``, which shares no code
    with the table."""

    @pytest.mark.parametrize("p", [2.0, 3.0, 10.0, 150.0])
    def test_table_converges_to_series(self, p):
        # at p = 150, q = 1601 the table runs on the rows scaled by their maximum
        m = bounds.minimize_over_t("B", p)
        gaps = []
        for q in (401, 1601):
            t = discrete.dirichlet_table(q, p)
            gaps.append(abs(t.best - 2 / m.value))
            assert abs(t.best_n / q - m.t_star) <= 1 / q
        assert gaps[0] <= 5e-5 and gaps[1] <= gaps[0] / 2


class TestStarSearch:
    def test_q2_brute(self):
        # all 16 spectra by hand enumeration
        rep = discrete.exact_gamma_star(2, 2.0, K=1e6)
        Q = 4
        k = np.arange(Q)
        E = np.exp(2j * np.pi * np.outer(k, k) / Q)
        best = 0.0
        for mask in range(1, 16):
            hs = [h for h in range(4) if mask >> h & 1]
            v = E[hs].sum(axis=0)
            mp = np.abs(v) ** 2
            num = 2 * mp[1]
            ds = mp[1] + mp[3]
            dp = mp[0] + mp[2]
            if num == 0 or ds == 0:
                continue
            g = num / ds
            if dp > 0:
                g = min(g, 1e6 * num / dp)
            best = max(best, g)
        assert rep.ratio_star == pytest.approx(best, abs=1e-12)
        assert rep.cond_K_ok

    @pytest.mark.parametrize("q", [3, 4, 7, 8])
    @pytest.mark.parametrize("p, K", [(1.0, 1e4), (2.0, 1.0), (3.0, 100.0)])
    def test_matches_full_grid_enumeration(self, q, p, K):
        # every spectrum in {0..2q-1}, scored on all 2q points
        Q = 2 * q
        masks = np.arange(1, 1 << Q)
        mp = np.abs(((masks[:, None] >> np.arange(Q)) & 1)
                    @ np.exp(2j * np.pi * np.outer(np.arange(Q), np.arange(Q)) / Q)) ** p
        num, ds, dp = 2 * mp[:, 1], mp[:, 1::2].sum(axis=1), mp[:, 0::2].sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where((num > 0) & (ds > 0), np.minimum(num / ds, K * num / dp), 0.0)
        rep = discrete.exact_gamma_star(q, p, K=K)
        assert rep.ratio_star == pytest.approx(g.max(), rel=1e-12, abs=0)
        assert rep.cond_K_ok

    def test_witness_recheck(self):
        rep = discrete.exact_gamma_star(4, 2.0, K=1e4)
        assert rep.cond_K_ok

    def test_K_monotone(self):
        rs = [discrete.exact_gamma_star(3, 2.0, K=K).ratio_star
              for K in (1.0, 100.0, 1e6)]
        assert rs[0] <= rs[1] + 1e-12 <= rs[2] + 2e-12

    def test_pruning_soundness(self):
        for q in (2, 3, 9):
            a = discrete.exact_gamma_star(q, 2.0, K=100.0, use_pruning=True)
            b = discrete.exact_gamma_star(q, 2.0, K=100.0, use_pruning=False)
            assert abs(a.ratio_star - b.ratio_star) <= 1e-12

    def test_budget(self):
        with pytest.raises(BudgetError):
            discrete.exact_gamma_star(12, 2.0)


class TestDecayScan:
    def test_is_prime(self):
        assert [q for q in range(30) if discrete.is_prime(q)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_small_primes(self):
        rows = discrete.gamma1_decay_scan([5, 3, 7])
        assert [r["q"] for r in rows] == [3, 5, 7]
        assert rows[0]["gamma1_hat"] == 2 / 3
        for r in rows:
            assert r["method"] == "exhaustive"
            assert r["gamma1_hat"] >= r["dirichlet_best"] - 1e-12
            assert r["beta_diagnostic"] == pytest.approx(
                math.log(1 / r["gamma1_hat"]) / math.log(math.log(r["q"])))

    def test_heuristic_row(self):
        # 29 is the first prime above EXHAUSTIVE_CAP
        rows = discrete.gamma1_decay_scan([29], restarts=2)
        assert rows[0]["method"] == "heuristic"
        assert rows[0]["gamma1_hat"] >= rows[0]["dirichlet_best"] - 1e-12

    def test_exact_up_to_the_one_cap(self):
        rows = discrete.gamma1_decay_scan([23])
        assert rows[0]["method"] == "exhaustive"
        assert rows[0]["gamma1_hat"] == discrete.exact_gamma_sharp(23, 1.0).ratio
