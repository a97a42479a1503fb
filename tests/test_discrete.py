import hashlib
import itertools
import math
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from concentra import bounds, discrete
from concentra.errors import BudgetError, DomainError
from concentra.trigpoly import Grid, Spectrum, eval_grid, to_coeffs
from conftest import _restart_pool, brute_force_gamma_sharp


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

    @pytest.mark.parametrize("call, name", [
        (lambda x: discrete.ratio(np.ones(5), x, 1), "p"),
        (lambda x: discrete.concentration_ratio(Spectrum((0, 1), 5), x), "p"),
        (lambda x: discrete.dirichlet_table(7, x), "p"),
        (lambda x: discrete.star(Spectrum((0, 1), 6), x, 1e4), "p"),
        (lambda x: discrete.star(Spectrum((0, 1), 6), 2.0, x), "K"),
    ], ids=["ratio", "concentration_ratio", "dirichlet_table", "star-p", "star-K"])
    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
    def test_p_and_K_domain(self, call, name, x):
        with pytest.raises(DomainError, match=f"need finite {name} > 0"):
            call(x)


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
        {"mode": "heuristic", "restarts": -1}, {"mode": "star"}, {"mode": 26},
        {"seed": -1}, {"mode": "heuristic", "seed": -1}])
    def test_dispatcher_domain(self, kwargs):
        with pytest.raises(DomainError):
            discrete.gamma_sharp(5, 1.0, **kwargs)

    def test_dispatcher_modes(self):
        cap = discrete.EXHAUSTIVE_CAP
        assert [discrete.is_exact(q, m) for q, m in [
            (cap, "auto"), (cap + 1, "auto"), (cap + 1, "exhaustive"), (5, "heuristic"),
            (5, "star")]] == [True, False, True, False, False]
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
        (pool,), evals = discrete._scan(
            E, lead, lambda V: -np.abs(V - want).sum(axis=1)[None, :, None])
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
        _, evals = discrete._scan(E, True, lambda V: np.zeros((1, len(V), 1)),
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
            return -V[None]    # one best mask (0) keeps the pool small

        weights = discrete._canonical_weights(q) if W else None
        (pool,), evals = discrete._scan(E, True, score, weights, limit=limit)
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

    @pytest.mark.parametrize("W", [False, True])
    def test_scan_keeps_a_pool_per_group(self, W):
        # the one value column is the mask itself: group 0 scores the least
        # mask best, group 1 the greatest, each over two targets
        q = 19
        E = np.concatenate([[0.0], 2.0 ** np.arange(q - 1)])[:, None]

        def score(V):
            yield np.hstack([-V, -2 * V])
            yield np.hstack([V, V / 2])

        weights = discrete._canonical_weights(q) if W else None
        pools, evals = discrete._scan(E, True, score, weights)
        (_,), one = discrete._scan(E, True, lambda V: [np.hstack([-V, -2 * V])], weights)
        assert [[s.freqs for s in pool] for pool in pools] == [[(0,)], [tuple(range(q))]]
        # each (spectrum, target) is counted once, not once a group
        assert evals == one
        assert W or evals == 2 << (q - 1)

    @pytest.mark.parametrize("q, p", [(12, 1.0), (15, 2.0), (16, 4.0), (18, 3.0)])
    def test_reduced_scan_rebuilds_the_full_candidates(self, q, p):
        # the scan without either reduction: all q columns, every unit as a
        # target, every mask; its candidates must all be re-evaluated
        k = np.arange(q)
        E = np.exp(2j * np.pi * np.outer(k, k) / q)
        units = discrete._units(q)

        def score(V):
            mp = np.abs(V) ** p
            return (2.0 * mp[:, units] / mp.sum(axis=1)[:, None])[None]

        (pool,), _ = discrete._scan(E, True, score)
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

    def test_scan_keeps_its_low_bits_as_bytes(self):
        # the q = 23 scan peaks at 37.1 MiB, mostly batches of 2^16 value
        # vectors and their scores; a low bit table of int64 kept through
        # the batches adds 7 MiB, a canonicality table D of int64 5.3 MiB
        tracemalloc.start()
        try:
            discrete.exact_gamma_sharp(23, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20

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

    @pytest.mark.parametrize("q, p, ratio, witness, evaluations", [
        (22, 1.0, "0x1.76ea2e2465b7ap-2", tuple(range(11)), 524950),
        (24, 3.0, "0x1.f5ee60b5daa1ep-2", (0, 1, 2, 20, 21, 22, 23), 2150496)])
    def test_pinned_reports(self, q, p, ratio, witness, evaluations):
        # 9 and 7 dilations, so the first four filter each whole batch and
        # the rest test the masks left: the kept masks, and so the level,
        # the witness and the count, keep their bits
        rep = discrete.exact_gamma_sharp(q, p)
        assert (rep.ratio.hex(), rep.spectrum.freqs, rep.evaluations) == (
            ratio, witness, evaluations)

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

    def test_table_budget_raises_before_any_table(self, monkeypatch):
        # a cap just below the q = 101 table (101 x 51 complex values)
        def no_table(*args):
            raise AssertionError("Dirichlet table built")
        monkeypatch.setattr(discrete, "_TABLE_BYTES", 101 * 51 * 16 - 1)
        monkeypatch.setattr(discrete, "dirichlet_table", no_table)
        with pytest.raises(BudgetError, match="q = 101"):
            discrete.heuristic_gamma_sharp(101, 2.0)
        assert discrete._half_table(100).shape == (100, 51)

    def test_table_budget_far_above_reached_q(self):
        # q = 4001, above the default q_max of concentrate, takes an eighth
        assert 8 * 4001 * (4001 // 2 + 1) * 16 <= discrete._TABLE_BYTES

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
        (211, 2.5, "0x1.f231e2430b71dp-2", 74904, "d898efa045ddf808"),
        # 257 = 4 * 64 + 1 rows: the one-row tail joins the block before it
        (257, 1.0, "0x1.db33477a478efp-3", 86351, "65756b51d46ef2d2"),
        (257, 2.0, "0x1.d863c02726093p-2", 110252, "c54f345bbfc29bcb")])
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

    def test_ascent_scores_flips_in_row_blocks(self):
        # beside E the ascent holds one block of rows, its products and its
        # powers, a peak of 1.0 MiB at q = 1009; signed copies of the
        # tables took 7.8 MiB more, and scoring the whole table at once
        # peaks at 19.5 MiB
        q = 1009
        E = discrete._half_table(q)
        tracemalloc.start()
        try:
            discrete._ascend(q, 1.0, E, tuple(range(200)), max_steps=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_search_holds_one_table_and_worker_scratch(self):
        # the ascents share one read-only table, built in row blocks after
        # the Dirichlet table is done; each worker adds one ascent's block
        # scratch (a copy of the table, or one built whole, adds 7.8 MiB)
        q, starts = 1009, 8 + 4
        discrete.heuristic_gamma_sharp(q, 1.0, restarts=0)    # the pool is up
        table = discrete._half_table(q).nbytes
        tracemalloc.start()
        try:
            discrete.heuristic_gamma_sharp(q, 1.0, restarts=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table + (min(bounds._WORKERS, starts) + 1) * 1.5 * 2 ** 20

    def test_ascent_reads_a_read_only_table(self):
        # ascents on the pool share E: none may write it
        q = 257
        E = discrete._half_table(q)
        assert not E.flags.writeable
        before = E.tobytes()
        members, score, _ = discrete._ascend(q, 1.0, E, tuple(range(40)))
        assert E.tobytes() == before
        here = discrete.concentration_ratio(Spectrum(tuple(members.tolist()), q), 1.0, 1)
        assert score == pytest.approx(here, rel=1e-12)

    @pytest.mark.parametrize("q, p, restarts, seed, ratio, evaluations, witness", [
        # q > 1024: 3 interval starts and 2 random ones
        (1031, 1.0, 2, 3, "0x1.98dda48b1005dp-3", 138153, "a1918626b1ed2f89"),
        # 8 interval starts and 1 random one
        (1009, 2.0, 1, 6, "0x1.d85fcdbbc214ep-2", 89800, "f2b2bac7f1e2f345"),
        # q <= 64: q - 1 interval starts, on the pool although q < _POOL_Q
        (61, 1.5, 3, 4, "0x1.9719a10d02126p-2", 65147, "63bdb76e309ce3e5")])
    def test_same_report_at_every_worker_count(self, monkeypatch, q, p, restarts, seed,
                                               ratio, evaluations, witness):
        # pinned from the serial loop over the starts: the walks of every
        # start are combined in start order, however the pool runs them
        monkeypatch.setattr(discrete, "_POOL_Q", 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # interleave the workers often
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(bounds, "_WORKERS", workers)
                _restart_pool()
                h = discrete.heuristic_gamma_sharp(q, p, restarts=restarts, seed=seed)
                digest = hashlib.sha256(repr(h.spectrum.freqs).encode()).hexdigest()[:16]
                assert (h.ratio.hex(), h.evaluations, digest) == (ratio, evaluations, witness)
        finally:
            sys.setswitchinterval(interval)
            _restart_pool()

    def test_walks_combined_in_start_order(self, monkeypatch):
        # every walk ends at the same score, and the later starts end first:
        # the first start, the best interval, still wins the tie
        calls = itertools.count()

        def ascend(q, p, E, start, max_steps=None):
            time.sleep(0.01 * (8 - next(calls)))
            return np.array(start), 0.99, 1

        monkeypatch.setattr(discrete, "_ascend", ascend)
        h = discrete.heuristic_gamma_sharp(601, 1.0, restarts=0)
        assert h.spectrum.freqs == tuple(range(discrete.dirichlet_table(601, 1.0).best_n))

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

    @pytest.mark.parametrize("n, blocks", [
        (3, [(0, 3)]), (64, [(0, 64)]), (67, [(0, 67)]), (68, [(0, 64), (64, 68)]),
        (257, [(0, 64), (64, 128), (128, 192), (192, 257)])])
    def test_row_blocks(self, n, blocks):
        # aligned starts, and no tail of fewer than 4 rows
        assert discrete._row_blocks(n) == blocks

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

    def test_rows_built_in_blocks(self):
        # at q = 2003 a block of 64 rows is 1 MiB and the table peaks at
        # 4 MiB; the whole table and its temporaries peak at 92 MiB
        tracemalloc.start()
        try:
            discrete.dirichlet_table(2003, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

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

    @pytest.mark.parametrize("p", [1.5, 1.999, 3.0])
    def test_half_grid_intervals_converge_to_series_A(self, p):
        # the best interval {0..n-1} of Z/2qZ at the half-grid level against
        # 1 / min_t A(p, t); at p = 1.5 the minimizer sits on a cusp, the
        # best interval stays above the limit and the gap only about halves
        limit = 1 / bounds.minimize_over_t("A", p).value
        gaps = []
        for q in (101, 401):
            best = max(discrete.star(Spectrum(tuple(range(n)), 2 * q), p, 1e4)[0]
                       for n in range(1, 2 * q))
            gaps.append(best - limit)
        if p == 1.5:
            assert 0 < gaps[1] < gaps[0]
        else:
            assert abs(gaps[1]) <= abs(gaps[0]) / 5


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

    def test_recheck_slack_scales_with_the_numerator(self):
        # 2|v_1|^20 = 9.28e14 here: the recheck's rounding is one ulp, 0.125
        rep = discrete.exact_gamma_star(9, 20.0)
        assert rep.cond_K_ok
        assert rep.ratio_star.hex() == "0x1.0000000000001p+0"

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

    @pytest.mark.parametrize("use_pruning", [True, False])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0, 10.0])
    @pytest.mark.parametrize("q", range(2, 11))
    def test_one_scan_gives_each_K_its_own_report(self, q, p, use_pruning):
        # the oracle is a scan a K: level, witness, count and recheck agree
        Ks = (1.0, 100.0, 1e4)
        shared = discrete.exact_gamma_stars(q, p, Ks, use_pruning)
        for K, rep in zip(Ks, shared):
            one = discrete.exact_gamma_star(q, p, K, use_pruning)
            assert rep.ratio_star.hex() == one.ratio_star.hex()
            assert rep == one

    @pytest.mark.parametrize("Ks, bad", [
        ((1e307, -1.0, math.inf), "-1.0"), ((1.0, 0.0), "0.0"), ((math.nan,), "nan")])
    def test_every_K_checked_before_the_scan(self, monkeypatch, Ks, bad):
        monkeypatch.setattr(discrete, "_scan", pytest.fail)
        with pytest.raises(DomainError, match=f"need finite K > 0, got {bad}$"):
            discrete.exact_gamma_stars(3, 2.0, Ks)
        with pytest.raises(DomainError, match="need at least one K"):
            discrete.exact_gamma_stars(3, 2.0, ())


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

    @pytest.mark.parametrize("primes, error", [
        ([101, 1009, 20011], BudgetError), ([3, 5, 9], DomainError), ([2, 3], DomainError),
        ([3, 10 ** 18 + 9], BudgetError)],
        ids=["table-budget", "composite", "two", "budget-before-trial-division"])
    def test_every_prime_checked_before_the_first_row(self, monkeypatch, primes, error):
        # the last q is refused before any row: no table, no search; a q past
        # the budget is refused before its trial division
        def no_row(*args, **kwargs):
            raise AssertionError("row computed")
        monkeypatch.setattr(discrete, "dirichlet_table", no_row)
        monkeypatch.setattr(discrete, "gamma_sharp", no_row)
        is_prime = discrete.is_prime

        def small_prime(q):
            assert q < 10 ** 6, "trial division of a large q"
            return is_prime(q)
        monkeypatch.setattr(discrete, "is_prime", small_prime)
        with pytest.raises(error):
            discrete.gamma1_decay_scan(primes)


@pytest.mark.parametrize("call, message", [
    (lambda: discrete.exact_gamma_sharp(1, 2.0), "need q >= 2"),
    (lambda: discrete.dirichlet_table(1, 2.0), "need q >= 2"),
    (lambda: discrete.exact_gamma_star(1, 2.0), "need q >= 2"),
    (lambda: discrete.heuristic_gamma_sharp(2, 2.0), "need q >= 3"),
], ids=["exact-q-1", "table-q-1", "star-q-1", "heuristic-q-2"])
def test_boundary_check_raises(call, message):
    with pytest.raises(DomainError, match=message):
        call()
