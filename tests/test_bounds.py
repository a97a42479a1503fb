import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from concentra import bounds, cli
from concentra.errors import DomainError
from conftest import K_upper, zeta_value


def closed_B2(t):
    return math.pi ** 2 * t / math.sin(math.pi * t) ** 2


def closed_A2(t):
    return math.pi ** 2 * t / (4 * math.sin(math.pi * t) ** 2)


def closed_B4(t):
    # fourth-power case: the sum is the autocorrelation-square mass 2t^3/3
    return 2 * math.pi ** 4 * t ** 3 / (3 * math.sin(math.pi * t) ** 4)


GRID_50 = [i / 128 for i in range(13, 63)]     # dyadic grid in [0.1, 0.49]


class TestSeriesValues:
    def test_B2_closed_form_spot(self):
        for t in (0.1, 0.25, 0.4):
            ev = bounds.eval_B(2.0, t, tol=1e-9)
            assert abs(ev.value - closed_B2(t)) <= 2e-9
            assert ev.tail_bound <= 1e-9

    def test_B2_against_direct_partial_sum(self):
        # independent oracle: 10^7-term direct summation, bounded by envelope
        t = 0.3203125
        k = np.arange(1, 10 ** 7 + 1, dtype=np.float64)
        x = math.pi * t * k
        partial = (math.pi * t / math.sin(math.pi * t)) ** 2 \
            * (1 + 2 * float(np.sum((np.sin(x) / x) ** 2)))
        ev = bounds.eval_B(2.0, t, tol=1e-10)
        env = 2 / math.sin(math.pi * t) ** 2 / 10 ** 7
        assert partial <= ev.value + 1e-10
        assert ev.value - partial <= env + 1e-10

    def test_B4_closed_form(self):
        for t in (0.15, 0.25, 0.35):
            ev = bounds.eval_B(4.0, t, tol=1e-11)
            assert abs(ev.value - closed_B4(t)) <= 1e-9

    def test_B10_below_coarse_majorant(self):
        ev = bounds.eval_B(10.0, 0.25, tol=1e-10)
        assert ev.value <= (math.pi / 2) ** 10 + 2 * zeta_value(10.0) * 4.0 ** 10

    def test_A2_closed_form_grid(self):
        for t in GRID_50:
            ev = bounds.eval_A(2.0, t, tol=1e-11)
            assert abs(ev.value - closed_A2(t)) <= 2e-11

    def test_A2_quarter(self):
        ev = bounds.eval_A(2.0, 0.25, tol=1e-12)
        assert abs(ev.value - math.pi ** 2 / 8) <= 1e-11

    def test_A40_quarter_direct(self):
        ev = bounds.eval_A(40.0, 0.25, tol=1e-13)
        want = sum((2 * k + 1.0) ** -40 for k in range(40))
        assert abs(ev.value - want) <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bounds.eval_B(1.0, 0.2)
        with pytest.raises(DomainError):
            bounds.eval_B(2.0, 0.6)
        with pytest.raises(DomainError):
            bounds.eval_A(2.0, 0.0)

    def test_near_divergence_is_finite_and_honest(self):
        ev = bounds.eval_B(1.01, 0.25, tol=1e-6)
        assert math.isfinite(ev.value) and ev.value > 0
        assert ev.tail_bound > ev.tol      # honest: request not met
        assert not ev.converged


class TestTailRigor:
    @pytest.mark.parametrize("lam", [2.0, 2.5, 3.0, 4.0, 10.0])
    def test_quadrupling_terms_stays_within_bound(self, lam, monkeypatch):
        for t in (0.11, 0.25, 0.371, 0.5):
            for f in (bounds.eval_B, bounds.eval_A):
                monkeypatch.setattr(bounds, "MAX_TERMS", 2 ** 16)
                e1 = f(lam, t, tol=1e-14)
                monkeypatch.setattr(bounds, "MAX_TERMS", 2 ** 18)
                e2 = f(lam, t, tol=1e-14)
                assert abs(e1.value - e2.value) < e1.tail_bound

    def test_envelope_path_meets_its_tolerance(self):
        # K is sized for the tolerance less the roundoff added after the sum
        ev = bounds.eval_B(4.0, 5 / 64)
        assert ev.converged
        assert abs(ev.value - closed_B4(5 / 64)) <= ev.tail_bound

    def test_A_monotone_in_lam(self):
        for t in (0.1, 0.2, 0.3, 0.45):
            vals = [bounds.eval_A(lam, t, tol=1e-10).value
                    for lam in (1.5, 2.0, 3.0, 5.0, 9.0)]
            assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


class TestMinimization:
    def test_chain_consistency(self):
        m = bounds.minimize_over_t("B", 2.0)
        g2 = bounds.gamma2_sharp()
        assert abs(2.0 / m.value - g2.value) <= 1e-6
        ga = bounds.gamma_star_lower(2.0)
        assert abs(ga.value - 2 * g2.value) <= 1e-6

    def test_A2_minimizer_stationarity(self):
        # argmin localization is noise-limited at sqrt(series tol) on the
        # flat basin, hence the tolerance on the first-order condition
        m = bounds.minimize_over_t("A", 2.0, refine_tol=1e-10)
        x = math.pi * m.t_star
        assert abs(math.tan(x) - 2 * x) <= 1e-4
        assert abs(m.value - 1.0839) <= 1e-3

    def test_B2_min_value(self):
        m = bounds.minimize_over_t("B", 2.0)
        assert abs(m.value - 2 / 0.4613) <= 2e-3

    def test_result_below_random_probes(self, rng):
        for which, lam in (("B", 2.0), ("B", 3.0), ("A", 2.0)):
            m = bounds.minimize_over_t(which, lam)
            f = bounds.eval_A if which == "A" else bounds.eval_B
            ts = rng.uniform(1e-4, 0.5, size=64)
            assert all(m.value <= f(lam, float(t), tol=1e-8).value + 1e-9
                       for t in ts)

    def test_domain(self):
        with pytest.raises(DomainError):
            bounds.minimize_over_t("B", 1.0)
        with pytest.raises(DomainError):
            bounds.minimize_over_t("C", 2.0)


class TestConstants:
    def test_gamma2(self):
        g = bounds.gamma2_sharp()
        assert 0.4608 <= g.value <= 0.4618
        assert abs(math.tan(g.argmax) - 2 * g.argmax) <= 1e-6
        # any sample point sits below the supremum
        assert 2 * math.sin(math.pi / 2) ** 2 / (math.pi * math.pi / 2) < g.value

    def test_gamma4(self):
        g = bounds.gamma4_sharp_lower()
        assert 0.495 < g.value <= 0.5
        m = bounds.minimize_over_t("B", 4.0)
        assert abs(g.value - 2.0 / m.value) <= 1e-6

    def test_gamma_sharp_lower_p3(self):
        assert bounds.gamma_sharp_lower(3.0).value > 0.483

    def test_gamma_sharp_lower_near_two(self):
        assert bounds.gamma_sharp_lower(2.01).value >= 0.46

    def test_gamma_sharp_lower_at_most_two_uses_single_power(self):
        g = bounds.gamma_sharp_lower(1.5)
        assert len(g.certificate["L_sweep"]) == 1

    def test_asymptote_lam_100(self):
        a = bounds.asymptote_scan(100.0)
        assert abs(a.value - 4.13273) <= 0.1 * 4.13273

    def test_gamma_star_lower(self):
        assert abs(bounds.gamma_star_lower(2.0).value - 0.9226) <= 1e-3
        assert bounds.gamma_star_lower(40.0).value >= 0.999
        assert abs(bounds.gamma_star_lower(1.999).value - 0.9226) <= 1e-3

    def test_gamma1_chain(self):
        g = bounds.gamma1_certified_lower(1.999)
        assert g.value > 0.96
        assert abs(g.value - 0.96053) <= 1e-3
        assert bounds.gamma1_certified_lower(1.5).value < g.value
        with pytest.raises(DomainError):
            bounds.gamma1_certified_lower(2.0)
        with pytest.raises(DomainError):
            bounds.gamma1_certified_lower(1.0)


class TestMajorant:
    def test_hand_value(self):
        want = math.pi ** 2 / 4 + 4 * math.pi ** 2 / 3
        assert abs(K_upper(2.0, 0.5) - want) <= 1e-9

    def test_majorizes_B(self, rng):
        for _ in range(200):
            lam = float(rng.uniform(1.1, 20.0))
            t = float(rng.uniform(0.01, 0.5))
            ev = bounds.eval_B(lam, t, tol=1e-3)
            assert ev.value <= K_upper(lam, t) * (1 + 1e-12) + ev.tail_bound

    def test_large_lam_dominated_by_zeta_term(self):
        lam = 40.0
        t = 0.25
        assert K_upper(lam, t) >= 2 * zeta_value(lam) * t ** -lam

    def test_zeta(self):
        assert abs(zeta_value(2.0) - math.pi ** 2 / 6) <= 1e-12


def _allocating_direct_sum(lam, t, K, odd):
    """The chunked direct sum with fresh arrays per chunk: the in-place
    kernel's oracle, (sum, count)."""
    S = math.sin(math.pi * t)
    pt = math.pi * t
    chunks = []
    start = 1
    step = 2 if odd else 1
    count = 0
    while start <= K:
        stop = min(start + step * bounds._CHUNK, K + 1)
        k = np.arange(start, stop, step, dtype=np.float64)
        count += len(k)
        r = np.abs(np.sin(pt * k)) / (k * S)
        if lam == 2.0:
            term = r * r
        elif lam == 4.0:
            r2 = r * r
            term = r2 * r2
        else:
            term = r ** lam
        chunks.append(float(np.sum(term)))
        start = stop
    return math.fsum(chunks), count


def _traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestKernels:
    @pytest.mark.parametrize("lam", [1.5, 2.0, 2.5, 4.0])
    @pytest.mark.parametrize("odd", [False, True])
    def test_direct_sum_matches_allocating_oracle(self, monkeypatch, lam, odd):
        monkeypatch.setattr(bounds, "_CHUNK", 8)
        monkeypatch.setattr(bounds, "_SUB", 3)
        # K spans several full chunks and a partial one, or exactly full ones
        for t, K in ((1 / 3, 61), (0.2371, 61), (5 / 64, 64), (0.41, 5)):
            total, _, count = bounds._direct_scaled_sum(lam, t, K, odd)
            want, want_count = _allocating_direct_sum(lam, t, K, odd)
            assert total.hex() == want.hex() and count == want_count

    @pytest.mark.parametrize("lam", [1.5, 2.0, 2.5, 4.0])
    @pytest.mark.parametrize("odd", [False, True])
    def test_direct_sum_pieces_match_allocating_oracle(self, monkeypatch, lam, odd):
        # real chunks, the last one partial; at 3 workers a full chunk is cut
        # into 12 pieces, which start off multiples of 8 (2^20 // 12 = 87381)
        K = 2 ** 21 + 12345
        want, want_count = _allocating_direct_sum(lam, 0.2371, K, odd)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # interleave the workers often
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(bounds, "_WORKERS", workers)
                total, _, count = bounds._direct_scaled_sum(lam, 0.2371, K, odd)
                assert total.hex() == want.hex() and count == want_count
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("odd", [False, True])
    def test_scan_table_matches_allocating_oracle(self, monkeypatch, odd):
        for workers in (1, 2, 3):
            monkeypatch.setattr(bounds, "_WORKERS", workers)
            ts, M = bounds._build_scan_table(odd, 512)
            S = np.sin(np.pi * ts)
            k = np.arange(1, 4097, 2 if odd else 1, dtype=np.float64)
            want = np.abs(np.sin(np.pi * np.outer(k, ts))) / (k[:, None] * S[None, :])
            assert np.array_equal(M, want)

    @pytest.mark.parametrize("lam", [1.5, 2.0, 2.5, 7.0])
    def test_scan_values_match_whole_table_sum(self, monkeypatch, lam):
        # the column blocks sum each column in row order, as the whole table
        # does; the least allowance gives blocks of two columns
        ts, M = bounds._scan_table(True, 1024)
        want = np.sum(M ** lam, axis=0)
        for workers in (1, 2, 3):
            for block_bytes in (1, bounds._BLOCK_BYTES):
                monkeypatch.setattr(bounds, "_WORKERS", workers)
                monkeypatch.setattr(bounds, "_BLOCK_BYTES", block_bytes)
                got = bounds._scan_values("A", lam, (ts, M))
                assert got.tobytes() == want.tobytes()

    def test_constants_build_each_table_once(self, monkeypatch):
        built = []
        build = bounds._build_scan_table
        monkeypatch.setattr(bounds, "_build_scan_table",
                            lambda odd, n: built.append((odd, n)) or build(odd, n))
        bounds._scan_table.cache_clear()
        cli.run_constants({})
        assert sorted(built) == [(False, 1024), (True, 1024)]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_its_own_pool(self):
        # the parent's pool threads do not exist in a child; a child that
        # reused the parent's pool would wait on them for ever
        code = ("import os, signal; from concentra import bounds\n"
                "a = bounds._direct_scaled_sum(1.5, 1 / 3, 2 ** 20, False)\n"
                "pid = os.fork()\n"
                "if pid == 0:\n"
                "    signal.alarm(30)\n"
                "    b = bounds._direct_scaled_sum(1.5, 1 / 3, 2 ** 20, False)\n"
                "    os._exit(0 if a == b else 1)\n"
                "assert os.waitpid(pid, 0)[1] == 0\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_memoised_table_is_read_only(self):
        ts, M = bounds._scan_table(False, 1024)
        assert bounds._scan_table(False, 1024)[1] is M
        with pytest.raises(ValueError):
            M[0, 0] = 1.0
        with pytest.raises(ValueError):
            ts[0] = 1.0

    @pytest.mark.parametrize("p", [2.5, 3.0])
    def test_sweep_shares_table_bit_identically(self, p):
        for row in bounds.gamma_sharp_lower(p).certificate["L_sweep"]:
            m = bounds.minimize_over_t("B", p * row["L"], refine_tol=1e-8)
            assert row["min_B"].hex() == m.value.hex()
            assert row["t_star"].hex() == m.t_star.hex()

    def test_minimize_pinned(self):
        m = bounds.minimize_over_t("B", 2.5)
        assert (m.t_star.hex(), m.value.hex()) == ("0x1.5b818c971a02bp-2",
                                                   "0x1.0785b2b92717dp+2")
        m = bounds.minimize_over_t("A", 3.3)
        assert (m.t_star.hex(), m.value.hex()) == ("0x1.7a4d4162654a8p-2",
                                                   "0x1.011bdd1dfd12ep+0")

    def test_direct_sum_peak_memory(self):
        peak = _traced_peak(lambda: bounds._direct_scaled_sum(1.5, 1 / 3, 2 ** 22, False))
        assert peak <= 3 * bounds._CHUNK * 8 + 2 ** 20

    def test_minimize_peak_memory(self):
        # a cold scan holds the table and the column blocks in flight
        bounds._scan_table.cache_clear()
        peak = _traced_peak(lambda: bounds.minimize_over_t("B", 2.5))
        assert peak <= 4096 * 1024 * 8 + bounds._BLOCK_BYTES + 2 ** 20

    @pytest.mark.parametrize("f", [bounds.gamma_sharp_lower, bounds.gamma_star_lower])
    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_non_finite_p_rejected_before_scan(self, monkeypatch, f, p):
        def no_table(*args):
            raise AssertionError("scan table built")
        monkeypatch.setattr(bounds, "_scan_table", no_table)
        with pytest.raises(DomainError):
            f(p)
