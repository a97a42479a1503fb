import functools
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from concentra import bounds, cli
from concentra.errors import DomainError
from conftest import K_upper, _restart_pool, zeta_value


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

    @pytest.mark.parametrize("lam, t", [(20.0, 0.3)] + [
        (lam, t) for t in (5 / 64, 1 / 3, 0.2371) for lam in (1.5, 2.5)],
        ids=["envelope", "rational-1.5", "rational-2.5", "near-rational-1.5",
             "near-rational-2.5", "mode-1.5", "mode-2.5"])
    def test_value_and_bound_are_python_floats(self, lam, t):
        # one value type on every path, the mode path's numpy sums included
        for ev in (bounds.eval_B(lam, t), bounds.eval_A(lam, t)):
            assert type(ev.value) is float and type(ev.tail_bound) is float

    def test_near_divergence_is_finite_and_honest(self, monkeypatch):
        # on the mode path: the rational path meets this request at t = 1/4
        monkeypatch.setattr(bounds, "_RATIONAL_CAP", 1)
        ev = bounds.eval_B(1.01, 0.25, tol=1e-6)
        assert math.isfinite(ev.value) and ev.value > 0
        assert ev.tail_bound > ev.tol      # honest: request not met
        assert not ev.converged


class TestTailRigor:
    @pytest.mark.parametrize("lam", [2.0, 2.5, 3.0, 4.0, 10.0])
    def test_quadrupling_terms_stays_within_bound(self, lam, monkeypatch):
        # on the mode and envelope paths, which the term budget sizes
        monkeypatch.setattr(bounds, "_RATIONAL_CAP", 1)
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

    @pytest.mark.parametrize("lam, a, m", [(40.0, 1, 2), (100.0, 1, 4), (200.0, 3, 8)])
    def test_prefactor_rounding_within_tail_bound(self, lam, a, m):
        # the rounding of (pi t / sin pi t)^lam grows like lam eps relative
        ev = bounds.eval_B(lam, a / m)
        assert abs(ev.value - hurwitz_series("B", lam, a, m)) <= ev.tail_bound

    def test_A_monotone_in_lam(self):
        for t in (0.1, 0.2, 0.3, 0.45):
            vals = [bounds.eval_A(lam, t, tol=1e-10).value
                    for lam in (1.5, 2.0, 3.0, 5.0, 9.0)]
            assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


# eval_B and eval_A through the mode path: value, tail_bound and terms_used
# in hex as computed before the mode bookkeeping was memoised and threaded;
# B's tail_bound without the bound on its prefactor's rounding, which
# ``with_pref_rounding`` adds as eval_B does.
# The cap of the rational path's denominators is lowered to 1, so that the
# mode path sums the head of every row directly (it sums the head at the
# double nearest 1/3 by residue class).
# The lam = 1.5 rows with terms_used at the budget (2^22 for B, 2^21 for A)
# do not converge: they must keep reporting their honest, too large bound.
MODE_PATH_PINS = [
    ("B", 1.5, 1 / 3, "0x1.63225efe73dabp+2", "0x1.84f644c552336p-15", 4194304),
    ("A", 1.5, 1 / 3, "0x1.5d2010de1ad54p+0", "0x1.84f6abc05476dp-17", 2097152),
    ("B", 1.5, 0.2371, "0x1.b613947ef3dd4p+2", "0x1.8aa5247ff69b3p-32", 4194304),
    ("A", 1.5, 0.2371, "0x1.b912792163697p+0", "0x1.7d0a40c90019fp-33", 2097152),
    ("B", 1.999, 1 / 3, "0x1.18cc774277514p+2", "0x1.26b766954c99fp-34", 1048576),
    ("A", 1.999, 1 / 3, "0x1.18cac5e965597p+0", "0x1.4dc5f13282778p-34", 131072),
    ("B", 1.999, 0.2371, "0x1.46068cde2f6bap+2", "0x1.b3f6baae94befp-35", 262144),
    ("A", 1.999, 0.2371, "0x1.4607873b31f6cp+0", "0x1.2ecd8fd76ec7ap-36", 131072),
    ("B", 2.0, 1 / 3, "0x1.18bc4418cafe2p+2", "0x1.8ad288de189eap-36", 262144),
    ("A", 2.0, 1 / 3, "0x1.18bc4418c5a8cp+0", "0x1.8abe107bcc23dp-37", 131072),
    ("B", 2.0, 0.2371, "0x1.45eb1e4cc3d4ap+2", "0x1.9b536ce41b0a4p-35", 262144),
    ("A", 2.0, 0.2371, "0x1.45eb1e4cbe168p+0", "0x1.17d0f9646f64fp-36", 131072),
    ("B", 2.5, 1 / 3, "0x1.0798efdb51f55p+2", "0x1.df692e880ba5dp-37", 1048576),
    ("A", 2.5, 1 / 3, "0x1.0893730e4e2efp+0", "0x1.df43bee6e21a3p-36", 131072),
    ("B", 2.5, 0.2371, "0x1.2366141d63f02p+2", "0x1.178aa5057f489p-38", 65536),
    ("A", 2.5, 0.2371, "0x1.226a964e759e9p+0", "0x1.050111a44c840p-34", 8192),
]


def with_pref_rounding(which, lam, t, tail):
    """A pinned tail_bound in hex as ``eval_B`` or ``eval_A`` reports it: B
    adds the bound on its prefactor's rounding last, to the prefactor it forms."""
    if which == "A":
        return tail
    pref = math.exp(lam * (math.log(math.pi * t) - math.log(math.sin(math.pi * t))))
    return (float.fromhex(tail) + pref * bounds._pref_error(lam, t)).hex()


class TestModePathPinned:
    @pytest.mark.parametrize("which, lam, t, value, tail, terms", MODE_PATH_PINS)
    def test_pinned(self, monkeypatch, which, lam, t, value, tail, terms):
        monkeypatch.setattr(bounds, "_RATIONAL_CAP", 1)
        ev = (bounds.eval_B if which == "B" else bounds.eval_A)(lam, t)
        assert (ev.value.hex(), ev.tail_bound.hex(), ev.terms_used) == (
            value, with_pref_rounding(which, lam, t, tail), terms)
        budget = bounds.MAX_TERMS // (2 if which == "B" else 4)
        assert ev.converged == (lam != 1.5 or terms < budget)

    @pytest.mark.parametrize("which, lam, t", [
        (which, lam, t) for lam in (1.5, 1.999, 2.0, 2.5) for t in (5 / 64, 1 / 2)
        for which in "BA"])
    def test_dyadic_within_tail_bound(self, monkeypatch, which, lam, t):
        # the rational path takes these t; with the cap of its denominators
        # lowered to 1 the mode path does, and its resonant modes have s_j = 0
        monkeypatch.setattr(bounds, "_RATIONAL_CAP", 1)
        ev = (bounds.eval_B if which == "B" else bounds.eval_A)(lam, t)
        a, m = Fraction(t).as_integer_ratio()
        assert abs(ev.value - hurwitz_series(which, lam, a, m)) <= ev.tail_bound


_HURWITZ = {}


def hurwitz_core(which, lam, a, m):
    """core_D at t = a/m from mpmath's Hurwitz zeta at 30 digits: with
    P = m (B) or 2m (A), core = (P sin pi t)^-lam sum_r |sin(pi r a/m)|^lam
    zeta(lam, r/P) over r in 1..P (odd r for A); m may be any period."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        P = m if which == "B" else 2 * m
        rs = range(1, P + 1, 1 if which == "B" else 2)
        s = mp.sin(mp.pi * a / m)
        for r in rs:
            if (lam, r, P) not in _HURWITZ:
                _HURWITZ[lam, r, P] = mp.zeta(mp.mpf(lam), mp.mpf(r) / P)
        return (P * s) ** -mp.mpf(lam) * mp.fsum(
            abs(mp.sin(mp.pi * r * a / m)) ** mp.mpf(lam) * _HURWITZ[lam, r, P] for r in rs)


def hurwitz_series(which, lam, a, m):
    """B or A at t = a/m, from ``hurwitz_core``."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        core = hurwitz_core(which, lam, a, m)
        if which == "A":
            return float(core)
        return float((mp.pi * a / m / mp.sin(mp.pi * a / m)) ** mp.mpf(lam) + 2 * core)


ORACLE_LAMBDAS = [1.2, 1.5, 1.999, 2.0, 2.5, 4.0]

# doubles within EPS t of a fraction of denominator <= 2^12, and doubles
# with none that near
NEAR_RATIONAL = [1 / 3, 2 / 7, 5 / 11, 1e-3, 48 / 97]
FAR_FROM_RATIONAL = [0.2371, 0.11 + 2 ** -40, 0.4999]

# eval_B and eval_A on the rational path at the default tolerance: value,
# tail_bound and terms_used in hex, as first computed by that path; B's
# tail_bound without the bound on its prefactor's rounding, as for
# MODE_PATH_PINS.
RATIONAL_PATH_PINS = [
    ("B", 1.5, 5 / 64, "0x1.24e5014e91603p+4", "0x1.9f5ccc9276520p-37", 1536),
    ("A", 1.5, 5 / 64, "0x1.24cd7ff890b47p+2", "0x1.425f7f10a86e6p-37", 1216),
    ("B", 1.5, 1 / 2, "0x1.5628871982c08p+2", "0x1.48283edf4ac66p-37", 46),
    ("A", 1.5, 1 / 2, "0x1.b052a7335f524p+0", "0x1.13674624d8bc6p-36", 36),
    ("B", 1.999, 13 / 64, "0x1.69b1e922f5cc0p+2", "0x1.17510dceb4b13p-37", 896),
    ("A", 2.0, 1 / 4, "0x1.3bd3cc9bdcbaep+0", "0x1.ec3fe1fad4ad0p-38", 60),
    ("B", 2.5, 29 / 64, "0x1.2bc52381c912ap+2", "0x1.21450c6b767f1p-38", 576),
    ("A", 1.2, 3 / 64, "0x1.c0eec9909e9b9p+3", "0x1.d589f97d7bb2ep-37", 1600),
    ("B", 4.0, 1 / 64, "0x1.55e1d33c2a8eep+5", "0x1.2e50fdd0d34cap-38", 896),
]


class TestRationalPath:
    @pytest.mark.parametrize("which", ["B", "A"])
    @pytest.mark.parametrize("lam", ORACLE_LAMBDAS)
    def test_dyadic_points_within_tail_bound_of_hurwitz_oracle(self, which, lam):
        # every j/64 is a double; 32/64 is t = 1/2
        f = bounds.eval_B if which == "B" else bounds.eval_A
        for j in range(1, 33):
            ev = f(lam, j / 64)
            assert abs(ev.value - hurwitz_series(which, lam, j, 64)) <= ev.tail_bound
            if lam < 4.0:   # the envelope path takes most points at lam = 4
                assert ev.converged and ev.terms_used <= 2 ** 12

    @pytest.mark.parametrize("which", ["B", "A"])
    @pytest.mark.parametrize("lam", ORACLE_LAMBDAS + [1.01, 16.0])
    def test_non_dyadic_rationals_within_bound_of_hurwitz_oracle(self, which, lam):
        # no double is 1/3 or 3/7: the path itself, at the exact rational
        for a, m in [(1, 3), (2, 7), (5, 11), (3, 7), (1, 97), (48, 97)]:
            S = math.sin(math.pi * a / m)
            core, bound, _ = bounds._core_rational(lam, Fraction(a, m), S, 1e-10, which == "A")
            assert bound <= 1e-10
            assert abs(core - float(hurwitz_core(which, lam, a, m))) <= bound

    @pytest.mark.parametrize("t", [j / 64 for j in range(1, 33)])
    def test_A2_closed_form(self, t):
        ev = bounds.eval_A(2.0, t)
        assert abs(ev.value - closed_A2(t)) <= ev.tail_bound + 1e-14 * ev.value

    @pytest.mark.parametrize("t", NEAR_RATIONAL + FAR_FROM_RATIONAL)
    def test_other_doubles_keep_the_mode_path(self, monkeypatch, t):
        # exact denominator past the cap: the mode path.  A near-rational
        # double sums its head by residue class: the same K, tail and terms
        # used, the value within the two heads' slacks; any other double is
        # bit for bit the mode path alone
        tails = []
        mode_tail = bounds._mode_tail
        monkeypatch.setattr(bounds, "_mode_tail",
                            lambda *a: tails.append(mode_tail(*a)) or tails[-1])
        evals = [(f, lam) for f in (bounds.eval_B, bounds.eval_A) for lam in (1.5, 2.5)]
        got = [f(lam, t) for f, lam in evals]
        monkeypatch.setattr(bounds, "_RATIONAL_CAP", 1)
        plain = [f(lam, t) for f, lam in evals]
        if t in FAR_FROM_RATIONAL:
            assert got == plain
            return
        assert len(tails) == 8 and tails[:4] == tails[4:]
        for (f, _), ev, ref, (_, bound, _) in zip(evals, got, plain, tails):
            assert ev.terms_used == ref.terms_used
            # tail_bound less the mode tail's bound: each head's slack, the
            # same roundoff allowance of the value, and for B the prefactor's
            m = 2 if f is bounds.eval_B else 1
            slacks = (ev.tail_bound - m * bound) + (ref.tail_bound - m * bound)
            assert abs(ev.value - ref.value) <= slacks

    @pytest.mark.parametrize("which, lam, t, value, tail, terms", RATIONAL_PATH_PINS)
    def test_pinned(self, which, lam, t, value, tail, terms):
        ev = (bounds.eval_B if which == "B" else bounds.eval_A)(lam, t)
        assert (ev.value.hex(), ev.tail_bound.hex(), ev.terms_used) == (
            value, with_pref_rounding(which, lam, t, tail), terms)


def _near(t):
    return Fraction(t).limit_denominator(bounds._RATIONAL_CAP)


class TestNearRationalPartialSum:
    @pytest.mark.parametrize("odd", [False, True])
    @pytest.mark.parametrize("lam", [1.2, 1.5, 1.999, 2.5, 4.0])
    def test_matches_plain_direct_sum(self, lam, odd):
        # K below one period, at it and past it, below N0 P at P = 1000 and
        # 97 (2000 and 194 for A), and the mode path's budget
        for t in NEAR_RATIONAL:
            near = _near(t)
            assert abs(Fraction(t) - near) <= bounds.EPS * Fraction(t)
            P = (2 if odd else 1) * near.denominator
            for K in (1, P - 1, P, P + 1, 2 ** 16 + 3, 2 ** 22):
                if K < 1:
                    continue
                S = math.sin(math.pi * t)
                got, slack, count = bounds._residue_head(lam, t, S, near, K, odd)
                want, want_slack, want_count = bounds._direct_scaled_sum(lam, t, S, K, odd)
                assert count == want_count
                assert abs(got - want) <= slack + want_slack, (t, K)

    @pytest.mark.parametrize("odd", [False, True])
    @pytest.mark.parametrize("lam, t", [(1.5, 1 / 3), (2.5, 5 / 11), (1.2, 48 / 97)])
    def test_partial_sum_within_slack_of_mpmath_oracle(self, lam, t, odd):
        # the partial sum to K at the fraction itself, 30 digits: the head
        # takes S of the double, which moves each term by less than the
        # argument move its slack allows
        mp = pytest.importorskip("mpmath")
        near, K = _near(t), 3001
        with mp.workdps(30):
            x = mp.pi * near.numerator / near.denominator
            want = mp.fsum((abs(mp.sin(k * x)) / (k * mp.sin(x))) ** mp.mpf(lam)
                           for k in range(1, K + 1, 2 if odd else 1))
        got, slack, _ = bounds._residue_head(lam, t, math.sin(math.pi * t), near, K, odd)
        assert abs(got - float(want)) <= slack


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
        m = bounds.minimize_over_t("A", 2.0)
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

    def test_minimum_below_scan_range_is_a_domain_error(self):
        # B's minimizer near 0.225 sqrt(6/lam) is 5.5e-5 < T_MIN here: the
        # value at T_MIN, about 7.2, is no minimum
        with pytest.raises(DomainError, match="T_MIN"):
            bounds.minimize_over_t("B", 1e8)


def _kappa_grid_oracle(lam):
    """(SeriesEval, kappa*) of min over kappa of B(lam, kappa sqrt(6/lam)):
    a scan of kappa = 0.05, 0.055, ..., 3.0 trimmed to t < 1/2, then golden
    section between the grid neighbours of the least value to width 1e-6."""
    scale = math.sqrt(6.0 / lam)
    f = lambda kap: bounds.eval_B(lam, kap * scale, tol=1e-8)
    grid = [k for k in (0.05 + 0.005 * i for i in range(591)) if k * scale < 0.5]
    vals = [f(k).value for k in grid]
    i = vals.index(min(vals))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    g = (math.sqrt(5) - 1) / 2
    while hi - lo > 1e-6:
        x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
        if f(x1).value <= f(x2).value:
            hi = x2
        else:
            lo = x1
    return min(((f(k), k) for k in (lo, hi, grid[i])), key=lambda e: e[0].value)


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

    @pytest.mark.parametrize("lam", [0.0, -1.0, 1.0, math.nan, math.inf])
    def test_asymptote_scan_domain(self, lam):
        with pytest.raises(DomainError, match="needs finite lam > 1"):
            bounds.asymptote_scan(lam)

    @pytest.mark.parametrize("lam", [100.0, 1e4, 1e6])
    def test_asymptote_matches_kappa_grid_oracle(self, lam):
        ev, kap = _kappa_grid_oracle(lam)
        a = bounds.asymptote_scan(lam)
        assert a.value <= ev.value + ev.tail_bound
        assert abs(a.argmax - kap) <= 1e-5
        assert a.argmax == a.certificate["t_star"] / math.sqrt(6.0 / lam)

    def test_asymptote_scan_states_the_true_bound(self):
        # above 1, below the series' 1 + 1e-6: one check, in minimize_over_t
        with pytest.raises(DomainError, match=r"needs finite lam > 1 \+ 1e-6, got 1.0000005"):
            bounds.asymptote_scan(1.0000005)

    @pytest.mark.parametrize("p", [1.0000005, 1.0, 0.5, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["gamma_sharp_lower", "gamma_star_lower",
                                      "gamma1_certified_lower"])
    def test_constants_domain(self, name, p):
        # p reaches minimize_over_t, which states the true bound, except
        # where gamma1_certified_lower's own range (1, 2) refuses it first
        match = (r"r must lie in \(1, 2\)" if name == "gamma1_certified_lower" and p != 1.0000005
                 else r"needs finite lam > 1 \+ 1e-6")
        with pytest.raises(DomainError, match=match):
            getattr(bounds, name)(p)

    def test_asymptote_beyond_scan_range_is_a_domain_error(self):
        with pytest.raises(DomainError):
            bounds.asymptote_scan(1e8)

    def test_asymptote_between_first_grid_points(self):
        # at lam = 1e7 the coarse argmin is the first column, yet the
        # minimizer, 1.74e-4, lies inside the scan range and is found
        ts = np.linspace(bounds.T_MIN, 0.5, 1024)
        a = bounds.asymptote_scan(1e7)
        assert ts[0] < a.certificate["t_star"] < ts[1]
        assert abs(a.value - 4.13273) <= 1e-4

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
        # A(2, t) is closed_A2(t), so the chain's limit as r -> 2- is
        # sqrt(1 / min_t closed_A2) = 0.9605227; minimize it by golden section
        lo, hi = 0.2, 0.5
        g = (math.sqrt(5) - 1) / 2
        for _ in range(100):
            a, b = hi - g * (hi - lo), lo + g * (hi - lo)
            lo, hi = (lo, b) if closed_A2(a) < closed_A2(b) else (a, hi)
        ceiling = math.sqrt(1 / closed_A2((lo + hi) / 2))
        assert abs(ceiling - 0.9605227) <= 1e-7
        values = [bounds.gamma1_certified_lower(r).value for r in (1.9, 1.99, 1.999, 1.9999)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < ceiling for v in values)
        assert ceiling - values[-1] <= 2e-5


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


def _allocating_mode_table(t, J, odd):
    """The mode table from fresh whole-length arrays: the in-place table's
    oracle, s_eff."""
    fr = Fraction(float(t))
    num, den = fr.numerator, fr.denominator
    j = np.arange(1, J + 1, dtype=np.float64)
    mult = 2.0 if odd else 1.0
    x = np.mod(mult * t * j, 1.0)
    d = np.minimum(x, 1.0 - x)
    s = np.sin(np.pi * d)
    m_int = 2 * num if odd else num
    j_exact = int(2 ** 53 // m_int) if den <= 2 ** 52 and m_int > 0 else 0
    slack = np.where(j <= j_exact, 0.0, 4 * math.pi * bounds.EPS * mult * abs(t) * j)
    return np.maximum(s - slack, 0.0)


def _allocating_mode_tail(lam, t, tol, odd):
    """The mode tail forming the whole bound at every K, from the allocating
    mode table: the skipping tail's oracle, (K, bound, mean) and the bound at
    each K formed."""
    S = math.sin(math.pi * t)
    Sml = S ** -lam
    J = max(256, int(lam / 2) + 8)
    Zref, _ = bounds._domain_tail(lam, 2 ** 14, odd)
    c, ac = bounds._mode_coeffs(lam, J)
    while bounds._coeff_tail(lam, c) * Zref * Sml > tol / 4 and J < 200000:
        J *= 2
        c, ac = bounds._mode_coeffs(lam, J)
    s_eff = _allocating_mode_table(t, J, odd)
    K, formed = 2 ** 14, {}
    while True:
        Z, ez = bounds._domain_tail(lam, K, odd)
        with np.errstate(divide="ignore"):
            per_mode = (K + 1.0) ** -lam / s_eff
        np.minimum(Z, per_mode, out=per_mode)
        np.multiply(ac[1:], per_mode, out=per_mode)
        bound = Sml * (float(np.sum(per_mode)) + bounds._coeff_tail(lam, c) * Z
                       + ez * (c[0] + 1.0))
        formed[K] = bound
        if bound <= 0.75 * tol or K * 4 > bounds.MAX_TERMS:
            return (K, bound, Sml * Z * c[0]), formed
        K *= 4


def _direct_mode_coeffs(lam, J):
    """c[0..J] built whole to J: the grown coefficient arrays' oracle."""
    c = np.zeros(J + 1)
    a0 = bounds._mean_abs_sin_pow(lam)
    c[0] = a0
    c[1] = -a0 * 2 * lam / (lam + 2)
    j = np.arange(1, J, dtype=np.float64)
    c[2:] = c[1] * np.cumprod((j - lam / 2) / (j + 1 + lam / 2))
    return c


@functools.cache
def _whole_scan_table(odd):
    """(ts, M) of the coarse scan with all its rows k <= 4096, from one
    allocating expression."""
    ts = np.linspace(bounds.T_MIN, 0.5, 1024)
    k = np.arange(1, 4097, 2 if odd else 1, dtype=np.float64)
    M = np.abs(np.sin(np.pi * np.outer(k, ts))) / (k[:, None] * np.sin(np.pi * ts)[None, :])
    return ts, M


def _traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the mode tail at doubles that exhaust the budget (near-rational, lam < 2),
# that stop at the first K or a middle one, and at j/64, whose resonant
# modes have s_j = 0, as the mode path takes them with _RATIONAL_CAP = 1
MODE_TAIL_CASES = (
    [(lam, t) for lam in (1.2, 1.5) for t in NEAR_RATIONAL[:3]]
    + [(2.5, 0.2371), (4.0, 0.11), (1.999, 1 / 3), (2.5, 2 / 7), (2.0, 0.11)]
    + [(1.5, 5 / 64), (1.2, 1 / 2), (2.5, 3 / 64)])


class TestKernels:
    @pytest.mark.parametrize("lam", [1.5, 2.0, 2.5, 4.0])
    @pytest.mark.parametrize("odd", [False, True])
    def test_direct_sum_matches_allocating_oracle(self, monkeypatch, lam, odd):
        monkeypatch.setattr(bounds, "_CHUNK", 8)
        monkeypatch.setattr(bounds, "_SUB", 3)
        # K spans several full chunks and a partial one, or exactly full ones
        for t, K in ((1 / 3, 61), (0.2371, 61), (5 / 64, 64), (0.41, 5)):
            total, _, count = bounds._direct_scaled_sum(lam, t, math.sin(math.pi * t), K, odd)
            want, want_count = _allocating_direct_sum(lam, t, K, odd)
            assert total.hex() == want.hex() and count == want_count

    @pytest.mark.parametrize("lam", [1.5, 2.0, 2.5, 4.0])
    @pytest.mark.parametrize("odd", [False, True])
    def test_direct_sum_pieces_match_allocating_oracle(self, monkeypatch, lam, odd):
        # real chunks, the last one partial; a full chunk is cut into 16
        # ranges of _SUB terms, run on the pool, the partial one runs inline
        K = 2 ** 21 + 12345
        want, want_count = _allocating_direct_sum(lam, 0.2371, K, odd)
        S = math.sin(math.pi * 0.2371)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # interleave the workers often
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(bounds, "_WORKERS", workers)
                _restart_pool()
                assert bounds._pool()._max_workers == workers
                total, _, count = bounds._direct_scaled_sum(lam, 0.2371, S, K, odd)
                assert total.hex() == want.hex() and count == want_count
        finally:
            sys.setswitchinterval(interval)
            _restart_pool()

    @pytest.mark.parametrize("odd", [False, True])
    def test_scan_table_matches_allocating_oracle(self, monkeypatch, odd):
        # the memoised head rows, and full-row columns of spans at the
        # table's edges, inside it and over all of it
        ts, want = _whole_scan_table(odd)
        k = bounds._scan_k(odd)
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(bounds, "_WORKERS", workers)
                _restart_pool()
                assert bounds._pool()._max_workers == workers
                ts_head, H = bounds._scan_table.__wrapped__(odd)    # built afresh
                assert np.array_equal(ts_head, ts)
                assert np.array_equal(H, want[:bounds._SCAN_HEAD])
                for lo, hi in ((0, 2), (0, 5), (311, 340), (1021, 1024), (0, 1024)):
                    assert np.array_equal(bounds._scan_rows(k, ts[lo:hi]), want[:, lo:hi])
        finally:
            _restart_pool()

    @pytest.mark.parametrize("lam", [1.5, 2.0, 2.5, 7.0])
    def test_scan_values_match_whole_table_sum(self, monkeypatch, lam):
        # the column blocks sum each column in row order, as the whole table
        # does; the least allowance gives blocks of two columns.  The columns
        # carry all their rows, as the span's do.
        ts = bounds._scan_table(True)[0]
        M = bounds._scan_rows(bounds._scan_k(True), ts)
        want = np.sum(M ** lam, axis=0)
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(bounds, "_WORKERS", workers)
                _restart_pool()
                assert bounds._pool()._max_workers == workers
                for block_bytes in (1, bounds._BLOCK_BYTES):
                    monkeypatch.setattr(bounds, "_BLOCK_BYTES", block_bytes)
                    got = bounds._scan_values("A", lam, (ts, M))
                    assert got.tobytes() == want.tobytes()
        finally:
            _restart_pool()

    @pytest.mark.parametrize("which", ["B", "A"])
    def test_scan_rows_cut_off_bit_identically(self, which):
        # the slow oracle sums every row of the whole table; at large lam
        # the column blocks leave out the rows their sums absorb
        ts, M = _whole_scan_table(which == "A")
        for lam in (6.0, 10.0, 25.0, 100.0, 1e4, 1e7):
            with np.errstate(over="ignore", under="ignore"):
                want = np.sum(M ** lam, axis=0)
                if which == "B":
                    pref = np.exp(lam * (np.log(np.pi * ts) - np.log(np.sin(np.pi * ts))))
                    want = pref + 2 * want
            assert bounds._scan_values(which, lam, (ts, M)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("which", ["B", "A"])
    def test_span_holds_whole_table_argmin(self, which):
        # the slow oracle: every column summed over all its rows
        table = _whole_scan_table(which == "A")
        for lam in (1.00011, 1.5, 1.999, 2.5, 6.0, 25.0, 100.0, 250.0):
            i = int(np.argmin(bounds._scan_values(which, lam, table)))
            lo, hi = bounds._scan_span(which, lam, bounds._scan_table(which == "A"))
            assert lo <= i < hi
            assert i > lo or i == 0
            assert i < hi - 1 or i == len(table[0]) - 1

    @pytest.mark.parametrize("which, lam", [("B", 2.5), ("B", 6.0), ("B", 30.0),
                                            ("A", 1.999), ("A", 3.3), ("A", 25.0)])
    def test_minimize_matches_whole_table_route(self, which, lam):
        evalf = bounds.eval_A if which == "A" else bounds.eval_B
        f = lambda t: evalf(lam, float(t), tol=bounds._REFINE_TOL / 10).value
        ts, M = _whole_scan_table(which == "A")
        t_star, value = bounds._scan_min(f, ts, bounds._scan_values(which, lam, (ts, M)),
                                         bounds._REFINE_TOL)
        m = bounds.minimize_over_t(which, lam)
        assert (m.t_star.hex(), m.value.hex()) == (float(t_star).hex(), float(value).hex())

    def test_parallel_waits_for_every_range_before_raising(self):
        # the ranges write into the caller's buffer: none may still run
        # once the first range's error reaches the caller
        done = []

        def fn(lo, hi):
            if lo == 0:
                raise ValueError("range 0")
            time.sleep(0.05)
            done.append(lo)

        with pytest.raises(ValueError, match="range 0"):
            bounds._parallel(fn, [(i, i + 1) for i in range(6)])
        assert sorted(done) == [1, 2, 3, 4, 5]

    def test_constants_build_each_table_once(self):
        # one table of each domain at the default scan size
        bounds._scan_table.cache_clear()
        cli.run_constants({})
        assert bounds._scan_table.cache_info().misses == 2

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_its_own_pool(self):
        # the parent's pool threads do not exist in a child; a child that
        # reused the parent's pool would wait on them for ever
        code = ("import math, os, signal; from concentra import bounds\n"
                "S = math.sin(math.pi / 3)\n"
                "a = bounds._direct_scaled_sum(1.5, 1 / 3, S, 2 ** 20, False)\n"
                "pid = os.fork()\n"
                "if pid == 0:\n"
                "    signal.alarm(30)\n"
                "    b = bounds._direct_scaled_sum(1.5, 1 / 3, S, 2 ** 20, False)\n"
                "    os._exit(0 if a == b else 1)\n"
                "assert os.waitpid(pid, 0)[1] == 0\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_memoised_table_is_read_only(self):
        ts, M = bounds._scan_table(False)
        assert bounds._scan_table(False)[1] is M
        for odd in (False, True):
            assert bounds._scan_table(odd)[1].size <= 256 * 1024
        with pytest.raises(ValueError):
            M[0, 0] = 1.0
        with pytest.raises(ValueError):
            ts[0] = 1.0

    def test_sweep_minimizes_through_minimize_over_t(self, monkeypatch):
        calls = []
        minimize = bounds.minimize_over_t
        monkeypatch.setattr(bounds, "minimize_over_t",
                            lambda *a, **kw: calls.append(a) or minimize(*a, **kw))
        sweep = bounds.gamma_sharp_lower(3.0).certificate["L_sweep"]
        assert calls == [("B", 3.0 * row["L"]) for row in sweep]

    @pytest.mark.parametrize("p", [2.5, 3.0])
    def test_sweep_shares_table_bit_identically(self, p):
        for row in bounds.gamma_sharp_lower(p).certificate["L_sweep"]:
            m = bounds.minimize_over_t("B", p * row["L"])
            assert row["min_B"].hex() == m.value.hex()
            assert row["t_star"].hex() == m.t_star.hex()

    def test_minimize_pinned(self):
        m = bounds.minimize_over_t("B", 2.5)
        assert (m.t_star.hex(), m.value.hex()) == ("0x1.5b818c971a02bp-2",
                                                   "0x1.0785b2b92717dp+2")
        m = bounds.minimize_over_t("A", 3.3)
        assert (m.t_star.hex(), m.value.hex()) == ("0x1.7a4d4162654a8p-2",
                                                   "0x1.011bdd1dfd12ep+0")

    @pytest.mark.parametrize("odd", [False, True])
    @pytest.mark.parametrize("t", [1 / 2, 1 / 4, 5 / 64, 1 / 3, 0.2371, 1e-3,
                                   (3 * 2 ** 35 + 1) / 2 ** 39])
    def test_mode_table_matches_allocating_oracle(self, monkeypatch, t, odd):
        # J of one range, of four full ranges, and of four and a short one;
        # the last t has exact products up to j = 87381 (43690 odd), within
        # the second (first) range
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # interleave the workers often
        try:
            for J in (256, 2 ** 18, 3 * 2 ** 16 + 5):
                want = _allocating_mode_table(t, J, odd)
                for workers in (1, 2, 3):
                    monkeypatch.setattr(bounds, "_WORKERS", workers)
                    _restart_pool()
                    assert bounds._pool()._max_workers == workers
                    got = bounds._mode_table(Fraction(t), J, odd)
                    assert got.tobytes() == want.tobytes()
        finally:
            sys.setswitchinterval(interval)
            _restart_pool()

    @pytest.mark.parametrize("lam, t", MODE_TAIL_CASES)
    def test_mode_tail_matches_allocating_oracle(self, monkeypatch, lam, t):
        # (K, bound, mean) in hex; each K below the one returned is passed
        # over on the head's lower bound, which is at most the whole bound
        # there, and the whole bound is formed only where the head allows it
        formed = []
        mode_bound = bounds._mode_bound

        def spy(*args):
            formed.append((args[1], args[-1], mode_bound(*args)))
            return formed[-1][2]

        monkeypatch.setattr(bounds, "_mode_bound", spy)
        try:
            for tol in (1e-10, 1e-6):
                for odd in (False, True):
                    want, whole = _allocating_mode_tail(lam, t, tol, odd)
                    for workers in (1, 2):
                        monkeypatch.setattr(bounds, "_WORKERS", workers)
                        _restart_pool()
                        formed.clear()
                        got = bounds._mode_tail(lam, math.sin(math.pi * t), Fraction(t),
                                                tol, odd)
                        assert [float(x).hex() for x in got] == [float(x).hex() for x in want]
                        heads = {K: b for K, head, b in formed if head}
                        assert sorted(heads) == [K for K in whole if 4 * K <= bounds.MAX_TERMS]
                        assert all(b <= whole[K] for K, b in heads.items())
                        for K, head, b in formed:
                            if not head:
                                assert b == whole[K]
                                assert K == got[0] or heads[K] <= 0.75 * tol
                        if got[0] == 2 ** 22 and lam < 2:
                            assert [K for K, head, _ in formed if not head] == [2 ** 22]
        finally:
            _restart_pool()

    def test_mode_path_peak_memory(self):
        # lam's coefficients warm: a near-rational point at lam = 1.5 holds
        # the mode table s_eff and one per-mode array, J = 2^18,
        # and no copies of the non-resonant modes
        for f, t in ((bounds.eval_B, 1 / 3), (bounds.eval_A, 2 / 7)):
            f(1.5, t)
            peak = _traced_peak(lambda: f(1.5, t))
            assert peak <= 4 * 2 ** 18 * 8 + 2 ** 20

    @pytest.mark.parametrize("lam", [1.2, 1.5, 1.999, 2.0, 2.5, 7.3, 16.0])
    def test_grown_mode_coeffs_match_arrays_built_whole(self, lam):
        # grown by doubling, as the mode path asks, then read back shorter
        Js = [256 * 2 ** i for i in range(11)]
        bounds._COEFFS.pop(lam, None)
        for J in Js + Js[::-1]:
            c, ac = bounds._mode_coeffs(lam, J)
            want = _direct_mode_coeffs(lam, J)
            assert c.tobytes() == want.tobytes()
            assert ac.tobytes() == np.abs(want).tobytes()
            assert not c.flags.writeable and not ac.flags.writeable
        # and grown in one step
        bounds._COEFFS.pop(lam, None)
        assert bounds._mode_coeffs(lam, Js[-1])[0].tobytes() == \
            _direct_mode_coeffs(lam, Js[-1]).tobytes()

    def test_curve_sweep_builds_one_coefficient_array(self, monkeypatch):
        # the first point grows lam's array to the length the sweep needs;
        # the other points of B and of A read it as it is
        built = []
        a0 = bounds._mean_abs_sin_pow
        monkeypatch.setattr(bounds, "_mean_abs_sin_pow",
                            lambda lam: built.append(lam) or a0(lam))
        bounds._COEFFS.clear()
        inputs = {"lam": 1.5, "t_min": 0.1, "t_max": 0.4, "points": 3, "tol": 1e-10}
        cli.run_curve(dict(inputs, which="B", points=1))
        [(c, ac, _)] = bounds._COEFFS.values()
        for which in "BA":
            cli.run_curve(dict(inputs, which=which))
        assert built == [1.5]
        [(c2, ac2, _)] = bounds._COEFFS.values()
        assert c2 is c and ac2 is ac and len(c) == 2 ** 18 + 1

    def test_coefficient_memo_keeps_two_lambdas(self):
        bounds._COEFFS.clear()
        for lam in (1.5, 2.5, 1.5, 3.5):
            bounds._mode_coeffs(lam, 256)
        assert list(bounds._COEFFS) == [1.5, 3.5]

    def test_direct_sum_peak_memory(self):
        S = math.sin(math.pi / 3)
        peak = _traced_peak(lambda: bounds._direct_scaled_sum(1.5, 1 / 3, S, 2 ** 22, False))
        assert peak <= 3 * bounds._CHUNK * 8 + 2 ** 20

    def test_minimize_peak_memory(self):
        # a cold scan holds the head table, the column blocks in flight and
        # the span's 16 full-row columns (0.5 MiB)
        bounds._scan_table.cache_clear()
        peak = _traced_peak(lambda: bounds.minimize_over_t("B", 2.5))
        assert peak <= 256 * 1024 * 8 + bounds._BLOCK_BYTES + 2 ** 20

    @pytest.mark.parametrize("f", [bounds.gamma_sharp_lower, bounds.gamma_star_lower])
    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_non_finite_p_rejected_before_scan(self, monkeypatch, f, p):
        def no_table(*args):
            raise AssertionError("scan table built")
        monkeypatch.setattr(bounds, "_scan_table", no_table)
        with pytest.raises(DomainError):
            f(p)
