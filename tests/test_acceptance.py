"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest -s tests/test_acceptance.py`` to see the lines).

Criterion 9 is implemented exactly as stated and is expected to FAIL: at
q = 499 the in-mean deviation of the rounded polynomial concentrates near
0.48, far above the allowed 0.2, so the empirical success frequency is 0.
The guarantee is asymptotic in q; the companion (unnumbered) check below
criterion 9 demonstrates the same machinery passing in its regime
(q = 120011).  See the project notes for the full analysis.
"""

import math
import time

import numpy as np
import pytest

from concentra import bounds, concentrator, discrete, rounding
from concentra.cli import run_decay
from concentra.trigpoly import Grid, Spectrum, eval_grid, fold_power, to_coeffs
from conftest import brute_force_gamma_sharp


def report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} [{status}] {detail}  ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget"


def test_criterion_01_gamma2_formula():
    t0 = time.time()
    g = bounds.gamma2_sharp()
    resid = abs(math.tan(g.argmax) - 2 * g.argmax)
    ok = 0.4608 <= g.value <= 0.4618 and resid <= 1e-6
    report(1, ok, f"gamma2_sharp = {g.value:.6f}, stationarity residual {resid:.2e}",
           time.time() - t0, 1.0)


def test_criterion_02_gamma4_bound():
    t0 = time.time()
    g = bounds.gamma4_sharp_lower()
    ok = 0.495 < g.value <= 0.5
    report(2, ok, f"gamma4_sharp_lower = {g.value:.6f} in (0.495, 0.5]",
           time.time() - t0, 1.0)


def test_criterion_03_uniform_p_above_two():
    t0 = time.time()
    vals = {p: bounds.gamma_sharp_lower(p).value for p in (2.5, 3.0, 4.0, 6.0, 10.0)}
    ok = all(v > 0.483 for v in vals.values())
    report(3, ok, "gamma_sharp_lower " + ", ".join(
        f"p={p}: {v:.5f}" for p, v in vals.items()), time.time() - t0, 30.0)


def test_criterion_04_asymptote():
    t0 = time.time()
    a = bounds.asymptote_scan(1e4)
    ok = a.value <= 4.14 and 2.0 / a.value > 0.483
    report(4, ok, f"power-sweep asymptote = {a.value:.6f} (kappa* = {a.argmax:.4f}), "
           f"2/value = {2/a.value:.6f}", time.time() - t0, 60.0)


def test_criterion_05_half_grid_closed_form():
    t0 = time.time()
    worst = 0.0
    for i in range(13, 63):                      # 50 dyadic points in [0.1, 0.49]
        t = i / 128
        ev = bounds.eval_A(2.0, t, tol=1e-12)
        closed = math.pi ** 2 * t / (4 * math.sin(math.pi * t) ** 2)
        worst = max(worst, abs(ev.value - closed))
        assert ev.tail_bound <= 1e-12
    ok = worst <= 1e-9
    report(5, ok, f"max |A(2,t) - closed form| = {worst:.2e} over 50-point grid",
           time.time() - t0, 5.0)


def test_criterion_06_gamma1_chain():
    t0 = time.time()
    g = bounds.gamma1_certified_lower(1.999)
    ok = g.value > 0.96 and abs(g.value - 0.9605) <= 1e-3
    report(6, ok, f"gamma1 certified lower = {g.value:.6f} (> 0.96, 0.9605 +- 1e-3)",
           time.time() - t0, 10.0)


def test_criterion_07_exhaustive_oracle_equivalence():
    t0 = time.time()
    ok = True
    notes = []
    for q in range(3, 13):
        for p in (1.0, 2.0, 4.0):
            a = discrete.exact_gamma_sharp(q, p, use_pruning=True)
            b = discrete.exact_gamma_sharp(q, p, use_pruning=False)
            if a.ratio != b.ratio or a.spectrum.freqs != b.spectrum.freqs:
                ok = False
                notes.append(f"prune mismatch q={q} p={p}")
            if a.ratio > 2 / 3 + 1e-9:
                ok = False
                notes.append(f"trivial bound broken q={q} p={p}")
    for p in (1.0, 2.0):
        if discrete.exact_gamma_sharp(3, p).ratio != 2 / 3:
            ok = False
            notes.append(f"q=3 value not exactly 2/3 at p={p}")
    for q in range(7, 17):
        for p in (2.0, 4.0):
            r = discrete.exact_gamma_sharp(q, p).ratio
            if r > 0.5 + 2.0 / q:
                ok = False
                notes.append(f"even-p cap broken q={q} p={p}: {r}")
    report(7, ok, "pruned = unpruned (q <= 12), q=3 exact 2/3, caps hold"
           + ("; " + "; ".join(notes) if notes else ""), time.time() - t0, 300.0)


def test_criterion_08_parseval_suite(rng):
    t0 = time.time()
    worst = 0.0
    for _ in range(500):
        q = int(rng.integers(2, 513))
        nf = int(rng.integers(1, q + 1))
        freqs = tuple(sorted(rng.choice(q, nf, replace=False).tolist()))
        v = np.abs(eval_grid(to_coeffs(Spectrum(freqs, q)), Grid(q)))
        worst = max(worst, abs(float((v ** 2).sum()) - q * nf) / (q * nf))
    ok = worst <= 1e-9
    report(8, ok, f"grid energy identity: worst relative error {worst:.2e} "
           "over 500 random spectra", time.time() - t0, 10.0)


def test_criterion_09_rounding_at_pinned_parameters():
    """Faithful to the stated parameters; genuinely unattainable there.

    The in-mean requirement asks the l^3 grid deviation to stay below
    0.2 |P(1/q)| ~ 24.3, but its distribution at q = 499 concentrates near
    58 (mean-field: (q E|Z|^3)^(1/3) with per-point variance ~ 44.7), so
    every trial fails and the frequency is 0, not >= 1/3.  Kept failing by
    design; see the companion test below for the regime where the bound holds.
    """
    t0 = time.time()
    P = fold_power(to_coeffs(Spectrum(tuple(range(125)), 499)), 3, 499)
    rep = rounding.monte_carlo(P, 499, 3.0, 0.2, 200, 1)
    ok = rep.frequency >= 1 / 3
    report(9, ok, f"rounding success frequency at q=499: {rep.frequency:.3f} "
           f"(needs >= 1/3; median in-mean dev {rep.mean_dev_quantiles['q50']:.3f} "
           "vs allowed 0.2)", time.time() - t0, 120.0)


def test_criterion_09_supplement_asymptotic_regime():
    # same machinery, q large enough that the union bound has kicked in
    t0 = time.time()
    q, n = 120011, 30003
    P = fold_power(to_coeffs(Spectrum(tuple(range(n)), q)), 3, q)
    rep = rounding.monte_carlo(P, q, 3.0, 0.2, 60, 1)
    ok = rep.frequency >= 1 / 3
    print(f"ACCEPTANCE  9s [{'PASS' if ok else 'FAIL'}] rounding frequency at "
          f"q={q}: {rep.frequency:.3f} (supplement, not a numbered criterion)"
          f"  ({time.time()-t0:.2f}s)")
    assert ok


def test_criterion_10_moment_bound():
    t0 = time.time()
    ok = True
    details = []
    for p in (2.5, 3.0, 5.0):
        ratios = []
        for n in (20, 200, 2000):                 # sigma = 10, 100, 1000
            rep = rounding.moment_check(np.ones(n), np.full(n, 0.5), p,
                                        100_000, 17)
            ratios.append(rep.ratio)
        spread = (max(ratios) - min(ratios)) / min(ratios)
        details.append(f"p={p}: spread {100*spread:.0f}%")
        if spread >= 0.5:
            ok = False
    report(10, ok, "moment-ratio growth across sigma in {10,100,1000}: "
           + ", ".join(details), time.time() - t0, 180.0)


def test_criterion_11_end_to_end_torus():
    t0 = time.time()
    E = concentrator.IntervalSet(((0.30, 0.35), (0.65, 0.70)), symmetric=True)
    res = concentrator.end_to_end(E, 2.0, 0.05)
    ok = res.report.ratio >= 0.40 and res.report.parseval_rel_err <= 1e-6
    report(11, ok, f"achieved concentration {res.report.ratio:.4f} >= 0.40 "
           f"(witness level {res.predicted_ratio:.4f}); full-circle integral vs "
           f"coefficient count rel err {res.report.parseval_rel_err:.2e}",
           time.time() - t0, 120.0)


def test_criterion_12_decay_study():
    t0 = time.time()
    exact_primes = [3, 5, 7, 11, 13, 17, 19]
    heur_primes = [101, 499, 1009, 2003]
    payload = run_decay({"primes": exact_primes + heur_primes,
                         "exhaustive_cap": 19, "restarts": 2, "seed": 0})
    rows = {r["q"]: r for r in payload["rows"]}
    ok = True
    notes = []
    for q in exact_primes:
        top, witness = brute_force_gamma_sharp(q, 1.0)
        if rows[q]["gamma1_hat"] != top:          # bit-for-bit
            ok = False
            notes.append(f"q={q} exact row != brute force")
        if rows[q]["method"] != "exhaustive":
            ok = False
    for q in heur_primes:
        if rows[q]["method"] != "heuristic":
            ok = False
        if rows[q]["gamma1_hat"] < rows[q]["dirichlet_best"] - 1e-12:
            ok = False
            notes.append(f"q={q} heuristic below its seed table")
    betas = [rows[q]["beta_diagnostic"] for q in sorted(rows)]
    report(12, ok, "exact rows bit-identical to brute force; heuristic rows "
           f"dominate seeds; decay diagnostic reported (last: {betas[-1]:.3f}, "
           "no limit asserted)" + ("; " + "; ".join(notes) if notes else ""),
           time.time() - t0, 600.0)
