"""Self-tests of the benchmark: span arithmetic, instrumentation, and that
every correctness check rejects a perturbed value.

    python3 benchmarks/selftest.py
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class SelfTime(unittest.TestCase):
    def test_nested_call(self):
        clock = FakeClock()
        rec = spans.Recorder(clock)

        def inner(dt):
            clock.now += dt

        inner = rec.wrap("inner", inner)

        def outer():
            clock.now += 1.0
            inner(3.0)
            clock.now += 0.5
            inner(4.0)
            clock.now += 2.0

        rec.wrap("outer", outer)()
        st = rec.self_times()
        self.assertEqual(st["calls"], {"outer": 1, "inner": 2})
        self.assertAlmostEqual(st["self_s"]["outer"], 3.5, places=12)
        self.assertAlmostEqual(st["self_s"]["inner"], 7.0, places=12)

    def test_overlapping_children_count_once(self):
        rec = spans.Recorder()
        rec.spans[:] = [["p", -1, 0.0, 10.0], ["a", 0, 1.0, 4.0], ["b", 0, 3.0, 6.0],
                        ["c", 0, 9.0, 12.0]]
        self.assertAlmostEqual(rec.self_times()["self_s"]["p"], 10.0 - 5.0 - 1.0, places=12)

    def test_first_index_limits_the_round(self):
        clock = FakeClock()
        rec = spans.Recorder(clock)
        f = rec.wrap("f", lambda: setattr(clock, "now", clock.now + 2.0))
        f()
        first = len(rec.spans)
        f()
        self.assertEqual(rec.self_times(first)["calls"], {"f": 1})


class Instrument(unittest.TestCase):
    def test_wraps_everywhere_and_restores(self):
        import concentra
        from concentra import cli, discrete, trigpoly
        originals = (trigpoly.eval_grid, discrete.eval_grid, cli.write_record,
                     cli._RUNNERS["search"])
        rec = spans.Recorder()
        undo = spans.instrument(rec, concentra)
        try:
            for fn in (trigpoly.eval_grid, discrete.eval_grid, cli.write_record,
                       cli._RUNNERS["search"], concentra.eval_grid):
                self.assertTrue(hasattr(fn, "traced_original"), fn)
            discrete.concentration_ratio(trigpoly.Spectrum((0, 1, 2), 7), 2.0)
        finally:
            spans.uninstrument(undo)
        self.assertEqual(originals, (trigpoly.eval_grid, discrete.eval_grid, cli.write_record,
                                     cli._RUNNERS["search"]))
        names = [s[0] for s in rec.spans]
        self.assertEqual(names[0], "discrete.concentration_ratio")
        self.assertIn("trigpoly.eval_grid", names)
        self.assertEqual(rec.counters["trigpoly.eval_grid.points"], 7)


class ChecksRejectPerturbations(unittest.TestCase):
    def test_exhaustive_ratio_shifted(self):
        ref = json.loads((HERE / "reference_search.json").read_text())["plain"][0]
        row = {"q": ref["q"], "p": ref["p"], "ratio": ref["max"], "spectrum": ref["witness"]}
        self.assertEqual(checks.check_exhaustive(row, ref), [])
        self.assertNotEqual(checks.check_exhaustive({**row, "ratio": ref["max"] + 1e-9}, ref), [])

    def test_star_level_shifted(self):
        refs = {r["K"]: r for r in json.loads((HERE / "reference_search.json").read_text())["star"]}
        r = refs[1e4]
        row = {"q": r["q"], "p": r["p"], "K": 1e4, "ratio_star": r["max"],
               "spectrum": r["witness"], "cond_K_ok": True}
        maxima = {k: v["max"] for k, v in refs.items()}
        self.assertEqual(checks.check_star(row, maxima), [])
        self.assertNotEqual(checks.check_star({**row, "ratio_star": r["max"] + 1e-9}, maxima), [])

    def test_curve_tail_bound_halved(self):
        from concentra import bounds
        ev = bounds.eval_B(1.5, 1 / 3)
        self.assertFalse(ev.converged)
        self.assertEqual(checks.check_curve_point("B", 1.5, 1, 3, 1 / 3, ev.value, ev.tail_bound), [])
        self.assertNotEqual(
            checks.check_curve_point("B", 1.5, 1, 3, 1 / 3, ev.value, ev.tail_bound / 2), [])

    def test_t_rounding_term_vanishes_at_dyadic_t(self):
        self.assertEqual(checks.t_rounding_bound("B", 1.5, 0.375, 3, 8), 0.0)
        self.assertGreater(checks.t_rounding_bound("B", 1.5, 1 / 3, 1, 3), 0.0)

    def test_int_E_moved_past_estimate(self):
        from concentra import concentrator
        from concentra.trigpoly import Spectrum
        E = ((0.30, 0.35), (0.65, 0.70))
        Q = Spectrum((0, 1, 2, 5, 11, 13, 40, 41, 77), 78)
        for p in (2, 4):
            rep = concentrator.measure(Q, concentrator.IntervalSet(E, symmetric=True), float(p))
            report = {"int_E": rep.int_E, "int_T": rep.int_T,
                      "quadrature_error_est": rep.quadrature_error_est}
            exact = checks.exact_torus_integrals(Q.freqs, E, p)
            self.assertEqual(checks.check_torus("t", report, exact, False), [])
            moved = rep.int_E + 2 * (rep.quadrature_error_est + exact[2]) + 1e-9 * abs(rep.int_E)
            self.assertNotEqual(checks.check_torus("t", {**report, "int_E": moved}, exact, False), [])

    def test_exact_integrals_match_direct_quadrature(self):
        freqs = (0, 3, 4, 9, 10)
        E = ((0.2, 0.3), (0.7, 0.8))
        x = (np.arange(200000) + 0.5) / 200000
        f = np.abs(np.exp(2j * np.pi * np.outer(x, freqs)).sum(axis=1))
        inside = ((x > 0.2) & (x < 0.3)) | ((x > 0.7) & (x < 0.8))
        for p in (2, 4):
            int_E, int_T, _ = checks.exact_torus_integrals(freqs, E, p)
            self.assertAlmostEqual(int_T, float(np.mean(f ** p)), places=6)
            self.assertAlmostEqual(int_E, float(np.mean(np.where(inside, f ** p, 0.0))), places=3)

    def test_moment_shifted_six_standard_errors(self):
        n, p, trials = 200, 3.0, 4000
        mean, var = checks.binomial_abs_moment(n, p)
        se = (var / trials) ** 0.5
        self.assertEqual(checks.check_moment(p, n, trials, mean + 2 * se), [])
        self.assertNotEqual(checks.check_moment(p, n, trials, mean + 6 * se), [])
        self.assertNotEqual(checks.check_moment(p, n, trials, mean - 6 * se), [])


if __name__ == "__main__":
    unittest.main(verbosity=2)
