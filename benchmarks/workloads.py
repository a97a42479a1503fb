"""The three workloads: their inputs, one round of operations, the checks.

Each workload loads one layer of ``concentra`` and leaves the others almost
idle.  A round calls the user-facing operations in-process: ``cli.main``
with argv for every subcommand, and the public function where there is no
subcommand (``rounding.moment_check``, ``concentrator.measure``).  Inputs
depend only on the workload seed; every round of a run repeats the same
operations on the same inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np

from concentra import cli, concentrator, discrete, rounding

HERE = Path(__file__).resolve().parent
WIDE = ((0.30, 0.35), (0.65, 0.70))          # the criterion-11 set
NARROW = ((0.31, 0.3115), (0.6885, 0.69))


class Session:
    """Runs operations, counts attempts and failures, sums wall time per group."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.times = defaultdict(float)

    def call(self, group: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` timed into ``group``; None if it raises."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:           # an operation that raises counts as failed
            out, exc_text = None, repr(exc)
        else:
            exc_text = None
        self.times[group] += time.perf_counter() - t0
        if exc_text is not None:
            self.failed += 1
            self.errors.append(f"{group}: {exc_text}")
        return out

    def cli(self, group: str, argv: list):
        """``cli.main(argv)``; returns its standard output, or None on failure."""
        buf = io.StringIO()

        def run():
            with contextlib.redirect_stdout(buf):
                return cli.main(argv)

        rc = self.call(group, run)
        if rc is None:
            return None
        if rc != 0:
            self.failed += 1
            self.errors.append(f"{group}: exit code {rc} for {' '.join(argv)}")
            return None
        return buf.getvalue()

    def take_times(self) -> dict:
        times, self.times = dict(self.times), defaultdict(float)
        return times


# wall time (or rate) of each group of calls, per round; reported by the traced run
GROUP_UNITS = {"constants_s": "s", "curve_s": "s", "exhaustive_s": "s", "star_s": "s",
               "heuristic_s": "s", "round_trials_per_s": "trials/s",
               "moment_draws_per_s": "draws/s", "torus_s": "s", "measure_s": "s"}


def _median(times, group):
    return statistics.median(t[group] for t in times)


def _json(text):
    return None if text is None else json.loads(text)


# ----------------------------------------------------------------------
# constants: the bounds layer
# ----------------------------------------------------------------------

class Constants:
    """``constants`` plus ``curve`` sweeps of B and A at four lambdas.

    At lambda = 1.5 every dyadic point exhausts the 2^22-term budget of the
    mode path, so the seed picks which four j/64 are swept there without
    changing the cost; at lambda >= 2 the sweep covers every j/64.  The
    non-dyadic rationals are evaluated one point per call.
    """

    groups = ("constants", "curve")
    LAMBDAS = (1.5, 2.0, 2.5, 4.0)
    RATIONALS = ((1, 3), (2, 7), (5, 11))

    def __init__(self, seed: int, workdir: Path):
        o = 1 + int(np.random.default_rng(seed).integers(7))
        self.seed = seed
        self.calls = []                    # (which, lam, [(a, m)], argv tail)
        for lam in self.LAMBDAS:
            for which in "BA":
                js = [o + 8 * i for i in range(4)] if lam == 1.5 else list(range(1, 33))
                pts = [(Fraction(j, 64).numerator, Fraction(j, 64).denominator) for j in js]
                self.calls.append((which, lam, pts, [repr(js[0] / 64), repr(js[-1] / 64), str(len(js))]))
                for a, m in self.RATIONALS:
                    t = repr(a / m)
                    self.calls.append((which, lam, [(a, m)], [t, t, "1"]))

    def run_round(self, s: Session, cache: str) -> dict:
        common = ["--cache-dir", cache, "--seed", str(self.seed)]
        out = {"constants": _json(s.cli("constants", ["constants", *common])), "curves": []}
        for which, lam, pts, (t0, t1, n) in self.calls:
            text = s.cli("curve", ["curve", "--which", which, "--lam", repr(lam), "--t-min", t0,
                                   "--t-max", t1, "--points", n, *common])
            out["curves"].append(text)
        return out

    def check(self, rounds: list) -> list:
        import checks       # mpmath and the references load after the timed rounds
        errs = []
        for out in rounds:
            if out["constants"] is not None:
                errs += checks.check_constants(out["constants"])
            for (which, lam, pts, _), text in zip(self.calls, out["curves"]):
                if text is None:
                    continue
                rows = [line.split(",") for line in text.strip().splitlines()[1:]]
                if len(rows) != len(pts):
                    errs.append(f"curve {which} lam={lam}: {len(rows)} rows for {len(pts)} points")
                    continue
                for (a, m), (_, t, value, tail) in zip(pts, rows):
                    t_float = a / m
                    if abs(float(t) - t_float) > checks.PRINT_REL * t_float:
                        errs.append(f"curve {which} lam={lam}: t {t} is not {a}/{m}")
                        continue
                    errs += checks.check_curve_point(which, lam, a, m, t_float,
                                                     float(value), float(tail))
        return errs

    def metrics(self, times: list) -> dict:
        return {"constants_s": _median(times, "constants"), "curve_s": _median(times, "curve")}


# ----------------------------------------------------------------------
# search: the discrete layer and the results cache
# ----------------------------------------------------------------------

class Search:
    """Exhaustive, half-grid and heuristic searches, each cold in a fresh
    cache directory and then repeated warm.

    q = 21 is composite (no dilation pruning) and q = 23 is prime (pruned);
    their answers, and the half-grid levels, come from the reference file
    that ``gen_reference.py`` writes.  The seed is the heuristic's seed.
    """

    groups = ("exhaustive", "star", "heuristic")
    REFERENCE = HERE / "reference_search.json"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.ops = [
            ("exhaustive", ["--q", "21", "--p", "1", "--mode", "exhaustive"]),
            ("exhaustive", ["--q", "23", "--p", "2", "--mode", "exhaustive"]),
            ("star", ["--q", "10", "--p", "2", "--mode", "star", "--K", "10000",
                      "--k-sensitivity"]),
            ("heuristic", ["--q", "1009", "--p", "1", "--mode", "heuristic"]),
            ("heuristic", ["--q", "1009", "--p", "2", "--mode", "heuristic"]),
        ]
        ref = json.loads(self.REFERENCE.read_text())
        self.plain = {(r["q"], r["p"]): r for r in ref["plain"]}
        self.star = defaultdict(dict)
        for r in ref["star"]:
            self.star[(r["q"], r["p"])][r["K"]] = r["max"]

    def run_round(self, s: Session, cache: str) -> dict:
        out = {}
        for phase in ("cold", "warm"):
            out[phase] = [_json(s.cli(group, ["search", *argv, "--seed", str(self.seed),
                                              "--cache-dir", cache]))
                          for group, argv in self.ops]
        return out

    def check(self, rounds: list) -> list:
        import checks
        errs = []
        first = rounds[0]["cold"]
        for out in rounds:
            for (group, argv), cold, warm, ref0 in zip(self.ops, out["cold"], out["warm"], first):
                if cold is None or warm is None:
                    continue
                tag = f"{group} {' '.join(argv[:4])}"
                if cold.get("cached") or warm.get("cached") is not True:
                    errs.append(f"{tag}: cold run cached or warm run not cached")
                key = "ratio_star" if group == "star" else "ratio"
                if (warm[key], warm["spectrum"]) != (cold[key], cold["spectrum"]):
                    errs.append(f"{tag}: warm answer differs from the cold one")
                if ref0 is not None and (cold[key], cold["spectrum"]) != (ref0[key], ref0["spectrum"]):
                    errs.append(f"{tag}: repeated run with the same seed gave another answer")
                if out is not rounds[0]:
                    continue
                if group == "exhaustive":
                    errs += checks.check_exhaustive(cold, self.plain[(cold["q"], cold["p"])])
                elif group == "star":
                    errs += checks.check_star(cold, self.star[(cold["q"], cold["p"])])
                else:
                    errs += checks.check_heuristic(cold)
        return errs

    def metrics(self, times: list) -> dict:
        return {f"{g}_s": _median(times, g) for g in self.groups}


# ----------------------------------------------------------------------
# construct: rounding and concentrator
# ----------------------------------------------------------------------

class Construct:
    """Bernoulli rounding at q = 120011, moment checks, torus constructions
    and expanded-spectrum quadratures.

    The seed drives the Monte Carlo and moment streams and the heuristic
    witness of the narrow set.
    """

    groups = ("round", "moment", "torus", "measure")
    ROUND_TRIALS = 60
    ROUND = ["--q", "120011", "--n", "30003", "--L", "3", "--p", "3", "--epsilon", "0.2",
             "--trials", str(ROUND_TRIALS)]
    MOMENT_TRIALS = 10000
    MOMENTS = [(p, n) for p in (2.5, 3.0, 5.0) for n in (200, 2000)]
    TORUS = [("wide", WIDE, 2.0), ("wide", WIDE, 3.0), ("narrow", NARROW, 2.0)]
    # A rounded idempotent is not measured: on some seeds its mesh-doubling
    # quadrature_error_est falls below the true error, at p = 2 and at p = 4.
    MEASURE = (2.0, 4.0)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.e_files = {}
        for name, ivs in (("wide", WIDE), ("narrow", NARROW)):
            path = workdir / f"{name}.json"
            path.write_text(json.dumps({"intervals": [list(iv) for iv in ivs]}))
            self.e_files[name] = str(path)
        self.E = concentrator.IntervalSet(WIDE, symmetric=True)
        witness = discrete.exact_gamma_sharp(13, 2.0).spectrum
        self.build_Q = concentrator.build_Q(witness, 200, 13)

    def run_round(self, s: Session, cache: str) -> dict:
        common = ["--cache-dir", cache, "--seed", str(self.seed)]
        out = {"round": _json(s.cli("round", ["round", *self.ROUND, *common]))}
        out["moments"] = [s.call("moment", rounding.moment_check, np.ones(n), np.full(n, 0.5),
                                 p, self.MOMENT_TRIALS, self.seed) for p, n in self.MOMENTS]
        out["torus"], out["candidates"] = [], 0
        for name, _, p in self.TORUS:
            csv = Path(cache) / f"trace-{name}-{p}.csv"
            res = _json(s.cli("torus", ["concentrate", "--e-file", self.e_files[name],
                                        "--p", repr(p), "--epsilon", "0.05",
                                        "--trace", str(csv), *common]))
            if res is not None:
                out["candidates"] += len(csv.read_text().splitlines()) - 1
            out["torus"].append(res)
        out["measure"] = [s.call("measure", concentrator.measure, self.build_Q, self.E, p)
                          for p in self.MEASURE]
        return out

    def check(self, rounds: list) -> list:
        import checks
        errs = []
        exact = {}

        def integrals(freqs, ivs, p):
            key = (tuple(freqs), ivs, p)
            if key not in exact:
                exact[key] = checks.exact_torus_integrals(freqs, ivs, p)
            return exact[key]

        for out in rounds:
            rep = out["round"]
            if rep is not None and not rep["frequency"] >= 1 / 3:
                errs.append(f"round: success frequency {rep['frequency']} below 1/3")
            for (p, n), m in zip(self.MOMENTS, out["moments"]):
                if m is not None:
                    errs += checks.check_moment(p, n, self.MOMENT_TRIALS, m.empirical_moment)
            for (name, ivs, p), res in zip(self.TORUS, out["torus"]):
                if res is None:
                    continue
                tag = f"concentrate {name} p={p}"
                plan = res["plan"]
                freqs = sorted(h + plan["q"] * m for m in range(plan["n"]) for h in plan["R"])
                report = res["report"]
                if len(freqs) != res["spectrum_size"] or plan["nu"] != 1:
                    errs.append(f"{tag}: plan does not rebuild the reported spectrum")
                    continue
                if p == 2.0:
                    errs += checks.check_torus(tag, report, integrals(freqs, ivs, 2), True)
                    errs += _parseval(tag, report)
                else:
                    errs += checks.check_torus_p3(tag, report, integrals(freqs, ivs, 2),
                                                  integrals(freqs, ivs, 4),
                                                  sum(hi - lo for lo, hi in ivs), True)
                if name == "wide" and p == 2.0 and not report["ratio"] >= 0.40:
                    errs.append(f"{tag}: ratio {report['ratio']} below 0.40")
            for p, rep in zip(self.MEASURE, out["measure"]):
                if rep is None:
                    continue
                tag = f"measure build_Q p={p}"
                report = {"int_E": rep.int_E, "int_T": rep.int_T,
                          "quadrature_error_est": rep.quadrature_error_est,
                          "parseval_rel_err": rep.parseval_rel_err}
                errs += checks.check_torus(tag, report,
                                           integrals(self.build_Q.freqs, WIDE, int(p)), False)
                if p == 2.0:
                    errs += _parseval(tag, report)
        return errs

    def metrics(self, times: list) -> dict:
        draws = self.MOMENT_TRIALS * sum(n for _, n in self.MOMENTS)
        return {"round_trials_per_s": statistics.median(self.ROUND_TRIALS / t["round"]
                                                        for t in times),
                "moment_draws_per_s": statistics.median(draws / t["moment"] for t in times),
                "torus_s": _median(times, "torus"), "measure_s": _median(times, "measure")}


def _parseval(tag: str, report: dict) -> list:
    pe = report.get("parseval_rel_err")
    if pe is None or not pe <= 1e-6:
        return [f"{tag}: parseval_rel_err {pe} above 1e-6"]
    return []


WORKLOADS = {"constants": Constants, "search": Search, "construct": Construct}
