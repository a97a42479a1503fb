"""Command-line front end and reproducibility harness.

Every subcommand writes a RunRecord into the cache directory (flag
--cache-dir, or the CONCENTRA_CACHE environment variable); ``replay``
re-executes a record and verifies the outputs bit-identically.  Exit codes:
0 success, 2 domain error, 3 budget error, 4 acceptance failure (constants
command), 1 replay mismatch, 5 unexpected error (traceback on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import bounds, concentrator, discrete, rounding
from .cache import (SIG, ResultsCache, canonical_json, config_hash,
                    default_cache_dir, load_record, read_json, to_jsonable,
                    write_record)
from .errors import BudgetError, DomainError
from .trigpoly import Spectrum, fold_power, to_coeffs

EXIT_OK, EXIT_MISMATCH, EXIT_DOMAIN, EXIT_BUDGET, EXIT_ACCEPT, EXIT_ERROR = 0, 1, 2, 3, 4, 5

_F = f"{{:.{SIG}g}}".format
_UNIFORM_P_SET = (2.5, 3.0, 4.0, 6.0, 10.0)  # constants: the p > 2 levels checked
_ASYMPTOTE_LAMBDA = 1e4                      # constants: lam of the asymptote row
_C_PROBE = 0.3                               # round: the c the hypotheses are probed at


# ----------------------------------------------------------------------
# runners (pure functions of their input dicts, reused by replay)
# ----------------------------------------------------------------------

def _row(name: str, paper_value, res: bounds.ConstantResult, passed) -> dict:
    """One ``constants`` row; it shows an argmax where the constant has one."""
    row = {"name": name, "paper_value": paper_value, "value": res.value}
    if res.argmax is not None:
        row["argmax"] = res.argmax
    return dict(row, certificate=res.certificate, passed=bool(passed))


def run_constants(inputs: dict) -> dict:
    g2 = bounds.gamma2_sharp()
    resid = abs(g2.certificate["stationarity_residual"])
    g4 = bounds.gamma4_sharp_lower()
    per_p = {str(p): bounds.gamma_sharp_lower(p).value for p in _UNIFORM_P_SET}
    uniform = bounds.ConstantResult(min(per_p.values()), None, {"per_p": per_p})
    asym = bounds.asymptote_scan(_ASYMPTOTE_LAMBDA)
    g1 = bounds.gamma1_certified_lower(1.999)
    rows = [
        _row("gamma2_sharp", 0.4613, g2, 0.4608 <= g2.value <= 0.4618 and resid <= 1e-6),
        _row("gamma4_sharp_lower", "0.495 < . <= 0.5", g4, 0.495 < g4.value <= 0.5),
        _row("gamma_sharp_uniform_p_gt_2", "> 0.483", uniform,
             all(v > 0.483 for v in per_p.values())),
        _row("power_sweep_asymptote", 4.13273, asym,
             asym.value <= 4.14 and 2.0 / asym.value > 0.483),
        _row("gamma1_certified_lower", "> 0.96", g1,
             g1.value > 0.96 and abs(g1.value - 0.96053) <= 1e-3),
    ]
    notes = [
        "half-grid series at t=1/4 reduces to sum (2k+1)^-lam, whose computed "
        "large-lam limit is 1 (checked: A(40, 1/4) = 1 to 1e-12); downstream "
        "conclusions only need the level to be 1, so the value is reported "
        "as computed and the normalization question is flagged here.",
    ]
    return {"rows": rows, "notes": notes,
            "all_passed": bool(all(r["passed"] for r in rows))}


def run_curve(inputs: dict) -> dict:
    if inputs["points"] < 1:
        raise DomainError(f"need --points >= 1, got {inputs['points']}")
    f = bounds.eval_A if inputs["which"] == "A" else bounds.eval_B
    evs = [f(inputs["lam"], float(t), tol=inputs["tol"])
           for t in np.linspace(inputs["t_min"], inputs["t_max"], inputs["points"])]
    return {"rows": [{"lambda": ev.lam, "t": ev.t, "value": ev.value,
                      "tail_bound": ev.tail_bound} for ev in evs]}


def _search_reads(q: int, mode: str) -> tuple:
    """The mode-dependent flags a search in ``mode`` at q reads, in output order."""
    if mode == "star":
        return ("K", "k_sensitivity")
    if discrete.is_exact(q, mode):
        return ()
    return ("restarts", "seed")


def run_search(inputs: dict) -> dict:
    q, p, mode = inputs["q"], inputs["p"], inputs["mode"]
    if mode == "star":
        K = inputs["K"]
        if not inputs["k_sensitivity"]:
            return to_jsonable(discrete.exact_gamma_star(q, p, K=K))
        # one scan; K is checked first, so a bad --K is the one named
        rep, low, high = discrete.exact_gamma_stars(q, p, (K, K / 10, 10 * K))
        reps = {str(K / 10): low, str(K): rep, str(10 * K): high}
        out = to_jsonable(rep)
        out["K_sensitivity"] = {k: r.ratio_star for k, r in reps.items()}
        out["K_sensitivity_witnesses"] = {k: r.spectrum for k, r in reps.items()
                                          if r is not rep}
        return out
    # the heuristic's outputs name the run they come from; an exact scan reads none
    ascent = {k: inputs[k] for k in _search_reads(q, mode)}
    return {**to_jsonable(discrete.gamma_sharp(q, p, mode=mode, **ascent)), **ascent}


def run_round(inputs: dict) -> dict:
    q, n, L = inputs["q"], inputs["n"], inputs["L"]
    p, eps = inputs["p"], inputs["epsilon"]
    P = fold_power(to_coeffs(Spectrum(tuple(range(n)), q)), L, q)
    Pn = rounding.normalize_peak(P)
    rep = rounding.monte_carlo(P, q, p, eps, inputs["trials"], inputs["seed"])
    out = to_jsonable(rep)
    hyp = rounding.hypothesis_constants(Pn, q, p)
    hyp["c_probe"] = _C_PROBE
    hyp["cond_c_at_probe"] = _C_PROBE <= hyp["c_cond_c"]
    hyp["concentr_at_probe"] = _C_PROBE <= hyp["c_concentr"]
    out["hypotheses"] = hyp
    return out


def _intervals(raw) -> tuple:
    """The E file's intervals: a list of [lo, hi] pairs of finite numbers."""
    def number(x):
        return (isinstance(x, (int, float)) and not isinstance(x, bool)
                and math.isfinite(x))
    if not (isinstance(raw, list) and all(
            isinstance(iv, list) and len(iv) == 2 and all(map(number, iv))
            for iv in raw)):
        raise DomainError("E file 'intervals' must be a list of [lo, hi] "
                          "pairs of finite numbers")
    return tuple((float(a), float(b)) for a, b in raw)


def run_concentrate(inputs: dict, trace: list | None = None) -> dict:
    """The torus construction; ``trace``, if given, collects the examined
    (q, a, coverage) candidates."""
    E = concentrator.IntervalSet(_intervals(inputs["intervals"]))
    res = concentrator.end_to_end(
        E, inputs["p"], inputs["epsilon"], theta=inputs["theta"], eta=inputs["eta"],
        q0=inputs["q0"], q_max=inputs["q_max"], nu=inputs["nu"],
        mesh_per_unit_degree=inputs["mesh"], seed=inputs["seed"], trace=trace)
    return {
        "plan": to_jsonable(res.plan),
        "report": to_jsonable(res.report),
        "predicted_ratio": res.predicted_ratio,
        "min_gap": res.min_gap,
        "pathway": res.pathway,
        "spectrum_size": len(res.spectrum),
    }


def run_decay(inputs: dict) -> dict:
    rows = discrete.gamma1_decay_scan(inputs["primes"], restarts=inputs["restarts"],
                                      seed=inputs["seed"])
    return {"rows": rows}


_RUNNERS = {
    "constants": run_constants,
    "curve": run_curve,
    "search": run_search,
    "round": run_round,
    "concentrate": run_concentrate,
    "decay": run_decay,
}


# ----------------------------------------------------------------------
# output formatting
# ----------------------------------------------------------------------

_CSV_COLUMNS = {
    "curve": ("lambda", "t", "value", "tail_bound"),
    "decay": ("q", "method", "gamma1_hat", "dirichlet_best",
              "gamma1_hat_log_q", "beta_diagnostic"),
}
_TRACE_COLUMNS = ("q", "a", "coverage")


def _csv(cols, rows) -> str:
    """A header line of ``cols``, then one line of values per row; floats
    at 15 significant digits."""
    return "".join(",".join(_F(v) if isinstance(v, float) else str(v) for v in line)
                   + "\n" for line in [cols, *rows])


def _render(cmd: str, payload: dict) -> str:
    """What a command prints from its ``payload`` in wire form: CSV rows for
    ``curve`` and ``decay``, else JSON."""
    if cmd in _CSV_COLUMNS:
        cols = _CSV_COLUMNS[cmd]
        return _csv(cols, ([r[c] for c in cols] for r in payload["rows"]))
    return json.dumps(payload, indent=2) + "\n"


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

@functools.cache
def _build_parser():
    """The command-line parser, built once: parsing leaves it as it is."""
    ap = argparse.ArgumentParser(
        prog="concentra",
        description="Concentration of grid/torus p-norms of idempotent "
                    "trigonometric polynomials: constants, searches, "
                    "rounding and torus constructions.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cache-dir", default=None,
                        help="record/cache directory (default: "
                             "$CONCENTRA_CACHE or ./.concentra-cache)")
    common.add_argument("--output", default=None, help="also write output to file")
    common.add_argument("--seed", type=int, default=0)

    sub.add_parser("constants", parents=[common],
                   help="reproduce the named constants; exit 4 on any failure")

    c = sub.add_parser("curve", parents=[common], help="CSV dump of B or A over t")
    c.add_argument("--which", choices=["B", "A"], required=True)
    c.add_argument("--lam", type=float, required=True)
    c.add_argument("--t-min", type=float, default=0.01)
    c.add_argument("--t-max", type=float, default=0.5)
    c.add_argument("--points", type=int, default=50)
    c.add_argument("--tol", type=float, default=1e-10)

    s = sub.add_parser("search", parents=[common],
                       help="finite-group concentration search (cached)")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--mode", choices=["auto", "exhaustive", "heuristic", "star"],
                   default="auto", help=f"auto: exact up to q = {discrete.EXHAUSTIVE_CAP}")
    s.add_argument("--K", type=float, default=1e4)
    s.add_argument("--restarts", type=int, default=4)
    s.add_argument("--k-sensitivity", action="store_true",
                   help="star mode: also report the level at K/10 and 10K")
    s.add_argument("--no-cache", action="store_true",
                   help="compute afresh without reading the stored records "
                        "(the run's record is still written)")

    r = sub.add_parser("round", parents=[common],
                       help="randomized rounding experiment on a folded kernel power")
    r.add_argument("--q", type=int, required=True)
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--L", type=int, required=True)
    r.add_argument("--p", type=float, required=True)
    r.add_argument("--epsilon", type=float, required=True)
    r.add_argument("--trials", type=int, default=200)

    k = sub.add_parser("concentrate", parents=[common],
                       help="torus construction concentrating on an interval set")
    k.add_argument("--e-file", required=True,
                   help='JSON file {"intervals": [[lo, hi], ...]}')
    k.add_argument("--p", type=float, required=True)
    k.add_argument("--epsilon", type=float, required=True)
    k.add_argument("--theta", type=float, default=0.5)
    k.add_argument("--eta", type=float, default=0.05)
    k.add_argument("--nu", type=int, default=1)
    k.add_argument("--q0", type=int, default=8)
    k.add_argument("--q-max", type=int, default=4000)
    k.add_argument("--mesh", type=int, default=8,
                   help="samples per unit degree of the torus integrals at p "
                        "that is not even (rounded up to a 5-smooth FFT size)")
    k.add_argument("--trace", dest="trace_path", metavar="TRACE", default=None,
                   help="write a CSV of examined (q, a, coverage) candidates")

    d = sub.add_parser("decay", parents=[common],
                       help="integral-norm level decay table over primes")
    which = d.add_mutually_exclusive_group()
    which.add_argument("--primes", default=None, help="comma-separated primes")
    which.add_argument("--primes-up-to", type=int, default=None)
    d.add_argument("--restarts", type=int, default=4)

    rp = sub.add_parser("replay", parents=[common],
                        help="re-run a RunRecord and verify outputs bit-identically")
    rp.add_argument("record", help="path to a RunRecord JSON file")
    return ap


def _primes(listed, up_to) -> list:
    """The primes of ``decay``: --primes as listed, each once, else the odd
    primes up to --primes-up-to.  An empty list is a DomainError."""
    if listed is not None:
        try:
            primes = list(dict.fromkeys(int(x) for x in listed.split(",") if x.strip()))
        except ValueError:
            raise DomainError(f"--primes takes comma-separated integers, "
                              f"got {listed!r}") from None
    elif up_to is None:
        raise DomainError("need --primes or --primes-up-to")
    elif up_to < 0:
        raise DomainError(f"--primes-up-to must be >= 0, got {up_to}")
    else:
        primes = [q for q in range(3, up_to + 1) if discrete.is_prime(q)]
    if not primes:
        raise DomainError(f"decay needs at least one prime, got --primes {listed!r}"
                          if listed is not None else f"no odd prime up to {up_to}")
    return primes


_FRONT_END = ("cmd", "cache_dir", "output", "no_cache", "trace_path")  # kept out of records


def _inputs_from_args(args) -> dict:
    """The record inputs, which alone with the command name a record: every
    parsed flag but the front end's own, and the seed only where the run
    reads it.  ``constants`` and ``curve`` read no seed.  A search keeps
    only the mode-dependent flags its mode reads: ``--K`` and
    ``--k-sensitivity`` for star, ``--restarts`` and the seed for the
    heuristic, none for the exact plain-grid scan.  So a flag a run never
    reads cannot give it another record, nor make a search miss the cache.
    A search also stores ``discrete.ALGORITHM_VERSION`` as ``algorithm``: a
    record of another version has another name, and is not served."""
    if args.seed < 0:
        raise DomainError(f"--seed must be >= 0, got {args.seed}")
    if getattr(args, "restarts", 0) < 0:
        raise DomainError(f"--restarts must be >= 0, got {args.restarts}")
    inputs = {k: v for k, v in vars(args).items() if k not in _FRONT_END}
    if args.cmd in ("constants", "curve"):
        del inputs["seed"]
    elif args.cmd == "search":
        reads = _search_reads(args.q, args.mode)
        for k in {"seed", "restarts", "K", "k_sensitivity"} - set(reads):
            del inputs[k]
        inputs["algorithm"] = discrete.ALGORITHM_VERSION
    elif args.cmd == "concentrate":
        spec = read_json(inputs.pop("e_file"))
        if not isinstance(spec, dict) or "intervals" not in spec:
            raise DomainError("E file must carry an 'intervals' array")
        inputs["intervals"] = spec["intervals"]
    elif args.cmd == "decay":
        inputs["primes"] = _primes(inputs["primes"], inputs.pop("primes_up_to"))
    return inputs


def _cached_ratio_holds(payload, star: bool) -> bool:
    """True if the stored ratio of a sealed search payload (a star one if
    ``star``), and each ``K_sensitivity`` level but the K entry, equals the
    level of its witness as ``concentration_ratio`` or ``star`` computes it
    now, rounded as stored.  A record is a file, so a payload of another
    shape fails."""
    try:
        if star:
            spec = Spectrum(payload["spectrum"], 2 * payload["q"])
            fresh = {"ratio_star": discrete.star(spec, payload["p"], payload["K"])[0]}
            if "K_sensitivity" in payload:
                levels = {k: discrete.star(Spectrum(w, spec.degree_bound),
                                           payload["p"], float(k))[0]
                          for k, w in payload["K_sensitivity_witnesses"].items()}
                levels.update((k, fresh["ratio_star"]) for k in payload["K_sensitivity"]
                              if to_jsonable(float(k)) == payload["K"])
                fresh["K_sensitivity"] = levels
        else:
            spec = Spectrum(payload["spectrum"], payload["q"])
            fresh = {"ratio": discrete.concentration_ratio(spec, payload["p"],
                                                           payload["target"])}
        return to_jsonable(fresh) == {k: payload.get(k) for k in fresh}
    except (AttributeError, DomainError, IndexError, KeyError, TypeError, ValueError):
        return False


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cache_dir = args.cache_dir or default_cache_dir()
    try:
        if args.cmd == "replay":
            rec = load_record(args.record)
            if not (isinstance(rec["command"], str) and rec["command"] in _RUNNERS):
                raise DomainError(f"unknown command {rec['command']!r} in {args.record}")
            try:
                fresh = _RUNNERS[rec["command"]](rec["inputs"])
            except (KeyError, TypeError, ValueError) as e:
                # a runner reads each key its command writes; a record
                # without them, or with values of the wrong type, is bad input
                raise DomainError(f"malformed inputs in {args.record}: {e!r}") from None
            same = canonical_json(fresh) == canonical_json(rec["outputs"])
            sys.stdout.write(json.dumps({
                "command": rec["command"], "config_hash": rec["config_hash"],
                "match": same}, indent=2) + "\n")
            return EXIT_OK if same else EXIT_MISMATCH

        inputs = _inputs_from_args(args)
        t0 = time.time()

        hit = None
        if args.cmd == "search" and not args.no_cache:
            hit = ResultsCache(cache_dir).get("search", config_hash("search", inputs))
        served, sealed = hit or (None, False)
        if sealed and _cached_ratio_holds(served, inputs["mode"] == "star"):
            shown = dict(served, cached=True)
        else:
            trace = [] if getattr(args, "trace_path", None) else None
            # the wire form, built once: recorded, sealed and printed as it is
            payload = to_jsonable(_RUNNERS[args.cmd](inputs) if trace is None
                                  else run_concentrate(inputs, trace))
            write_record(cache_dir, args.cmd, inputs, payload, time.time() - t0)
            if trace is not None:
                Path(args.trace_path).write_text(_csv(_TRACE_COLUMNS, trace))
            shown = payload if hit is None else dict(payload, cached=False)

        text = _render(args.cmd, shown)
        if args.output:
            Path(args.output).write_text(text)
        sys.stdout.write(text)
        if args.cmd == "constants" and not shown["all_passed"]:
            return EXIT_ACCEPT
        return EXIT_OK
    except DomainError as e:
        sys.stderr.write(f"domain error: {e}\n")
        return EXIT_DOMAIN
    except BudgetError as e:
        sys.stderr.write(f"budget error: {e}\n")
        return EXIT_BUDGET
    except Exception:
        traceback.print_exc()
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
