"""Independent reference computations and the correctness checks built on them.

Nothing here imports ``concentra``: every expected value is computed from
its definition (direct summation, closed forms, exact integer counts, or
``mpmath`` at 30 digits), so a fault in the program cannot hide in the
reference.  Each ``check_*`` function returns a list of failure messages,
empty when the output passes.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

EPS = 2.0 ** -53
PRINT_REL = 5e-15        # half a unit in the 15th significant digit (CLI output)
RATIO_REL = 1e-12        # agreement asked of grid ratios against the references


# ----------------------------------------------------------------------
# series B and A at rational t (Hurwitz zeta closed forms)
# ----------------------------------------------------------------------

_ZETA = {}


def _hurwitz(lam: float, num: int, den: int):
    key = (lam, num, den)
    if key not in _ZETA:
        _ZETA[key] = mpmath.zeta(mpmath.mpf(lam), mpmath.mpf(num) / den)
    return _ZETA[key]


def series_exact(which: str, lam: float, a: int, m: int) -> float:
    """B(lam, a/m) or A(lam, a/m) from the residue-class Hurwitz zeta form.

    B = (pi t/sin pi t)^lam + 2 (m sin pi t)^-lam sum_{r=1}^{m} |sin(r pi a/m)|^lam zeta(lam, r/m)
    A = (2m sin pi t)^-lam sum_{r odd < 2m} |sin(r pi a/m)|^lam zeta(lam, r/(2m))
    """
    with mpmath.workdps(30):
        lam_m = mpmath.mpf(lam)
        t = mpmath.mpf(a) / m
        s = mpmath.sin(mpmath.pi * t)
        if which == "B":
            acc = mpmath.fsum(abs(mpmath.sin(r * mpmath.pi * a / m)) ** lam_m
                              * _hurwitz(lam, r, m) for r in range(1, m + 1))
            val = (mpmath.pi * t / s) ** lam_m + 2 * (m * s) ** (-lam_m) * acc
        else:
            acc = mpmath.fsum(abs(mpmath.sin(r * mpmath.pi * a / m)) ** lam_m
                              * _hurwitz(lam, r, 2 * m) for r in range(1, 2 * m, 2))
            val = (2 * m * s) ** (-lam_m) * acc
        return float(val)


def t_rounding_bound(which: str, lam: float, t_float: float, a: int, m: int) -> float:
    """Bound on |F(lam, t_float) - F(lam, a/m)| when a/m is not a double.

    Each summand (|sin k pi t|/(k sin pi t))^lam moves by at most
    (k S)^-lam * min(1, lam pi delta (k + 1/S)) with S = sin(pi min(t, t')),
    delta = |t_float - a/m|; the sum is split at M ~ 1/(lam pi delta) and
    bounded by integrals.  The B prefactor (pi t/sin pi t)^lam has
    derivative at most 2 lam (pi/2)^lam on (0, 1/2].  Zero at dyadic t.
    """
    delta = abs(Fraction(t_float) - Fraction(a, m))
    if delta == 0:
        return 0.0
    d = float(delta) * (1 + 1e-12)
    S = math.sin(math.pi * min(t_float, a / m)) * (1 - 1e-12)
    c = lam * math.pi * d
    M = max(1.0, math.floor(1.0 / c))
    # sum_{k<=M} c (k + 1/S) (kS)^-lam <= c S^-lam (H1 + H0/S)
    if abs(lam - 2.0) < 1e-12:
        h1 = 1.0 + math.log(M)
    else:
        h1 = 1.0 + (M ** (2.0 - lam) - 1.0) / (2.0 - lam)
    h0 = 1.0 + (1.0 - M ** (1.0 - lam)) / (lam - 1.0)
    head = c * S ** -lam * (h1 + h0 / S)
    tail = S ** -lam * (M ** -lam + M ** (1.0 - lam) / (lam - 1.0))
    core = head + tail
    if which == "B":
        return 2.0 * core + 2.0 * lam * (math.pi / 2) ** lam * d
    return core


def check_curve_point(which: str, lam: float, a: int, m: int, t_float: float,
                      value: float, tail_bound: float) -> list:
    exact = series_exact(which, lam, a, m)
    allowed = (tail_bound * (1 + 1e-14) + t_rounding_bound(which, lam, t_float, a, m)
               + PRINT_REL * abs(value) + 4 * EPS * abs(exact))
    err = abs(value - exact)
    if not err <= allowed:
        return [f"curve {which} lam={lam} t={a}/{m}: |value - exact| = {err:.3e} "
                f"> allowed {allowed:.3e} (tail_bound {tail_bound:.3e})"]
    return []


# ----------------------------------------------------------------------
# named constants
# ----------------------------------------------------------------------

def gamma2_exact() -> float:
    """2 sin^2 x/(pi x) at the root of tan x = 2x in (1, 1.4)."""
    with mpmath.workdps(30):
        x = mpmath.findroot(lambda x: mpmath.tan(x) - 2 * x, (1.0, 1.4), solver="anderson")
        return float(2 * mpmath.sin(x) ** 2 / (mpmath.pi * x))


def gamma4_exact() -> float:
    """3 sin^4(pi t)/(pi^4 t^3) at the root of tan(pi t) = (4/3) pi t in (0.2, 0.45)."""
    with mpmath.workdps(30):
        t = mpmath.findroot(lambda t: mpmath.tan(mpmath.pi * t) - 4 * mpmath.pi * t / 3,
                            (0.2, 0.45), solver="anderson")
        return float(3 * mpmath.sin(mpmath.pi * t) ** 4 / (mpmath.pi ** 4 * t ** 3))


def check_constants(payload: dict) -> list:
    errs = []
    if payload.get("all_passed") is not True:
        errs.append("constants: all_passed is not true")
    rows = {r["name"]: r for r in payload["rows"]}
    for name, exact in (("gamma2_sharp", gamma2_exact()),
                        ("gamma4_sharp_lower", gamma4_exact())):
        v = rows[name]["value"]
        if not abs(v - exact) <= 1e-12 + PRINT_REL * abs(exact):
            errs.append(f"constants: {name} = {v!r}, independent value {exact!r}")
    return errs


# ----------------------------------------------------------------------
# grid ratios by direct summation
# ----------------------------------------------------------------------

def direct_values(freqs, q: int) -> np.ndarray:
    """f(k/q) = sum_h e(hk/q) for k = 0..q-1, phases reduced exactly mod q."""
    h = np.asarray(freqs, dtype=np.int64)
    k = np.arange(q, dtype=np.int64)
    phase = (np.outer(h, k) % q).astype(np.float64) / q
    return np.exp(2j * np.pi * phase).sum(axis=0)


def grid_ratio(freqs, q: int, p: float) -> float:
    mp = np.abs(direct_values(freqs, q)) ** p
    return 2.0 * float(mp[1]) / math.fsum(mp.tolist())


def dirichlet_best(q: int, p: float) -> float:
    """max over n < q of the ratio of {0..n-1}: |D_n(k/q)| = |sin(pi n k/q)/sin(pi k/q)|."""
    best = 0.0
    k = np.arange(1, q)
    s = np.sin(np.pi * k / q)
    for n in range(1, q):
        m = np.empty(q)
        m[0] = n
        m[1:] = np.abs(np.sin(np.pi * ((n * k) % q) / q)) / s
        mp = m ** p
        best = max(best, 2.0 * float(mp[1]) / math.fsum(mp.tolist()))
    return best


def _rel_close(a: float, b: float, rel: float = RATIO_REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_exhaustive(row: dict, ref: dict) -> list:
    q, p = row["q"], row["p"]
    tag = f"exhaustive q={q} p={p}"
    errs = []
    r = row["ratio"]
    if not _rel_close(r, ref["max"]):
        errs.append(f"{tag}: ratio {r!r} != reference {ref['max']!r}")
    w = grid_ratio(row["spectrum"], q, p)
    if not _rel_close(w, ref["max"]):
        errs.append(f"{tag}: witness re-evaluates to {w!r}, reference max {ref['max']!r}")
    if r > 2.0 / 3.0 * (1 + RATIO_REL):
        errs.append(f"{tag}: ratio {r!r} above 2/3")
    if r < dirichlet_best(q, p) * (1 - RATIO_REL):
        errs.append(f"{tag}: ratio {r!r} below the Dirichlet best")
    if p % 2 == 0 and r > (0.5 + 2.0 / q) * (1 + RATIO_REL):
        errs.append(f"{tag}: ratio {r!r} above 0.5 + 2/q")
    return errs


def star_parts(freqs, q: int, p: float):
    """(2|v_1|^p, sum over odd k, sum over even k) on the 2q-point grid."""
    mp = np.abs(direct_values(freqs, 2 * q)) ** p
    return 2.0 * float(mp[1]), math.fsum(mp[1::2].tolist()), math.fsum(mp[0::2].tolist())


def check_star(row: dict, refs: dict) -> list:
    """``refs`` maps K to the reference half-grid maximum."""
    q, p, K = row["q"], row["p"], row["K"]
    tag = f"star q={q} p={p}"
    errs = []
    levels = {K: row["ratio_star"]}
    for k_str, v in row.get("K_sensitivity", {}).items():
        levels[float(k_str)] = v
    for k_val, v in levels.items():
        if k_val not in refs:
            errs.append(f"{tag}: no reference for K={k_val}")
        elif not _rel_close(v, refs[k_val]):
            errs.append(f"{tag} K={k_val}: level {v!r} != reference {refs[k_val]!r}")
    num, d_star, d_plain = star_parts(row["spectrum"], q, p)
    g = row["ratio_star"]
    slack = RATIO_REL * num
    if not num + slack >= g * d_star:
        errs.append(f"{tag}: half-grid inequality fails at the witness")
    if not num + slack >= (g / K) * d_plain:
        errs.append(f"{tag}: plain-grid control inequality fails at the witness")
    if row.get("cond_K_ok") is not True:
        errs.append(f"{tag}: cond_K_ok is not true")
    return errs


def check_heuristic(row: dict) -> list:
    q, p = row["q"], row["p"]
    tag = f"heuristic q={q} p={p}"
    errs = []
    r = row["ratio"]
    if r < dirichlet_best(q, p) * (1 - RATIO_REL):
        errs.append(f"{tag}: ratio {r!r} below the Dirichlet best")
    w = grid_ratio(row["spectrum"], q, p)
    if not _rel_close(w, r):
        errs.append(f"{tag}: witness re-evaluates to {w!r}, reported {r!r}")
    return errs


# ----------------------------------------------------------------------
# Bernoulli moments
# ----------------------------------------------------------------------

_MOMENTS = {}


def binomial_abs_moment(n: int, p: float):
    """(E|X|^p, Var|X|^p) for X = Bin(n, 1/2) - n/2, exactly summed at 30 digits."""
    key = (n, p)
    if key not in _MOMENTS:
        with mpmath.workdps(30):
            w = [mpmath.mpf(math.comb(n, k)) / mpmath.mpf(2) ** n for k in range(n + 1)]
            x = [abs(mpmath.mpf(k) - mpmath.mpf(n) / 2) ** p for k in range(n + 1)]
            m1 = mpmath.fsum(wi * xi for wi, xi in zip(w, x))
            m2 = mpmath.fsum(wi * xi * xi for wi, xi in zip(w, x))
            _MOMENTS[key] = (float(m1), float(m2 - m1 * m1))
    return _MOMENTS[key]


def check_moment(p: float, n: int, trials: int, empirical: float) -> list:
    mean, var = binomial_abs_moment(n, p)
    se = math.sqrt(var / trials)
    if not abs(empirical - mean) <= 5.0 * se:
        return [f"moment p={p} n={n}: empirical {empirical!r} vs exact {mean!r} "
                f"is {abs(empirical - mean) / se:.1f} standard errors off"]
    return []


# ----------------------------------------------------------------------
# torus integrals from integer autocorrelation counts
# ----------------------------------------------------------------------

def _indicator(freqs) -> np.ndarray:
    f = np.asarray(freqs, dtype=np.int64)
    a = np.zeros(int(f.max()) + 1)
    a[f] = 1.0
    return a


def _exact_round(x: np.ndarray, total: int) -> np.ndarray:
    r = np.rint(x)
    if np.max(np.abs(x - r)) > 0.25 or int(r.astype(np.int64).sum()) != total:
        raise ArithmeticError("autocorrelation counts are not exact integers")
    return r.astype(np.int64)


def _fft_correlate(a: np.ndarray, b: np.ndarray, total: int) -> np.ndarray:
    """c[d] = sum_s a[s+d] b[s] for d >= 0, rounded to exact integers."""
    size = 1 << int(len(a) + len(b)).bit_length()
    full = np.fft.irfft(np.fft.rfft(a, size) * np.conj(np.fft.rfft(b, size)), size)
    lags = np.concatenate([full[: len(a)], full[size - len(b) + 1:]])
    return _exact_round(lags, total)[: len(a)]


def autocorrelation_counts(freqs, p: int) -> np.ndarray:
    """w[d] for d >= 0 with |f|^p = sum_d w[d] e(dx), p in {2, 4}.

    p = 2: w[d] = #{(h, h') : h - h' = d}.  p = 4: the same count for the
    sum multiset of f^2, i.e. w[d] = sum_s c(s) c(s - d) with
    c(s) = #{(h, h') : h + h' = s}.
    """
    a = _indicator(freqs)
    n = len(freqs)
    if p == 2:
        return _fft_correlate(a, a, n * n)
    size = 1 << int(2 * len(a)).bit_length()
    c = _exact_round(np.fft.irfft(np.fft.rfft(a, size) ** 2, size)[: 2 * len(a) - 1], n * n)
    return _fft_correlate(c.astype(np.float64), c.astype(np.float64), n ** 4)


def _frac_times(d: np.ndarray, x: float) -> np.ndarray:
    """(d * x) mod 1 for integers d >= 0 < 2^21, exact before the final rounding."""
    fr = Fraction(x)
    num, den = fr.numerator, fr.denominator
    k = den.bit_length() - 1
    if k == 0:
        return np.zeros(len(d))
    if k > 62 or d.max() >= 1 << 21:
        return np.array([float(Fraction(int(v) * num % den, den)) for v in d])
    hi, lo = num >> 32, num & 0xFFFFFFFF
    t1 = ((d * hi) % (1 << max(k - 32, 0))) << 32 if k > 32 else np.zeros_like(d)
    r = (t1 + d * lo) % (1 << k)
    return r.astype(np.float64) / float(1 << k)


def interval_cos_integrals(d_max: int, intervals) -> np.ndarray:
    """I[d] = integral over E of cos(2 pi d x) dx, d = 0..d_max."""
    d = np.arange(d_max + 1, dtype=np.int64)
    out = np.zeros(d_max + 1)
    for lo, hi in intervals:
        out[1:] += (np.sin(2 * np.pi * _frac_times(d, hi)) -
                    np.sin(2 * np.pi * _frac_times(d, lo)))[1:] / (2 * np.pi * d[1:])
        out[0] += hi - lo
    return out


def exact_torus_integrals(freqs, intervals, p: int):
    """(int_E, int_T, reference error bound) of |sum_h e(hx)|^p for p in {2, 4}."""
    w = autocorrelation_counts(freqs, p)
    I = interval_cos_integrals(len(w) - 1, intervals)
    terms = w[1:].astype(np.float64) * I[1:]
    int_E = 2.0 * math.fsum(terms.tolist()) + float(w[0]) * I[0]
    int_T = float(w[0])
    d = np.arange(1, len(w))
    # per endpoint, sin(2 pi frac) is off by at most ~8e-16 once frac is exact
    err = (2.0 * float(np.sum(w[1:] / d)) * len(intervals) * 4e-16
           + 8 * EPS * (float(np.sum(np.abs(terms))) + float(w[0]) * I[0]))
    return int_E, int_T, err


def check_torus(tag: str, report: dict, exact, printed: bool) -> list:
    """int_E and int_T against their exact values, within the quadrature estimate."""
    int_E, int_T, ref_err = exact
    est = report["quadrature_error_est"]
    errs = []
    for name, got, want in (("int_E", report["int_E"], int_E), ("int_T", report["int_T"], int_T)):
        allowed = est + ref_err + (PRINT_REL * abs(got) if printed else 0.0)
        if not abs(got - want) <= allowed:
            errs.append(f"{tag}: {name} = {got!r}, exact {want!r}, "
                        f"off by {abs(got - want):.3e} > {allowed:.3e}")
    return errs


def check_torus_p3(tag: str, report: dict, ex2, ex4, measure_E: float, printed: bool) -> list:
    """p = 3 has no integer form; it must sit between the Jensen lower and
    Cauchy-Schwarz upper bounds built from the exact p = 2 and p = 4 integrals."""
    errs = []
    est = report["quadrature_error_est"]
    for name, got, k, size in (("int_T", report["int_T"], 1, 1.0),
                               ("int_E", report["int_E"], 0, measure_E)):
        i2, e2, i4, e4 = ex2[k], ex2[2], ex4[k], ex4[2]
        lower = i2 ** 1.5 / math.sqrt(size)
        upper = math.sqrt(i2 * i4)
        ref = 1.5 * math.sqrt(i2 / size) * e2 + 0.5 * (upper / i2 * e2 + upper / i4 * e4)
        slack = est + ref + 4 * EPS * upper + (PRINT_REL * abs(got) if printed else 0.0)
        if not (lower - slack <= got <= upper + slack):
            errs.append(f"{tag}: {name} = {got!r} outside [{lower!r}, {upper!r}]")
    return errs
