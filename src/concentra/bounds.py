"""Rigorous evaluation and global minimization of the two sinc-power series
that control grid concentration, plus the derivation pipeline for every
named constant.

The two series, for lam > 1 and t in (0, 1/2]:

    B(lam, t) = (pi t / sin pi t)^lam * (1 + 2 sum_{k>=1} |sin(k pi t)/(k pi t)|^lam)
    A(lam, t) = sin(pi t)^-lam * sum_{k>=0} |sin((2k+1) pi t)/(2k+1)|^lam

Both reduce to one core quantity, the scaled sum over a domain D (all
positive integers, or the odd ones):

    core_D(lam, t) = sum_{k in D} (|sin(k pi t)| / (k sin(pi t)))^lam

with every summand in [0, 1] since |sin kx| <= k |sin x|.  Then
B = (pi t/sin pi t)^lam + 2*core_all and A = core_odd.

Truncation strategy.  A plain envelope bound (|sin| <= 1) needs ~1/tol
terms near lam = 2, which is hopeless at tight tolerances, so the tail is
modeled through the cosine expansion of |sin theta|^lam:

    |sin theta|^lam = a0 + sum_{j>=1} c_j cos(2 j theta),
    a0 = Gamma(lam+1) / (2^lam Gamma(lam/2+1)^2),
    c_1 = -a0 * 2 lam/(lam+2),   c_{j+1} = c_j (j - lam/2)/(j + 1 + lam/2).

The tail then splits into the exactly summable mean part a0 * Z_D(lam, K)
(Z_D = zeta-style tail, Euler-Maclaurin with explicit remainder), exactly
resonant modes (2 pi j t k = const mod 2 pi, contributing +-c_j Z_D with no
error -- detected exactly because binary floats are dyadic rationals), and
non-resonant modes bounded one by one through Abel summation:
|sum_{k>K} cos(2 pi j t k) k^-lam| <= min(Z_D, (K+1)^-lam / s_j) with s_j
the reduced-angle sine of the mode.  Everything that is not computed is
added to ``tail_bound``; the reported bound is honest (possibly larger
than the requested tolerance when the term budget caps out).
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError

__all__ = [
    "SeriesEval", "MinResult", "ConstantResult",
    "eval_B", "eval_A", "minimize_over_t",
    "gamma2_sharp", "gamma4_sharp_lower", "gamma_sharp_lower",
    "asymptote_scan", "gamma_star_lower", "gamma1_certified_lower",
]

EPS = 2.0 ** -53
MAX_TERMS = 2 ** 23          # hard cap on directly summed terms
_DIRECT_CAP = 2 ** 16        # envelope path allowed up to this many terms
_CHUNK = 2 ** 20
_SUB = 2 ** 16               # terms one worker forms at a time
_BLOCK_BYTES = 2 ** 21       # scratch of the coarse-scan column blocks in flight
# numpy ufuncs release the GIL, so elementwise work splits over threads,
# one per core this process may run on
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


@dataclass(frozen=True)
class SeriesEval:
    """One rigorous series evaluation: value + truncation bookkeeping."""

    lam: float
    t: float
    value: float
    tail_bound: float
    terms_used: int
    tol: float

    @property
    def converged(self) -> bool:
        return self.tail_bound <= self.tol


@dataclass(frozen=True)
class MinResult:
    t_star: float
    value: float


@dataclass(frozen=True)
class ConstantResult:
    """A reproduced constant with its machine-checkable certificate."""

    value: float
    argmax: float | None
    certificate: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# zeta-style tails (direct summation + Euler-Maclaurin, explicit remainder)
# ----------------------------------------------------------------------

def _zeta_tail(lam: float, n: int):
    """(sum_{k>=n} k^-lam, remainder bound).  Needs n >= 8, lam > 1."""
    fn = float(n)
    v = (fn ** (1 - lam) / (lam - 1) + 0.5 * fn ** -lam
         + lam * fn ** (-lam - 1) / 12
         - lam * (lam + 1) * (lam + 2) * fn ** (-lam - 3) / 720)
    err = lam * (lam + 1) * (lam + 2) * (lam + 3) * (lam + 4) * fn ** (-lam - 5) / 30240
    return v, err


def _ln_zeta_tail(lam: float, n: int) -> float:
    """log of sum_{k>=n} k^-lam, overflow/underflow safe (upper estimate)."""
    fn = float(n)
    base = (1 - lam) * math.log(fn) - math.log(lam - 1)
    rel = (lam - 1) / (2 * fn) + lam * (lam - 1) / (12 * fn * fn)
    return base + math.log1p(rel)


def _domain_tail(lam: float, K: int, odd: bool):
    """(Z_D(lam, K), err): sum over k > K restricted to the domain."""
    za, ea = _zeta_tail(lam, K + 1)
    if not odd:
        return za, ea
    zh, eh = _zeta_tail(lam, K // 2 + 1)
    return za - 2.0 ** -lam * zh, ea + 2.0 ** -lam * eh


# ----------------------------------------------------------------------
# cosine-mode coefficients of |sin theta|^lam
# ----------------------------------------------------------------------

def _mean_abs_sin_pow(lam: float) -> float:
    return math.exp(math.lgamma(lam + 1) - lam * math.log(2)
                    - 2 * math.lgamma(lam / 2 + 1))


def _mode_coeffs(lam: float, J: int) -> np.ndarray:
    """c[0..J] with c[0] = a0 and c[j] the cos(2 j theta) coefficient."""
    c = np.zeros(J + 1)
    a0 = _mean_abs_sin_pow(lam)
    c[0] = a0
    if J >= 1:
        c[1] = -a0 * 2 * lam / (lam + 2)
    if J >= 2:
        j = np.arange(1, J, dtype=np.float64)
        ratios = (j - lam / 2) / (j + 1 + lam / 2)
        c[2:] = c[1] * np.cumprod(ratios)
    return c


def _coeff_tail(lam: float, c: np.ndarray) -> float:
    """Rigorous bound on sum_{j>J} |c_j| (valid once J > lam/2)."""
    J = len(c) - 1
    return abs(c[J]) * (J + 1 + lam / 2) / lam


# ----------------------------------------------------------------------
# elementwise work spread over the cores
# ----------------------------------------------------------------------

def _spread(fn, n: int, grain: int = 1) -> None:
    """fn(lo, hi) on contiguous pieces covering range(n), none shorter than
    ``grain``, four a worker: the calling thread and the workers take them
    in turn, so a worker that is held up delays at most one piece."""
    pieces = max(1, min(4 * _WORKERS, n // grain))
    edges = [n * i // pieces for i in range(pieces + 1)]
    todo = iter(zip(edges, edges[1:]))
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                piece = next(todo, None)
            if piece is None:
                return
            fn(*piece)

    futures = [_pool().submit(drain) for _ in range(min(_WORKERS, pieces) - 1)]
    try:
        drain()
    finally:
        for f in futures:
            f.result()


@functools.cache
def _pool():
    """The worker threads of ``_spread``, started on first use (and imported
    then, which keeps the package's import time)."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max(_WORKERS - 1, 1), thread_name_prefix="concentra")


if hasattr(os, "register_at_fork"):
    # a forked child has none of its parent's threads: it starts its own pool
    os.register_at_fork(after_in_child=_pool.cache_clear)


# ----------------------------------------------------------------------
# direct partial sums of the scaled series
# ----------------------------------------------------------------------

def _direct_scaled_sum(lam: float, t: float, K: int, odd: bool):
    """(partial sum of (|sin k pi t|/(k sin pi t))^lam over k<=K in D, roundoff bound).

    Chunks of _CHUNK terms go into one buffer allocated once, each summed
    whole; a chunk's terms are formed in pieces spread over the workers,
    _SUB at a time through two scratch vectors per piece (k is exact:
    integers below 2^53).
    """
    S = math.sin(math.pi * t)
    pt = math.pi * t
    step = 2 if odd else 1
    count = len(range(1, K + 1, step))
    r = np.empty(min(_CHUNK, count))

    def terms(k0, lo, hi):
        # r[j] for k = k0 + step * j, j in [lo, hi)
        w = min(_SUB, hi - lo)
        k = np.arange(k0 + step * lo, k0 + step * (lo + w), step, dtype=np.float64)
        d = np.empty(w)
        for a in range(lo, hi, _SUB):
            w = min(_SUB, hi - a)
            km, dm, rm = k[:w], d[:w], r[a:a + w]
            np.multiply(km, pt, out=rm)
            np.sin(rm, out=rm)
            np.abs(rm, out=rm)
            np.multiply(km, S, out=dm)
            np.divide(rm, dm, out=rm)
            if lam == 2.0:
                np.multiply(rm, rm, out=rm)
            elif lam == 4.0:
                np.multiply(rm, rm, out=rm)
                np.multiply(rm, rm, out=rm)
            else:
                np.power(rm, lam, out=rm)
            k += step * _SUB

    chunks = []
    for done in range(0, count, _CHUNK):
        m = min(_CHUNK, count - done)
        _spread(functools.partial(terms, 1 + step * done), m, _SUB)
        chunks.append(float(np.sum(r[:m])))
    total = math.fsum(chunks)
    return total, _sum_slack(lam, t, K, count, total), count


def _sum_slack(lam: float, t: float, K: int, count: int, total: float) -> float:
    """Roundoff bound of a partial sum to K, of ``count`` terms, equal to ``total``.

    Argument roundoff: |d term| <= lam * rho^(lam-1) * 3 eps pi t / S with
    rho_k <= min(1, 1/(kS)); sum the envelope of rho^(lam-1) in closed form.
    """
    S = math.sin(math.pi * t)
    if lam > 2.001:
        env = (1.0 / S) * (1.0 + 1.0 / (lam - 2))
    elif lam > 1.999:
        env = (1.0 / S) * (1.0 + math.log(max(K * S, 2.0)))
    else:
        env = 1.0 / S + S ** (1 - lam) * K ** (2 - lam) / (2 - lam)
    return 3 * EPS * lam * (math.pi * t / S) * min(float(count), env) + 32 * EPS * abs(total)


# ----------------------------------------------------------------------
# mode bookkeeping
# ----------------------------------------------------------------------

def _mode_table(t: float, J: int, odd: bool):
    """Per-mode reduced sines and exact-resonance signs for j = 1..J.

    Returns (s_eff, res_sign) where res_sign[j-1] is +-1 for an exactly
    resonant mode and 0 otherwise, and s_eff[j-1] > 0 is a safe lower bound
    on the Abel denominator |sin(pi * (m j t))| (m = 1 plain, 2 odd domain).
    """
    fr = Fraction(float(t))
    num, den = fr.numerator, fr.denominator   # exact: floats are dyadic
    j = np.arange(1, J + 1, dtype=np.float64)
    mult = 2.0 if odd else 1.0
    x = np.mod(mult * t * j, 1.0)
    d = np.minimum(x, 1.0 - x)
    s = np.sin(np.pi * d)
    # products m*j*num below 2^53 are exact in double precision
    m_int = 2 * num if odd else num
    if den <= 2 ** 52 and m_int > 0:
        j_exact = int(2 ** 53 // m_int)
    else:
        j_exact = 0
    slack = np.where(j <= j_exact, 0.0, 4 * math.pi * EPS * mult * abs(t) * j)
    s_eff = np.maximum(s - slack, 0.0)
    res_sign = np.zeros(J)
    if j_exact >= 1:
        exact = j[: min(J, j_exact)].astype(np.int64)
        if odd:
            res = (2 * exact * num) % den == 0
            plus = (exact * num) % den == 0
            sign = np.where(plus, 1.0, -1.0)
        else:
            res = (exact * num) % den == 0
            sign = np.ones(len(exact))
        res_sign[: len(exact)] = np.where(res, sign, 0.0)
        s_eff[: len(exact)][res != 0] = 0.0
    return s_eff, res_sign


def _core_mode_path(lam, t, tol, odd):
    S = math.sin(math.pi * t)
    try:
        Sml = S ** -lam       # lam <= 16 on this path: finite for t >= 1e-4
    except OverflowError:
        raise DomainError(f"series overflows a float at lam = {lam}, t = {t}") from None
    J = max(256, int(lam / 2) + 8)
    Zref, _ = _domain_tail(lam, 2 ** 14, odd)
    c = _mode_coeffs(lam, J)
    while _coeff_tail(lam, c) * Zref * Sml > tol / 4 and J < 200000:
        J *= 2
        c = _mode_coeffs(lam, J)
    s_eff, res_sign = _mode_table(t, J, odd)
    cj = c[1:]
    acj = np.abs(cj)
    nonres = res_sign == 0.0
    K = 2 ** 14
    while True:
        Z, ez = _domain_tail(lam, K, odd)
        gK = (K + 1.0) ** -lam
        with np.errstate(divide="ignore"):
            abel = np.where(s_eff > 0, gK / np.maximum(s_eff, 1e-300), np.inf)
        per_mode = np.minimum(Z, abel)
        bound = Sml * (float(np.sum(acj[nonres] * per_mode[nonres]))
                       + _coeff_tail(lam, c) * Z
                       + ez * (c[0] + float(np.sum(np.abs(cj[~nonres]))) + 1.0))
        if bound <= 0.75 * tol or K * 4 > MAX_TERMS:
            break
        K *= 4
    direct, slack, used = _direct_scaled_sum(lam, t, K, odd)
    tail_mean = Sml * Z * (c[0] + float(np.sum(cj * res_sign)))
    value = direct + tail_mean
    return value, bound + slack, used


def _core_envelope_path(lam, t, tol, odd):
    S = math.sin(math.pi * t)
    lnS = math.log(S)
    # Reserve an a-priori bound on the roundoff added to the truncation bound,
    # here and by the callers' 8 eps |value|: each term is <= min(1, (kS)^-lam),
    # so the sum is <= 1 + lam / ((lam - 1) S), and B's prefactor is (pi t / S)^lam.
    total = 1.0 + lam / ((lam - 1) * S)
    pref = math.exp(min(lam * math.log(math.pi * t / S), 700.0))
    reserve = _sum_slack(lam, t, MAX_TERMS, MAX_TERMS, total) + 8 * EPS * (total + pref)
    # K from  S^-lam * K^(1-lam)/(lam-1) <= tol - reserve, solved in logs
    lnK = -(math.log(max(tol - reserve, tol / 2)) + lam * lnS + math.log(lam - 1)) / (lam - 1)
    K = int(math.ceil(math.exp(min(lnK, 60.0)))) + 1 if lnK < 60 else MAX_TERMS
    K = max(32, min(K, MAX_TERMS))
    ln_bound = -lam * lnS + _ln_zeta_tail(lam, K + 1)
    bound = math.exp(ln_bound) if ln_bound < 700 else math.inf
    direct, slack, used = _direct_scaled_sum(lam, t, K, odd)
    return direct, bound + slack, used


def _core(lam, t, tol, odd):
    """core_D(lam,t) with an honest truncation bound, at most MAX_TERMS terms."""
    S = math.sin(math.pi * t)
    lnK_env = -(math.log(tol) + lam * math.log(S) + math.log(lam - 1)) / (lam - 1)
    if lam > 16 or lnK_env <= math.log(_DIRECT_CAP):
        return _core_envelope_path(lam, t, tol, odd)
    return _core_mode_path(lam, t, tol, odd)


def _check_domain(lam, t, tol):
    if not (0 < tol < math.inf):
        raise DomainError(f"series needs a finite tolerance > 0, got {tol}")
    if not (1 + 1e-6 < lam < math.inf):
        raise DomainError(f"series needs finite lam > 1 + 1e-6, got {lam}")
    if not (0.0 < t <= 0.5):
        raise DomainError(f"series needs t in (0, 1/2], got {t}")


def eval_B(lam: float, t: float, tol: float = 1e-10) -> SeriesEval:
    """Full-grid series B(lam, t); tail_bound is a rigorous remainder bound."""
    _check_domain(lam, t, tol)
    core, bound, used = _core(lam, t, tol / 2, odd=False)
    try:
        pref = math.exp(lam * (math.log(math.pi * t) - math.log(math.sin(math.pi * t))))
    except OverflowError:
        raise DomainError(f"B overflows a float at lam = {lam}, t = {t}") from None
    value = pref + 2 * core
    tail = 2 * bound + 8 * EPS * abs(value)
    return SeriesEval(lam, t, value, tail, used, tol)


def eval_A(lam: float, t: float, tol: float = 1e-10) -> SeriesEval:
    """Half-grid (odd-frequency) series A(lam, t)."""
    _check_domain(lam, t, tol)
    core, bound, used = _core(lam, t, tol, odd=True)
    return SeriesEval(lam, t, core, bound + 8 * EPS * abs(core), used, tol)


# ----------------------------------------------------------------------
# global minimization over t
# ----------------------------------------------------------------------

_GOLD = (math.sqrt(5) - 1) / 2

T_MIN = 1e-4
_SCAN_K = 4096               # last k of the coarse scan table


def _golden_min(f, lo, hi, tol):
    """Golden-section minimizer of f on [lo, hi], narrowed to width <= tol.

    Returns (x, f(x)); a tie keeps the left probe.
    Maximizers pass -f.
    """
    x1 = hi - _GOLD * (hi - lo)
    x2 = lo + _GOLD * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLD * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLD * (hi - lo)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _scan_min(f, xs, values, tol):
    """Minimize f from ``values``, its scan (exact or approximate) on the grid
    xs: golden section between the grid neighbours of the first least value,
    never reporting above f at that grid point.

    Returns (x, f(x)).
    """
    i = int(np.argmin(values))      # first occurrence: smallest x wins ties
    x, v = _golden_min(f, xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)], tol)
    v_grid = f(xs[i])
    if v_grid < v:
        x, v = xs[i], v_grid
    return x, v


@functools.lru_cache(maxsize=4)
def _scan_table(odd: bool, n: int):
    """``_build_scan_table(odd, n)``, read-only, kept for the last four
    (odd, n) asked for."""
    ts, M = _build_scan_table(odd, n)
    ts.flags.writeable = M.flags.writeable = False
    return ts, M


def _build_scan_table(odd: bool, n: int):
    """(ts, M) of the coarse scan: n >= 512 points ts on [T_MIN, 1/2] and the
    lam-independent table M[k, i] = |sin(pi k ts[i])| / (k sin(pi ts[i])),
    k <= _SCAN_K in the domain, built in place in column blocks."""
    ts = np.linspace(T_MIN, 0.5, max(n, 512))
    S = np.sin(np.pi * ts)
    k = np.arange(1, _SCAN_K + 1, 2 if odd else 1, dtype=np.float64)
    M = np.empty((len(k), len(ts)))

    def build(lo, hi):
        blk = M[:, lo:hi]
        np.multiply(k[:, None], ts[None, lo:hi], out=blk)
        np.multiply(np.pi, blk, out=blk)
        np.sin(blk, out=blk)
        np.abs(blk, out=blk)
        np.divide(blk, k[:, None] * S[None, lo:hi], out=blk)

    _column_blocks(build, M.shape)
    return ts, M


def _column_blocks(fn, shape) -> None:
    """fn(lo, hi) over the column blocks [lo, hi) of a float table of
    ``shape``, spread over the workers, with _BLOCK_BYTES of block-sized
    scratch in flight.  Every block is at least two columns wide: numpy sums
    a single column pairwise, and several columns in row order."""
    rows, cols = shape
    width = max(2, _BLOCK_BYTES // (8 * rows * _WORKERS))
    blocks = max(1, min(-(-cols // width), cols // 2))
    edges = [cols * i // blocks for i in range(blocks + 1)]

    def run(lo, hi):
        for a, b in zip(edges[lo:hi], edges[lo + 1:hi + 1]):
            fn(a, b)

    _spread(run, blocks)


def _scan_values(which: str, lam: float, table) -> np.ndarray:
    """Vectorized coarse values for basin location (not rigorously bounded)."""
    ts, M = table
    core = np.empty(len(ts))

    def block(lo, hi):
        with np.errstate(over="ignore", under="ignore"):
            np.sum(M[:, lo:hi] ** lam, axis=0, out=core[lo:hi])

    _column_blocks(block, M.shape)
    if which == "A":
        return core
    with np.errstate(over="ignore", under="ignore"):
        pref = np.exp(lam * (np.log(np.pi * ts) - np.log(np.sin(np.pi * ts))))
        return pref + 2 * core


def minimize_over_t(which: str, lam: float, scan_points: int = 1024,
                    refine_tol: float = 1e-8) -> MinResult:
    """Global minimum of B or A over t in [T_MIN, 1/2].

    Dense uniform scan (>= 512 points) locates the basin; golden-section
    refinement narrows it to ``refine_tol``; the reported value is a series
    evaluation at tolerance refine_tol/10.
    """
    if which not in ("B", "A"):
        raise DomainError("which must be 'B' or 'A'")
    if not (lam > 1 + 1e-6):
        raise DomainError("minimize_over_t needs lam > 1")
    return _minimize(which, lam, _scan_table(which == "A", scan_points), refine_tol)


def _minimize(which: str, lam: float, table, refine_tol: float) -> MinResult:
    """minimize_over_t on a prebuilt ``_scan_table`` of the same domain."""
    evalf = eval_A if which == "A" else eval_B
    series_tol = refine_tol / 10

    def f(t):
        return evalf(lam, float(t), tol=series_tol).value

    # the coarse scan truncates a positive series, so it underestimates:
    # _scan_min re-evaluates the best probe in full
    t_star, value = _scan_min(f, table[0], _scan_values(which, lam, table), refine_tol)
    return MinResult(float(t_star), float(value))


# ----------------------------------------------------------------------
# named constants
# ----------------------------------------------------------------------

_SUP_SCAN_POINTS = 400001    # scan of the closed-form suprema (gamma2, gamma4)
_SUP_X_MAX = 20.0            # right end of the gamma2 scan in x
_L_MAX = 64                  # last power L of the gamma_sharp_lower sweep
_REFINE_TOL = 1e-8           # minimizer width of the series-based constants
_ASYMPTOTE_TOL = 1e-8        # series tolerance of asymptote_scan


def gamma2_sharp() -> ConstantResult:
    """sup_{x>0} 2 sin^2(x)/(pi x), with its argmax."""
    xs = np.linspace(1e-9, _SUP_X_MAX, _SUP_SCAN_POINTS)
    f = lambda x: -2 * math.sin(x) ** 2 / (math.pi * x)
    x_star, val = _scan_min(f, xs, -2 * np.sin(xs) ** 2 / (np.pi * xs), 1e-10)
    cert = {"scan_points": _SUP_SCAN_POINTS, "x_max": _SUP_X_MAX,
            "stationarity_residual": math.tan(x_star) - 2 * x_star}
    return ConstantResult(-val, x_star, cert)


def gamma4_sharp_lower() -> ConstantResult:
    """max_{0<t<1/2} 3 sin^4(pi t) / (pi^4 t^3)."""
    ts = np.linspace(1e-9, 0.5, _SUP_SCAN_POINTS)
    f = lambda t: -3 * math.sin(math.pi * t) ** 4 / (math.pi ** 4 * t ** 3)
    t_star, val = _scan_min(f, ts, -3 * np.sin(np.pi * ts) ** 4 / (np.pi ** 4 * ts ** 3),
                            1e-10)
    return ConstantResult(-val, t_star, {"scan_points": _SUP_SCAN_POINTS})


def _check_p(p: float):
    if not (1 < p < math.inf):
        raise DomainError(f"needs finite p > 1, got {p}")


def gamma_sharp_lower(p: float) -> ConstantResult:
    """Lower bound 2 sup_{L>=1} 1/min_t B(L p, t) for the plain-grid level.

    For p <= 2 only the L = 1 term is a valid witness route; for p > 2 the
    whole power sweep applies.  The sweep stops once two successive L fail
    to improve the running best by 1e-6.  Every L shares one scan table.
    """
    _check_p(p)
    table = _scan_table(False, 1024)
    sweep = []
    best = 0.0
    stagnant = 0
    L_hi = 1 if p <= 2 else _L_MAX
    for L in range(1, L_hi + 1):
        m = _minimize("B", p * L, table, _REFINE_TOL)
        g = 2.0 / m.value
        sweep.append({"L": L, "min_B": m.value, "t_star": m.t_star, "gamma": g})
        if g > best + 1e-6:
            best = g
            stagnant = 0
        else:
            stagnant += 1
            if stagnant >= 2:
                break
    cert = {"L_sweep": sweep, "refine_tol": _REFINE_TOL}
    return ConstantResult(best, None, cert)


def asymptote_scan(lam: float) -> ConstantResult:
    """min over kappa of B(lam, kappa*sqrt(6/lam)); argmax field holds kappa*.

    The kappa grid starts at 0.05: the large-lam minimizer sits near
    kappa ~ 0.225, so grids starting higher miss the basin entirely.  It
    is trimmed to t = kappa * sqrt(6/lam) < 1/2.
    """
    scale = math.sqrt(6.0 / lam)
    kappa_grid = np.arange(0.05, 3.0 + 1e-12, 0.005)
    kappa_grid = kappa_grid[kappa_grid * scale < 0.5]
    if len(kappa_grid) == 0:
        raise DomainError("no kappa grid point lands t in (0, 1/2)")
    f = lambda kap: eval_B(lam, kap * scale, tol=_ASYMPTOTE_TOL).value
    kap_star, val = _scan_min(f, kappa_grid, [f(kap) for kap in kappa_grid], 1e-5)
    cert = {"lam": lam, "grid_lo": float(np.min(kappa_grid)),
            "grid_hi": float(np.max(kappa_grid)), "series_tol": _ASYMPTOTE_TOL}
    return ConstantResult(float(val), float(kap_star), cert)


def gamma_star_lower(p: float) -> ConstantResult:
    """Lower bound 1/min_t A(p, t) for the half-grid relative level."""
    _check_p(p)
    m = minimize_over_t("A", p, refine_tol=_REFINE_TOL)
    cert = {"t_star": m.t_star, "min_A": m.value, "refine_tol": _REFINE_TOL}
    return ConstantResult(1.0 / m.value, m.t_star, cert)


def gamma1_certified_lower(r: float) -> ConstantResult:
    """Certified lower bound for the integral-norm level via the r-chain.

    For 1 < r < 2 and s = r/(r-1) > 2 the half-grid level at exponent s is 1,
    so the chain collapses to gamma_star_lower(r)^(1/r).
    """
    if not (1.0 < r < 2.0):
        raise DomainError("r must lie in (1, 2)")
    g = gamma_star_lower(r)
    value = g.value ** (1.0 / r)
    cert = {"r": r, "s": r / (r - 1), "half_grid_level_r": g.value,
            "half_grid_level_s": 1.0, "chain": "value = (level_r)^(1/r) * 1^(1/s)",
            "note": ("the odd-frequency series at t=1/4 reduces to "
                     "sum (2k+1)^-lam -> 1 as lam -> inf; the s-factor 1 "
                     "is consistent with that limit")}
    return ConstantResult(value, None, cert)
