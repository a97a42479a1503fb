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
(Z_D = zeta-style tail, Euler-Maclaurin with explicit remainder) and the
modes, bounded one by one through Abel summation:
|sum_{k>K} cos(2 pi j t k) k^-lam| <= min(Z_D, (K+1)^-lam / s_j) with s_j
the reduced-angle sine of the mode (a mode with s_j = 0 takes Z_D, the
bound of its whole sum).  Everything that is not computed is added to
``tail_bound``; the reported bound is honest (possibly larger than the
requested tolerance when the term budget caps out).

Rational path.  At t = a/b, |sin(k pi t)| has period b in k, so core_D is
a finite sum of Hurwitz zeta values: with P = b (all k) or 2b (odd k),

    core_D(lam, a/b) = (P S)^-lam sum_r |sin(pi r a/b)|^lam zeta(lam, r/P)

over the residues r of D mod P, S = sin(pi t).  A double t whose exact
denominator is at most _RATIONAL_CAP = 2^12 (every dyadic j/2^m with
m <= 12) that neither large lam nor a short sum sends to the envelope path
is evaluated this way: each residue class sums N terms directly and the
rest by Euler-Maclaurin with its explicit remainder, N sized from the
tolerance.  Every other double keeps the mode path; the near-rational
doubles, within EPS t of a fraction of denominator at most _RATIONAL_CAP
(the one nearest 1/3 among them), keep the mode tail and sum their head
k <= K by residue class.
"""

from __future__ import annotations

import functools
import math
import os
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
_SUB = 2 ** 16               # terms one range of a direct sum or mode table forms
_BLOCK_BYTES = 2 ** 21       # scratch of the coarse-scan column blocks in flight
_RATIONAL_CAP = 2 ** 12      # largest denominator of t the rational path takes
_MODE_HEAD = 4096            # modes of the mode tail's lower bound that passes a K over
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

def _zeta_tail(lam: float, n):
    """(sum_{k>=0} (n + k)^-lam, remainder bound) by Euler-Maclaurin, for
    lam > 1 and real n > 0 or an array of them."""
    fn = n * 1.0
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


_COEFFS = {}                 # lam -> (c, |c|, running product) of the last two lam


def _mode_coeffs(lam: float, J: int):
    """(c, |c|) for j = 0..J (J >= 2), read-only: c[0] = a0 and c[j] the
    cos(2 j theta) coefficient.  Each lam keeps one array, extended when a
    longer one is asked for: np.cumprod runs in order from the running
    product, so every prefix is the array built to its length, bit for bit."""
    c, ac, prod = _COEFFS.pop(lam, (None, None, 1.0))
    if c is None:
        a0 = _mean_abs_sin_pow(lam)
        c = np.array([a0, -a0 * 2 * lam / (lam + 2)])
    if len(c) <= J:
        j = np.arange(len(c) - 1, J, dtype=np.float64)
        run = np.cumprod(np.concatenate(([prod], (j - lam / 2) / (j + 1 + lam / 2))))
        c, prod = np.concatenate((c, c[1] * run[1:])), run[-1]
        ac = np.abs(c)
        c.flags.writeable = ac.flags.writeable = False
    _COEFFS[lam] = c, ac, prod
    while len(_COEFFS) > 2:
        _COEFFS.pop(next(iter(_COEFFS)), None)
    return c[:J + 1], ac[:J + 1]


def _coeff_tail(lam: float, c: np.ndarray) -> float:
    """Rigorous bound on sum_{j>J} |c_j| (valid once J > lam/2)."""
    J = len(c) - 1
    return abs(c[J]) * (J + 1 + lam / 2) / lam


# ----------------------------------------------------------------------
# elementwise work spread over the cores
# ----------------------------------------------------------------------

def _parallel(fn, ranges) -> None:
    """fn(lo, hi) for each (lo, hi) in ``ranges`` on the pool's threads, a
    single range inline.  Returns, or raises the first range's error, only
    once every range has finished: none writes on after the caller goes on."""
    if len(ranges) == 1:
        fn(*ranges[0])
        return
    futures = [_pool().submit(fn, lo, hi) for lo, hi in ranges]
    for f in futures:
        f.exception()
    for f in futures:
        f.result()


@functools.cache
def _pool():
    """The threads of ``_parallel``, one per core, started on first use (and
    imported then, which keeps the package's import time)."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(_WORKERS, thread_name_prefix="concentra")


if hasattr(os, "register_at_fork"):
    # a forked child has none of its parent's threads: it starts its own pool
    os.register_at_fork(after_in_child=_pool.cache_clear)


# ----------------------------------------------------------------------
# direct partial sums of the scaled series
# ----------------------------------------------------------------------

def _direct_scaled_sum(lam: float, t: float, S: float, K: int, odd: bool):
    """(partial sum of (|sin k pi t|/(k S))^lam over k<=K in D, roundoff bound),
    S = sin(pi t).

    Chunks of _CHUNK terms go into one buffer allocated once, each summed
    whole; a chunk's terms are formed in ranges of _SUB, run on the pool,
    each through two scratch vectors (k is exact: integers below 2^53).
    """
    pt = math.pi * t
    step = 2 if odd else 1
    count = len(range(1, K + 1, step))
    r = np.empty(min(_CHUNK, count))

    def terms(k0, lo, hi):
        # r[j] for k = k0 + step * j, j in [lo, hi)
        k = np.arange(k0 + step * lo, k0 + step * hi, step, dtype=np.float64)
        d = np.empty(hi - lo)
        rm = r[lo:hi]
        np.multiply(k, pt, out=rm)
        np.sin(rm, out=rm)
        np.abs(rm, out=rm)
        np.multiply(k, S, out=d)
        np.divide(rm, d, out=rm)
        if lam == 4.0:
            np.multiply(rm, rm, out=rm)
            np.multiply(rm, rm, out=rm)
        else:
            np.power(rm, lam, out=rm)

    chunks = []
    for done in range(0, count, _CHUNK):
        m = min(_CHUNK, count - done)
        _parallel(functools.partial(terms, 1 + step * done),
                  [(lo, min(lo + _SUB, m)) for lo in range(0, m, _SUB)])
        chunks.append(float(np.sum(r[:m])))
    total = math.fsum(chunks)
    return total, _sum_slack(lam, t, S, K, count, total), count


def _sum_slack(lam: float, t: float, S: float, K: int, count: int, total: float) -> float:
    """Roundoff bound of a partial sum to K, of ``count`` terms, equal to ``total``.

    Argument roundoff: |d term| <= lam * rho^(lam-1) * 3 eps pi t / S with
    rho_k <= min(1, 1/(kS)); sum the envelope of rho^(lam-1) in closed form.
    """
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

def _mode_table(exact: Fraction, J: int, odd: bool):
    """s_eff for j = 1..J at the double t = ``exact``: s_eff[j-1] >= 0 is a
    safe lower bound on the Abel denominator |sin(pi * (m j t))| (m = 1
    plain, 2 odd domain).  Up to the last j whose m j num is below 2^53 the
    products are exact, so no roundoff slack is subtracted there.
    """
    t = float(exact)
    m = 2 if odd else 1
    n_exact = (min(J, 2 ** 53 // (m * exact.numerator))
               if exact.denominator <= 2 ** 52 else 0)
    s_eff = np.empty(J)

    def form(lo, hi):
        # s_eff[j-1] for j in (lo, hi]
        j = np.arange(lo + 1, hi + 1, dtype=np.float64)
        x = s_eff[lo:hi]
        np.multiply(m * t, j, out=x)
        d = np.floor(x)
        np.subtract(x, d, out=x)      # x mod 1 exactly, as np.mod gives it: x >= 0
        np.subtract(1.0, x, out=d)
        np.minimum(x, d, out=x)
        np.multiply(np.pi, x, out=x)
        np.sin(x, out=x)
        e = max(n_exact - lo, 0)      # j beyond the exact products: roundoff slack
        np.multiply(4 * math.pi * EPS * m * abs(t), j[e:], out=d[e:])
        np.subtract(x[e:], d[e:], out=x[e:])
        np.maximum(x[e:], 0.0, out=x[e:])

    _parallel(form, [(lo, min(lo + _SUB, J)) for lo in range(0, J, _SUB)])
    return s_eff


def _mode_bound(lam, K, odd, Sml, c, a, s, head=False):
    """The honest bound on the tail k > K: Sml times the Abel bounds
    a_j min(Z_D, (K+1)^-lam / s_j) of the modes (a, s), the coefficient
    tail and the Euler-Maclaurin remainders.  A mode with s_j = 0 has no
    Abel bound and takes Z_D, the bound of its whole sum.

    With ``head``, a lower bound on that float, from the first _MODE_HEAD
    modes alone.  Their terms are >= 0 and bit-equal to the whole array's
    first ones, so their exact sum is at most the whole one; np.sum adds
    pairwise, within 1e-14 relative of the exact sum, so the head's float
    sum shrunk by 1 - 1e-12 is at most the whole float sum; and the sums
    and products that follow round monotonically."""
    Z, ez = _domain_tail(lam, K, odd)
    n = _MODE_HEAD if head else None
    with np.errstate(divide="ignore"):      # no Abel bound at s = 0: g / 0 = inf
        per_mode = (K + 1.0) ** -lam / s[:n]
    np.minimum(Z, per_mode, out=per_mode)
    np.multiply(a[:n], per_mode, out=per_mode)
    abel = float(np.sum(per_mode))
    if head:
        abel *= 1 - 1e-12
    return Sml * (abel + _coeff_tail(lam, c) * Z + ez * (c[0] + 1.0))


def _mode_tail(lam, S, exact: Fraction, tol, odd):
    """(K, bound, mean) for the tail k > K of the direct sum at the double
    t = ``exact``, S = sin(pi t): its honest bound and its exactly summed part.

    K is the first of 2^14, 2^16, ... whose bound is at most 0.75 tol, or
    the last below MAX_TERMS.  A K below the last is first tried on the
    head's lower bound (``_mode_bound``), which passes it over when that
    bound already exceeds 0.75 tol: at lam = 1.5 every K but the last."""
    try:
        Sml = S ** -lam       # lam <= 16 on this path: finite for t >= 1e-4
    except OverflowError:
        raise DomainError(f"series overflows a float at lam = {lam}, "
                          f"t = {float(exact)}") from None
    J = max(256, int(lam / 2) + 8)
    Zref, _ = _domain_tail(lam, 2 ** 14, odd)
    c, ac = _mode_coeffs(lam, J)
    while _coeff_tail(lam, c) * Zref * Sml > tol / 4 and J < 200000:
        J *= 2
        c, ac = _mode_coeffs(lam, J)
    s_eff = _mode_table(exact, J, odd)

    def bound_at(K, head=False):
        return _mode_bound(lam, K, odd, Sml, c, ac[1:], s_eff, head)

    K = 2 ** 14
    while True:
        last = K * 4 > MAX_TERMS
        if last or bound_at(K, head=True) <= 0.75 * tol:
            bound = bound_at(K)
            if bound <= 0.75 * tol or last:
                Z, _ = _domain_tail(lam, K, odd)
                return K, bound, Sml * Z * c[0]
        K *= 4


def _core_envelope_path(lam, t, S, tol, odd):
    lnS = math.log(S)
    # Reserve an a-priori bound on the roundoff added to the truncation bound,
    # here and by the callers' 8 eps |value|: each term is <= min(1, (kS)^-lam),
    # so the sum is <= 1 + lam / ((lam - 1) S), and B's prefactor is (pi t / S)^lam;
    # B's also carries the prefactor's own rounding (``_pref_error``).
    total = 1.0 + lam / ((lam - 1) * S)
    pref = math.exp(min(lam * math.log(math.pi * t / S), 700.0))
    reserve = _sum_slack(lam, t, S, MAX_TERMS, MAX_TERMS, total) + 8 * EPS * (total + pref)
    if not odd:
        reserve += pref * _pref_error(lam, t)
    # K from  S^-lam * K^(1-lam)/(lam-1) <= tol - reserve, solved in logs
    lnK = -(math.log(max(tol - reserve, tol / 2)) + lam * lnS + math.log(lam - 1)) / (lam - 1)
    K = int(math.ceil(math.exp(min(lnK, 60.0)))) + 1 if lnK < 60 else MAX_TERMS
    K = max(32, min(K, MAX_TERMS))
    ln_bound = -lam * lnS + _ln_zeta_tail(lam, K + 1)
    bound = math.exp(ln_bound) if ln_bound < 700 else math.inf
    direct, slack, used = _direct_scaled_sum(lam, t, S, K, odd)
    return direct, bound + slack, used


def _core_rational(lam, t: Fraction, S, tol, odd, K=None):
    """core_D(lam, t) at a rational t = a/b by the residue-class form of the
    module docstring, w_r = |sin(pi r a/b)| from the exact reduction of
    r a mod b, and the caller's S.  Each class sums its first N
    terms directly and the rest from ``_zeta_tail`` at N + r/P, N sized so
    that the Euler-Maclaurin remainders stay below tol/4.  With an upper
    limit K, the partial sum over k <= K: a class of n > N terms up to K
    less its tail from n, one more remainder; N is at most the longest
    class.  Returns (value, bound, terms summed directly)."""
    a, b = t.numerator, t.denominator
    P = 2 * b if odd else b
    r = np.arange(1, P + 1, 2 if odd else 1)
    x = r * a % b
    w = np.sin(np.pi * np.minimum(x, b - x) / b)
    # sum_r w_r^lam <= len(r) and N + r/P >= N bound the remainders, solved in logs
    em = lam * (lam + 1) * (lam + 2) * (lam + 3) * (lam + 4) / 30240
    lnN = (math.log(len(r) * em * 4 / tol) - lam * math.log(P * S)) / (lam + 5)
    N = max(2, min(math.ceil(math.exp(min(lnN, 60.0))), _CHUNK // len(r)))
    n = np.inf                          # terms of each class: all of them
    if K is not None:
        N = min(N, (K - 1) // P + 1)
        n = (K - r) // P + 1
    k = np.arange(0, N * P, P, dtype=np.float64)[:, None] + r
    terms = (w / (k * S)) ** lam
    if K is not None:
        terms[k > K] = 0.0
    direct = float(np.sum(terms))
    # the classes with terms past N; g <= 2^-lam: P S >= 2a
    g = np.where(n > N, (w / (P * S)) ** lam, 0.0)
    v, err = _zeta_tail(lam, N + r / P)
    v_n, err_n = _zeta_tail(lam, np.maximum(n, N) + r / P)     # 0 at n = inf
    tail, rem = float(np.sum(g * (v - v_n))), float(np.sum(g * (err + err_n)))
    total = direct + tail
    # roundoff: each term and tail is a power lam of a few correctly
    # rounded sines, products and quotients, then summed pairwise; the
    # tails from N and from n are each rounded as they would be alone
    scale = total + 2 * float(np.sum(g * v_n))
    return total, rem + (12 * lam + 32) * EPS * scale, N * len(r)


def _residue_head(lam, t, S, near: Fraction, K, odd):
    """(partial sum over k <= K in D, slack, count) of the mode path at a
    double t within EPS t of ``near`` = a/b, b <= _RATIONAL_CAP, by residue
    class: ``_core_rational`` at a/b with S = sin(pi t) of the double, N
    sized so that its remainders stay below EPS/4 (the sum is at least its
    k = 1 term, 1).

    The slack is that path's bound (both Euler-Maclaurin remainders of each
    class and the roundoff of its terms and tails) plus the move from a/b
    to t: |sin k pi t| - |sin k pi a/b| is at most k pi |t - a/b| <= k pi EPS t,
    so each term rho^lam, rho <= min(1, 1/(kS)), moves by at most
    lam rho^(lam-1) EPS pi t/S.  That is a third of the argument roundoff
    ``_sum_slack`` allows each term, summed with the same envelope;
    second-order terms, below EPS^2 of the sum, fall within the residue
    roundoff.
    """
    count = (K + 1) // 2 if odd else K
    total, slack, _ = _core_rational(lam, near, S, EPS, odd, K)
    return total, slack + _sum_slack(lam, t, S, K, count, 0.0) / 3, count


def _core(lam, t, tol, odd):
    """core_D(lam,t) with an honest truncation bound, at most MAX_TERMS terms,
    on the first path that serves t: envelope, rational or mode.  S = sin(pi t),
    the exact value of the double t and the fraction nearest t of denominator
    <= _RATIONAL_CAP are formed here once, and the paths take them: t is that
    fraction on the rational path, and the mode path sums its head k <= K by
    residue class (``_residue_head``) where the fraction lies within EPS t,
    else directly."""
    S = math.sin(math.pi * t)
    lnK_env = -(math.log(tol) + lam * math.log(S) + math.log(lam - 1)) / (lam - 1)
    if lam > 16 or lnK_env <= math.log(_DIRECT_CAP):
        return _core_envelope_path(lam, t, S, tol, odd)
    exact = Fraction(t)
    near = exact.limit_denominator(_RATIONAL_CAP)
    if near == exact:
        # t = a/b with b a power of two, so pi a / b rounds as pi t: S is sin(pi a/b)
        return _core_rational(lam, exact, S, tol, odd)
    K, bound, tail_mean = _mode_tail(lam, S, exact, tol, odd)
    if abs(exact - near) <= EPS * exact:
        direct, slack, used = _residue_head(lam, t, S, near, K, odd)
    else:
        direct, slack, used = _direct_scaled_sum(lam, t, S, K, odd)
    return float(direct + tail_mean), float(bound + slack), used


def _check_domain(lam, t, tol):
    if not (0 < tol < math.inf):
        raise DomainError(f"series needs a finite tolerance > 0, got {tol}")
    if not (1 + 1e-6 < lam < math.inf):
        raise DomainError(f"series needs finite lam > 1 + 1e-6, got {lam}")
    if not (0.0 < t <= 0.5):
        raise DomainError(f"series needs t in (0, 1/2], got {t}")


def _pref_error(lam: float, t: float) -> float:
    """Bound on the relative rounding error of B's prefactor as ``eval_B``
    forms it, exp(lam (log(pi t) - log(sin pi t))), with log, sin and exp
    within one ulp (2 EPS) and each product and difference correctly rounded.

    pi t carries 2 EPS and sin(pi t) = S 4 EPS (the sine's slope times its
    argument is at most S), so the two logs are off by 2 EPS (1 + |ln pi t|)
    and 2 EPS (2 + |ln S|); their difference, at most ln(pi/2) < 1/2, and lam
    times it are rounded once each; exp turns the error of its argument,
    below 2 EPS lam (|ln pi t| + |ln S| + 3.5), into a relative one (1/2
    covers the second order) and adds 2 EPS of its own.
    """
    return 2 * EPS * (lam * (abs(math.log(math.pi * t)) + abs(math.log(math.sin(math.pi * t)))
                             + 4) + 1)


def eval_B(lam: float, t: float, tol: float = 1e-10) -> SeriesEval:
    """Full-grid series B(lam, t); tail_bound is a rigorous remainder bound."""
    _check_domain(lam, t, tol)
    core, bound, used = _core(lam, t, tol / 2, odd=False)
    try:
        pref = math.exp(lam * (math.log(math.pi * t) - math.log(math.sin(math.pi * t))))
    except OverflowError:
        raise DomainError(f"B overflows a float at lam = {lam}, t = {t}") from None
    value = pref + 2 * core
    tail = 2 * bound + 8 * EPS * abs(value) + pref * _pref_error(lam, t)
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
_SCAN_HEAD = 256             # rows of the coarse scan table kept in memory
_REFINE_TOL = 1e-8           # minimizer width of minimize_over_t


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


@functools.cache
def _scan_table(odd: bool):
    """(ts, H) of the coarse scan, read-only, one per domain: 1024 points
    ts on [T_MIN, 1/2] and the head H of the lam-independent table, its
    first _SCAN_HEAD rows (``_scan_rows``).  ``_scan_span`` bounds every
    column of the whole table from them."""
    ts = np.linspace(T_MIN, 0.5, 1024)
    H = _scan_rows(_scan_k(odd)[:_SCAN_HEAD], ts)
    ts.flags.writeable = H.flags.writeable = False
    return ts, H


def _scan_k(odd: bool) -> np.ndarray:
    """The rows k <= _SCAN_K of the coarse scan table in the domain."""
    return np.arange(1, _SCAN_K + 1, 2 if odd else 1, dtype=np.float64)


def _scan_rows(k, ts) -> np.ndarray:
    """M[r, i] = |sin(pi k[r] ts[i])| / (k[r] sin(pi ts[i])), built in place
    in column blocks: each entry is the same element-by-element ufuncs
    whatever the columns built with it."""
    S = np.sin(np.pi * ts)
    M = np.empty((len(k), len(ts)))

    def build(lo, hi):
        blk = M[:, lo:hi]
        np.multiply(k[:, None], ts[None, lo:hi], out=blk)
        np.multiply(np.pi, blk, out=blk)
        np.sin(blk, out=blk)
        np.abs(blk, out=blk)
        np.divide(blk, k[:, None] * S[None, lo:hi], out=blk)

    _column_blocks(build, M.shape)
    return M


def _column_blocks(fn, shape) -> None:
    """fn(lo, hi) over the column blocks [lo, hi) of a float table of
    ``shape``, one range each, with _BLOCK_BYTES of block-sized scratch in
    flight.  Every block is at least two columns wide: numpy sums a single
    column pairwise, and several columns in row order."""
    rows, cols = shape
    width = max(2, _BLOCK_BYTES // (8 * rows * _WORKERS))
    blocks = max(1, min(-(-cols // width), cols // 2))
    edges = [cols * i // blocks for i in range(blocks + 1)]
    _parallel(fn, list(zip(edges, edges[1:])))


def _scan_values(which: str, lam: float, table) -> np.ndarray:
    """Coarse values of B or A at the columns of ``table`` = (ts, M), each
    column of M**lam summed in row order (not rigorously bounded).

    A block leaves out its rows k with (k S)^lam > 1.01^lam 2^54, S the
    block's least sin(pi t): their powers are below 2^-54 even after
    rounding, and each column's sum starts at its row k = 1, exactly 1.0,
    so adding them leaves every sum as it is, bit for bit."""
    ts, M = table
    core = np.empty(len(ts))
    k = _scan_k(which == "A")[:len(M)]
    k_cut = 1.01 * 2.0 ** (54 / lam) / np.sin(np.pi * ts)

    def block(lo, hi):
        rows = int(np.searchsorted(k, k_cut[lo:hi].max(), side="right"))
        with np.errstate(over="ignore", under="ignore"):
            np.sum(M[:rows, lo:hi] ** lam, axis=0, out=core[lo:hi])

    _column_blocks(block, M.shape)
    if which == "A":
        return core
    with np.errstate(over="ignore", under="ignore"):
        pref = np.exp(lam * (np.log(np.pi * ts) - np.log(np.sin(np.pi * ts))))
        return pref + 2 * core


def _scan_span(which: str, lam: float, table) -> tuple[int, int]:
    """Columns [lo, hi) of the whole coarse scan table, all _SCAN_K rows,
    that hold its first least value, found from the head rows of ``table``.

    A column's head value bounds its whole value from below: in row order
    a float sum of more terms >= 0 is never smaller.  Each entry is at most
    1/(k S), so the rows past the head add at most S^-lam times the sum of
    k^-lam over them; the relative slack 1e-9 covers the rounding, below
    1e-12.  The span holds every column whose lower bound is at most the
    least upper bound, and one neighbour on each side, so that the grid
    neighbours of its least value are the whole table's."""
    ts, H = table
    k = _scan_k(which == "A")[len(H):]
    lower = _scan_values(which, lam, table)
    with np.errstate(over="ignore", under="ignore"):
        # S^-lam sum k^-lam = exp(ln sum (k/k0)^-lam - lam ln(k0 S)): no inf * 0
        rest = np.exp(math.log(np.sum((k / k[0]) ** -lam))
                      - lam * np.log(k[0] * np.sin(np.pi * ts)))
        upper = (lower + (1 if which == "A" else 2) * rest) * (1 + 1e-9)
    held = np.flatnonzero(lower <= upper.min())
    return max(int(held[0]) - 1, 0), min(int(held[-1]) + 2, len(ts))


def minimize_over_t(which: str, lam: float) -> MinResult:
    """Global minimum of B or A over t in [T_MIN, 1/2].

    A dense uniform scan (``_scan_table``, ``_scan_span``) locates the
    basin; golden-section refinement narrows it to _REFINE_TOL; the
    reported value is a series evaluation at tolerance _REFINE_TOL/10.
    A minimizer within _REFINE_TOL of T_MIN is a DomainError: the minimum
    may lie below the scan, as B's (near 0.225 sqrt(6/lam)) does past lam ~ 3e7.
    """
    if which not in ("B", "A"):
        raise DomainError("which must be 'B' or 'A'")
    if not (1 + 1e-6 < lam < math.inf):
        raise DomainError(f"minimize_over_t needs finite lam > 1 + 1e-6, got {lam}")
    table = _scan_table(which == "A")
    evalf = eval_A if which == "A" else eval_B
    series_tol = _REFINE_TOL / 10

    def f(t):
        return evalf(lam, float(t), tol=series_tol).value

    # only the columns that can hold the least value are built with all
    # their rows; the coarse scan truncates a positive series, so it
    # underestimates: _scan_min re-evaluates the best probe in full
    lo, hi = _scan_span(which, lam, table)
    ts = table[0][lo:hi]
    values = _scan_values(which, lam, (ts, _scan_rows(_scan_k(which == "A"), ts)))
    t_star, value = _scan_min(f, ts, values, _REFINE_TOL)
    if t_star - T_MIN <= _REFINE_TOL:
        raise DomainError(f"the minimum of {which} over t at lam = {lam} may lie "
                          f"below T_MIN = {T_MIN}")
    return MinResult(float(t_star), float(value))


# ----------------------------------------------------------------------
# named constants
# ----------------------------------------------------------------------

_SUP_SCAN_POINTS = 400001    # scan of the closed-form suprema (gamma2, gamma4)
_SUP_X_MAX = 20.0            # right end of the gamma2 scan in x
_L_MAX = 64                  # last power L of the gamma_sharp_lower sweep


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


def gamma_sharp_lower(p: float) -> ConstantResult:
    """Lower bound 2 sup_{L>=1} 1/min_t B(L p, t) for the plain-grid level.

    For p <= 2 only the L = 1 term is a valid witness route; for p > 2 the
    whole power sweep applies.  The sweep stops once two successive L fail
    to improve the running best by 1e-6.  Every L reads one memoised table.
    """
    sweep = []
    best = 0.0
    stagnant = 0
    L_hi = 1 if p <= 2 else _L_MAX
    for L in range(1, L_hi + 1):
        m = minimize_over_t("B", p * L)
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
    """min_t B(lam, t) by ``minimize_over_t``; the argmax field holds
    kappa* = t* / sqrt(6/lam), which tends to about 0.225 as lam grows."""
    m = minimize_over_t("B", lam)
    cert = {"lam": lam, "t_star": m.t_star, "refine_tol": _REFINE_TOL}
    return ConstantResult(m.value, m.t_star / math.sqrt(6.0 / lam), cert)


def gamma_star_lower(p: float) -> ConstantResult:
    """Lower bound 1/min_t A(p, t) for the half-grid relative level."""
    m = minimize_over_t("A", p)
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
