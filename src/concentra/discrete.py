"""Exact and heuristic finite-group concentration constants on the q-point grid.

The plain-grid level for exponent p is the best ratio
2|f(1/q)|^p / sum_k |f(k/q)|^p over idempotents f with spectrum in
{0..q-1}; the half-grid variant measures relative concentration at 1/(2q)
over the shifted grid, under a uniform plain-grid control constant K.
``gamma_sharp`` is the one place that picks the exact plain-grid scan or
the heuristic lower bound for a given q, by the one cap ``EXHAUSTIVE_CAP``.

Both exact levels come from one exhaustive scanner over spectrum masks,
split into low and high bits whose value vectors are tabulated once
(Horowitz-Sahni), with a score function for each level.  Its search-space
reductions (each validated against an unreduced scan in the test suite):

* translation: |f_{H+d}(x)| = |f_H(x)| pointwise, so only spectra
  containing 0 are enumerated;
* target restoration: for any unit a mod q, the ratio of H at target a
  equals the ratio of (aH mod q) at target 1, and the units permute the
  non-zero residues at every q.  So the plain-grid scan skips every mask
  that some unit dilation maps to a smaller mask, scores each kept
  spectrum at every unit target, and the candidates are expanded to their
  full affine orbits before the exact re-evaluation;
* complement cut (plain grid): for |H| > q/2 the complement of H has the
  negated values off k = 0 and the smaller |f(0)| = q - |H|, so the same
  numerator and a smaller denominator; only |H| <= q/2 is scanned.  (On
  the half grid complements can tie, so there is no cut.)
* conjugate symmetry: a 0/1 spectrum has |f(k/N)| = |f((N-k)/N)| on the
  N-point grid, so only the columns 0..N/2 are evaluated, weighted by
  ``_half_weights``, and on the plain grid only the unit targets a <= q/2.

The final reported ratio is always recomputed from the witness with the
standard grid evaluator, so exhaustive results are bit-for-bit
reproducible by an independent enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError
from .trigpoly import Grid, Spectrum, eval_grid, to_coeffs

__all__ = [
    "ConcentrationReport", "StarReport", "DirichletTable",
    "ratio", "concentration_ratio", "exact_gamma_sharp",
    "heuristic_gamma_sharp", "gamma_sharp", "dirichlet_table",
    "exact_gamma_star", "star", "gamma1_decay_scan", "is_prime",
]

EXHAUSTIVE_CAP = 26      # plain-grid cap: 2^(q-1) spectra after translation pruning
STAR_CAP = 11            # half-grid cap: 2^(2q-1) spectra
_LO = 16                 # low mask bits: one scan batch is 2^16 spectra
_NEAR = 1e-7             # candidate slack before exact re-evaluation
ALGORITHM_VERSION = 7    # in the search cache key; bump when an answer may change


@dataclass(frozen=True)
class ConcentrationReport:
    q: int
    p: float
    target: int
    ratio: float
    spectrum: Spectrum
    method: str
    evaluations: int


@dataclass(frozen=True)
class StarReport:
    q: int
    p: float
    K: float
    ratio_star: float
    cond_K_ok: bool
    spectrum: Spectrum
    method: str
    evaluations: int


@dataclass(frozen=True)
class DirichletTable:
    q: int
    p: float
    rows: tuple          # (n, ratio) for interval spectra {0..n-1}
    best_n: int
    best: float


def _pow_abs(m: np.ndarray, p: float, n: int) -> np.ndarray:
    """m^p for values 0 <= m <= n, for a grid score: a ratio of such powers
    summed along the last axis.  The moduli of grid values on an n-point
    grid are at most n; the ascent passes squared moduli, at most q^2, with
    the exponent halved.

    The plain power cannot overflow while p ln n < 700.
    Above that guard, a row whose plain power sum is not finite is divided
    by its maximum before the power, which leaves its ratios unchanged;
    every other row is the plain power.
    """
    if p == 1.0:
        return m
    if p == 2.0:
        return m * m
    if p == 4.0:
        m2 = m * m
        return m2 * m2
    if p * math.log(n) < 700:
        return m ** p
    with np.errstate(over="ignore"):
        mp = m ** p
        big = ~np.isfinite(mp.sum(axis=-1))
    if np.any(big):
        top = m[big]
        mp[big] = (top / top.max(axis=-1, keepdims=True)) ** p
    return mp


def ratio(values: np.ndarray, p: float, target: int) -> float:
    """2|values[target]|^p / sum_k |values[k]|^p (0 for the zero function)."""
    q = len(values)
    if not (1 <= target < q):
        raise DomainError(f"target must lie in [1, {q-1}]")
    mp = _pow_abs(np.abs(values), p, q)
    denom = float(np.sum(mp))
    if denom == 0.0:
        return 0.0
    return 2.0 * float(mp[target]) / denom


def concentration_ratio(spec: Spectrum, p: float, target: int = 1) -> float:
    """Standard witness evaluator; the single arithmetic path every search
    result is reported through (keeps exhaustive rows bit-reproducible)."""
    vals = eval_grid(to_coeffs(spec), Grid(spec.degree_bound))
    return ratio(vals, p, target)


def _units(q: int) -> np.ndarray:
    return np.array([a for a in range(1, q) if math.gcd(a, q) == 1], dtype=np.int64)


def _canonical_weights(q: int):
    """Bit-permutation weight matrix for dilation-orbit canonicality: column
    j is the unit c = _units(q)[j + 1] (every unit but 1), and W[i - 1, j]
    is the mask bit of frequency c * i mod q."""
    return 1 << (np.outer(np.arange(1, q), _units(q)[1:]) % q - 1)


def _bit_table(n: int) -> np.ndarray:
    """Row m holds the n bits of m, least significant first."""
    return (np.arange(1 << n)[:, None] >> np.arange(n)) & 1


def _scan(E, lead, score, W=None, limit=None):
    """Exhaustive scan of the spectra of the value matrix E (row h = e(h x)).

    Mask bit i selects row i + 1 if ``lead`` (row 0 always in: translation
    pruning), else row i.  With value tables T of the low ``_LO`` bits and H
    of the rest, batch h is ``T + H[h]``.  The low table is sorted by
    popcount, so the masks of popcount <= ``limit`` (complement cut) are a
    prefix of each batch.  Under dilation weights ``W`` a mask that a
    dilation maps lower is skipped; permuted masks split the same way, and
    dilations keep popcount.  ``score`` maps a batch to a (spectra x
    targets) array.  Returns the spectra whose best target is within
    ``_NEAR`` of the best score, and the number of (spectrum, target)
    evaluations.
    """
    rows = np.arange(1 if lead else 0, len(E))
    lo = min(len(rows), _LO)
    bits_lo, bits_hi = _bit_table(lo), _bit_table(len(rows) - lo)
    pop_lo = bits_lo.sum(axis=1)
    low = np.argsort(pop_lo, kind="stable")
    bits_lo = bits_lo[low]
    # ends[j]: the number of low masks of popcount <= j
    ends = np.cumsum(np.bincount(pop_lo, minlength=lo + 1))
    pop_hi = bits_hi.sum(axis=1)
    if limit is None:
        limit = len(rows)
    T = bits_lo @ E[rows[:lo]]
    if lead:
        T += E[0]
    H = bits_hi @ E[rows[lo:]]
    if W is not None:
        P_lo, P_hi = bits_lo @ W[:lo], bits_hi @ W[lo:]
    best, pool, evals = -1.0, [], 0
    for h in range(len(H)):
        room = limit - int(pop_hi[h])
        if room < 0:
            continue
        n = int(ends[min(room, lo)])
        masks, V = (h << lo) | low[:n], T[:n] + H[h]
        if W is not None:
            # no column (q = 2): the identity is the only dilation
            keep = masks <= (P_lo[:n] + P_hi[h]).min(axis=1, initial=1 << len(rows))
            masks, V = masks[keep], V[keep]
            if len(masks) == 0:
                continue
        R = score(V)
        evals += R.size
        R = R.max(axis=1)
        best = max(best, float(R.max()))
        r = np.nonzero(R >= best - _NEAR)[0]
        pool.extend(zip(R[r].tolist(), masks[r].tolist()))
    head = [0] if lead else []

    def spectrum(m):
        return Spectrum(tuple(head + [int(r) for i, r in enumerate(rows) if m >> i & 1]),
                        len(E))

    return [spectrum(m) for s, m in pool if s >= best - _NEAR], evals


def _orbit(spec: Spectrum, dilate: bool):
    """Members of the affine orbit, with repeats: translations, times the
    unit dilations if ``dilate``."""
    q = spec.degree_bound
    for c in (_units(q).tolist() if dilate else [1]):
        for d in range(q):
            yield tuple(sorted((c * h + d) % q for h in spec.freqs))


def _best_of(specs, dilate: bool, value):
    """Exact re-evaluation of near-max candidates, expanded to full orbits.

    Returns (top value, lexicographically least witness freqs, evaluations).
    """
    finals = {}
    for spec in specs:
        for freqs in _orbit(spec, dilate):
            if freqs not in finals:
                finals[freqs] = value(Spectrum(freqs, spec.degree_bound))
    top = max(finals.values())
    return top, min(fr for fr, v in finals.items() if v == top), len(finals)


def is_prime(q: int) -> bool:
    """Trial division: whether q is a prime."""
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


def _check_p(p: float) -> None:
    if not (0 < p < math.inf):
        raise DomainError(f"need finite p > 0, got {p}")


def exact_gamma_sharp(q: int, p: float, use_pruning: bool = True) -> ConcentrationReport:
    """Exact plain-grid level at target 1 by exhaustive scan.

    ``use_pruning`` controls dilation-orbit dedup; without it the scan is
    the plain enumeration the tests compare against, scored at target 1
    only.  Translation reduction, the complement cut and conjugate symmetry
    are always applied.  Raises BudgetError beyond ``EXHAUSTIVE_CAP``.
    """
    if q < 2:
        raise DomainError("need q >= 2")
    _check_p(p)
    if q > EXHAUSTIVE_CAP:
        raise BudgetError(
            f"exhaustive search capped at q <= {EXHAUSTIVE_CAP} (2^{q-1} spectra); "
            f"use mode auto or heuristic for q = {q}")
    E = _half_table(q)
    units = _units(q) if use_pruning else np.array([1])
    units = units[2 * units <= q]    # target q - a scores as target a
    w = _half_weights(q)

    def score(V):
        mp = _pow_abs(np.abs(V), p, q)
        return 2.0 * mp[:, units] / (mp @ w)[:, None]

    W = _canonical_weights(q) if use_pruning else None
    pool, evals = _scan(E, True, score, W, limit=q // 2 - 1)
    # the ratio at target a is the ratio of a * spectrum at target 1: the
    # unit orbits of the candidates hold every such witness
    top, witness, n = _best_of(pool, True, lambda s: concentration_ratio(s, p, 1))
    return ConcentrationReport(q, p, 1, top, Spectrum(witness, q), "exhaustive",
                               evals + n)


def dirichlet_table(q: int, p: float) -> DirichletTable:
    """Ratios of all interval spectra {0..n-1}, n = 1..q-1, at target 1."""
    if q < 2:
        raise DomainError("need q >= 2")
    k = np.arange(1, q)
    s = np.sin(np.pi * k / q)
    n = np.arange(1, q)
    M = np.empty((q - 1, q))
    M[:, 0] = n
    M[:, 1:] = np.abs(np.sin(np.pi * np.outer(n, k) / q)) / s[None, :]
    mp = _pow_abs(M, p, q)
    ratios = 2.0 * mp[:, 1] / mp.sum(axis=1)
    i = int(np.argmax(ratios))
    rows = tuple((int(nn), float(rr)) for nn, rr in zip(n, ratios))
    return DirichletTable(q, p, rows, int(n[i]), float(ratios[i]))


def _half_table(q: int) -> np.ndarray:
    """The q x (q//2 + 1) table e(h j / q) of every frequency h at the grid
    points j = 0..q//2, which hold a conjugate-symmetric grid function."""
    k = np.arange(q)
    return np.exp(2j * np.pi * np.outer(k, k[:q // 2 + 1]) / q)


def _half_weights(q: int) -> np.ndarray:
    """Weights of the columns 0..q//2 that sum a conjugate-symmetric grid
    function over all q points: 1, 2, ..., 2, and 1 at q/2 for even q."""
    k = np.arange(q // 2 + 1)
    return np.where((k == 0) | (2 * k == q), 1.0, 2.0)


def _ascend(q, p, E, start_set, max_steps=None):
    """Deterministic steepest-ascent over single-frequency flips, target 1.

    ``E`` holds the columns 0..q//2 of e(hk/q), enough for 0/1 coefficients
    as |f(k/q)| = |f((q-k)/q)|.  Flipping h adds 1 + sign_h 2 Re(conj(c_k)
    e(hk/q)) to |c_k|^2, so a step scores all q flips from the real tables
    2 Re E and 2 Im E (row h negated while h is in).  The value vector is
    rebuilt exactly after each accepted flip, and any denominator below 1/2
    is treated as the zero polynomial (a nonempty spectrum always has grid
    p-sum >= |f(0)|^p >= 1), so cancellation dust can never win a step.
    """
    w = _half_weights(q)
    members = np.zeros(q, dtype=bool)
    members[list(start_set)] = True
    sign = np.where(members, -1.0, 1.0)[:, None]
    C2, S2 = 2.0 * E.real * sign, 2.0 * E.imag * sign
    A, T = np.empty_like(C2), np.empty_like(C2)
    evals = 0
    if max_steps is None:
        max_steps = 4 * q

    def score(mp):
        d = mp @ w
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(d >= 0.5, 2.0 * mp[..., 1] / d, 0.0)

    def rebuild():
        cur = E[members].sum(axis=0)
        a2 = cur.real * cur.real + cur.imag * cur.imag
        return cur, a2, float(score(_pow_abs(a2, p / 2, q * q)))

    cur, a2, cur_score = rebuild()
    for _ in range(max_steps):
        np.multiply(C2, cur.real, out=A)
        A += np.multiply(S2, cur.imag, out=T)
        A += a2 + 1.0
        if p != 2.0:
            np.maximum(A, 0.0, out=A)     # rounding dust below 0
        sc = score(_pow_abs(A, p / 2, q * q))
        evals += q
        h = int(np.argmax(sc))
        if sc[h] <= cur_score + 1e-15:
            break
        members[h] = not members[h]
        C2[h], S2[h] = -C2[h], -S2[h]
        cur, a2, cur_score = rebuild()
    return np.nonzero(members)[0], cur_score, evals


def heuristic_gamma_sharp(q: int, p: float, restarts: int = 4,
                          seed: int = 0) -> ConcentrationReport:
    """Lower-bound search for the plain-grid level when 2^q is infeasible.

    Every interval spectrum is a candidate, scored from the Dirichlet
    table (so the result always dominates it); steepest ascent runs from
    the best few intervals and from ``restarts`` seeded random spectra.
    The reported ratio is the witness re-evaluated by
    ``concentration_ratio``.  Deterministic for a fixed seed.
    """
    if q < 3:
        raise DomainError("need q >= 3")
    _check_p(p)
    if restarts < 0:
        raise DomainError(f"need restarts >= 0, got {restarts}")
    E = _half_table(q)
    table = dirichlet_table(q, p)
    evals = q - 1
    order = sorted(table.rows, key=lambda r: -r[1])
    n_ascents = (q - 1) if q <= 64 else (8 if q <= 1024 else 3)

    def starts():
        """(start, step cap): the best intervals, then random spectra drawn lazily."""
        yield from ((tuple(range(n)), None) for n, _ in order[:n_ascents])
        rng = np.random.default_rng(seed)
        for _ in range(restarts):
            density = rng.uniform(0.05, 0.6)
            mask = rng.random(q) < density
            mask[0] = True
            # random starts sit far from any optimum; cap their walk at large q
            yield tuple(np.nonzero(mask)[0]), (64 if q > 512 else None)
    best_set = None
    best_score = -1.0
    for st, cap in starts():
        members, sc, ev = _ascend(q, p, E, st, max_steps=cap)
        evals += ev
        if sc > best_score:
            best_score = sc
            best_set = tuple(int(h) for h in members)
    for n, r in table.rows:
        if r > best_score:
            best_score, best_set = r, tuple(range(n))
    witness = Spectrum(best_set, q)
    final = concentration_ratio(witness, p, 1)
    return ConcentrationReport(q, p, 1, final, witness, "heuristic", evals)


def gamma_sharp(q: int, p: float, *, mode: str = "auto", restarts: int = 4,
                seed: int = 0) -> ConcentrationReport:
    """The plain-grid level at target 1.  Mode ``auto`` is exact for
    q <= ``EXHAUSTIVE_CAP`` and the heuristic lower bound (``restarts``,
    ``seed``) beyond; ``exhaustive`` and ``heuristic`` force either one,
    and ``exhaustive`` beyond the cap raises the exact scan's BudgetError."""
    if mode not in ("auto", "exhaustive", "heuristic"):
        raise DomainError(f"unknown mode {mode!r}")
    if restarts < 0:
        raise DomainError(f"need restarts >= 0, got {restarts}")
    if mode == "exhaustive" or (mode == "auto" and q <= EXHAUSTIVE_CAP):
        return exact_gamma_sharp(q, p)
    return heuristic_gamma_sharp(q, p, restarts=restarts, seed=seed)


def star(spec: Spectrum, p: float, K: float):
    """(level, 2|v_1|^p, star sum, plain sum) of one spectrum on the Q-point
    grid, Q = ``spec.degree_bound``: the half-grid level at control constant K."""
    Q = spec.degree_bound
    vals = eval_grid(to_coeffs(spec), Grid(Q))
    mp = _pow_abs(np.abs(vals), p, Q)
    num = 2.0 * float(mp[1])
    ds = float(mp[1::2].sum())
    dp = float(mp[0::2].sum())
    if num == 0.0 or ds == 0.0:
        g = 0.0
    else:
        g = min(num / ds, K * num / dp) if dp > 0 else num / ds
    return g, num, ds, dp


def exact_gamma_star(q: int, p: float, K: float = 1e4,
                     use_pruning: bool = True) -> StarReport:
    """Exact half-grid relative level with plain-grid control constant K.

    Enumerates spectra in {0..2q-1}; for each the admissible constant is
    min(2|v_1|^p / sum_star, K * 2|v_1|^p / sum_plain) where v is the value
    vector on the 2q-point grid, star points are the odd indices and the
    target is index 1 (the point 1/(2q)).
    """
    if q < 2:
        raise DomainError("need q >= 2")
    _check_p(p)
    if not (0 < K < math.inf):
        raise DomainError(f"need finite K > 0, got {K}")
    if q > STAR_CAP:
        raise BudgetError(f"half-grid exhaustive search capped at q <= {STAR_CAP}")
    Q = 2 * q
    E = _half_table(Q)
    w = _half_weights(Q)
    odd = np.arange(q + 1) % 2
    w_odd, w_even = w * odd, w * (1 - odd)

    def score(V):
        mp = _pow_abs(np.abs(V), p, Q)
        num = 2.0 * mp[:, 1]
        d_star = mp @ w_odd
        d_plain = mp @ w_even
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where(d_star > 0, num / d_star, 0.0)
            g2 = np.where(d_plain > 0, K * num / d_plain, np.inf)
            g = np.minimum(g, np.where(num > 0, g2, 0.0))
        return g[:, None]

    pool, evals = _scan(E, use_pruning, score)
    top, witness, n = _best_of(pool, False, lambda s: star(s, p, K)[0])
    witness = Spectrum(witness, Q)
    # recheck both defining inequalities at the reported constant
    _, num, ds, dp = star(witness, p, K)
    ok = num + 1e-12 >= top * ds and num + 1e-12 >= (top / K) * dp
    return StarReport(q, p, K, top, bool(ok), witness, "exhaustive", evals + n)


def gamma1_decay_scan(primes, *, restarts: int = 4, seed: int = 0) -> list:
    """Integral-norm (p=1) level decay study over a list of primes.

    Each row's level is ``gamma_sharp`` in mode ``auto``: exact up to
    ``EXHAUSTIVE_CAP``, heuristic beyond; every row also carries the best
    Dirichlet-interval witness and the two decay diagnostics.  The liminf
    exponent itself is reported as data, never asserted.
    """
    rows = []
    for q in sorted(primes):
        if q < 3 or not is_prime(q):
            raise DomainError(f"decay scan needs primes >= 3, got {q}")
        dir_best = dirichlet_table(q, 1.0)
        rep = gamma_sharp(q, 1.0, restarts=restarts, seed=seed)
        g = rep.ratio
        rows.append({
            "q": q,
            "method": rep.method,
            "gamma1_hat": g,
            "dirichlet_best": dir_best.best,
            "gamma1_hat_log_q": g * math.log(q),
            "beta_diagnostic": math.log(1.0 / g) / math.log(math.log(q)),
            "witness": list(rep.spectrum.freqs),
        })
    return rows
