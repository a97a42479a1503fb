"""Exact and heuristic finite-group concentration constants on the q-point grid.

The plain-grid level for exponent p is the best ratio
2|f(1/q)|^p / sum_k |f(k/q)|^p over idempotents f with spectrum in
{0..q-1}; the half-grid variant measures relative concentration at 1/(2q)
over the shifted grid, under a uniform plain-grid control constant K.
``gamma_sharp`` is the one place that picks the exact plain-grid scan or
the heuristic lower bound for a given q, by the one cap ``EXHAUSTIVE_CAP``
(``is_exact`` tells which it takes).

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

The heuristic's single-flip ascent adds one reduction of its own:

* Parseval (p = 2): sum_k |f(k/q)|^2 = q sum_h |c_h|^2 = q|H| for a 0/1
  spectrum H (the characters are orthogonal on the grid), so a flip of h
  has the exact denominator q(|H| +- 1), and the ascent scores all q
  flips from the column e(h/q) alone, with no table.

The final reported ratio is always recomputed from the witness with the
standard grid evaluator, so exhaustive results are bit-for-bit
reproducible by an independent enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _blocks, _parallel
from .errors import BudgetError, DomainError
from .trigpoly import Grid, Spectrum, eval_grid, to_coeffs

__all__ = [
    "ConcentrationReport", "StarReport", "DirichletTable",
    "ratio", "concentration_ratio", "exact_gamma_sharp",
    "heuristic_gamma_sharp", "gamma_sharp", "is_exact", "dirichlet_table",
    "exact_gamma_star", "exact_gamma_stars", "star", "gamma1_decay_scan",
    "odd_primes_up_to",
]

EXHAUSTIVE_CAP = 26      # plain-grid cap: 2^(q-1) spectra after translation pruning
STAR_CAP = 11            # half-grid cap: 2^(2q-1) spectra
_LO = 16                 # low mask bits: one scan batch is 2^16 spectra
_BLOCK = 64              # table rows per block of the ascent and the Dirichlet table
_POOL_Q = 512            # the least q whose ascents run on the pool, a range each
_PRE = 4                 # dilations that filter a whole scan batch first
_NEAR = 1e-7             # candidate slack before exact re-evaluation
_TABLE_BYTES = 2 ** 30   # cap of the complex frequency table: q <= 11584
ALGORITHM_VERSION = 9    # in the search cache key; bump when an answer may change


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


def _check_positive(name: str, x: float) -> None:
    if not (0 < x < math.inf):
        raise DomainError(f"need finite {name} > 0, got {x}")


def _check_ascent(restarts: int, seed: int) -> None:
    if restarts < 0:
        raise DomainError(f"need restarts >= 0, got {restarts}")
    if seed < 0:
        raise DomainError(f"need seed >= 0, got {seed}")


def ratio(values: np.ndarray, p: float, target: int) -> float:
    """2|values[target]|^p / sum_k |values[k]|^p (0 for the zero function)."""
    q = len(values)
    if not (1 <= target < q):
        raise DomainError(f"target must lie in [1, {q-1}]")
    _check_positive("p", p)
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
    """Row m holds the n bits of m, least significant first, as bytes: the
    scan keeps the low table through its batches (1 MiB at n = 16)."""
    return ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.uint8)


def _scan(E, score, W=None, limit=math.inf):
    """Exhaustive scan of the spectra of the value matrix E (row h = e(h x))
    that hold frequency 0 (translation pruning): mask bit i selects row
    i + 1.  With value tables T of the low ``_LO`` bits and H of the rest,
    batch h is ``T + H[h]``.  The low table is sorted by popcount, so the
    masks of popcount <= ``limit`` (complement cut) are a prefix of each
    batch.  Under dilation weights ``W`` a mask that a dilation maps lower
    is skipped; permuted masks split the same way, and dilations keep
    popcount.  ``score`` maps a batch to one (spectra x targets) array per
    group, each group a score of its own; it may yield them one at a time,
    and the next batch may overwrite this one.  Returns, for each group,
    the spectra whose best target is within ``_NEAR`` of the group's best
    score, and the number of (spectrum, target) evaluations, counted once
    for all groups.
    """
    lo = min(len(E) - 1, _LO)
    bits_lo, bits_hi = _bit_table(lo), _bit_table(len(E) - 1 - lo)
    pop_lo = bits_lo.sum(axis=1)
    low = np.argsort(pop_lo, kind="stable")
    bits_lo = bits_lo[low]
    # ends[j]: the number of low masks of popcount <= j
    ends = np.cumsum(np.bincount(pop_lo, minlength=lo + 1))
    pop_hi = bits_hi.sum(axis=1)
    T = bits_lo @ E[1:lo + 1]
    T += E[0]
    H = bits_hi @ E[lo + 1:]
    if W is not None:
        # mask (h << lo) | low[i] is no greater than its image under the
        # dilation of column c iff D[c, i] <= U[h, c]; the first _PRE
        # columns, spread over the units, filter the whole batch, and the
        # others test only the masks that are left
        cols = W.shape[1]
        spread = np.linspace(0, cols - 1, min(_PRE, cols)).astype(int)
        order = np.concatenate([spread, np.setdiff1d(np.arange(cols), spread)])
        # D in (-2^25, 2^16) and U in (-2^25, 2^25) are int32 for q <= 26
        D = W[:lo, order].T.astype(np.int32) @ bits_lo.T.astype(np.int32)
        np.subtract(low, D, out=D)
        U = (bits_hi @ W[lo:, order] - (np.arange(len(H)) << lo)[:, None]).astype(np.int32)
    best, pools, evals = {}, {}, 0
    # an unpruned batch is formed in one buffer kept through the scan; a
    # pruned one is a copy of its kept rows, summed in place
    batch = np.empty_like(T) if W is None else None
    for h in range(len(H)):
        room = limit - int(pop_hi[h])
        if room < 0:
            continue
        n = int(ends[min(room, lo)])
        masks = (h << lo) | low[:n]
        if W is None:
            V = np.add(T[:n], H[h], out=batch[:n])
        else:
            # no column (q = 2): the identity is the only dilation
            ok = np.ones(n, dtype=bool)
            for c in range(len(spread)):
                ok &= D[c, :n] <= U[h, c]
            kept = np.nonzero(ok)[0]
            for c in range(len(spread), cols):
                kept = kept[D[c, kept] <= U[h, c]]
            if len(kept) == 0:
                continue
            masks, V = masks[kept], T[kept]
            V += H[h]
        for g, R in enumerate(score(V)):
            if g == 0:
                evals += R.size
            R = R.max(axis=1)
            top = best[g] = max(best.get(g, -1.0), float(R.max()))
            r = np.nonzero(R >= top - _NEAR)[0]
            pools.setdefault(g, []).extend(zip(R[r].tolist(), masks[r].tolist()))

    def spectrum(m):
        return Spectrum((0,) + tuple(i + 1 for i in range(len(E) - 1) if m >> i & 1), len(E))

    return [[spectrum(m) for s, m in pool if s >= best[g] - _NEAR]
            for g, pool in pools.items()], evals


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


def exact_gamma_sharp(q: int, p: float, use_pruning: bool = True) -> ConcentrationReport:
    """Exact plain-grid level at target 1 by exhaustive scan.

    ``use_pruning`` controls dilation-orbit dedup; without it the scan is
    the plain enumeration the tests compare against, scored at target 1
    only.  Translation reduction, the complement cut and conjugate symmetry
    are always applied.  Raises BudgetError beyond ``EXHAUSTIVE_CAP``.
    """
    if q < 2:
        raise DomainError("need q >= 2")
    _check_positive("p", p)
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
        return [2.0 * mp[:, units] / (mp @ w)[:, None]]

    W = _canonical_weights(q) if use_pruning else None
    (pool,), evals = _scan(E, score, W, limit=q // 2 - 1)
    # the ratio at target a is the ratio of a * spectrum at target 1: the
    # unit orbits of the candidates hold every such witness
    top, witness, n = _best_of(pool, True, lambda s: concentration_ratio(s, p, 1))
    return ConcentrationReport(q, p, 1, top, Spectrum(witness, q), "exhaustive",
                               evals + n)


def dirichlet_table(q: int, p: float) -> DirichletTable:
    """Ratios of all interval spectra {0..n-1}, n = 1..q-1, at target 1,
    built one block of ``_BLOCK`` rows at a time (each row is summed on its
    own)."""
    if q < 2:
        raise DomainError("need q >= 2")
    _check_positive("p", p)
    n = np.arange(1, q)      # the interval lengths, and the grid points k
    s = np.sin(np.pi * n / q)
    ratios = np.empty(q - 1)
    for i, j in _blocks(q - 1, _BLOCK):
        M = np.empty((j - i, q))
        M[:, 0] = n[i:j]
        M[:, 1:] = np.abs(np.sin(np.pi * np.outer(n[i:j], n) / q)) / s[None, :]
        mp = _pow_abs(M, p, q)
        ratios[i:j] = 2.0 * mp[:, 1] / mp.sum(axis=1)
    i = int(np.argmax(ratios))
    rows = tuple((int(nn), float(rr)) for nn, rr in zip(n, ratios))
    return DirichletTable(q, p, rows, int(n[i]), float(ratios[i]))


def _check_table_budget(q: int) -> None:
    """Raise BudgetError when the table of ``_half_table(q)`` would pass
    ``_TABLE_BYTES``."""
    size = q * (q // 2 + 1) * 16
    if size > _TABLE_BYTES:
        raise BudgetError(f"the frequency table at q = {q} needs {size} bytes, "
                          f"over the cap of {_TABLE_BYTES}")


def _half_table(q: int) -> np.ndarray:
    """The q x (q//2 + 1) table e(h j / q) of every frequency h at the grid
    points j = 0..q//2, which hold a conjugate-symmetric grid function.
    Built one block of ``_BLOCK`` rows at a time (its entries are those of
    the whole-table expression, element by element), and read-only, so the
    scans and the ascents can share it."""
    _check_table_budget(q)
    k = np.arange(q)
    E = np.empty((q, q // 2 + 1), dtype=complex)
    for i, j in _blocks(q, _BLOCK):
        E[i:j] = np.exp(2j * np.pi * np.outer(k[i:j], k[:q // 2 + 1]) / q)
    E.flags.writeable = False
    return E


def _half_weights(q: int) -> np.ndarray:
    """Weights of the columns 0..q//2 that sum a conjugate-symmetric grid
    function over all q points: 1, 2, ..., 2, and 1 at q/2 for even q."""
    k = np.arange(q // 2 + 1)
    return np.where((k == 0) | (2 * k == q), 1.0, 2.0)


def _flip_score(num, d):
    """The ascent's score 2 num / d, where num is the target's term and d
    the grid sum; 0 where d is below 1/2, which only the zero polynomial
    reaches (a nonempty spectrum has grid p-sum >= |f(0)|^p >= 1), so
    cancellation dust can never win a step."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(d >= 0.5, 2.0 * num / d, 0.0)


def _ascend(q, p, E, start_set, max_steps=None):
    """Deterministic steepest-ascent over single-frequency flips, target 1.

    Flipping h adds 1 + sign_h 2 Re(conj(c_k) e(hk/q)) to |c_k|^2, with
    sign_h = -1 on the h of the spectrum H.  At p = 2 ``E`` is the column
    e(h/q) alone, and a step scores all q flips in O(q): by Parseval a
    flip's denominator is the exact q(|H| +- 1), and each numerator is
    formed from c_1 as in column 1 of the table step.  The rebuild after
    an accepted flip sums c_1 alone, in one 1-D reduction over the column,
    whose order is not the table's row-by-row one (c_1 may differ from the
    table's in its last bits).  At every other p ``E`` holds the columns
    0..q//2 of e(hk/q), enough for 0/1 coefficients as |f(k/q)| =
    |f((q-k)/q)|, and a step scores the flips from the whole table, as its
    real view, (Re, Im) interleaved, times (2 Re c, 2 Im c), summed in
    pairs and negated on the rows of H (the 2 and the sign are exact), one
    block of ``_BLOCK`` rows at a time in reused buffers; the value vector
    is rebuilt exactly after each accepted flip.  ``E`` is only read, so
    ascents may share it.
    """
    members = np.zeros(q, dtype=bool)
    members[list(start_set)] = True
    F = E.view(np.float64)
    sc = np.empty(q)
    evals = 0
    if max_steps is None:
        max_steps = 4 * q

    if p == 2.0:
        def rebuild():
            c = np.add.reduce(E, where=members, initial=0.0)
            a2 = c.real * c.real + c.imag * c.imag
            return c, a2, float(_flip_score(a2, q * np.count_nonzero(members)))

        def step(c, a2):
            # column 1 of the table step below, over q(|H| +- 1)
            a = F[0::2] * (2.0 * c.real) + F[1::2] * (2.0 * c.imag)
            np.negative(a, out=a, where=members)
            a += a2 + 1.0
            n = np.count_nonzero(members) + np.where(members, -1.0, 1.0)
            sc[:] = _flip_score(a, q * n)
    else:
        w = _half_weights(q)
        blocks = _blocks(q, _BLOCK)
        rows = max(j - i for i, j in blocks)
        A, T = np.empty((rows, E.shape[1])), np.empty((rows, F.shape[1]))

        def rebuild():
            cur = np.add.reduce(E, axis=0, where=members[:, None], initial=0.0)
            a2 = cur.real * cur.real + cur.imag * cur.imag
            mp = _pow_abs(a2, p / 2, q * q)
            return cur, a2, float(_flip_score(mp[1], mp @ w))

        def step(cur, a2):
            a2p1 = a2 + 1.0
            c2 = 2.0 * cur.view(np.float64)
            for i, j in blocks:
                a, t = A[:j - i], T[:j - i]
                np.multiply(F[i:j], c2, out=t)
                np.add(t[:, 0::2], t[:, 1::2], out=a)
                np.negative(a, out=a, where=members[i:j, None])
                a += a2p1
                np.maximum(a, 0.0, out=a)     # rounding dust below 0
                mp = _pow_abs(a, p / 2, q * q)
                sc[i:j] = _flip_score(mp[:, 1], mp @ w)

    cur, a2, cur_score = rebuild()
    for _ in range(max_steps):
        step(cur, a2)
        evals += q
        h = int(np.argmax(sc))
        if sc[h] <= cur_score + 1e-15:
            break
        members[h] = not members[h]
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
    _check_positive("p", p)
    _check_ascent(restarts, seed)
    _check_table_budget(q)      # before any O(q^2) work
    table = dirichlet_table(q, p)
    order = sorted(table.rows, key=lambda r: -r[1])
    n_ascents = (q - 1) if q <= 64 else (8 if q <= 1024 else 3)
    # (start, step cap): the best intervals, then the seeded random spectra
    starts = [(range(n), None) for n, _ in order[:n_ascents]]
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        density = rng.uniform(0.05, 0.6)
        mask = rng.random(q) < density
        mask[0] = True
        # random starts sit far from any optimum; cap their walk at large q
        starts.append((np.nonzero(mask)[0], 64 if q > 512 else None))
    # at p = 2 the ascents read column 1 alone, with the bits of the table's
    E = np.exp(2j * np.pi * np.arange(q) / q) if p == 2.0 else _half_table(q)
    walks = [None] * len(starts)

    def ascend(lo, hi):
        for i in range(lo, hi):
            walks[i] = _ascend(q, p, E, *starts[i])

    # a range a start from q = _POOL_Q (below it GIL handoffs outlast a
    # step); the walks are combined in start order, as in a serial loop
    _parallel(ascend, _blocks(len(starts), 1 if q >= _POOL_Q else len(starts)))
    best_set, best_score, evals = None, -1.0, q - 1
    for members, sc, ev in walks:
        evals += ev
        if sc > best_score:
            best_score = sc
            best_set = tuple(int(h) for h in members)
    if table.best > best_score:      # the shortest best interval beats every walk
        best_set = tuple(range(table.best_n))
    witness = Spectrum(best_set, q)
    final = concentration_ratio(witness, p, 1)
    return ConcentrationReport(q, p, 1, final, witness, "heuristic", evals)


def is_exact(q: int, mode: str) -> bool:
    """Whether ``gamma_sharp`` in ``mode`` takes the exact scan at q, which
    reads neither ``restarts`` nor ``seed``."""
    return mode == "exhaustive" or (mode == "auto" and q <= EXHAUSTIVE_CAP)


def gamma_sharp(q: int, p: float, *, mode: str = "auto", restarts: int = 4,
                seed: int = 0) -> ConcentrationReport:
    """The plain-grid level at target 1.  Mode ``auto`` is exact for
    q <= ``EXHAUSTIVE_CAP`` and the heuristic lower bound (``restarts``,
    ``seed``) beyond; ``exhaustive`` and ``heuristic`` force either one,
    and ``exhaustive`` beyond the cap raises the exact scan's BudgetError."""
    if mode not in ("auto", "exhaustive", "heuristic"):
        raise DomainError(f"unknown mode {mode!r}")
    _check_ascent(restarts, seed)
    if is_exact(q, mode):
        return exact_gamma_sharp(q, p)
    return heuristic_gamma_sharp(q, p, restarts=restarts, seed=seed)


def _star_level(num, d_star, d_plain, K):
    """Half-grid level min(num / d_star, K num / d_plain) of arrays or numpy
    scalars: 0 where num or d_star is 0, num / d_star where d_plain is 0.
    A K num that overflows is larger than the finite num / d_star, so the
    min never takes it."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = np.where(d_star > 0, num / d_star, 0.0)
        g2 = np.where(d_plain > 0, K * num / d_plain, np.inf)
        return np.minimum(g, np.where(num > 0, g2, 0.0))


def star(spec: Spectrum, p: float, K: float):
    """(level, 2|v_1|^p, star sum, plain sum) of one spectrum on the Q-point
    grid, Q = ``spec.degree_bound``: the half-grid level at control constant K."""
    _check_positive("p", p)
    _check_positive("K", K)
    Q = spec.degree_bound
    vals = eval_grid(to_coeffs(spec), Grid(Q))
    mp = _pow_abs(np.abs(vals), p, Q)
    num = 2.0 * mp[1]
    ds = mp[1::2].sum()
    dp = mp[0::2].sum()
    return float(_star_level(num, ds, dp, K)), float(num), float(ds), float(dp)


def exact_gamma_star(q: int, p: float, K: float = 1e4) -> StarReport:
    """Exact half-grid relative level with plain-grid control constant K.

    Enumerates spectra in {0..2q-1}; for each the admissible constant is
    min(2|v_1|^p / sum_star, K * 2|v_1|^p / sum_plain) where v is the value
    vector on the 2q-point grid, star points are the odd indices and the
    target is index 1 (the point 1/(2q)).
    """
    return exact_gamma_stars(q, p, (K,))[0]


def exact_gamma_stars(q: int, p: float, Ks) -> tuple:
    """``exact_gamma_star`` at each control constant of ``Ks``, in order, from
    one scan, a score group a K: only the last step of a level reads K.
    Each report is the one ``exact_gamma_star`` returns at its K.  Every K
    is checked, in order, before the scan."""
    Ks = tuple(Ks)
    if q < 2:
        raise DomainError("need q >= 2")
    _check_positive("p", p)
    if not Ks:
        raise DomainError("need at least one K")
    for K in Ks:
        _check_positive("K", K)
    if q > STAR_CAP:
        raise BudgetError(f"half-grid exhaustive search capped at q <= {STAR_CAP}")
    Q = 2 * q
    E = _half_table(Q)
    w = _half_weights(Q)
    odd = np.arange(q + 1) % 2
    w_odd, w_even = w * odd, w * (1 - odd)

    def score(V):
        # a K at a time: the levels of one K are dropped before the next
        mp = _pow_abs(np.abs(V), p, Q)
        num, ds, dp = 2.0 * mp[:, 1], mp @ w_odd, mp @ w_even
        for K in Ks:
            yield _star_level(num, ds, dp, K)[:, None]

    pools, evals = _scan(E, score)
    reports = []
    for K, pool in zip(Ks, pools):
        top, witness, n = _best_of(pool, False, lambda s: star(s, p, K)[0])
        witness = Spectrum(witness, Q)
        # recheck both defining inequalities at the reported constant
        _, num, ds, dp = star(witness, p, K)
        # with a relative slack: num is 2|v_1|^p, as large as (2q)^p
        slack = num * (1 + 1e-12)
        ok = slack >= top * ds and slack >= (top / K) * dp
        reports.append(StarReport(q, p, K, top, bool(ok), witness, "exhaustive",
                                  evals + n))
    return tuple(reports)


def odd_primes_up_to(n: int) -> list:
    """The odd primes up to n, each above ``EXHAUSTIVE_CAP`` checked against
    its frequency table budget as it is found, as ``gamma1_decay_scan``
    checks it: the first prime past the budget raises BudgetError before
    any larger q is tried."""
    primes = []
    for q in filter(is_prime, range(3, n + 1)):
        if q > EXHAUSTIVE_CAP:
            _check_table_budget(q)
        primes.append(q)
    return primes


def gamma1_decay_scan(primes, *, restarts: int = 4, seed: int = 0) -> list:
    """Integral-norm (p=1) level decay study over a list of primes.

    Each row's level is ``gamma_sharp`` in mode ``auto``: exact up to
    ``EXHAUSTIVE_CAP``, heuristic beyond; every row also carries the best
    Dirichlet-interval witness and the two decay diagnostics.  The liminf
    exponent itself is reported as data, never asserted.  Rows above
    ``EXHAUSTIVE_CAP`` are heuristic lower bounds, so only the exact rows
    bear on the paper's statement that absolute L^1 concentration fails on
    Z/qZ.  Every q is checked before the first row: a prime >= 3, and a
    heuristic row's frequency table within its budget.
    """
    primes = sorted(primes)
    for q in primes:
        if q > EXHAUSTIVE_CAP:
            _check_table_budget(q)      # before the trial division of a large q
        if q < 3 or not is_prime(q):
            raise DomainError(f"decay scan needs primes >= 3, got {q}")
    rows = []
    for q in primes:
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
