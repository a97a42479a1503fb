"""Exact and heuristic finite-group concentration constants on the q-point grid.

The plain-grid level for exponent p is the best ratio
2|f(1/q)|^p / sum_k |f(k/q)|^p over idempotents f with spectrum in
{0..q-1}; the half-grid variant measures relative concentration at 1/(2q)
over the shifted grid, under a uniform plain-grid control constant K.

Search-space reductions used by the exhaustive scan (both validated
against the unpruned scan in the test suite):

* translation: |f_{H+d}(x)| = |f_H(x)| pointwise, so only spectra
  containing 0 are enumerated;
* target restoration: for any unit a mod q, the ratio of H at target a
  equals the ratio of (aH mod q) at target 1, so each enumerated spectrum
  is scored at every coprime target and the best witness is rebuilt by
  multiplication.  For prime q this is exactly dilation-orbit dedup.

The final reported ratio is always recomputed from the witness with the
standard grid evaluator, so exhaustive results are bit-for-bit
reproducible by an independent enumeration.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, DomainError
from .trigpoly import Grid, GridValues, Spectrum, eval_grid, to_coeffs

__all__ = [
    "ConcentrationReport", "StarReport", "SearchConfig", "DirichletTable",
    "ratio", "concentration_ratio", "exact_gamma_sharp",
    "heuristic_gamma_sharp", "dirichlet_table", "exact_gamma_star",
    "gamma1_decay_scan",
]

EXHAUSTIVE_CAP = 26      # plain-grid cap: 2^(q-1) spectra after translation pruning
STAR_CAP = 11            # half-grid cap: 2^(2q-1) spectra
_BATCH = 1 << 16
_NEAR = 1e-7             # candidate slack before exact re-evaluation


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
class SearchConfig:
    exhaustive_cap: int = 19
    restarts: int = 4
    seed: int = 0
    workers: int = 1


@dataclass(frozen=True)
class DirichletTable:
    q: int
    p: float
    rows: tuple          # (n, ratio) for interval spectra {0..n-1}
    best_n: int
    best: float


def _pow_abs(m: np.ndarray, p: float) -> np.ndarray:
    if p == 1.0:
        return m
    if p == 2.0:
        return m * m
    if p == 4.0:
        m2 = m * m
        return m2 * m2
    return m ** p


def ratio(values: GridValues, p: float, target: int) -> float:
    """2|values[target]|^p / sum_k |values[k]|^p (0 for the zero function)."""
    q = values.grid.q
    if not (1 <= target < q):
        raise DomainError(f"target must lie in [1, {q-1}]")
    mp = _pow_abs(values.moduli(), p)
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
    """Bit-permutation weight matrix for dilation-orbit canonicality (prime q)."""
    units = [c for c in range(2, q)]
    W = np.zeros((q - 1, len(units)), dtype=np.int64)
    for ci, c in enumerate(units):
        for i in range(1, q):
            W[i - 1, ci] = 1 << ((c * i) % q - 1)
    return W


def _scan_chunk(q, p, masks, E, units, W):
    """Score one chunk of 0-containing spectra at all unit targets.

    Returns (chunk_best, candidates) with candidates = list of
    (score, mask, target) within the near-max slack of chunk_best.
    """
    bits = ((masks[:, None] >> np.arange(q - 1)[None, :]) & 1)
    if W is not None:
        canon = (bits @ W).min(axis=1)
        keep = masks <= canon
        masks = masks[keep]
        bits = bits[keep]
        if len(masks) == 0:
            return -1.0, [], 0
    C = np.empty((len(masks), q))
    C[:, 0] = 1.0
    C[:, 1:] = bits
    V = C.astype(np.complex128) @ E
    mp = _pow_abs(np.abs(V), p)
    denom = mp.sum(axis=1)
    R = 2.0 * mp[:, units] / denom[:, None]
    best = float(R.max())
    rows, cols = np.nonzero(R >= best - _NEAR)
    cands = [(float(R[r, c]), int(masks[r]), int(units[c])) for r, c in zip(rows, cols)]
    return best, cands, len(masks) * len(units)


def _mask_spectrum(q: int, mask: int, a: int = 1) -> Spectrum:
    base = [0] + [i for i in range(1, q) if mask >> (i - 1) & 1]
    return Spectrum(tuple(sorted((a * h) % q for h in base)), q)


def _orbit(spec: Spectrum, prime: bool):
    """Affine orbit (dilations for prime modulus, translations always)."""
    q = spec.degree_bound
    seen = set()
    out = []
    cs = range(1, q) if prime else [1]
    for c in cs:
        if math.gcd(c, q) != 1:
            continue
        base = sorted((c * h) % q for h in spec.freqs)
        for d in range(q):
            t = tuple(sorted((h + d) % q for h in base))
            if t not in seen:
                seen.add(t)
                out.append(Spectrum(t, q))
    return out


def _is_prime(q: int) -> bool:
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


def exact_gamma_sharp(q: int, p: float, max_q: int = EXHAUSTIVE_CAP,
                      use_pruning: bool | None = None, workers: int = 1) -> ConcentrationReport:
    """Exact plain-grid level at target 1 by exhaustive scan.

    ``use_pruning`` controls dilation-orbit dedup (default: on for prime q);
    translation reduction is always applied.  Raises BudgetError beyond
    ``max_q`` and points the caller at the heuristic search.
    """
    if q < 2:
        raise DomainError("need q >= 2")
    _check_p(p)
    if q > max_q:
        raise BudgetError(
            f"exhaustive search capped at q <= {max_q} (2^{q-1} spectra); "
            f"use heuristic_gamma_sharp for q = {q}")
    prime = _is_prime(q)
    if use_pruning is None:
        use_pruning = prime and q >= 17
    k = np.arange(q)
    E = np.exp(2j * np.pi * np.outer(k, k) / q)
    units = _units(q)
    W = _canonical_weights(q) if (use_pruning and prime) else None
    total = 1 << (q - 1)
    starts = list(range(0, total, _BATCH))
    evals = 0

    def job(s):
        masks = np.arange(s, min(s + _BATCH, total), dtype=np.int64)
        return _scan_chunk(q, p, masks, E, units, W)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(job, starts))
    else:
        results = [job(s) for s in starts]
    best = max(r[0] for r in results)
    pool = [c for r in results for c in r[1] if c[0] >= best - _NEAR]
    evals = sum(r[2] for r in results)

    # exact re-evaluation of every near-max candidate, expanded to full orbits
    finals = {}
    for _, mask, a in pool:
        for member in _orbit(_mask_spectrum(q, mask, a), prime):
            if member.freqs not in finals:
                finals[member.freqs] = concentration_ratio(member, p, 1)
    evals += len(finals)
    top = max(finals.values())
    witness = min(fr for fr, v in finals.items() if v == top)
    return ConcentrationReport(q, p, 1, top, Spectrum(witness, q), "exhaustive", evals)


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
    mp = _pow_abs(M, p)
    ratios = 2.0 * mp[:, 1] / mp.sum(axis=1)
    i = int(np.argmax(ratios))
    rows = tuple((int(nn), float(rr)) for nn, rr in zip(n, ratios))
    return DirichletTable(q, p, rows, int(n[i]), float(ratios[i]))


def _ascend(q, p, E, start_set, max_steps=None):
    """Deterministic steepest-ascent over single-frequency flips, target 1.

    The value vector is rebuilt exactly after each accepted flip, and any
    denominator below 1/2 is treated as the zero polynomial (a nonempty
    spectrum always has grid p-sum >= |f(0)|^p >= 1), so cancellation dust
    can never win a step.
    """
    members = np.zeros(q, dtype=bool)
    for h in start_set:
        members[h] = True
    cur = E[members].sum(axis=0) if members.any() else np.zeros(q, np.complex128)
    evals = 0
    if max_steps is None:
        max_steps = 4 * q
    sign = np.where(members, -1.0, 1.0)

    def score(vals):
        mp = _pow_abs(np.abs(vals), p)
        d = mp.sum()
        return 0.0 if d < 0.5 else 2.0 * mp[1] / d

    cur_score = score(cur)
    for _ in range(max_steps):
        cand = cur[None, :] + sign[:, None] * E
        mp = _pow_abs(np.abs(cand), p)
        denom = mp.sum(axis=1)
        with np.errstate(invalid="ignore"):
            sc = np.where(denom >= 0.5, 2.0 * mp[:, 1] / denom, 0.0)
        evals += q
        h = int(np.argmax(sc))
        if sc[h] <= cur_score + 1e-15:
            break
        members[h] = not members[h]
        sign[h] = -sign[h]
        cur = E[members].sum(axis=0) if members.any() else np.zeros(q, np.complex128)
        cur_score = score(cur)
    return np.nonzero(members)[0], cur_score, evals


def heuristic_gamma_sharp(q: int, p: float, restarts: int = 4,
                          seed: int = 0) -> ConcentrationReport:
    """Lower-bound search for the plain-grid level when 2^q is infeasible.

    Every interval spectrum is scored as a candidate (so the result always
    dominates the Dirichlet table); steepest ascent runs from the best few
    intervals and from ``restarts`` seeded random spectra.  Deterministic
    for a fixed seed.
    """
    if q < 3:
        raise DomainError("need q >= 3")
    _check_p(p)
    k = np.arange(q)
    E = np.exp(2j * np.pi * np.outer(k, k) / q)
    table = dirichlet_table(q, p)
    evals = q - 1
    cands = []
    for n, _ in table.rows:
        cands.append(tuple(range(n)))
    order = sorted(table.rows, key=lambda r: -r[1])
    n_ascents = (q - 1) if q <= 64 else (8 if q <= 1024 else 3)
    starts = [tuple(range(n)) for n, _ in order[:n_ascents]]
    n_interval_starts = len(starts)
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        density = rng.uniform(0.05, 0.6)
        mask = rng.random(q) < density
        mask[0] = True
        starts.append(tuple(np.nonzero(mask)[0]))
    best_set = None
    best_score = -1.0
    for si, st in enumerate(starts):
        # random starts sit far from any optimum; cap their walk at large q
        cap = 64 if (q > 512 and si >= n_interval_starts) else None
        members, sc, ev = _ascend(q, p, E, st, max_steps=cap)
        evals += ev
        if sc > best_score:
            best_score = sc
            best_set = tuple(int(h) for h in members)
    for c in cands:
        spec = Spectrum(c, q)
        r = concentration_ratio(spec, p, 1)
        evals += 1
        if r > best_score:
            best_score, best_set = r, c
    witness = Spectrum(tuple(best_set), q)
    final = concentration_ratio(witness, p, 1)
    return ConcentrationReport(q, p, 1, final, witness, "heuristic", evals)


def exact_gamma_star(q: int, p: float, K: float = 1e4, max_q: int = STAR_CAP,
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
    if q > max_q:
        raise BudgetError(f"half-grid exhaustive search capped at q <= {max_q}")
    Q = 2 * q
    k = np.arange(Q)
    E = np.exp(2j * np.pi * np.outer(k, k) / Q)
    odd = np.arange(1, Q, 2)
    even = np.arange(0, Q, 2)
    nbits = Q - 1 if use_pruning else Q
    total = 1 << nbits
    best = -1.0
    pool = []
    evals = 0
    for s in range(0, total, _BATCH):
        masks = np.arange(s, min(s + _BATCH, total), dtype=np.int64)
        bits = ((masks[:, None] >> np.arange(nbits)[None, :]) & 1)
        C = np.empty((len(masks), Q))
        if use_pruning:
            C[:, 0] = 1.0
            C[:, 1:] = bits
        else:
            C[:] = bits
        V = C.astype(np.complex128) @ E
        mp = _pow_abs(np.abs(V), p)
        num = 2.0 * mp[:, 1]
        d_star = mp[:, odd].sum(axis=1)
        d_plain = mp[:, even].sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where(d_star > 0, num / d_star, 0.0)
            g2 = np.where(d_plain > 0, K * num / d_plain, np.inf)
            g = np.minimum(g, np.where(num > 0, g2, 0.0))
        evals += len(masks)
        b = float(g.max())
        thr = max(best, b) - _NEAR
        idx = np.nonzero(g >= thr)[0]
        pool.extend((float(g[i]), int(masks[i])) for i in idx)
        best = max(best, b)

    def star_value(spec: Spectrum):
        vals = eval_grid(to_coeffs(spec), Grid(Q))
        mp = _pow_abs(np.abs(vals.values), p)
        num = 2.0 * float(mp[1])
        ds = float(mp[odd].sum())
        dp = float(mp[even].sum())
        if num == 0.0 or ds == 0.0:
            return 0.0
        g = num / ds
        if dp > 0:
            g = min(g, K * num / dp)
        return g

    finals = {}
    for val, mask in pool:
        if val < best - _NEAR:
            continue
        if use_pruning:
            base = [0] + [i for i in range(1, Q) if mask >> (i - 1) & 1]
        else:
            base = [i for i in range(Q) if mask >> i & 1]
        for d in range(Q):
            t = tuple(sorted((h + d) % Q for h in base))
            if t not in finals:
                finals[t] = star_value(Spectrum(t, Q))
    evals += len(finals)
    top = max(finals.values())
    witness = min(fr for fr, v in finals.items() if v == top)
    spec = Spectrum(witness, Q)
    # recheck both defining inequalities at the reported constant
    vals = eval_grid(to_coeffs(spec), Grid(Q))
    mp = _pow_abs(np.abs(vals.values), p)
    num = 2.0 * float(mp[1])
    ok = (num + 1e-12 >= top * float(mp[odd].sum())
          and num + 1e-12 >= (top / K) * float(mp[even].sum()))
    return StarReport(q, p, K, top, bool(ok), spec, "exhaustive", evals)


def gamma1_decay_scan(primes, config: SearchConfig = SearchConfig()) -> list:
    """Integral-norm (p=1) level decay study over a list of primes.

    Exact rows up to the configured cap, heuristic lower bounds beyond;
    every row also carries the best Dirichlet-interval witness and the two
    decay diagnostics.  The liminf exponent itself is reported as data,
    never asserted.
    """
    rows = []
    for q in sorted(primes):
        if q < 3 or not _is_prime(q):
            raise DomainError(f"decay scan needs primes >= 3, got {q}")
        dir_best = dirichlet_table(q, 1.0)
        if q <= config.exhaustive_cap:
            rep = exact_gamma_sharp(q, 1.0, workers=config.workers)
        else:
            rep = heuristic_gamma_sharp(q, 1.0, restarts=config.restarts,
                                        seed=config.seed)
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
