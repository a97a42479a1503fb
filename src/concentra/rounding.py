"""Bernoulli randomized rounding: positive-definite polynomials to idempotents.

A nonnegative polynomial P with max coefficient 1 is rounded by keeping
frequency h with probability a_h, independently.  The rounded polynomial is
then an idempotent whose expectation is P; the module measures how well a
single draw preserves the value at the target point 1/q (``at-point``) and
how small the p-mean grid deviation stays (``in-mean``).

Randomness comes from counter-based Philox streams keyed (seed, index), so
trials are reproducible bit-for-bit and independent of execution order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .trigpoly import CoeffPoly, Grid, Spectrum, eval_grid, to_coeffs

__all__ = [
    "RoundingTrial", "MomentReport", "MonteCarloReport",
    "hypothesis_constants", "bernoulli_round", "verify_trial", "monte_carlo",
    "moment_check", "normalize_peak",
]

_BLOCK = 1024            # moment_check trials drawn from each Philox stream
_BLOCK_BYTES = 16 << 20  # monte_carlo draws per stacked eval_grid: 8 rows at q = 120011


@dataclass(frozen=True)
class RoundingTrial:
    spectrum: Spectrum
    at_point_margin: float      # |Q(1/q)|/|P(1/q)| - (1 - eps)
    mean_dev: float             # ell^p grid distance of Q-P, / |P(1/q)|
    success: bool


@dataclass(frozen=True)
class MomentReport:
    p: float
    sigma: float
    empirical_moment: float
    normalizer: float
    ratio: float
    trials: int


@dataclass(frozen=True)
class MonteCarloReport:
    q: int
    p: float
    epsilon: float
    trials: int
    seed: int
    frequency: float
    mean_at_point_margin: float
    mean_dev_quantiles: dict


def _stream(seed: int, index: int) -> np.random.Generator:
    """The Philox stream keyed (seed, index); a seed outside [0, 2^64), which
    is no key of its own, is a DomainError."""
    if not 0 <= operator.index(seed) < 2 ** 64:
        raise DomainError(f"seed must lie in [0, 2^64), got {seed}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _draw(alpha: np.ndarray, seed: int, index: int, out=None) -> np.ndarray:
    """Keep mask u < alpha of uniforms u from the Philox stream (seed, index),
    drawn into ``out``: one draw, or one per row of a matrix ``out``."""
    if out is None:
        out = np.empty(len(alpha))
    return _stream(seed, index).random(out=out) < alpha


def _check(P: CoeffPoly, q: int, p: float, eps=None) -> None:
    """Boundary check of the entry points that measure P on the q-point grid."""
    if q < 2 or len(P.coeffs) > q:
        raise DomainError(f"need q >= 2 and polynomial degree < q, got q = {q}")
    if not P.nonneg:
        raise DomainError("rounding needs a nonnegative polynomial")
    if not (0 < p < np.inf):
        raise DomainError(f"need finite p > 0, got {p}")
    if eps is not None and not (0 < eps < 1):
        raise DomainError(f"need 0 < epsilon < 1, got {eps}")


def _lp_norm(m: np.ndarray, p: float) -> float:
    """(sum |m|^p)^(1/p): the plain expression where that sum is finite and
    positive, else that of m divided by its largest modulus, times it.  At
    small p the root of a sum above 1 can pass a float, which no rescaling
    avoids: that is a DomainError."""
    a = np.abs(m)
    with np.errstate(over="ignore"):
        s = float(np.sum(a ** p))
    top = 1.0
    if not 0 < s < np.inf:
        top = float(a.max(initial=0.0))
        if top == 0:
            return 0.0
        s = float(np.sum((a / top) ** p))
    try:
        return top * s ** (1.0 / p)
    except OverflowError:             # the Python float power
        raise DomainError(f"the ell^p norm overflows a float at p = {p}") from None


def _verify(Qv: np.ndarray, Pv: np.ndarray, p: float, eps: float):
    """(at-point margin, ell^p deviation, success) of the idempotent with
    grid values ``Qv`` against the grid values ``Pv`` of P."""
    P1 = float(abs(Pv[1]))
    if P1 == 0:
        raise DomainError("|P(1/q)| vanishes; margins undefined")
    margin = float(abs(Qv[1])) / P1 - (1.0 - eps)
    dev = _lp_norm(Qv - Pv, p) / P1
    return margin, dev, margin >= 0 and dev <= eps


def normalize_peak(P: CoeffPoly) -> CoeffPoly:
    """Rescale so the largest coefficient modulus is 1: exactly 1 when that
    coefficient is real, so normalizing twice changes nothing."""
    m = np.abs(P.coeffs).max(initial=0.0)
    if m == 0:
        raise DomainError("zero polynomial cannot be normalized")
    c = P.coeffs.copy()
    c.real /= m           # the parts divided apart: complex division by m is inexact
    c.imag /= m
    return CoeffPoly(c)


def hypothesis_constants(P: CoeffPoly, q: int, p: float) -> dict:
    """Largest constants c at which each rounding hypothesis holds for P.

    (i)  c q max|a_h| <= sum|a_h| <= c^-1 |P(1/q)|
    (ii) |P(1/q)| >= c (sum_k |P(k/q)|^p)^(1/p)
    """
    _check(P, q, p)
    a = np.abs(P.coeffs)
    sigma = float(a.sum())
    vals = eval_grid(P, Grid(q))
    P1 = float(abs(vals[1]))
    lp = _lp_norm(vals, p)
    return {
        "c_cond_c": min(sigma / (q * float(a.max())), P1 / sigma) if sigma else 0.0,
        "c_concentr": P1 / lp if lp else 0.0,
        "sigma": sigma,
        "peak_value": P1,
    }


def bernoulli_round(P: CoeffPoly, seed: int) -> Spectrum:
    """Round a nonnegative polynomial to an idempotent support.

    Coefficients are normalized to peak 1; frequency h is kept iff uniform h
    of the stream (seed, 0) falls below a_h.  Pure function of (P, seed).
    """
    if not P.nonneg:
        raise DomainError("bernoulli_round needs a nonnegative polynomial")
    keep = _draw(normalize_peak(P).coeffs.real, seed, 0)
    return Spectrum(tuple(int(h) for h in np.nonzero(keep)[0]), len(keep))


def verify_trial(P: CoeffPoly, Q: Spectrum, q: int, p: float,
                 eps: float) -> RoundingTrial:
    """Both rounding conclusions for one drawn idempotent Q against P.

    P is normalized to peak 1, the scaling under which ``bernoulli_round``
    draws Q; margins are relative to the normalized P.
    """
    _check(P, q, p, eps)
    if Q.degree_bound > q:
        raise DomainError("degree bound of Q must be <= q")
    Pv = eval_grid(normalize_peak(P), Grid(q))
    margin, dev, ok = _verify(eval_grid(to_coeffs(Q), Grid(q)), Pv, p, eps)
    return RoundingTrial(Q, margin, dev, ok)


def monte_carlo(P: CoeffPoly, q: int, p: float, eps: float, trials: int,
                seed: int) -> MonteCarloReport:
    """Empirical success frequency of the rounding over independent trials:
    trial i is ``verify_trial`` of the draw from the stream (seed, i).

    The draws of a block of trials fill the rows of one buffer, evaluated by
    one stacked ``eval_grid`` call; each row's arithmetic is that of the
    trial alone, so the report does not depend on the block size.
    """
    _check(P, q, p, eps)
    if trials < 1:
        raise DomainError("success frequency undefined for trials < 1")
    Pn = normalize_peak(P)
    alpha = Pn.coeffs.real
    Pv = eval_grid(Pn, Grid(q))
    rows = min(trials, max(1, _BLOCK_BYTES // (16 * q)))
    buf = np.zeros((rows, q), dtype=np.complex128)
    runs = []
    for start in range(0, trials, rows):
        block = buf[:min(rows, trials - start)]
        for i, row in enumerate(block, start):
            row[:len(alpha)] = _draw(alpha, seed, i)
        # a comprehension, so the block's grid values are freed before the next
        runs += [_verify(Qv, Pv, p, eps) for Qv in eval_grid(CoeffPoly(block), Grid(q))]
    margins, devs, oks = zip(*runs)
    q10, q50, q90 = np.quantile(devs, [0.1, 0.5, 0.9])
    return MonteCarloReport(q, p, eps, trials, seed, sum(oks) / trials,
                            float(np.mean(margins)),
                            {"q10": float(q10), "q50": float(q50), "q90": float(q90)})


def moment_check(b, alpha, p: float, trials: int, seed: int) -> MomentReport:
    """Empirical p-th moment of sum_k b_k (X_k - alpha_k), normalized by
    max|b|^p (1 + sum alpha)^(p/2).

    Draws are blocked (fixed block size) from Philox streams keyed
    (seed, block index); results are reproducible for fixed arguments.
    """
    b = np.asarray(b, dtype=np.complex128)
    if not np.any(b.imag):
        b = b.real           # a real product: about three times faster
    alpha = np.asarray(alpha, dtype=np.float64)
    if b.ndim != 1 or not len(b) or alpha.shape != b.shape:
        raise DomainError("b and alpha must be non-empty vectors of equal length")
    if not np.all((alpha >= 0) & (alpha <= 1)):
        raise DomainError("alpha entries must lie in [0, 1]")
    if not (2 < p < np.inf):
        raise DomainError(f"moment bound regime needs finite p > 2, got {p}")
    if trials < 1:
        raise DomainError("need trials >= 1")
    total = 0.0
    buf = np.empty((min(_BLOCK, trials), len(alpha)))
    sigma = float(alpha.sum())
    with np.errstate(over="ignore"):      # an overflow is refused below
        for bi, start in enumerate(range(0, trials, _BLOCK)):
            nblk = min(_BLOCK, trials - start)
            X = buf[:nblk]      # the uniforms, then the centred draws
            S = np.subtract(_draw(alpha, seed, bi, X), alpha, out=X) @ b
            total += float(np.sum(np.abs(S) ** p))
        try:
            norm = float(np.max(np.abs(b)) ** p * (1.0 + sigma) ** (p / 2))
        except OverflowError:             # the Python float power
            norm = np.inf
    emp = total / trials
    if not (emp < np.inf and norm < np.inf):
        raise DomainError(f"moment sum or normalizer overflows a float at p = {p}")
    return MomentReport(p, sigma, emp, norm, emp / norm if norm else 0.0, trials)
