"""Torus-level constructions: idempotents concentrating their p-mass on a
prescribed symmetric union of intervals.

The pipeline localizes the set with a rational window a/q +- theta/q^2,
picks a grid witness concentrated at the matching target, multiplies by a
peaking kernel sampled at qt, and measures the achieved concentration by
integrals of |Q|^p for the assembled spectrum.  One rule serves every p:
sample Q at a 5-smooth size N, take the coefficients of |Q|^p from one FFT
and integrate them over the circle and over E in closed form.  At even p
the coefficients are exact up to a stated rounding bound; at other p they
are those of the trigonometric interpolant, and the rule run again at half
the mesh gives an error estimate, not a bound.

Only the peak-at-0 Dirichlet pathway is implemented, so the pipeline
requires p > 1; the large-gap peaking functions needed both for p <= 1 and
for gap factors beyond q/deg(R) are out of scope here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError
from .trigpoly import Grid, Spectrum, eval_grid, to_coeffs
from . import discrete

__all__ = [
    "IntervalSet", "Plan", "TorusReport", "FractionHit", "EndToEndResult",
    "find_fraction", "choose_n", "build_Q", "measure", "end_to_end",
]

_SAMPLE_CAP = 1 << 25    # most samples one quadrature rule may take
_SYMMETRY_TOL = 1e-12    # endpoint tolerance of the reflection x -> 1 - x


@dataclass(frozen=True)
class IntervalSet:
    """Finite union of disjoint subintervals of [0, 1].

    ``symmetric`` is computed: whether the set is invariant under the
    reflection x -> 1 - x.  Passing ``symmetric=True`` asserts it.
    """

    intervals: tuple
    symmetric: bool = False

    def __post_init__(self):
        ivs = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        ivs = tuple(sorted(ivs))
        object.__setattr__(self, "intervals", ivs)
        prev = -1.0
        for lo, hi in ivs:
            if not (0.0 <= lo < hi <= 1.0):
                raise DomainError(f"bad interval ({lo}, {hi})")
            if lo < prev:
                raise DomainError("intervals must be disjoint")
            prev = hi
        if not ivs:
            raise DomainError("empty interval set")
        # reflect each interval through x -> 1-x and compare as sorted lists
        r = sorted((max(1.0 - hi, 0.0), min(1.0 - lo, 1.0)) for lo, hi in ivs)
        symmetric = all(abs(a - c) <= _SYMMETRY_TOL and abs(b - d) <= _SYMMETRY_TOL
                        for (a, b), (c, d) in zip(r, ivs))
        if self.symmetric and not symmetric:
            raise DomainError("symmetric flag set but set is not reflection-invariant")
        object.__setattr__(self, "symmetric", symmetric)

    def measure(self) -> float:
        return float(sum(hi - lo for lo, hi in self.intervals))

    def window_overlap(self, lo: float, hi: float) -> float:
        """|(lo, hi) intersect E| with the window taken mod 1."""
        total = 0.0
        for s in (-1.0, 0.0, 1.0):
            for a, b in self.intervals:
                total += max(0.0, min(hi, b + s) - max(lo, a + s))
        return total


@dataclass(frozen=True)
class FractionHit:
    a: int
    q: int
    coverage: float


@dataclass(frozen=True)
class Plan:
    a: int
    q: int
    theta: float
    n: int
    R: Spectrum          # grid witness, degree < q (undilated)
    nu: int = 1


@dataclass(frozen=True)
class TorusReport:
    """Integrals of |Q|^p over E and over the circle.

    ``quadrature_error_est`` bounds the rounding error of each at even p
    (see ``_integrals``).  At other p it is an estimate, not a bound: the
    difference from the rule at half of ``mesh`` samples per unit degree,
    plus that rounding term, the size of the top coefficients of |Q|^p the
    grid resolves and 1e-12 (1 + int_T).  ``mesh`` is used at p that is not
    even only.
    """

    int_E: float
    int_T: float
    ratio: float
    mesh: int
    quadrature_error_est: float
    parseval_rel_err: float | None = None


@dataclass(frozen=True)
class EndToEndResult:
    plan: Plan
    report: TorusReport
    spectrum: Spectrum          # the assembled idempotent
    predicted_ratio: float      # witness grid ratio at its target
    min_gap: int
    pathway: str


def find_fraction(E: IntervalSet, theta: float, eta: float, q0: int,
                  q_max: int, nu: int = 1, trace: list | None = None) -> FractionHit | None:
    """First fraction (smallest q, then a) whose window covers E to 1 - eta,
    or None when no fraction does.

    Scans q in (q0, q_max] with gcd(nu, q) = 1 and all reduced residues,
    computing exact window coverage |window cap E| / (2 theta / q^2).  With
    a gap factor nu > 1 only residues whose dilated target nu*a is +-1
    (mod q) are candidates.  When ``trace`` is a list, every examined
    (q, a, coverage) triple is appended to it.
    """
    if q0 >= q_max:
        raise DomainError("need q0 < q_max")
    if not (0 < theta < math.inf and 0 <= eta < 1):
        raise DomainError(f"need finite theta > 0 and 0 <= eta < 1, got {theta}, {eta}")
    if nu < 1:
        raise DomainError("gap factor nu must be >= 1")
    for q in range(max(q0 + 1, 2), q_max + 1):
        if math.gcd(nu, q) != 1:
            continue
        w = theta / (q * q)
        for a in range(1, q):
            if math.gcd(a, q) != 1:
                continue
            if nu > 1 and (nu * a) % q not in (1, q - 1):
                continue
            c = a / q
            cov = min(E.window_overlap(c - w, c + w) / (2 * w), 1.0)
            if trace is not None:
                trace.append((q, a, cov))
            if cov >= 1.0 - eta:
                return FractionHit(a, q, cov)
    return None


def choose_n(p: float, eps: float, delta: float) -> int:
    """Peaking-kernel length guaranteeing <= eps relative mass outside
    (-delta, delta), from the explicit tail constant (pi/2)^p / (p-1)."""
    if not 1 < p < math.inf:
        raise DomainError(f"peaking pathway needs p > 1, finite, got {p}")
    if not (0 < eps < 1 and 0 < delta < math.inf):
        raise DomainError(f"need 0 < eps < 1 and finite delta > 0, got {eps}, {delta}")
    try:
        kp = (math.pi / 2) ** p / (p - 1)
        return int(math.ceil((2 * kp / eps) ** (1.0 / (p - 1)) / delta))
    except OverflowError:
        raise BudgetError(f"peaking kernel length overflows a float at p = {p}, "
                          f"eps = {eps}") from None


def build_Q(R: Spectrum, n: int, q: int, nu: int = 1) -> Spectrum:
    """Spectrum of R(nu t) * D_n(q t): frequencies nu h + q m, h in R, m < n.

    They are distinct when nu * deg(R) < q, since nu h is then the residue
    mod q; anything else is a collision, rejected as a DomainError.
    """
    if not R.freqs:
        raise DomainError("witness spectrum is empty")
    if nu < 1:
        raise DomainError("gap factor nu must be >= 1")
    if nu * R.freqs[-1] >= q:
        raise DomainError("need nu * deg(R) < q for a collision-free assembly")
    return Spectrum(tuple(nu * h + q * m for m in range(n) for h in R.freqs), q * n)


def _smooth_size(n: int) -> int:
    """Smallest 5-smooth integer >= n, a fast FFT length: the least
    f 2^a >= n over f = 3^i 5^j below 2n."""
    return min(f << (-(-n // f) - 1).bit_length()
               for f in (3 ** i * 5 ** j for i in range(40) for j in range(18)) if f < 2 * n)


def _frac_times(d: np.ndarray, x: float) -> np.ndarray:
    """(d x) mod 1 for int64 d in [0, 2^30), exact up to the final rounding:
    x = num / 2^K, and num is split at bit 32 unless K > 62 needs Python ints."""
    num, den = x.as_integer_ratio()
    K = den.bit_length() - 1
    if K > 62:
        return np.array([v * num % den / den for v in d.tolist()])
    hi, lo = num >> 32, num & 0xFFFFFFFF
    return ((((d * hi) % (1 << max(K - 32, 0))) << 32) + d * lo) % den / den


def _integrals(Q: Spectrum, E: IntervalSet, p: float, N: int, even: bool):
    """(int_E, int_T, rounding bound) of g = |Q|^p from one FFT of its samples
    at N points.  Q has a 0/1 spectrum, so g(-x) = g(x) and its coefficients
    g(d) are real: int_T = g(0) and, over the intervals (lo, hi) of E,
    int_E = g(0)|E| + sum_{d>=1} g(d) (sin 2 pi d hi - sin 2 pi d lo) / (pi d).

    At even p = 2k, g has degree k deg < N/2, so its g(d), d <= k deg, are
    exact up to rounding.  At other p they are those of the trigonometric
    interpolant of the samples, for d < N/2; at even N the Nyquist term is
    dropped.  The bound then also carries the largest |g(d)| for
    3N/8 <= d < N/2, the size of what the grid barely resolves, as an
    estimate of the aliasing error: the difference from a nested half-size
    rule is the Nyquist coefficient alone, which can be small by chance.

    Error model, to first order in u = 2^-53: a length-N transform with its
    scaling errs by at most eps = 8 u log2 N of its output's 2-norm (Higham's
    radix-2 constant, rounded up), a sine by 2 ulp; all else rounds correctly.
    By Parseval, with n = |Q| = sup |Q| and rms(g) <= (n^p g(0))^(1/2), the
    g(d) then err by at most b = n^(p/2) (p n^(-1/2) eps + (eps + (p + 5) u)
    g(0)^(1/2)) in 2-norm.  At even p they are integers: if b < 1/2 they are
    rounded to them, else b bounds the error of int_T and, by Bessel, adds
    sqrt(|E|) b to int_E.
    Exact phases, sines (22 u per endpoint) and sums over m intervals add
    u (2m (28 + 2m) / pi sum_{d>=1} |g(d)| / d + (m + 5) g(0)) to int_E.
    """
    if N > _SAMPLE_CAP:
        raise BudgetError(f"quadrature needs {N} samples > cap {_SAMPLE_CAP}")
    n, m = len(Q), len(E.intervals)
    D = int(p) // 2 * Q.freqs[-1] if even else (N - 1) // 2
    v = eval_grid(to_coeffs(Q), Grid(N))
    with np.errstate(over="ignore", invalid="ignore"):
        g = (v.real ** 2 + v.imag ** 2) ** (p / 2)
        gh = np.fft.rfft(g)[: D + 1].real / N
    if not np.all(np.isfinite(gh)):     # gh[0] is the mean of g
        # the integrals are absolute: no rescaling leaves them unchanged
        raise DomainError(f"|Q|^p or its transform overflows a float at p = {p} "
                          f"(max |Q|^p = {n}^p)")
    u, eps = 2.0 ** -53, 8 * 2.0 ** -53 * math.log2(max(N, 2))
    b = np.power(float(n), p / 2) * (p * eps * n ** -0.5 + (eps + (p + 5) * u) * abs(gh[0]) ** 0.5)
    if even and b < 0.5:
        gh, b = np.rint(gh), 0.0
    d = np.arange(1, D + 1)
    S = sum(np.sin(2 * np.pi * _frac_times(d, hi)) - np.sin(2 * np.pi * _frac_times(d, lo))
            for lo, hi in E.intervals)
    int_E = math.fsum((gh[1:] * S / (np.pi * d)).tolist()) + gh[0] * E.measure()
    phase = u * (2 * m * (28 + 2 * m) / math.pi * np.sum(np.abs(gh[1:]) / d) + (m + 5) * gh[0])
    bound = (1.0 + math.sqrt(E.measure())) * b + phase
    if not even:
        bound += np.abs(gh[3 * N // 8:]).max()
    return int_E, float(gh[0]), float(bound)


def measure(Q: Spectrum, E: IntervalSet, p: float,
            mesh_per_unit_degree: int = 8) -> TorusReport:
    """|Q|^p integrated over E and over the whole circle by ``_integrals``:
    exactly at even p, else from the interpolant at the 5-smooth size
    N >= mesh deg and again at half the mesh (see TorusReport)."""
    if mesh_per_unit_degree < 4:
        raise DomainError("mesh_per_unit_degree must be >= 4 (per-oscillation floor)")
    if not Q.freqs:
        raise DomainError("cannot measure the zero polynomial")
    if not (0 < p < math.inf):
        raise DomainError(f"need finite p > 0, got {p}")
    mesh, deg = mesh_per_unit_degree, Q.freqs[-1]
    if p % 2 == 0:
        int_E, int_T, est = _integrals(Q, E, p, _smooth_size(int(p) * deg + 1), True)
    else:
        rule = lambda m: _integrals(Q, E, p, _smooth_size(m * max(deg, 1)), False)
        int_E, int_T, est = rule(mesh)
        e_c, t_c, _ = rule(max(4, mesh // 2))
        est += abs(int_E - e_c) + abs(int_T - t_c) + 1e-12 * (1.0 + abs(int_T))
    ratio = min(int_E / int_T if int_T > 0 else 0.0, 1.0)
    pe = abs(int_T - len(Q)) / len(Q) if p == 2.0 else None
    return TorusReport(int_E, int_T, ratio, mesh, est, pe)


def end_to_end(E: IntervalSet, p: float, eps: float, *, theta: float = 0.5,
               eta: float = 0.05, q0: int = 8, q_max: int = 4000, nu: int = 1,
               mesh_per_unit_degree: int = 8, seed: int = 0,
               trace: list | None = None) -> EndToEndResult:
    """Full pipeline: localize, pick a witness, assemble, measure.

    With a gap factor nu > 1 the fraction scan additionally requires the
    transformed target nu*a = +-1 (mod q), and the witness is the best row
    {0..n-1} of ``discrete.dirichlet_table`` with n <= q // nu, the lengths
    whose assembled blocks stay q - nu (n - 1) >= nu apart (larger gap
    factors need the out-of-scope peaking construction and degrade the
    predicted ratio).
    Raises BudgetError when no fraction up to q_max covers E, and
    DomainError on an asymmetric E: a 0/1 spectrum has |Q(-x)| = |Q(x)|, so
    half of the p-mass near E would land on -E.
    """
    if not E.symmetric:
        raise DomainError("set is not reflection-symmetric: Q concentrates on E and -E alike")
    if not (1 < p < math.inf):
        raise DomainError(
            "only the peak-at-0 pathway is implemented, which needs finite p > 1; "
            "p <= 1 requires gap peaking functions that are out of scope")
    hit = find_fraction(E, theta, eta, q0, q_max, nu=nu, trace=trace)
    if hit is None:
        raise BudgetError(f"no fraction with q <= {q_max} covers E to "
                          f"1 - eta; raise q_max or adjust theta/eta")
    a, q = hit.a, hit.q
    n = choose_n(p, eps, theta / q)
    if q * (n - 1) >= _SAMPLE_CAP:      # the least degree of any assembly
        raise BudgetError(f"assembled degree at least {q * (n - 1)} needs more "
                          f"than the {_SAMPLE_CAP} samples a quadrature may take")
    if nu == 1:
        # the best known witness at target 1, dilated by 1/a mod q: its ratio
        # at target a is the ratio of the undilated one at target 1
        b, a_inv = a, pow(a, -1, q)
        rep = discrete.gamma_sharp(q, p, seed=seed)
        W = Spectrum(tuple(a_inv * h % q for h in rep.spectrum.freqs), q)
        pathway = "dirichlet-peak"
    else:
        # nu * a = +-1 (mod q): an interval witness aimed at target 1 (or
        # q-1, same ratio by conjugation) applies.
        b = (nu * a) % q
        n_R, _ = max(discrete.dirichlet_table(q, p).rows[:max(1, q // nu)], key=lambda r: r[1])
        W = Spectrum(tuple(range(n_R)), q)
        pathway = "dirichlet-peak-gapped"
    predicted = discrete.concentration_ratio(W, p, b)
    deg = q * (n - 1) + nu * W.freqs[-1]
    if deg >= _SAMPLE_CAP:     # measure samples |Q|^p at more than deg points
        raise BudgetError(f"assembled degree {deg} needs more than the "
                          f"{_SAMPLE_CAP} samples a quadrature may take")
    Q = build_Q(W, n, q, nu)
    report = measure(Q, E, p, mesh_per_unit_degree)
    plan = Plan(a, q, theta, n, W, nu)
    return EndToEndResult(plan, report, Q, predicted, Q.min_gap(), pathway)
