"""Core representations and evaluation of idempotent and positive-definite
trigonometric polynomials on points and cyclic grids.

Conventions: e(x) = exp(2*pi*i*x); a polynomial with coefficient sequence
a_0..a_{d-1} is f(x) = sum_h a_h e(h x).  An idempotent is the special case
of 0/1 coefficients, held as a ``Spectrum`` (its support).  Grid values on
the q-point cyclic grid determine any polynomial of degree < q.

All operations are pure functions of immutable values; nothing here keeps
shared mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "Spectrum", "CoeffPoly", "Grid",
    "to_coeffs", "eval_point", "eval_grid",
    "fold_power",
]


@dataclass(frozen=True)
class Spectrum:
    """A finite set of distinct nonnegative integer frequencies.

    ``degree_bound`` is the ambient modulus context q; every frequency must
    be strictly below it.
    """

    freqs: tuple
    degree_bound: int

    def __post_init__(self):
        fr = tuple(int(h) for h in self.freqs)
        if list(fr) != sorted(set(fr)):
            fr = tuple(sorted(set(fr)))
        object.__setattr__(self, "freqs", fr)
        if fr and fr[0] < 0:
            raise DomainError("frequencies must be nonnegative")
        if fr and fr[-1] >= self.degree_bound:
            raise DomainError(
                f"degree_bound {self.degree_bound} must exceed max frequency {fr[-1]}")
        if self.degree_bound < 1:
            raise DomainError("degree_bound must be >= 1")

    def __len__(self):
        return len(self.freqs)

    def min_gap(self) -> int:
        """Smallest difference between consecutive frequencies (0 if < 2 freqs)."""
        if len(self.freqs) < 2:
            return 0
        d = np.diff(np.asarray(self.freqs))
        return int(d.min())


@dataclass(frozen=True, eq=False)
class CoeffPoly:
    """Dense complex coefficient sequence a_0..a_{d-1}."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=np.complex128))

    @property
    def nonneg(self) -> bool:
        """True on the positive-definite subclass: every coefficient real and >= 0."""
        return bool(np.all((self.coeffs.imag == 0) & (self.coeffs.real >= 0)))

    def __len__(self):
        return len(self.coeffs)


@dataclass(frozen=True)
class Grid:
    """Cyclic evaluation grid: points k/q."""

    q: int

    def __post_init__(self):
        if self.q < 1:
            raise DomainError("grid size q must be >= 1")

    def points(self) -> np.ndarray:
        return np.arange(self.q) / self.q


def to_coeffs(s: Spectrum) -> CoeffPoly:
    """0/1 coefficient sequence of the idempotent with support ``s``."""
    c = np.zeros(s.degree_bound, dtype=np.complex128)
    if s.freqs:
        c[np.asarray(s.freqs)] = 1.0
    return CoeffPoly(c)


def eval_point(p: CoeffPoly, x) -> complex:
    """Direct-summation evaluation sum_h a_h e(h x).

    This is the reference oracle for ``eval_grid``; it deliberately avoids
    any transform machinery.
    """
    h = np.nonzero(p.coeffs)[0]
    if len(h) == 0:
        x = np.asarray(x, dtype=np.float64)
        z = np.zeros(x.shape, dtype=np.complex128)
        return complex(z) if z.ndim == 0 else z
    a = p.coeffs[h]
    x = np.asarray(x, dtype=np.float64)
    val = np.tensordot(a, np.exp(2j * np.pi * np.outer(h, x)), axes=(0, 0))
    if val.ndim == 0:
        return complex(val)
    return val


def _fold_mod(coeffs: np.ndarray, q: int) -> np.ndarray:
    """Reduce coefficient sequences mod q along the last axis, into a new
    array: index h contributes at h mod q."""
    d = coeffs.shape[-1]
    out = np.zeros(coeffs.shape[:-1] + (q,), dtype=np.complex128)
    if d <= q:
        out[..., :d] = coeffs
    else:
        np.add.at(out.T, np.arange(d) % q, coeffs.T)
    return out


def eval_grid(p: CoeffPoly, g: Grid) -> np.ndarray:
    """Values f(k/q), 0 <= k < q, from a size-q discrete Fourier transform.

    Coefficients with index >= q alias: index h lands on h mod q.  A 2-D
    coefficient array is a stack of polynomials, one per row; it gives one
    row of grid values per row, each bit-identical to that row evaluated
    alone, from one transform call (one transform plan for the stack).
    """
    q = g.q
    folded = _fold_mod(p.coeffs, q)
    # values[k] = sum_h c_h e(hk/q) = q * ifft(c)[k], in place in the fold
    np.fft.ifft(folded, out=folded)
    folded *= q
    return folded


def fold_power(p: CoeffPoly, L: int, q: int) -> CoeffPoly:
    """The unique degree-<q polynomial matching p^L on the q-point grid.

    Computed as values -> pointwise L-th power -> inverse transform.  For a
    nonnegative input the folded coefficients are convolution powers summed
    over residues, hence >= 0 up to transform noise; dust below 1e-9 of the
    peak is clamped to zero so the result stays nonnegative.
    """
    if L < 1:
        raise DomainError("power L must be >= 1")
    if not p.nonneg:
        raise DomainError("fold_power needs a nonnegative polynomial")
    vals = eval_grid(p, Grid(q)) ** L
    coeffs = np.fft.fft(vals) / q
    peak = np.abs(coeffs).max()
    tol = 1e-9 * peak
    re = coeffs.real
    re[(re < 0) & (re > -tol)] = 0.0
    im_ok = np.abs(coeffs.imag).max() <= tol
    if not im_ok or np.any(re < 0):
        raise DomainError("folded power has non-clampable negative/complex residue")
    return CoeffPoly(re.astype(np.complex128))
