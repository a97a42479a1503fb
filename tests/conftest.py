import math

import numpy as np
import pytest
from hypothesis import settings

from concentra.discrete import concentration_ratio
from concentra.errors import DomainError
from concentra.trigpoly import Spectrum

# every run draws the same examples; each test keeps its own max_examples
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def brute_force_gamma_sharp(q: int, p: float):
    """Independent unpruned enumeration of all 2^q spectra.

    Candidate location uses its own batched transform; the final value of
    each near-max candidate is recomputed with the standard witness
    evaluator (the same definitional path every reported ratio goes
    through), so the result is comparable bit-for-bit.
    """
    k = np.arange(q)
    E = np.exp(2j * np.pi * np.outer(k, k) / q)
    total = 1 << q
    best = -1.0
    cands = []
    for s in range(0, total, 1 << 16):
        masks = np.arange(s, min(s + (1 << 16), total), dtype=np.int64)
        bits = ((masks[:, None] >> k[None, :]) & 1).astype(np.float64)
        V = bits.astype(np.complex128) @ E
        m = np.abs(V)
        mp = m if p == 1.0 else m ** p
        denom = mp.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.where(denom > 0.5, 2.0 * mp[:, 1] / denom, 0.0)
        b = float(r.max())
        thr = max(best, b) - 1e-9
        for i in np.nonzero(r >= thr)[0]:
            cands.append(int(masks[i]))
        best = max(best, b)
    top = -1.0
    witness = None
    for mask in cands:
        fr = tuple(i for i in range(q) if mask >> i & 1)
        if not fr:
            continue
        v = concentration_ratio(Spectrum(fr, q), p, 1)
        if v > top or (v == top and fr < witness):
            top, witness = v, fr
    return top, witness


def dirichlet_value(n: int, x) -> complex:
    """Value of the n-term geometric kernel sum_{v<n} e(v x), from the closed
    form e^{i pi (n-1) x} sin(pi n x)/sin(pi x); the removable singularity at
    integer x is filled in exactly by n.  Scalars or arrays."""
    if n < 1:
        raise DomainError("n must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    s = np.sin(np.pi * x)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.exp(1j * np.pi * (n - 1) * x) * np.sin(np.pi * n * x) / s
    val = np.where(s == 0.0, complex(n), val)
    if val.ndim == 0:
        return complex(val)
    return val


def zeta_value(lam: float) -> float:
    """zeta(lam): 4095 terms summed exactly rounded, plus the Euler-Maclaurin
    tail n^(1-lam)/(lam-1) + n^-lam/2 + lam n^(-lam-1)/12 at n = 4096."""
    if lam <= 1:
        raise DomainError("zeta needs lam > 1")
    n = 4096
    head = math.fsum(k ** -lam for k in range(1, n))
    return head + n ** (1 - lam) / (lam - 1) + 0.5 * n ** -lam + lam * n ** (-lam - 1) / 12


def K_upper(lam: float, t: float) -> float:
    """Coarse explicit majorant (pi/2)^lam + 2 zeta(lam) t^-lam of B(lam, t)."""
    if lam <= 1:
        raise DomainError("needs lam > 1")
    if not (0 < t <= 0.5):
        raise DomainError("needs t in (0, 1/2]")
    return (math.pi / 2) ** lam + 2 * zeta_value(lam) * t ** -lam
