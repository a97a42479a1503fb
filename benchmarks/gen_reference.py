"""Regenerate ``reference_search.json``, the independent answers for the
exhaustive and half-grid rows of the ``search`` workload.

Every spectrum is enumerated, with no translation or dilation pruning, and
evaluated by direct summation of e(hk/q); nothing from ``concentra`` is
imported.  Run from the repository root:

    python3 benchmarks/gen_reference.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
OUT = HERE / "reference_search.json"
COMMAND = "python3 benchmarks/gen_reference.py"

PLAIN_ROWS = ((21, 1.0), (23, 2.0))          # (q, p): plain grid, target 1
STAR_ROWS = ((10, 2.0, (1e3, 1e4, 1e5)),)    # (q, p, Ks): 2q-point grid
BATCH = 1 << 16
SLACK = 1e-9                                 # candidate slack before the fsum re-evaluation


def _phase_matrix(n: int) -> np.ndarray:
    k = np.arange(n)
    return np.exp(2j * np.pi * (np.outer(k, k) % n) / n)


def _masks_bits(start: int, stop: int, n: int) -> tuple:
    masks = np.arange(start, stop, dtype=np.int64)
    return masks, ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(np.float64)


def _freqs(mask: int, n: int) -> list:
    return [h for h in range(n) if mask >> h & 1]


def _best(cands: list, score) -> dict:
    """Exact re-evaluation of the candidates: max, count of maximizers, smallest witness."""
    scored = [(score(fr), fr) for fr in cands]
    top = max(v for v, _ in scored)
    maxi = sorted(fr for v, fr in scored if abs(v - top) <= checks.RATIO_REL * top)
    return {"max": top, "maximizers": len(maxi), "witness": maxi[0]}


def plain_row(q: int, p: float) -> dict:
    E = _phase_matrix(q)
    best, cands = -1.0, []
    for s in range(0, 1 << q, BATCH):
        masks, bits = _masks_bits(s, min(s + BATCH, 1 << q), q)
        mp = np.abs(bits @ E) ** p
        den = mp.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.where(den > 0, 2.0 * mp[:, 1] / den, 0.0)
        best = max(best, float(r.max()))
        cands += [int(m) for m in masks[r >= best * (1 - SLACK)]]
    cands = [_freqs(m, q) for m in cands]
    row = _best([c for c in cands if c], lambda fr: checks.grid_ratio(fr, q, p))
    return {"q": q, "p": p, "spectra": 1 << q, **row}


def star_rows(q: int, p: float, Ks) -> list:
    n = 2 * q
    E = _phase_matrix(n)
    best = {K: -1.0 for K in Ks}
    cands = {K: [] for K in Ks}
    for s in range(0, 1 << n, BATCH):
        masks, bits = _masks_bits(s, min(s + BATCH, 1 << n), n)
        mp = np.abs(bits @ E) ** p
        num = 2.0 * mp[:, 1]
        ds, dp = mp[:, 1::2].sum(axis=1), mp[:, 0::2].sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            g_star = np.where(num > 0, num / ds, 0.0)
            for K in Ks:
                g = np.minimum(g_star, np.where(num > 0, K * num / dp, 0.0))
                best[K] = max(best[K], float(g.max()))
                cands[K] += [int(m) for m in masks[g >= best[K] * (1 - SLACK)]]

    def score(K):
        def f(fr):
            num, ds, dp = checks.star_parts(fr, q, p)
            return min(num / ds, K * num / dp) if num > 0 else 0.0
        return f

    return [{"q": q, "p": p, "K": K, "spectra": 1 << n,
             **_best([_freqs(m, n) for m in cands[K] if m], score(K))} for K in Ks]


def main() -> int:
    t0 = time.perf_counter()
    plain = [plain_row(q, p) for q, p in PLAIN_ROWS]
    star = [r for q, p, Ks in STAR_ROWS for r in star_rows(q, p, Ks)]
    out = {"command": COMMAND, "plain": plain, "star": star}
    OUT.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {OUT.name} in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
