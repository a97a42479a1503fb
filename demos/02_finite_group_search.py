"""Concentration constants on the q-point cyclic grid: exhaustive search,
single-flip ascent, interval witnesses, the half-grid variant, and the
integral-norm decay table.

Run:  python demos/02_finite_group_search.py
"""

import math

from concentra import discrete

print("=== Exact levels by exhaustive scan (with orbit pruning) ===\n")
for q in (3, 7, 13):
    for p in (1.0, 2.0):
        rep = discrete.exact_gamma_sharp(q, p)
        print(f"q = {q:2d}, p = {p}: level = {rep.ratio:.9f}   "
              f"witness {list(rep.spectrum.freqs)}  ({rep.evaluations} evaluations)")
print("\n(the q = 3 value is the trivial cap 2/3, attained by a singleton)")

print("\n=== Heuristic search tracks the exact values, then scales up ===\n")
e = discrete.exact_gamma_sharp(16, 2.0)
h = discrete.heuristic_gamma_sharp(16, 2.0, restarts=8, seed=3)
print(f"q = 16: exact {e.ratio:.12f}  heuristic {h.ratio:.12f}")
h101 = discrete.heuristic_gamma_sharp(101, 2.0, restarts=4, seed=7)
print(f"q = 101, p = 2: heuristic {h101.ratio:.6f} "
      "(compare the limiting level 0.46130)")

print("\n=== Interval (kernel) witnesses alone ===\n")
t = discrete.dirichlet_table(101, 2.0)
print(f"q = 101, p = 2: best interval length n = {t.best_n}, "
      f"level {t.best:.6f} (n/q = {t.best_n / 101:.3f}; the optimal density "
      "sits near 0.371)")

print("\n=== Half-grid relative level (shifted target 1/(2q)) ===\n")
for q in (2, 5, 8):
    s = discrete.exact_gamma_star(q, 2.0, K=1e4)
    print(f"q = {q}: relative level {s.ratio_star:.9f}  "
          f"witness {list(s.spectrum.freqs)} in degree < {2 * q}")
print("(conjugate symmetry caps the relative level at 1)")

print("\n=== Integral-norm decay over primes ===\n")
rows = discrete.gamma1_decay_scan([3, 5, 7, 11, 13, 17, 101, 251],
                                  exhaustive_cap=17, restarts=2, seed=0)
print(f"{'q':>5} {'method':>11} {'level':>12} {'interval':>12} "
      f"{'level*log q':>12} {'decay diag':>11}")
for r in rows:
    print(f"{r['q']:>5} {r['method']:>11} {r['gamma1_hat']:>12.6f} "
          f"{r['dirichlet_best']:>12.6f} {r['gamma1_hat_log_q']:>12.4f} "
          f"{r['beta_diagnostic']:>11.4f}")
print("\nThe last column explores how fast the p = 1 level decays; it is "
      "reported as data (no limit is asserted).")
