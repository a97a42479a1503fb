"""Torus constructions: idempotents concentrating their squared mass on a
prescribed symmetric union of intervals.

Run:  python demos/04_torus_concentration.py
"""

from concentra import concentrator as conc

E = conc.IntervalSet(((0.30, 0.35), (0.65, 0.70)), symmetric=True)
print(f"target set: {E.intervals}, total measure {E.measure():.2f}\n")

print("=== Locating a rational window inside the set ===\n")
trace = []
hit = conc.find_fraction(E, theta=0.5, eta=0.05, q0=8, q_max=100, trace=trace)
print(f"examined {len(trace)} candidate fractions; first full-coverage hit: "
      f"a/q = {hit.a}/{hit.q} (coverage {hit.coverage:.3f})")

print("\n=== Full pipeline at exponent 2 ===\n")
res = conc.end_to_end(E, 2.0, 0.05)
plan, rep = res.plan, res.report
print(f"plan: window {plan.a}/{plan.q} +- {plan.theta}/q^2, witness "
      f"{list(plan.R.freqs)}, peaking kernel length n = {plan.n}")
print(f"assembled idempotent: {res.spectrum and len(res.spectrum)} frequencies, "
      f"degree < {res.spectrum.degree_bound}")
print(f"witness grid level (prediction): {res.predicted_ratio:.4f}")
print(f"achieved concentration:          {rep.ratio:.4f}")
print(f"full-circle integral {rep.int_T:.4f} vs frequency count "
      f"{len(res.spectrum)} (rel err {rep.parseval_rel_err:.1e}); "
      f"rounding bound of the exact integrals {rep.quadrature_error_est:.1e}")

print("\n=== Forcing spectral gaps ===\n")
res3 = conc.end_to_end(E, 2.0, 0.05, nu=3)
print(f"gap factor 3: window {res3.plan.a}/{res3.plan.q}, interval witness of "
      f"length {len(res3.plan.R)}, min spectral gap {res3.min_gap}")
print(f"achieved {res3.report.ratio:.4f} vs witness prediction "
      f"{res3.predicted_ratio:.4f}")
print("(larger gap factors shrink the admissible witness degree q/nu and the "
      "level degrades honestly; keeping the full level needs peaking "
      "functions with large gaps, which are outside this package)")

print("\n=== Sanity: the full circle concentrates trivially ===\n")
E1 = conc.IntervalSet(((0.0, 1.0),), symmetric=True)
r1 = conc.end_to_end(E1, 2.0, 0.05, q_max=60)
print(f"ratio on [0, 1): {r1.report.ratio:.9f}")
