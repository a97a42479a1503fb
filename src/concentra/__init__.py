"""concentra: numerical laboratory for L^p norm concentration of idempotent
trigonometric polynomials on cyclic grids and on the torus."""

from .trigpoly import (CoeffPoly, Grid, Spectrum, eval_grid, eval_point,
                       fold_power, to_coeffs)
from .bounds import (ConstantResult, MinResult, SeriesEval, asymptote_scan,
                     eval_A, eval_B, gamma1_certified_lower, gamma2_sharp,
                     gamma4_sharp_lower, gamma_sharp_lower, gamma_star_lower,
                     minimize_over_t)
from .discrete import (ConcentrationReport, DirichletTable, StarReport,
                       concentration_ratio, dirichlet_table, exact_gamma_sharp,
                       exact_gamma_star, exact_gamma_stars, gamma1_decay_scan,
                       gamma_sharp, heuristic_gamma_sharp, ratio)
from .rounding import (MomentReport, MonteCarloReport, RoundingTrial,
                       bernoulli_round, hypothesis_constants, monte_carlo,
                       moment_check, normalize_peak, verify_trial)
from .concentrator import (EndToEndResult, FractionHit, IntervalSet, Plan,
                           TorusReport, build_Q, choose_n, end_to_end,
                           find_fraction, measure)
from .errors import BudgetError, DomainError

__version__ = "0.1.0"
