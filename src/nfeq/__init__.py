"""Solvers for nonlocal functional equations with vanishing delays.

The equation f(t) = phi(t) f(phi1(t)) + (1 - phi(t)) f(phi2(t)) + k(t) on
[0, 1] is solved by piecewise-linear collocation and fixed-point iteration,
with Hoelder-space contraction certification, closed-form and manufactured
oracles, and mesh-refinement convergence studies.
"""

__version__ = "0.1.0"

from .functions import FunctionHandle, constant, identity
from .grids import PiecewiseLinear, UniformGrid, project
from .problem import (NormOverrides, ProblemSpec, certify, paradise_fish,
                      residual, section5, to_homogeneous)
from .collocation import solve_collocation
from .picard import picard_grid
from .oracles import cusp_solution, manufacture, product_formula
from .study import fit_order, run_study

__all__ = [
    "FunctionHandle", "constant", "identity",
    "PiecewiseLinear", "UniformGrid", "project",
    "NormOverrides", "ProblemSpec", "certify", "paradise_fish", "residual",
    "section5", "to_homogeneous",
    "solve_collocation", "picard_grid",
    "cusp_solution", "manufacture", "product_formula",
    "fit_order", "run_study",
]
