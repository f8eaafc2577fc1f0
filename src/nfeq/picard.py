"""Fixed-point iteration, in exact (exponential-cost) and grid-based forms.

The grid sweep applies the delay map B of ``collocation.delay_map``, built
once, as one CSR matrix-vector product per iteration, u_int <- B u + k, and
keeps only the last iterate: its limit is the collocation solution of
(I - B) u = k by construction.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .collocation import delay_map
from .grids import PiecewiseLinear, UniformGrid
from .problem import ProblemSpec

#: recursion cap: the exact evaluator costs 2^(depth+1)-1 node visits
MAX_EXACT_DEPTH = 25


class CostGuardError(ValueError):
    """Requested exact-iteration depth exceeds the exponential-cost cap."""


def picard_exact_counted(p: ProblemSpec, f0, depth: int, t: float) -> tuple[float, int]:
    """Evaluate the depth-th iterate at a single point by direct recursion.

    Returns (value, visits) where visits counts every node of the recursion
    tree, 2^(depth+1) - 1 in total: the exponential cost that makes plain
    iteration impractical.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    if depth > MAX_EXACT_DEPTH:
        raise CostGuardError(
            f"depth {depth} exceeds cap {MAX_EXACT_DEPTH} "
            f"(cost 2^{depth + 1}-1 evaluations)")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t={t!r} outside [0,1]")

    phi, phi1, phi2, source = p.phi, p.phi1, p.phi2, p.source
    f0_eval = f0.eval if hasattr(f0, "eval") else f0
    visits = 0

    def rec(d: int, x: float) -> float:
        nonlocal visits
        visits += 1
        if d == 0:
            return float(f0_eval(x))
        w = float(phi(x))
        return (w * rec(d - 1, min(max(float(phi1(x)), 0.0), 1.0))
                + (1.0 - w) * rec(d - 1, min(max(float(phi2(x)), 0.0), 1.0))
                + float(source(x)))

    return rec(depth, float(t)), visits


def picard_exact(p: ProblemSpec, f0, depth: int, t: float) -> float:
    return picard_exact_counted(p, f0, depth, t)[0]


@dataclass(frozen=True)
class PicardTrace:
    final: PiecewiseLinear
    increments: list
    contraction_ratios: list
    converged: bool


def initial_iterate(p: ProblemSpec, grid: UniformGrid) -> PiecewiseLinear:
    """Linear interpolant of the boundary data (the identity for the original form)."""
    values = p.boundary_left + (p.boundary_right - p.boundary_left) * grid.nodes
    return PiecewiseLinear(grid=grid, values=values)


def picard_grid(p: ProblemSpec, grid: UniformGrid, f0: PiecewiseLinear,
                tol: float = 1e-12, max_iter: int = 1000) -> PicardTrace:
    """Jacobi-style nodal fixed-point sweep with pinned boundary values.

    Its limit is the discrete fixed point shared with the collocation
    solution. The boundary values of f0, which may differ from the boundary
    data by 1e-12, are replaced by the data. The trace holds the last
    iterate and every increment. On non-convergence the partial trace is
    returned with ``converged = False`` and a warning.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if f0.grid.n != grid.n:
        raise ValueError(f"initial iterate lives on N={f0.grid.n}, expected N={grid.n}")
    if abs(f0.values[0] - p.boundary_left) > 1e-12 or \
            abs(f0.values[-1] - p.boundary_right) > 1e-12:
        raise ValueError("initial iterate does not match the boundary values")

    b, k = delay_map(p, grid)
    values = f0.values.copy()
    values[0], values[-1] = p.boundary_left, p.boundary_right
    increments: list[float] = []
    converged = False
    for _ in range(max_iter):
        new = b @ values
        new += k
        diff = new - values[1:-1]
        inc = float(np.abs(diff, out=diff).max())
        values[1:-1] = new
        increments.append(inc)
        if inc < tol:
            converged = True
            break
    if not converged:
        warnings.warn(f"grid fixed-point sweep did not reach tol={tol:g} "
                      f"in {max_iter} iterations (last increment {increments[-1]:.3e})")

    ratios = [increments[i] / increments[i - 1] if increments[i - 1] > 0.0 else math.nan
              for i in range(1, len(increments))]
    return PicardTrace(final=PiecewiseLinear(grid=grid, values=values),
                       increments=increments,
                       contraction_ratios=ratios, converged=converged)


def write_trace_csv(trace: PicardTrace, path) -> None:
    """Serialize increments and ratios as (iteration, increment, ratio) rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "increment", "ratio"])
        for i, inc in enumerate(trace.increments, start=1):
            ratio = trace.contraction_ratios[i - 2] if i >= 2 else math.nan
            writer.writerow([i, f"{inc:.17g}", f"{ratio:.17g}"])
