"""Fixed-point iteration, in exact (exponential-cost) and grid-based forms.

The exact form evaluates the depth-d iterate at one point over its whole
recursion tree of 2^(d+1) - 1 nodes, one tree level per numpy call, and
gives the same floats as the direct scalar recursion.

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
from .functions import eval_on
from .grids import PiecewiseLinear, UniformGrid, clamp_unit
from .problem import ProblemSpec

#: recursion cap: the exact evaluator costs 2^(depth+1)-1 node visits
MAX_EXACT_DEPTH = 25
#: levels of the recursion tree held in memory at once below one subtree
#: root: 2^16 leaves, about 2 MiB of level arrays at any depth
BLOCK_LEVELS = 16


class CostGuardError(ValueError):
    """Requested exact-iteration depth exceeds the exponential-cost cap."""


def _expand(p: ProblemSpec, xs: np.ndarray, levels: int):
    """Walk ``levels`` levels down the recursion tree from the points xs.

    Returns the (phi, source) values of each level and the points below the
    last one; the children of x are phi1(x) and phi2(x), interleaved.
    """
    coeffs = []
    for _ in range(levels):
        coeffs.append((eval_on(p.phi, xs), eval_on(p.source, xs)))
        kids = np.empty(2 * xs.size)
        kids[0::2] = clamp_unit(eval_on(p.phi1, xs))
        kids[1::2] = clamp_unit(eval_on(p.phi2, xs))
        xs = kids
    return coeffs, xs


def _collapse(coeffs, v: np.ndarray) -> np.ndarray:
    """Combine child values level by level, bottom-up, as the recursion does."""
    for w, s in reversed(coeffs):
        v = w * v[0::2] + (1.0 - w) * v[1::2] + s
    return v


def picard_exact_counted(p: ProblemSpec, f0, depth: int, t: float) -> tuple[float, int]:
    """Evaluate the depth-th iterate at a single point over the full recursion tree.

    Returns (value, visits) where visits counts every node of the tree,
    2^(depth+1) - 1 in total: the exponential cost that makes plain
    iteration impractical. The tree is evaluated a level at a time, with the
    same floating-point operations in the same order as the direct recursion
    f_d(x) = phi(x) f_{d-1}(phi1(x)) + (1 - phi(x)) f_{d-1}(phi2(x)) + k(x).
    Below the top depth - BLOCK_LEVELS levels, each subtree is expanded
    from its own root, so memory stays bounded. Delay values pass through
    ``grids.clamp_unit`` and every value through ``eval_on``.
    """
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    if depth > MAX_EXACT_DEPTH:
        raise CostGuardError(
            f"depth {depth} exceeds cap {MAX_EXACT_DEPTH} "
            f"(cost 2^{depth + 1}-1 evaluations)")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t={t!r} outside [0,1]")

    top, roots = _expand(p, np.array([float(t)]), max(depth - BLOCK_LEVELS, 0))
    visits = sum(w.size for w, _ in top)
    below = np.empty(roots.size)
    for j in range(roots.size):
        coeffs, leaves = _expand(p, roots[j:j + 1], depth - len(top))
        below[j] = _collapse(coeffs, eval_on(f0, leaves))[0]
        visits += sum(w.size for w, _ in coeffs) + leaves.size
    return float(_collapse(top, below)[0]), visits


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
