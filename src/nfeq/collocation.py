"""Piecewise-linear collocation for the nonlocal functional equation.

The system is assembled in the N-1 interior nodal unknowns instead of the
per-interval slope/intercept pairs: with a continuous piecewise-linear
ansatz the continuity constraints are automatic and the two formulations
are algebraically equivalent (unit-tested on small N by reconstructing the
slopes and intercepts). Rows hold at most 5 nonzeros: the system is a sparse
CSR array, solved through one SuperLU factor that also serves the condition.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import linalg
from .functions import eval_on
from .grids import DomainError, PiecewiseLinear, UniformGrid, locate
from .problem import ProblemSpec, validate

#: interior collocation residual the returned solution must satisfy
RESIDUAL_TOL = 1e-9


class CollocationError(ArithmeticError):
    """The collocation system could not be solved."""


@dataclass(frozen=True)
class AssemblyStats:
    nonzeros: int
    assembly_time: float
    solve_time: float


@dataclass(frozen=True)
class CollocationSolution:
    solution: PiecewiseLinear
    grid: UniformGrid
    condition: float
    stats: AssemblyStats


def assemble(p: ProblemSpec, grid: UniformGrid) -> tuple[sparse.csr_array, np.ndarray]:
    """Build the sparse (N-1)x(N-1) interior system and its right-hand side.

    Row i enforces u_i - T u(t_i) = k(t_i). The hat-function weights of
    phi1(t_i) and phi2(t_i), scaled by phi(t_i) and 1 - phi(t_i), form the
    delay map B; weights on the boundary nodes move to the right-hand side
    scaled by the boundary values, the rest enter the matrix I - B.
    """
    n = grid.n
    if n < 2:
        raise ValueError(f"need at least 2 subintervals, got {n}")
    interior = grid.nodes[1:-1]
    phi_vals = eval_on(p.phi, interior)
    k_vals = eval_on(p.source, interior)
    boundary = np.zeros(n + 1)
    boundary[0], boundary[n] = p.boundary_left, p.boundary_right

    rows = np.arange(n - 1)
    entries = [(rows, rows, np.ones(n - 1))]
    rhs = k_vals.copy()
    for coeff, delay in ((phi_vals, p.phi1), (1.0 - phi_vals, p.phi2)):
        try:
            i, w = locate(grid, eval_on(delay, interior))
        except DomainError as exc:
            raise DomainError(f"delay argument {exc} (collocation node "
                              f"{exc.index + 1})", exc.index) from None
        for j, weight in ((i, coeff * (1.0 - w)), (i + 1, coeff * w)):
            rhs += weight * boundary[j]
            keep = (j > 0) & (j < n) & (weight != 0.0)
            entries.append((rows[keep], j[keep] - 1, -weight[keep]))
    r, c, v = (np.concatenate(parts) for parts in zip(*entries))
    return sparse.csr_array((v, (r, c)), shape=(n - 1, n - 1)), rhs


def solve_collocation(p: ProblemSpec, n: int) -> CollocationSolution:
    """Assemble and solve the collocation system on N = n subintervals.

    One SuperLU factor serves the solve and the condition estimate.
    """
    validate(p)
    grid = UniformGrid(n)
    t0 = time.perf_counter()
    a, rhs = assemble(p, grid)
    t1 = time.perf_counter()
    try:
        lu = linalg.factor(a)
    except linalg.SingularMatrixError as exc:
        raise CollocationError(
            f"singular collocation system ({exc}); check the contraction "
            "certificate of the problem") from exc
    x = lu.solve(rhs)
    t2 = time.perf_counter()

    values = np.concatenate(([p.boundary_left], x, [p.boundary_right]))
    solution = PiecewiseLinear(grid=grid, values=values)

    interior = grid.nodes[1:-1]
    defect = float(np.abs(values[1:-1] - p.operator(solution, interior)).max())
    if defect > RESIDUAL_TOL:
        raise CollocationError(
            f"interior collocation residual {defect:.3e} exceeds {RESIDUAL_TOL:.0e}")

    stats = AssemblyStats(nonzeros=int(a.nnz),
                          assembly_time=t1 - t0, solve_time=t2 - t1)
    return CollocationSolution(solution=solution, grid=grid,
                               condition=linalg.condition_estimate(a, lu),
                               stats=stats)
