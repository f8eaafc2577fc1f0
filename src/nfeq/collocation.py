"""Piecewise-linear collocation for the nonlocal functional equation.

The system is assembled in the N-1 interior nodal unknowns instead of the
per-interval slope/intercept pairs: with a continuous piecewise-linear
ansatz the continuity constraints are automatic and the two formulations
are algebraically equivalent (unit-tested on small N by reconstructing the
slopes and intercepts). The discrete operator is one sparse delay map B
(``delay_map``): collocation solves (I - B) u = k on the interior nodes, and
the grid Picard sweep of ``nfeq.picard`` iterates u <- B u + k with the same
B. Rows of I - B hold at most 5 nonzeros: the system is a sparse CSR array,
solved through one SuperLU factor that also serves the condition.
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


def delay_map(p: ProblemSpec, grid: UniformGrid) -> tuple[sparse.csr_array, np.ndarray]:
    """The delay map B over all N+1 nodes and the source k at the interior nodes.

    Row i of the (N-1)x(N+1) CSR array B holds the hat-function weights of
    phi1(t_i) and phi2(t_i), scaled by phi(t_i) and 1 - phi(t_i): four
    entries per row, so (B u)_i = phi u(phi1(t_i)) + (1 - phi) u(phi2(t_i))
    for the piecewise-linear u with nodal values u. Entries may repeat a
    column or be zero; sums over a row are unaffected.
    """
    n = grid.n
    if n < 2:
        raise ValueError(f"need at least 2 subintervals, got {n}")
    interior = grid.nodes[1:-1]
    phi_vals = eval_on(p.phi, interior)
    # 32-bit indices shrink B and speed up its matvec wherever they fit
    idx = np.int32 if 4 * n <= np.iinfo(np.int32).max else np.int64
    data = np.empty((n - 1, 4))
    indices = np.empty((n - 1, 4), dtype=idx)
    for col, coeff, delay in ((0, phi_vals, p.phi1), (2, 1.0 - phi_vals, p.phi2)):
        try:
            i, w = locate(grid, eval_on(delay, interior))
        except DomainError as exc:
            raise DomainError(f"delay argument {exc} (collocation node "
                              f"{exc.index + 1})", exc.index) from None
        data[:, col] = coeff * (1.0 - w)
        data[:, col + 1] = coeff * w
        indices[:, col] = i
        indices[:, col + 1] = i + 1
    b = sparse.csr_array((data.ravel(), indices.ravel(), 4 * np.arange(n, dtype=idx)),
                         shape=(n - 1, n + 1))
    return b, eval_on(p.source, interior)


def assemble(p: ProblemSpec, grid: UniformGrid) -> tuple[sparse.csr_array, np.ndarray]:
    """Build the sparse (N-1)x(N-1) interior system and its right-hand side.

    Row i enforces u_i - (B u)_i = k(t_i) for the delay map B: its columns
    on the interior nodes enter the matrix I - B, its boundary columns move
    to the right-hand side scaled by the boundary values.
    """
    b, k = delay_map(p, grid)
    n = grid.n
    # I - B on the interior columns, the unit diagonal ahead of each row's
    # four B entries so duplicates sum in the row-loop reference's order;
    # built directly, it costs less at small N than sparse arithmetic on B
    data = np.hstack((np.ones((n - 1, 1)), -b.data.reshape(n - 1, 4)))
    cols = np.hstack((np.arange(1, n, dtype=b.indices.dtype)[:, None],
                      b.indices.reshape(n - 1, 4)))
    keep = (cols > 0) & (cols < n)
    indptr = np.zeros(n, dtype=b.indptr.dtype)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    a = sparse.csr_array((data[keep], cols[keep] - 1, indptr), shape=(n - 1, n - 1))
    a.sum_duplicates()
    a.eliminate_zeros()
    # the boundary columns of B times the boundary data: a matvec costs less
    # than selecting those columns and adds the same terms in the same order
    boundary = np.zeros(n + 1)
    boundary[[0, n]] = p.boundary_left, p.boundary_right
    return a, k + b @ boundary


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
