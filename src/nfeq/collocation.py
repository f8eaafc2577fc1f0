"""Piecewise-linear collocation for the nonlocal functional equation.

The system is assembled in the N-1 interior nodal unknowns instead of the
per-interval slope/intercept pairs: with a continuous piecewise-linear
ansatz the continuity constraints are automatic and the two formulations
are algebraically equivalent (unit-tested on small N by reconstructing the
slopes and intercepts). The discrete operator is one sparse delay map B
(``delay_map``): collocation solves (I - B) u = k on the interior nodes, and
the grid Picard sweep of ``nfeq.picard`` iterates u <- B u + k with the same
B and the same ``sweep``. B is built DELAY_BLOCK_ROWS interior rows at a
time, so its temporaries stay in cache at large N, and ``sweep`` calls
scipy's CSR kernel directly and takes its increment in place in the old
iterate instead of a fresh array. All are exact reorganisations: every
entry of B and k comes from its own node by the same operations, the
kernel is the one ``b @ x`` calls, and |old - new| is |new - old| bit for
bit, so B, k and every iterate equal those of a whole-array build.

For the convex combination 0 <= phi <= 1, B >= 0, and a nonsingular
A = I - B_int (B_int: the interior columns of B) has A^-1 = sum_j B_int^j
>= 0, so ||A^-1||_inf = ||A^-1 1||_inf exactly (M-matrix theory; Berman &
Plemmons 1994, Varga). ``solve_collocation`` sweeps u beside w -> A^-1 1 until
w's increment dw <= W, then freezes w with the bound ||A^-1||_inf <= ||w||_inf
/ (1 - dw) <= ||A^-1||_inf / (1 - W) and sweeps u alone until the bound times
its increment du reaches SWEEP_TOL. It bounds the condition ||A||_inf
||A^-1||_inf from above, without an estimator. Systems the sweep cannot certify
(a negative entry of B, or a contraction too slow to reach SWEEP_TOL within
MAX_SWEEPS sweeps) fall back to the sparse system I - B built from the same B,
with at most 5 nonzeros per row, and one SuperLU factor that also serves the
condition estimate. On both paths the solution must pass a gate, the interior
residual max |B u + k - u| <= RESIDUAL_TOL, one matvec with the B it was solved
with; the tests check B itself against ``ProblemSpec.operator``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse._sparsetools import csr_matvec

from . import linalg
from .functions import eval_on
from .grids import DomainError, PiecewiseLinear, UniformGrid, locate
from .problem import ProblemSpec, validate

#: interior collocation residual the returned solution must satisfy
RESIDUAL_TOL = 1e-9
#: certified nodal error at which the sweep stops, relative to max(1, ||x||_inf)
SWEEP_TOL = 1e-13
#: sweeps tried before SuperLU takes over: about what one SuperLU solve costs
#: at N = 1024 (76-217 sweeps over the cusp and paradise problems measured)
MAX_SWEEPS = 150
#: w's contraction rate dw_j / dw_(j-1) counts as settled once 1 - rate
#: changes by at most this fraction between sweeps
RATE_SETTLED = 0.1
#: w is frozen at dw <= W: its bound is then within 1 / (1 - W) of exact
W = 0.01
#: interior rows of B built at a time by ``delay_map``: a block's
#: temporaries are 128 KiB per array, where whole-array ones at N = 2^18
#: page-fault on every build (2^13 to 2^15 rows measured within 10%)
DELAY_BLOCK_ROWS = 2 ** 14


class CollocationError(ArithmeticError):
    """The collocation system could not be solved."""


@dataclass(frozen=True)
class AssemblyStats:
    nonzeros: int
    assembly_time: float
    solve_time: float
    #: sweeps of u run, including those tried before a SuperLU fallback
    sweeps: int
    #: "sweep" or "superlu": the path that solved the system
    solver: str


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

    B and k are built DELAY_BLOCK_ROWS interior rows at a time, each block
    written into the preallocated output arrays, so the temporaries of a
    block stay in cache however large N is. Every entry is computed from
    its own node alone, by the same operations as a whole-array build, so
    the blocking changes no bit of B or k. A delay that leaves [0, 1]
    raises DomainError naming its global node. With several faulty nodes or
    functions the error raised is the first one met block by block (phi,
    phi1, phi2, then the source within a block), which need not be the one
    a whole-array build, evaluating each function at every node in turn,
    would raise first.
    """
    n = grid.n
    if n < 2:
        raise ValueError(f"need at least 2 subintervals, got {n}")
    interior = grid.nodes[1:-1]
    # 32-bit indices shrink B and speed up its matvec wherever they fit
    idx = np.int32 if 4 * n <= np.iinfo(np.int32).max else np.int64
    data = np.empty((n - 1, 4))
    indices = np.empty((n - 1, 4), dtype=idx)
    k = np.empty(n - 1)
    for lo in range(0, n - 1, DELAY_BLOCK_ROWS):
        rows = slice(lo, lo + DELAY_BLOCK_ROWS)
        ts = interior[rows]
        phi_vals = eval_on(p.phi, ts)
        for col, coeff, delay in ((0, phi_vals, p.phi1), (2, 1.0 - phi_vals, p.phi2)):
            try:
                i, w = locate(grid, eval_on(delay, ts))
            except DomainError as exc:
                row = lo + exc.index
                raise DomainError(f"delay argument {exc} (collocation node "
                                  f"{row + 1})", row) from None
            data[rows, col] = coeff * (1.0 - w)
            data[rows, col + 1] = coeff * w
            indices[rows, col] = i
            indices[rows, col + 1] = i + 1
        k[rows] = eval_on(p.source, ts)
    b = sparse.csr_array((data.ravel(), indices.ravel(), 4 * np.arange(n, dtype=idx)),
                         shape=(n - 1, n + 1))
    return b, k


def assemble(p: ProblemSpec, grid: UniformGrid) -> tuple[sparse.csr_array, np.ndarray]:
    """Build the sparse (N-1)x(N-1) interior system and its right-hand side.

    Row i enforces u_i - (B u)_i = k(t_i) for the delay map B: its columns
    on the interior nodes enter the matrix I - B, its boundary columns move
    to the right-hand side scaled by the boundary values.
    """
    return _interior_system(p, *delay_map(p, grid))


def _interior_system(p: ProblemSpec, b: sparse.csr_array,
                     k: np.ndarray) -> tuple[sparse.csr_array, np.ndarray]:
    """``assemble`` from a delay map B and source k already built."""
    n = b.shape[0] + 1
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


def sweep(b: sparse.csr_array, k, x: np.ndarray) -> float:
    """One Picard sweep x[1:-1] <- B x + k in place, boundary values pinned.

    B x is one call to scipy's CSR kernel into a zeroed array, the call
    ``b @ x`` ends in, without the operator's dispatch around it. Returns
    the largest interior increment |x_old - x_new|, taken in place in
    x[1:-1] before the new values are stored, so no increment array is
    allocated; |x_old - x_new| equals |x_new - x_old| bit for bit.
    """
    new = np.zeros(b.shape[0])
    csr_matvec(b.shape[0], b.shape[1], b.indptr, b.indices, b.data, x, new)
    new += k
    old = x[1:-1]
    np.subtract(old, new, out=old)
    increment = float(np.maximum.reduce(np.abs(old, out=old)))
    old[...] = new
    return increment


def _certified_sweeps(p: ProblemSpec, b: sparse.csr_array,
                      k: np.ndarray) -> tuple[np.ndarray | None, float, int]:
    """Sweep u (data k) until certified, and w (data 1) until dw <= W.

    Needs B >= 0. Returns (u, bound on ||A^-1||_inf, sweeps of u run) once
    u's certified nodal error, bound * du, is within SWEEP_TOL of
    max(1, ||u||_inf). Sweep j adds B_int^(j-1) 1 >= 0 to w (zero boundary
    values), so A w >= 1 - dw_j; once dw_j <= W, w is frozen with the bound
    ||w||_inf / (1 - dw_j) <= ||A^-1||_inf / (1 - W). u is None on a give-up.
    Before the freeze: when w's settled rate predicts dw > SWEEP_TOL at
    MAX_SWEEPS, or when dw is still 1 at sweep N (the nodes reached from
    its maximiser then form a closed class with row sums 1, so A is singular
    and SuperLU reports it). After it, dw_j = ||B_int^(j-1)||_inf <= W
    certifies u's contraction, so only MAX_SWEEPS ends the sweep.
    """
    u = np.zeros(b.shape[1])
    u[0], u[-1] = p.boundary_left, p.boundary_right
    w = np.zeros(b.shape[1])
    dw = rate = bound = np.inf
    for sweeps in range(1, MAX_SWEEPS + 1):
        du = sweep(b, k, u)
        if bound == np.inf:  # w not frozen yet
            dw_prev, dw = dw, sweep(b, 1.0, w)
            if dw >= 1.0 and sweeps > b.shape[0]:  # sweep N
                break
            if dw <= W:
                # w >= 0: B >= 0 and every sweep adds B^j 1 >= 0
                bound = float(w.max()) / (1.0 - dw)
            elif 0.0 < dw_prev < 1.0:
                # u contracts at w's rate, so dw predicts u's give-up too
                rate_prev, rate = rate, dw / dw_prev
                if abs(rate - rate_prev) <= RATE_SETTLED * (1.0 - rate) and \
                        rate ** (MAX_SWEEPS - sweeps) * dw > SWEEP_TOL:
                    break
        if bound < np.inf and bound * du <= SWEEP_TOL * max(1.0, float(np.abs(u).max())):
            return u, bound, sweeps
    return None, np.inf, sweeps


def _interior_norm(b: sparse.csr_array) -> float:
    """||I - B_int||_inf for B >= 0, without building I - B.

    Row i sums |1 - B_ii| and the other interior entries of B's row i.
    """
    diag = b.diagonal(1)  # row i of B belongs to interior node i + 1
    interior = np.ones(b.shape[1])
    interior[[0, -1]] = 0.0
    rows = np.abs(1.0 - diag)
    rows += b @ interior
    rows -= diag
    return float(rows.max())


def solve_collocation(p: ProblemSpec, n: int) -> CollocationSolution:
    """Solve the collocation system on N = n subintervals.

    The certified sweep solves it when B >= 0 and it stops within
    MAX_SWEEPS; otherwise one SuperLU factor of the system built from the
    same B serves the solve and the condition estimate.
    """
    validate(p)
    grid = UniformGrid(n)
    t0 = time.perf_counter()
    b, k = delay_map(p, grid)
    t1 = time.perf_counter()
    # exact for the B built here, whatever validate's sampled checks saw
    values, bound, sweeps = (_certified_sweeps(p, b, k) if b.data.min() >= 0.0
                             else (None, np.inf, 0))
    t2 = time.perf_counter()
    if values is not None:
        condition = _interior_norm(b) * bound
        nonzeros, solver = b.nnz, "sweep"
        assembly_time, solve_time = t1 - t0, t2 - t1
    else:
        a, rhs = _interior_system(p, b, k)
        t3 = time.perf_counter()
        try:
            lu = linalg.factor(a)
        except linalg.SingularMatrixError as exc:
            raise CollocationError(
                f"singular collocation system ({exc}); check the contraction "
                "certificate of the problem") from exc
        x = lu.solve(rhs)
        t4 = time.perf_counter()
        values = np.concatenate(([p.boundary_left], x, [p.boundary_right]))
        condition = linalg.condition_estimate(a, lu)
        nonzeros, solver = a.nnz, "superlu"
        # the sweeps tried count as solve time
        assembly_time, solve_time = (t1 - t0) + (t3 - t2), (t2 - t1) + (t4 - t3)
    solution = PiecewiseLinear(grid=grid, values=values)

    # the interior collocation residual, through the B both paths solved with
    defect = float(np.abs(b @ values + k - values[1:-1]).max())
    if defect > RESIDUAL_TOL:
        raise CollocationError(
            f"interior collocation residual {defect:.3e} exceeds {RESIDUAL_TOL:.0e}")

    stats = AssemblyStats(nonzeros=int(nonzeros), assembly_time=assembly_time,
                          solve_time=solve_time, sweeps=sweeps, solver=solver)
    return CollocationSolution(solution=solution, grid=grid,
                               condition=condition, stats=stats)
