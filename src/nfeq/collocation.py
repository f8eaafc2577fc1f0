"""Piecewise-linear collocation for the nonlocal functional equation.

The system is assembled in the N-1 interior nodal unknowns instead of the
per-interval slope/intercept pairs: with a continuous piecewise-linear
ansatz the two formulations are algebraically equivalent (unit-tested on
small N). The discrete operator is one sparse delay map B (``delay_map``):
collocation solves (I - B) u = k on the interior nodes, and the grid Picard
sweep of ``nfeq.picard`` iterates u <- B u + k with the same B and ``sweep``,
between two iterate buffers that swap roles after each sweep.

B >= 0 is ``delay_map``'s invariant: phi and the delays pass the checked
clamp at every node, and a value outside [0, 1] raises DomainError before
any solver runs. Each row of B sums to 1, so a nonsingular A = I - B_int
(B_int: the interior columns of B) has A^-1 = sum_j B_int^j >= 0 and
||A^-1||_inf = ||A^-1 1||_inf exactly (M-matrix theory; Berman & Plemmons
1994, Varga). ``solve_collocation`` sweeps u beside w -> A^-1 1 until
dw <= W, freezes w with the bound ||A^-1||_inf <= ||w||_inf / (1 - dw) <=
||A^-1||_inf / (1 - W), and sweeps u alone until the bound times du reaches
SWEEP_TOL. SuperLU takes over for two causes only: a contraction too slow
for MAX_SWEEPS, or a singular system (dw still 1 at sweep N). Its one
factor of I - B_int, built from the same B, gives u and w = A^-1 1 exactly.
B is a ``DelayMap``, a plain CSR triple whose ``b @ x`` runs scipy's
compiled kernel ``csr_matvec``. ``load_sparse`` loads the kernel's module,
private to scipy, by file (about 0.2 MiB and 1 ms) rather than all of
scipy.sparse (20 MiB, 0.2 s); a test checks that it is the module a later
``import scipy.sparse`` uses. Importing this module loads no scipy, and
only the SuperLU fallback imports scipy.sparse and ``nfeq.linalg`` (about
30 MiB and 0.25 s). Both loads run outside every timer the package reports.
The condition is one formula on both paths, ||A||_inf times the bound or
max(w). Both solutions must pass the gate max |B u + k - u| <= RESIDUAL_TOL,
one matvec with the B they were solved with.
"""
from __future__ import annotations

import importlib.util
import os
import sys
import time
import warnings
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .functions import eval_on
from .grids import PiecewiseLinear, UniformGrid, place
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


#: the extension module of scipy's CSR kernels, loaded without scipy.sparse
KERNEL_MODULE = "scipy.sparse._sparsetools"


def load_sparse() -> None:
    """Bind scipy's CSR kernel to ``csr_matvec``. Its module is loaded once
    by file, without scipy.sparse's ``__init__``, and registered under its
    own name: a later ``import scipy.sparse`` reuses it, as this does one
    registered before. Where no extension file is found there (a scipy
    whose compiled modules are not beside its sources, as in an editable
    meson-python build, which loads them from its build directory), the
    module is imported through scipy.sparse, with a RuntimeWarning naming
    the directory searched. A caller that times a solve calls this first."""
    global csr_matvec
    module = sys.modules.get(KERNEL_MODULE)
    if module is None:
        scipy = importlib.util.find_spec("scipy")  # imports nothing
        where = os.path.join(scipy.submodule_search_locations[0], "sparse")
        spec = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(
            KERNEL_MODULE)
        if spec is None:
            warnings.warn(f"no {KERNEL_MODULE} extension in {where}: importing it "
                          "through scipy.sparse", RuntimeWarning, stacklevel=2)
            module = importlib.import_module(KERNEL_MODULE)
        else:
            module = sys.modules[KERNEL_MODULE] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
    csr_matvec = module.csr_matvec


def csr_matvec(*args) -> None:
    """Stand-in for scipy's CSR kernel y += B x until ``load_sparse`` binds
    the kernel to this name, so ``sweep`` calls it without an import."""
    load_sparse()
    csr_matvec(*args)


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
    #: seconds spent importing ``nfeq.linalg`` (the first fallback in a
    #: process pays it), in neither timer; 0.0 when nothing loaded
    import_time: float


@dataclass(frozen=True, eq=False)
class DelayMap:
    """B in CSR form: row i holds data[j] in column indices[j] for
    indptr[i] <= j < indptr[i+1]. ``b @ x`` runs the CSR kernel into a
    zeroed vector, as scipy's ``csr_array @ x`` does: the same floats."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if np.shape(x) != self.shape[1:]:  # the kernel does not check
            raise ValueError(f"cannot apply a {self.shape} map to shape {np.shape(x)}")
        y = np.zeros(self.shape[0])
        csr_matvec(*self.shape, self.indptr, self.indices, self.data, x, y)
        return y


@dataclass(frozen=True)
class CollocationSolution:
    solution: PiecewiseLinear
    grid: UniformGrid
    condition: float
    stats: AssemblyStats


def delay_map(p: ProblemSpec, grid: UniformGrid) -> tuple[DelayMap, np.ndarray]:
    """The delay map B over all N+1 nodes and the source k at the interior nodes.

    Row i of the (N-1)x(N+1) map B holds the hat-function weights of
    phi1(t_i) and phi2(t_i), scaled by phi(t_i) and 1 - phi(t_i): four
    entries per row, so (B u)_i = phi u(phi1(t_i)) + (1 - phi) u(phi2(t_i))
    for the piecewise-linear u with nodal values u. Entries may repeat a
    column or be zero; sums over a row are unaffected.

    B and k are built DELAY_BLOCK_ROWS interior rows at a time, the weights
    and indices written in place into the output arrays, so a block's few
    temporaries stay in cache however large N is. Every entry is computed
    from its own node alone, by the same operations as a whole-array build,
    so the blocking changes no bit of B or k.

    phi and the delays come checked from ``ProblemSpec.coefficients``, so
    every B returned is >= 0 with unit row sums. A value beyond CLAMP_TOL of
    [0, 1] raises DomainError naming the function, the point, the value and
    the node: the first met block by block (phi, phi1, phi2, then the
    source), not always the one a whole-array build would raise first.
    """
    n = grid.n
    if n < 2:
        raise ValueError(f"need at least 2 subintervals, got {n}")
    load_sparse()
    interior = grid.nodes[1:-1]
    # 32-bit indices shrink B and speed up its matvec wherever they fit
    idx = np.int32 if 4 * n <= np.iinfo(np.int32).max else np.int64
    data = np.empty((n - 1, 4))
    indices = np.empty((n - 1, 4), dtype=idx)
    k = np.empty(n - 1)
    for lo in range(0, n - 1, DELAY_BLOCK_ROWS):
        rows = slice(lo, lo + DELAY_BLOCK_ROWS)
        ts = interior[rows]
        phi_vals, x1, x2 = p.coefficients(ts, lo)
        for col, coeff, x in ((0, phi_vals, x1), (2, 1.0 - phi_vals, x2)):
            i, w = place(grid, x)  # x: coefficients' own clamped copy
            np.multiply(coeff, w, out=data[rows, col + 1])
            np.multiply(coeff, np.subtract(1.0, w, out=w), out=data[rows, col])
            indices[rows, col] = i
            np.add(i, 1, out=indices[rows, col + 1], casting="unsafe")
        k[rows] = eval_on(p.source, ts)
    b = DelayMap(data.ravel(), indices.ravel(), np.arange(0, 4 * n, 4, dtype=idx),
                 (n - 1, n + 1))
    return b, k


def assemble(p: ProblemSpec, grid: UniformGrid) -> tuple["sparse.csr_array", np.ndarray]:
    """Build the sparse (N-1)x(N-1) interior system and its right-hand side.

    Row i enforces u_i - (B u)_i = k(t_i) for the delay map B: its columns
    on the interior nodes enter the matrix I - B, its boundary columns move
    to the right-hand side scaled by the boundary values.
    """
    return _interior_system(p, *delay_map(p, grid))


def _interior_system(p: ProblemSpec, b: DelayMap,
                     k: np.ndarray) -> tuple["sparse.csr_array", np.ndarray]:
    """``assemble`` from a delay map B and source k already built."""
    from scipy import sparse  # only the SuperLU fallback needs scipy.sparse
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


def sweep(b: DelayMap, k, x: np.ndarray, y: np.ndarray) -> float:
    """One Picard sweep y[1:-1] <- B x + k; no array of iterate size is made.

    x and y share boundary values, and the caller swaps them after a sweep.
    B x runs scipy's CSR kernel into the zeroed y[1:-1], as ``b @ x`` does.
    Returns the largest interior |x_old - x_new|, taken in place in x[1:-1].
    """
    new = y[1:-1]
    new.fill(0.0)
    csr_matvec(b.shape[0], b.shape[1], b.indptr, b.indices, b.data, x, new)
    new += k
    old = np.subtract(x[1:-1], new, out=x[1:-1])
    return float(np.maximum.reduce(np.abs(old, out=old)))


def _certified_sweeps(p: ProblemSpec, b: DelayMap,
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
    u_next, w, w_next = u.copy(), np.zeros(b.shape[1]), np.zeros(b.shape[1])
    dw = rate = bound = np.inf
    for sweeps in range(1, MAX_SWEEPS + 1):
        du = sweep(b, k, u, u_next)
        u, u_next = u_next, u
        if bound == np.inf:  # w not frozen yet
            dw_prev, dw = dw, sweep(b, 1.0, w, w_next)
            w, w_next = w_next, w
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


def _interior_norm(b: DelayMap) -> float:
    """||I - B_int||_inf for B >= 0, without building I - B.

    Row i sums |1 - B_ii| and the other interior entries of B's row i. The
    diagonal comes from B's columns, four per row: entries in one row add
    in row order from 0, as scipy's ``diagonal`` adds them.
    """
    n = b.shape[0] + 1
    # row i of B belongs to interior node i + 1
    hits = np.flatnonzero(b.indices.reshape(n - 1, 4)
                          == np.arange(1, n, dtype=b.indices.dtype)[:, None])
    diag = np.zeros(n - 1)
    np.add.at(diag, hits // 4, b.data[hits])
    interior = np.ones(b.shape[1])
    interior[[0, -1]] = 0.0
    rows = np.abs(1.0 - diag)
    rows += b @ interior
    rows -= diag
    return float(rows.max())


def solve_collocation(p: ProblemSpec, n: int) -> CollocationSolution:
    """Solve the collocation system on N = n subintervals.

    The certified sweep solves it when it stops within MAX_SWEEPS;
    otherwise one SuperLU factor of the system built from the same B serves
    the solve and ||A^-1||_inf = max(A^-1 1). The condition is ||A||_inf
    times the sweep's bound or that exact value. Each call validates p and
    then runs ``_solve``.
    """
    validate(p)
    return _solve(p, n)


def _load_linalg():
    """``nfeq.linalg`` and the seconds its import took: 0.0 when it was loaded."""
    name = f"{__package__}.linalg"
    if name in sys.modules:
        return sys.modules[name], 0.0
    t0 = time.perf_counter()
    module = importlib.import_module(name)
    return module, time.perf_counter() - t0


def _solve(p: ProblemSpec, n: int) -> CollocationSolution:
    """``solve_collocation`` after validation: p must have passed
    ``validate``, whose checks do not depend on n. ``delay_map`` still
    checks the coefficients at this grid's own nodes."""
    grid = UniformGrid(n)
    load_sparse()  # the first solve in a process pays it, untimed
    t0 = time.perf_counter()
    b, k = delay_map(p, grid)  # B >= 0, or it raised DomainError
    t1 = time.perf_counter()
    values, bound, sweeps = _certified_sweeps(p, b, k)
    t2 = time.perf_counter()
    if values is not None:
        nonzeros, solver, import_time = b.nnz, "sweep", 0.0
        assembly_time, solve_time = t1 - t0, t2 - t1
    else:
        linalg, import_time = _load_linalg()  # only a fallback pays, untimed
        t3 = time.perf_counter()
        a, rhs = _interior_system(p, b, k)
        t4 = time.perf_counter()
        try:
            lu = linalg.factor(a)
        except linalg.SingularMatrixError as exc:
            raise CollocationError(
                f"singular collocation system ({exc}); check the contraction "
                "certificate of the problem") from exc
        x = lu.solve(rhs)
        t5 = time.perf_counter()
        values = np.concatenate(([p.boundary_left], x, [p.boundary_right]))
        # B >= 0 with unit row sums makes a nonsingular A an M-matrix, so
        # A^-1 >= 0 and ||A^-1||_inf is its largest row sum, exactly
        bound = float(lu.solve(np.ones(n - 1)).max())
        nonzeros, solver = a.nnz, "superlu"
        # the sweeps tried count as solve time
        assembly_time, solve_time = (t1 - t0) + (t4 - t3), (t2 - t1) + (t5 - t4)
    condition = _interior_norm(b) * bound
    solution = PiecewiseLinear(grid=grid, values=values)

    # the interior collocation residual, through the B both paths solved with
    defect = float(np.abs(b @ values + k - values[1:-1]).max())
    if defect > RESIDUAL_TOL:
        raise CollocationError(
            f"interior collocation residual {defect:.3e} exceeds {RESIDUAL_TOL:.0e}")

    stats = AssemblyStats(nonzeros=int(nonzeros), assembly_time=assembly_time,
                          solve_time=solve_time, sweeps=sweeps, solver=solver,
                          import_time=import_time)
    return CollocationSolution(solution=solution, grid=grid,
                               condition=condition, stats=stats)
