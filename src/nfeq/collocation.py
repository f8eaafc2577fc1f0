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

A refinement study solves all its rungs as one system: ``delay_map`` of a
ladder of grids is block-diagonal in the interior columns, and
``_solve_ladder`` sweeps every rung in lockstep through it, one kernel call
per sweep. ``solve_collocation`` is the one-rung ladder.
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

from .functions import DomainError, EvaluationError, eval_on
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


def delay_map(p: ProblemSpec, *grids: UniformGrid) -> tuple[DelayMap, np.ndarray]:
    """The delay map B over all nodes of a ladder of grids and the source k
    at its interior nodes.

    On one grid of N subintervals, row i of the (N-1)x(N+1) map B holds the
    hat-function weights of phi1(t_i) and phi2(t_i), scaled by phi(t_i)
    and 1 - phi(t_i): four entries per row, so (B u)_i = phi u(phi1(t_i)) +
    (1 - phi) u(phi2(t_i)) for the piecewise-linear u with nodal values u.
    Entries may repeat a column or be zero; sums over a row are unaffected.

    On an ascending ladder of grids N_1 <= ... <= N_R, B is block-diagonal:
    T = sum(N_r - 1) rows, rung r's rows after rung r-1's, each row with the
    four entries it has on its own grid in the same order. Rung r's interior
    node j is column j + sum_(q<r) (N_q - 1), and columns 0 and T+1 are every
    rung's boundary nodes, as every rung has the same boundary values. So B
    is (T)x(T+2) and is the B above on one grid; held at once, a ladder's B
    is smaller than twice its largest rung's on a dyadic ladder.

    B and k are built DELAY_BLOCK_ROWS rows at a time over all rungs' nodes,
    the weights and indices written in place into the output arrays, so a
    block's few temporaries stay in cache however large N is. Every entry is
    computed from its own node alone, by the same operations as a
    whole-array build on its own grid (``place`` with each row's own N), so
    neither the blocking nor the ladder changes a bit of any rung's B or k.

    phi and the delays come checked from ``ProblemSpec.coefficients``, so
    every B returned is >= 0 with unit row sums. A value beyond CLAMP_TOL of
    [0, 1] raises DomainError naming the function, the point, the value and
    the node: the first met block by block (phi, phi1, phi2, then the
    source), not always the one a whole-array build would raise first. On a
    ladder, such an error (or an EvaluationError) makes the rungs build one
    by one, so the first rung that fails raises its own grid's error.
    """
    ns = [grid.n for grid in grids]
    if min(ns) < 2:
        raise ValueError(f"need at least 2 subintervals, got {min(ns)}")
    load_sparse()
    counts = [n - 1 for n in ns]
    rows_total = sum(counts)
    # 32-bit indices shrink B and speed up its matvec wherever they fit
    idx = np.int32 if 4 * (rows_total + 1) <= np.iinfo(np.int32).max else np.int64
    data = np.empty((rows_total, 4))
    indices = np.empty((rows_total, 4), dtype=idx)
    k = np.empty(rows_total)
    if len(grids) == 1:
        nodes, n, first, shift = grids[0].nodes, ns[0], None, None
        interior = nodes[1:-1]
    else:  # per row: its grid's N, its node 0 in ``nodes``, its column shift
        nodes = np.concatenate([grid.nodes for grid in grids])
        interior = np.concatenate([grid.nodes[1:-1] for grid in grids])
        n = np.repeat(ns, counts)
        first = np.repeat(np.cumsum([0] + ns[:-1]) + np.arange(len(ns)), counts)
        shift = np.repeat(np.cumsum([0] + counts[:-1]), counts)
    try:
        for lo in range(0, rows_total, DELAY_BLOCK_ROWS):
            rows = slice(lo, lo + DELAY_BLOCK_ROWS)
            ts = interior[rows]
            phi_vals, x1, x2 = p.coefficients(ts, lo)
            for col, coeff, x in ((0, phi_vals, x1), (2, 1.0 - phi_vals, x2)):
                if shift is None:
                    i, w = place(nodes, n, x)  # x: coefficients' own clamped copy
                    indices[rows, col] = i
                    np.add(i, 1, out=indices[rows, col + 1], casting="unsafe")
                else:  # a rung's nodes 0 and N_r are columns 0 and T+1
                    i, w = place(nodes, n[rows], x, first[rows])
                    indices[rows, col] = np.where(i == 0, 0, i + shift[rows])
                    indices[rows, col + 1] = np.where(i == n[rows] - 1, rows_total + 1,
                                                      i + shift[rows] + 1)
                np.multiply(coeff, w, out=data[rows, col + 1])
                np.multiply(coeff, np.subtract(1.0, w, out=w), out=data[rows, col])
            k[rows] = eval_on(p.source, ts)
    except (DomainError, EvaluationError) as exc:
        if len(grids) == 1:
            raise
        error = exc
    else:
        b = DelayMap(data.ravel(), indices.ravel(),
                     np.arange(0, 4 * (rows_total + 1), 4, dtype=idx),
                     (rows_total, rows_total + 2))
        return b, k
    for grid in grids:  # names the node of the first rung that fails alone
        delay_map(p, grid)
    raise error


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


def sweep(b: DelayMap, k, x: np.ndarray, y: np.ndarray, starts=None):
    """One Picard sweep y[1:m+1] <- B x + k over B's m rows; no array of
    iterate size is made.

    x and y share boundary values, and the caller swaps them after a sweep.
    B x runs scipy's CSR kernel into the zeroed y[1:m+1], as ``b @ x`` does.
    Returns the largest |x_old - x_new| over those rows, taken in place in
    x[1:m+1]: as a float, or given ``starts`` (the first row of each rung of
    a ladder's B, ascending) as a list of each rung's largest.
    """
    m = b.shape[0]
    new = y[1:m + 1]
    new.fill(0.0)
    csr_matvec(m, b.shape[1], b.indptr, b.indices, b.data, x, new)
    new += k
    old = np.subtract(x[1:m + 1], new, out=x[1:m + 1])
    np.abs(old, out=old)
    if starts is None:
        return float(np.maximum.reduce(old))
    return np.maximum.reduceat(old, starts).tolist()


def _certified_sweeps(p: ProblemSpec, b: DelayMap, k: np.ndarray,
                      starts: list[int]) -> list[tuple[np.ndarray | None, float, int]]:
    """Sweep u (data k) until certified, and w (data 1) until dw <= W, on
    every rung of a ladder's B (``starts``: each rung's first row) at once.

    Needs B >= 0. Returns per rung (its nodal u, bound on ||A^-1||_inf,
    sweeps of u run), u copied out of the sweep once its certified nodal
    error, bound * du, is within SWEEP_TOL of max(1, ||u||_inf); u is None
    on a give-up. Sweep j adds B_int^(j-1) 1 >= 0 to w (zero boundary
    values), so A w >= 1 - dw_j; once dw_j <= W, w is frozen with the bound
    ||w||_inf / (1 - dw_j) <= ||A^-1||_inf / (1 - W). A rung gives up before
    the freeze when w's settled rate predicts dw > SWEEP_TOL at MAX_SWEEPS,
    or when dw is still 1 at sweep N (the nodes reached from its maximiser
    then form a closed class with row sums 1, so A is singular and SuperLU
    reports it). After it, dw_j = ||B_int^(j-1)||_inf <= W certifies u's
    contraction, so only MAX_SWEEPS ends the sweep.

    The rungs sweep in lockstep, one ``sweep`` of u and one of w per step,
    each over the rows up to the last rung still live (for w, still live and
    unfrozen); rows are independent, so each rung's iterates are those of a
    sweep of its own B. du, dw and max w come per rung by ``reduceat``, and
    each rung's state is a Python float.
    """
    ends = starts[1:] + [b.shape[0]]
    # per last rung swept: B's rows, k and the rung starts up to its end
    heads = [(b if end == b.shape[0] else
              DelayMap(b.data, b.indices, b.indptr[:end + 1], (end, b.shape[1])),
              k[:end], np.array(starts[:r + 1], dtype=np.intp))
             for r, end in enumerate(ends)]
    edge = max(1.0, abs(p.boundary_left), abs(p.boundary_right))
    u = np.zeros(b.shape[1])
    u[0], u[-1] = p.boundary_left, p.boundary_right
    u_next, w, w_next = u.copy(), np.zeros(b.shape[1]), np.zeros(b.shape[1])
    inf = np.inf
    dw, rate, bound = ([inf] * len(starts) for _ in range(3))
    out: list = [None] * len(starts)
    live = thawed = list(range(len(starts)))  # thawed: live, w not frozen yet
    for sweeps in range(1, MAX_SWEEPS + 1):
        b_u, k_u, at_u = heads[live[-1]]
        du = sweep(b_u, k_u, u, u_next, at_u)
        u, u_next = u_next, u
        if thawed:
            b_w, _, at_w = heads[thawed[-1]]
            dws = sweep(b_w, 1.0, w, w_next, at_w)
            w, w_next = w_next, w
        w_max = u_max = None
        changed = False
        for r in live:
            if bound[r] == inf:
                dw_prev, dw[r] = dw[r], dws[r]
                if dw[r] >= 1.0 and sweeps > ends[r] - starts[r]:  # sweep N
                    out[r], changed = (None, inf, sweeps), True
                    continue
                if dw[r] > W:
                    if 0.0 < dw_prev < 1.0:
                        # u contracts at w's rate, so dw predicts u's give-up too
                        rate_prev, rate[r] = rate[r], dw[r] / dw_prev
                        if abs(rate[r] - rate_prev) <= RATE_SETTLED * (1.0 - rate[r]) and \
                                rate[r] ** (MAX_SWEEPS - sweeps) * dw[r] > SWEEP_TOL:
                            out[r], changed = (None, inf, sweeps), True
                    continue
                # w >= 0: B >= 0 and every sweep adds B^j 1 >= 0
                if w_max is None:
                    w_max = np.maximum.reduceat(w[1:b_w.shape[0] + 1], at_w).tolist()
                bound[r], changed = w_max[r] / (1.0 - dw[r]), True
            error = bound[r] * du[r]
            if not error <= SWEEP_TOL:  # else certified, as max(1, ||u||_inf) >= 1
                if u_max is None:
                    u_max = np.maximum.reduceat(np.abs(u[1:b_u.shape[0] + 1]), at_u).tolist()
                if not error <= SWEEP_TOL * max(edge, u_max[r]):
                    continue
            values = u[starts[r]:ends[r] + 2].copy()
            values[0], values[-1] = p.boundary_left, p.boundary_right
            out[r], changed = (values, bound[r], sweeps), True
        if changed:
            live = [r for r in live if out[r] is None]
            if not live:
                return out
            thawed = [r for r in live if bound[r] == inf]
    return [result or (None, inf, MAX_SWEEPS) for result in out]


def _interior_norm(b: DelayMap, starts: list[int]) -> list[float]:
    """||I - B_int||_inf of each rung of a ladder's B >= 0 (``starts``: each
    rung's first row), without building I - B.

    Row i sums |1 - B_ii| and the other interior entries of B's row i. The
    diagonal comes from B's columns, four per row: entries in one row add
    in row order from 0, as scipy's ``diagonal`` adds them.
    """
    rows_total = b.shape[0]
    # row i of B belongs to interior node (column) i + 1
    hits = np.flatnonzero(b.indices.reshape(rows_total, 4) == np.arange(
        1, rows_total + 1, dtype=b.indices.dtype)[:, None])
    diag = np.zeros(rows_total)
    np.add.at(diag, hits // 4, b.data[hits])
    interior = np.ones(b.shape[1])
    interior[[0, -1]] = 0.0
    rows = np.abs(1.0 - diag)
    rows += b @ interior
    rows -= diag
    return np.maximum.reduceat(rows, starts).tolist()


def solve_collocation(p: ProblemSpec, n: int) -> CollocationSolution:
    """Solve the collocation system on N = n subintervals.

    The certified sweep solves it when it stops within MAX_SWEEPS;
    otherwise one SuperLU factor of the system built from the same B serves
    the solve and ||A^-1||_inf = max(A^-1 1). The condition is ||A||_inf
    times the sweep's bound or that exact value. Each call validates p and
    then solves the one-rung ladder of ``_solve_ladder``.
    """
    validate(p)
    solutions, failure, _ = _solve_ladder(p, [n])
    if failure is not None:
        raise failure
    return solutions[0]


def _load_linalg():
    """``nfeq.linalg`` and the seconds its import took: 0.0 when it was loaded."""
    name = f"{__package__}.linalg"
    if name in sys.modules:
        return sys.modules[name], 0.0
    t0 = time.perf_counter()
    module = importlib.import_module(name)
    return module, time.perf_counter() - t0


def _rung_map(b: DelayMap, start: int, stop: int) -> DelayMap:
    """Rows start..stop-1 of a ladder's B, one rung's, as its own grid's B:
    interior columns shifted back by ``start``, column T+1 mapped to N."""
    n = stop - start + 1
    cols = b.indices[4 * start:4 * stop]
    own = np.where(cols == 0, 0, np.where(cols == b.shape[1] - 1, n, cols - start))
    return DelayMap(b.data[4 * start:4 * stop], own, b.indptr[:n], (n - 1, n + 1))


def _superlu(linalg, p: ProblemSpec, b: DelayMap, k: np.ndarray):
    """Solve one grid's system through one SuperLU factor of I - B_int.
    Returns (nodal values, max(A^-1 1), nonzeros, build and solve seconds)."""
    t0 = time.perf_counter()
    a, rhs = _interior_system(p, b, k)
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
    # B >= 0 with unit row sums makes a nonsingular A an M-matrix, so
    # A^-1 >= 0 and ||A^-1||_inf is its largest row sum, exactly
    bound = float(lu.solve(np.ones(b.shape[0])).max())
    return values, bound, a.nnz, t1 - t0, t2 - t1


def _solve_ladder(p: ProblemSpec, ns: list[int]):
    """Solve the collocation systems of an ascending ladder of N as one
    block-diagonal system, the ``delay_map`` B of all its grids.

    p must have passed ``validate``, whose checks do not depend on N;
    ``delay_map`` still checks the coefficients at every rung's own nodes,
    before any rung is solved. All rungs sweep in lockstep
    (``_certified_sweeps``); the rungs that give up go to SuperLU in
    ascending N, each from its own rows of B. Each rung's condition and
    residual gate come from the same B. The ladder stops at the first rung
    whose solve raises CollocationError. Returns (the solutions of the rungs
    before it, that error or None, the seconds of the whole solve without
    SuperLU's import). A rung's stats time its row share (N - 1) / T of the
    build and of the sweeps, plus its own fallback.
    """
    grids = [UniformGrid(n) for n in ns]
    load_sparse()  # the first solve in a process pays it, untimed
    t0 = time.perf_counter()
    b, k = delay_map(p, *grids)  # B >= 0, or it raised DomainError
    t1 = time.perf_counter()
    starts = [0]
    for n in ns[:-1]:
        starts.append(starts[-1] + n - 1)
    swept = _certified_sweeps(p, b, k, starts)
    t2 = time.perf_counter()

    solved, failure, imported = [], None, 0.0
    for n, start, (values, bound, sweeps) in zip(ns, starts, swept):
        share = (n - 1) / b.shape[0]
        nonzeros, solver, import_time = 4 * (n - 1), "sweep", 0.0
        assembly_time, solve_time = share * (t1 - t0), share * (t2 - t1)
        if values is None:
            linalg, import_time = _load_linalg()  # only a fallback pays, untimed
            imported += import_time
            own = b if len(ns) == 1 else _rung_map(b, start, start + n - 1)
            try:
                values, bound, nonzeros, build, solve = _superlu(
                    linalg, p, own, k[start:start + n - 1])
            except CollocationError as exc:
                failure = exc
                break
            # the sweeps tried count as solve time
            solver = "superlu"
            assembly_time, solve_time = assembly_time + build, solve_time + solve
        stats = AssemblyStats(nonzeros=int(nonzeros), assembly_time=assembly_time,
                              solve_time=solve_time, sweeps=sweeps, solver=solver,
                              import_time=import_time)
        solved.append((values, bound, stats))

    # the interior collocation residual, through the B both paths solved with
    x = np.zeros(b.shape[1])
    x[0], x[-1] = p.boundary_left, p.boundary_right
    for (values, _, _), n, start in zip(solved, ns, starts):
        x[start + 1:start + n] = values[1:-1]
    defects = np.maximum.reduceat(np.abs(b @ x + k - x[1:-1]), starts).tolist()
    norms = _interior_norm(b, starts)
    solutions = []
    for r, (grid, (values, bound, stats)) in enumerate(zip(grids, solved)):
        if defects[r] > RESIDUAL_TOL:
            failure = CollocationError(f"interior collocation residual {defects[r]:.3e} "
                                       f"exceeds {RESIDUAL_TOL:.0e}")
            break
        solutions.append(CollocationSolution(
            solution=PiecewiseLinear(grid=grid, values=values), grid=grid,
            condition=norms[r] * bound, stats=stats))
    return solutions, failure, time.perf_counter() - t0 - imported
