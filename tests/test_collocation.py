import dis
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import _sparsetools

from nfeq import collocation, functions, grids, linalg, picard, problem
from nfeq.functions import FunctionHandle, constant, identity
from nfeq.oracles import cusp_solution, manufacture

from helpers import random_delay_map, random_function, whole_delay_map


def singular_problem():
    """phi = 1 makes every interior row u_i - u_i = 0: a singular system."""
    return problem.ProblemSpec(phi=constant(1.0), phi1=identity(),
                               phi2=identity(), source=constant(0.0),
                               boundary_left=0.0, boundary_right=1.0, gamma=1.0)


def test_two_interval_hand_assembly():
    p = problem.paradise_fish(0.0, 0.2, 1.0)
    a, rhs = collocation.assemble(p, grids.UniformGrid(2))
    # phi1(0.5) = 1 contributes 0.5 * boundary 1 to the rhs;
    # phi2(0.5) = 0.1 interpolates to 0.2 u1 on [0, 0.5]
    np.testing.assert_allclose(a.toarray(), [[0.9]], atol=1e-15)
    np.testing.assert_allclose(rhs, [0.5], atol=1e-15)


def row_loop_assembly(p, grid):
    """Reference: the dense per-row, per-stencil assembly loop."""
    n = grid.n
    interior = grid.nodes[1:-1]
    boundary = {0: p.boundary_left, n: p.boundary_right}
    a = np.zeros((n - 1, n - 1))
    rhs = np.zeros(n - 1)
    for r, t in enumerate(interior):
        a[r, r] += 1.0
        rhs[r] = float(p.source(t))
        phi = float(p.phi(t))
        for coeff, x in ((phi, float(p.phi1(t))), (1.0 - phi, float(p.phi2(t)))):
            x = min(max(x, 0.0), 1.0)
            i = min(max(int(np.searchsorted(grid.nodes, x, side="right")) - 1, 0), n - 1)
            w = (x - grid.nodes[i]) / (grid.nodes[i + 1] - grid.nodes[i])
            for j, wj in ((i, 1.0 - w), (i + 1, w)):
                if wj == 0.0:
                    continue
                if j in boundary:
                    rhs[r] += coeff * wj * boundary[j]
                else:
                    a[r, j - 1] -= coeff * wj
    return a, rhs


@pytest.mark.parametrize("n", [2, 3, 16, 97])
def test_assembly_matches_row_loop_reference(n):
    base = problem.section5(0.02, 0.5)
    for p in (problem.paradise_fish(0.05, 0.2, 1.0), base,
              manufacture(cusp_solution(0.5), base.phi, base.phi1, base.phi2,
                          0.5).problem):
        a, rhs = collocation.assemble(p, grids.UniformGrid(n))
        ref_a, ref_rhs = row_loop_assembly(p, grids.UniformGrid(n))
        np.testing.assert_array_equal(a.toarray(), ref_a)
        np.testing.assert_array_equal(rhs, ref_rhs)


@pytest.mark.parametrize("n", [2, 16, 97])
def test_delay_map_invariants(n):
    rng = np.random.default_rng(n)
    base = problem.section5(0.02, 0.5)
    g = grids.UniformGrid(n)
    for p in (problem.paradise_fish(0.05, 0.2, 1.0), base,
              manufacture(cusp_solution(0.5), base.phi, base.phi1, base.phi2,
                          0.5).problem):
        b, k = collocation.delay_map(p, g)
        assert b.shape == (n - 1, n + 1)
        assert b.nnz == 4 * (n - 1)
        # the hat weights of each delay argument form a partition of unity
        np.testing.assert_allclose(b @ np.ones(n + 1), 1.0, rtol=0.0, atol=1e-15)
        # one grid Picard sweep is the operator at the interior nodes: on
        # the initial iterate, which is 0 or affine, and on a random one,
        # which checks every weight and column (the residual gate trusts B)
        f0 = picard.initial_iterate(p, g)
        np.testing.assert_allclose(b @ f0.values + k,
                                   p.operator(f0, g.nodes[1:-1]),
                                   rtol=0.0, atol=1e-15)
        f = grids.PiecewiseLinear(grid=g, values=rng.uniform(-1.0, 1.0, n + 1))
        np.testing.assert_allclose(b @ f.values + k,
                                   p.operator(f, g.nodes[1:-1]),
                                   rtol=0.0, atol=1e-15)


def _cusp_problem():
    base = problem.section5(0.02, 0.5)
    return manufacture(cusp_solution(0.5), base.phi, base.phi1, base.phi2, 0.5).problem


def _random_delay_problem():
    rng = np.random.default_rng(18)
    return problem.ProblemSpec(phi=random_delay_map(rng), phi1=random_delay_map(rng),
                               phi2=random_delay_map(rng), source=random_function(rng),
                               boundary_left=0.0, boundary_right=1.0, gamma=1.0)


_BLOCK_PROBLEMS = {"paradise": lambda: problem.paradise_fish(0.05, 0.2),
                   "section5": lambda: problem.section5(0.02, 0.5),
                   "cusp": _cusp_problem,
                   "random": _random_delay_problem}


@pytest.mark.parametrize("name", sorted(_BLOCK_PROBLEMS))
def test_delay_map_blocks_match_whole_array_build(name):
    p = _BLOCK_PROBLEMS[name]()
    step = collocation.DELAY_BLOCK_ROWS
    for rows in (step - 1, step, step + 1, 3 * step + 5):
        g = grids.UniformGrid(rows + 1)
        b, k = collocation.delay_map(p, g)
        ref_b, ref_k = whole_delay_map(p, g)
        for got, want in ((b.data, ref_b.data), (b.indices, ref_b.indices),
                          (b.indptr, ref_b.indptr), (k, ref_k)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), rows


def _spike(value, at):
    """phi1 = t / 2, except value at the points in ``at``."""
    return FunctionHandle(eval=lambda t: np.where(np.isin(t, at), value, 0.5 * t),
                          label=f"spike {value}")


def test_delay_map_domain_error_names_global_node():
    step = collocation.DELAY_BLOCK_ROWS
    g = grids.UniformGrid(3 * step + 6)
    # node 2 B + 7 is interior row 2 B + 6, in the third block of rows
    bad = 2 * step + 7
    p = replace(problem.paradise_fish(0.05, 0.2), phi1=_spike(1.001, g.nodes[bad]))
    with pytest.raises(grids.DomainError, match=rf"collocation node {bad}\b") as exc:
        collocation.delay_map(p, g)
    assert exc.value.index == bad - 1
    # faults in two blocks: the one in the earlier block is met first,
    # here phi2's, where a whole-array build meets phi1's first
    early = 5
    p = replace(p, phi2=_spike(-0.5, g.nodes[early]))
    with pytest.raises(grids.DomainError, match=rf"collocation node {early}\b") as exc:
        collocation.delay_map(p, g)
    assert exc.value.index == early - 1
    with pytest.raises(grids.DomainError, match=rf"collocation node {bad}\b"):
        whole_delay_map(p, g)


def test_delay_map_memory_bounded_by_outputs():
    # a whole-array build at N = 2^18 peaks near twice its outputs (31 MiB)
    p = _cusp_problem()
    g = grids.UniformGrid(2 ** 18)
    tracemalloc.start()
    try:
        b, k = collocation.delay_map(p, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = b.data.nbytes + b.indices.nbytes + b.indptr.nbytes + k.nbytes
    assert peak <= outputs + 4 * 2 ** 20, (peak, outputs)


def test_two_interval_solution_value():
    sol = collocation.solve_collocation(problem.paradise_fish(0.0, 0.2, 1.0), 2)
    assert sol.solution.values[1] == pytest.approx(5.0 / 9.0, abs=1e-12)


def test_homogeneous_zero_problem():
    p = replace(problem.paradise_fish(0.05, 0.2, 1.0),
                boundary_left=0.0, boundary_right=0.0)
    for n in (2, 7, 16):
        sol = collocation.solve_collocation(p, n)
        assert np.abs(sol.solution.values).max() == 0.0


def test_row_sparsity():
    base = problem.section5(0.02, 0.5)
    manu = manufacture(cusp_solution(0.5), base.phi, base.phi1, base.phi2, 0.5)
    a, _ = collocation.assemble(manu.problem, grids.UniformGrid(4))
    per_row = np.diff(a.indptr)
    assert per_row.max() <= 5


def test_boundary_values_exact():
    sol = collocation.solve_collocation(problem.paradise_fish(0.05, 0.2, 1.0), 16)
    assert sol.solution.evaluate(0.0) == 0.0
    assert sol.solution.evaluate(1.0) == 1.0


def test_condition_recorded_at_every_n():
    p = problem.paradise_fish(0.0, 0.2, 1.0)
    for n in (16, 600, 4096):
        cond = collocation.solve_collocation(p, n).condition
        assert np.isfinite(cond) and cond >= 1.0


def count_splu(monkeypatch):
    calls = []
    real = linalg.splu
    monkeypatch.setattr(linalg, "splu", lambda a: calls.append(a) or real(a))
    return calls


def test_one_factorization_per_solve(monkeypatch):
    calls = count_splu(monkeypatch)
    p = problem.paradise_fish(0.05, 0.2, 1.0)
    sol = collocation.solve_collocation(p, 64)
    assert len(calls) == 0
    assert np.isfinite(sol.condition)
    monkeypatch.setattr(collocation, "MAX_SWEEPS", 3)
    sol = collocation.solve_collocation(p, 64)
    assert len(calls) == 1
    assert np.isfinite(sol.condition)


def sweep_problems():
    base = problem.section5(0.02, 0.5)
    return {"paradise": problem.paradise_fish(0.05, 0.2, 1.0),
            "section5": base,
            "cusp": manufacture(cusp_solution(0.5), base.phi, base.phi1,
                                base.phi2, 0.5).problem,
            "fish0": problem.paradise_fish(0.0, 0.2, 1.0),
            "fish09": problem.paradise_fish(0.05, 0.9, 1.0),
            # u = 0 is exact from the first sweep: it stops at w's freeze
            "zero": replace(problem.paradise_fish(0.05, 0.2, 1.0),
                            boundary_right=0.0)}


@pytest.mark.parametrize("n", [2, 3, 16, 97, 1024, 4096])
@pytest.mark.parametrize("name", sorted(sweep_problems()))
def test_sweep_matches_superlu(name, n, monkeypatch):
    p = sweep_problems()[name]
    if name == "fish09":
        # 179-334 sweeps at N >= 16: beyond the budget, so the sweep is
        # checked here without it and without the early give-up
        monkeypatch.setattr(collocation, "MAX_SWEEPS", 500)
        monkeypatch.setattr(collocation, "RATE_SETTLED", 0.0)
    g = grids.UniformGrid(n)
    sol = collocation.solve_collocation(p, n)
    assert sol.stats.solver == "sweep"
    assert sol.stats.sweeps > 0
    assert sol.stats.nonzeros == 4 * (n - 1)
    a, rhs = collocation.assemble(p, g)
    ref = linalg.solve(a, rhs)
    np.testing.assert_allclose(sol.solution.values[1:-1], ref, rtol=0.0, atol=1e-12)
    assert sol.solution.values[0] == p.boundary_left
    assert sol.solution.values[-1] == p.boundary_right
    if n <= 512:
        dense = a.toarray()
        exact = (np.abs(dense).sum(axis=1).max()
                 * np.abs(np.linalg.inv(dense)).sum(axis=1).max())
        # the sweep's condition is a bound, at most 1 / (1 - W) above exact
        ceiling = exact / (1.0 - collocation.W) * (1.0 + 1e-9)
        assert exact * (1.0 - 1e-12) <= sol.condition <= ceiling


@pytest.mark.parametrize("sweeps", [3], ids=["sweep budget"])
def test_fallback_is_the_superlu_path(sweeps, monkeypatch):
    # B >= 0 always, so an exhausted budget is the fallback that solves
    p = problem.paradise_fish(0.05, 0.2, 1.0)
    monkeypatch.setattr(collocation, "MAX_SWEEPS", sweeps)
    g = grids.UniformGrid(64)
    a, rhs = collocation.assemble(p, g)
    lu = linalg.factor(a)
    estimate = linalg.condition_estimate(a, lu)
    calls = count_splu(monkeypatch)
    # the fallback's condition comes from the factor, not the estimator
    monkeypatch.setattr(linalg, "condition_estimate",
                        lambda *args: pytest.fail("estimator called"))
    sol = collocation.solve_collocation(p, 64)
    assert len(calls) == 1
    assert sol.stats.solver == "superlu"
    assert sol.stats.sweeps == sweeps
    assert sol.stats.nonzeros == a.nnz
    np.testing.assert_array_equal(sol.solution.values[1:-1], lu.solve(rhs))
    assert sol.condition == estimate


@pytest.mark.parametrize("beta, budget", [(0.85, None), (0.99, None), (0.999, None),
                                          (0.2, 3)])
def test_fallback_condition_is_exact(beta, budget, monkeypatch):
    # A^-1 >= 0, so ||A||_inf max(A^-1 1) is the exact condition number
    if budget is not None:
        monkeypatch.setattr(collocation, "MAX_SWEEPS", budget)
    p = problem.paradise_fish(0.05, beta, 1.0)
    for n in (16, 64, 97, 512):
        sol = collocation.solve_collocation(p, n)
        assert sol.stats.solver == "superlu"
        dense = collocation.assemble(p, grids.UniformGrid(n))[0].toarray()
        exact = (np.abs(dense).sum(axis=1).max()
                 * np.abs(np.linalg.inv(dense)).sum(axis=1).max())
        assert abs(sol.condition - exact) <= 1e-12 * exact


def random_substochastic_map(rng, n, idx=np.int32):
    """A random (N-1)x(N+1) map B >= 0 with row sums in [0.3, 0.9], four
    entries per row as ``delay_map`` builds them."""
    cols = rng.integers(0, n + 1, size=(n - 1, 4)).astype(idx)
    data = rng.uniform(0.0, 1.0, size=(n - 1, 4))
    data *= rng.uniform(0.3, 0.9, size=(n - 1, 1)) / data.sum(axis=1, keepdims=True)
    return collocation.DelayMap(data.ravel(), cols.ravel(), 4 * np.arange(n, dtype=idx),
                                (n - 1, n + 1))


def dense(b):
    """A DelayMap as a dense array, built from its CSR triple."""
    out = np.zeros(b.shape)
    rows = np.repeat(np.arange(b.shape[0]), np.diff(b.indptr))
    np.add.at(out, (rows, b.indices), b.data)
    return out


@pytest.mark.parametrize("n", [2, 3, 8, 17, 64])
def test_frozen_bound_brackets_exact_inverse_norm(n, monkeypatch):
    # ||B_int||_inf <= 0.9 contracts within the budget, with no give-up
    monkeypatch.setattr(collocation, "MAX_SWEEPS", 1000)
    monkeypatch.setattr(collocation, "RATE_SETTLED", 0.0)
    rng = np.random.default_rng(n)
    p = problem.paradise_fish(0.05, 0.2, 1.0)
    for _ in range(20):
        b = random_substochastic_map(rng, n)
        k = rng.uniform(-1.0, 1.0, n - 1)
        [(u, bound, sweeps)] = collocation._certified_sweeps(p, b, k, [0])
        assert u is not None
        a = np.eye(n - 1) - dense(b)[:, 1:-1]
        exact_inv = np.abs(np.linalg.inv(a)).sum(axis=1).max()
        assert exact_inv <= bound <= exact_inv / (1.0 - collocation.W) * (1.0 + 1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 17])
def test_interior_norm_matches_scipy_diagonal(n):
    # random columns put 0, 1 or 2 entries of a row on the diagonal; the norm
    # must round exactly as from scipy's diagonal and matvec
    rng = np.random.default_rng(n)
    interior = np.ones(n + 1)
    interior[[0, -1]] = 0.0
    for _ in range(50):
        b = random_substochastic_map(rng, n)
        ref_b = sparse.csr_array((b.data, b.indices, b.indptr), shape=b.shape)
        diag = ref_b.diagonal(1)
        ref = float((np.abs(1.0 - diag) + ref_b @ interior - diag).max())
        assert collocation._interior_norm(b, [0]) == [ref]


def count_sweeps(monkeypatch):
    calls = []
    real = collocation.sweep
    monkeypatch.setattr(collocation, "sweep",
                        lambda *args: calls.append(1) or real(*args))
    return calls


@pytest.mark.parametrize("n", [16, 1024, 4096])
@pytest.mark.parametrize("name, most", [("cusp", 15), ("fish0", 30)])
def test_sweeps_per_solve(name, most, n, monkeypatch):
    # sweeping w to SWEEP_TOL beside u takes 18-22 (cusp) and 40-48 (fish0)
    # sweep calls; freezing w at dw <= W takes 12-14 and 24-29
    calls = count_sweeps(monkeypatch)
    sol = collocation.solve_collocation(sweep_problems()[name], n)
    assert sol.stats.solver == "sweep"
    assert len(calls) <= most


def test_ladder_sweeps_a_rung_only_while_a_rung_at_or_above_it_is_live(monkeypatch):
    # paradise at beta = 0.8: N = 16 sweeps 105 times, N = 4096 gives up at
    # sweep 9; each rung's rows are swept for u exactly as often as the
    # longest run of its own or a finer rung, one kernel call per sweep
    ladder = [2 ** j for j in range(4, 13)]
    calls = []
    real = collocation.sweep
    monkeypatch.setattr(collocation, "sweep", lambda b, k, *args: calls.append(
        (b.shape[0], np.ndim(k))) or real(b, k, *args))
    solutions, failure, _ = collocation._solve_ladder(problem.paradise_fish(0.05, 0.8),
                                                      ladder)
    assert failure is None
    sweeps = [sol.stats.sweeps for sol in solutions]
    assert sweeps[0] == 105
    assert (sweeps[-1], solutions[-1].stats.solver) == (9, "superlu")
    u_rows = [rows for rows, ndim in calls if ndim == 1]  # w's data is the scalar 1
    assert len(u_rows) == max(sweeps)
    start = 0
    for r, n in enumerate(ladder):
        assert sum(rows > start for rows in u_rows) == max(sweeps[r:]), n
        start += n - 1


def test_ladder_rows_are_each_grids_own_map():
    # the rows of a ladder's B, columns shifted back, are each grid's own B
    p = _cusp_problem()
    ladder = [5, 7, 12, 30]
    b, k = collocation.delay_map(p, *(grids.UniformGrid(n) for n in ladder))
    rows = sum(ladder) - len(ladder)
    assert b.shape == (rows, rows + 2) and b.nnz == 4 * rows
    start = 0
    for n in ladder:
        own = collocation._rung_map(b, start, start + n - 1)
        ref_b, ref_k = collocation.delay_map(p, grids.UniformGrid(n))
        for got, want in ((own.data, ref_b.data), (own.indices, ref_b.indices),
                          (own.indptr, ref_b.indptr), (k[start:start + n - 1], ref_k)):
            assert got.dtype == want.dtype and np.array_equal(got, want), n
        assert own.shape == ref_b.shape
        start += n - 1


def test_budget_runs_out_after_freeze(monkeypatch):
    # paradise freezes w within 7 sweeps but needs 23 for u; with the
    # settled-rate give-up of the first phase off, the budget alone ends it
    p = problem.paradise_fish(0.05, 0.2, 1.0)
    a, rhs = collocation.assemble(p, grids.UniformGrid(64))
    lu = linalg.factor(a)
    monkeypatch.setattr(collocation, "MAX_SWEEPS", 12)
    monkeypatch.setattr(collocation, "RATE_SETTLED", 0.0)
    calls = count_sweeps(monkeypatch)
    sol = collocation.solve_collocation(p, 64)
    assert len(calls) < 2 * collocation.MAX_SWEEPS  # w froze on the way
    assert sol.stats.solver == "superlu"
    assert sol.stats.sweeps == collocation.MAX_SWEEPS
    np.testing.assert_array_equal(sol.solution.values[1:-1], lu.solve(rhs))


def force_path(solver, name, monkeypatch):
    """Route solve_collocation to ``solver``: SuperLU after a 3-sweep budget,
    or the sweep with budget enough for fish09 (as test_sweep_matches_superlu)."""
    if solver == "superlu":
        monkeypatch.setattr(collocation, "MAX_SWEEPS", 3)
    elif name == "fish09":
        monkeypatch.setattr(collocation, "MAX_SWEEPS", 500)
        monkeypatch.setattr(collocation, "RATE_SETTLED", 0.0)


@pytest.mark.parametrize("solver", ["sweep", "superlu"])
@pytest.mark.parametrize("name", sorted(sweep_problems()))
def test_interior_residual_invariant(name, solver, monkeypatch):
    # the solve's own gate evaluates the residual through B; this one
    # evaluates it through the operator
    p = sweep_problems()[name]
    force_path(solver, name, monkeypatch)
    sol = collocation.solve_collocation(p, 64)
    assert sol.stats.solver == solver
    interior = sol.grid.nodes[1:-1]
    defect = np.abs(sol.solution.values[1:-1]
                    - p.operator(sol.solution, interior)).max()
    assert defect <= collocation.RESIDUAL_TOL


class PerturbedFactor:
    """A SuperLU factor whose solves of A x = rhs come back off by 1e-6 at one node."""

    def __init__(self, lu):
        self.lu = lu

    def solve(self, rhs, trans="N"):
        x = self.lu.solve(rhs, trans=trans)
        if trans == "N":
            x[x.size // 2] += 1e-6
        return x


@pytest.mark.parametrize("solver", ["sweep", "superlu"])
def test_residual_gate_rejects_perturbed_solution(solver, monkeypatch):
    p = problem.paradise_fish(0.05, 0.2, 1.0)
    force_path(solver, "paradise", monkeypatch)
    if solver == "sweep":
        real = collocation._certified_sweeps

        def perturbed(*args):
            [(u, bound, sweeps)] = real(*args)
            u[u.size // 2] += 1e-6
            return [(u, bound, sweeps)]

        monkeypatch.setattr(collocation, "_certified_sweeps", perturbed)
    else:
        real = linalg.factor
        monkeypatch.setattr(linalg, "factor", lambda a: PerturbedFactor(real(a)))
    with pytest.raises(collocation.CollocationError,
                       match="interior collocation residual .* exceeds 1e-09"):
        collocation.solve_collocation(p, 64)


def matmul_sweep(b, k, x):
    """The sweep written with ``b @ x``: the reference for ``collocation.sweep``."""
    new = b @ x
    new += k
    old = x[1:-1]
    np.subtract(old, new, out=old)
    increment = float(np.abs(old, out=old).max())
    old[...] = new
    return increment


@pytest.mark.parametrize("n", [2, 3, 16, 97, 2 ** 14 + 1])
def test_sweep_kernel_matches_matmul(n):
    """sweep calls scipy's private CSR kernel; pin it to ``b @ x`` bit for bit."""
    rng = np.random.default_rng(n)
    cols = rng.integers(0, n + 1, size=(n - 1, 4)).astype(np.int32)
    data = rng.uniform(0.0, 0.25, size=(n - 1, 4))
    data[rng.random((n - 1, 4)) < 0.1] = 0.0
    b = sparse.csr_array((data.ravel(), cols.ravel(), 4 * np.arange(n, dtype=np.int32)),
                         shape=(n - 1, n + 1))
    for k in (rng.uniform(-1.0, 1.0, n - 1), 1.0):
        x = rng.uniform(-1.0, 1.0, n + 1)
        ref, y = x.copy(), x.copy()
        y[1:-1] = np.nan  # sweep must overwrite, not accumulate into, y
        for _ in range(5):
            assert collocation.sweep(b, k, x, y) == matmul_sweep(b, k, ref)
            x, y = y, x
            assert np.array_equal(x, ref)


def test_sweep_kernel_takes_int64_indices():
    # delay_map stores int64 indices once 4N exceeds int32: pin the kernel's
    # int64 template to scipy's b @ x on int32 copies of the indices
    n = 97
    rng = np.random.default_rng(64)
    b = random_substochastic_map(rng, n, np.int64)
    assert b.indices.dtype == b.indptr.dtype == np.int64
    ref_b = sparse.csr_array((b.data, b.indices.astype(np.int32),
                              b.indptr.astype(np.int32)), shape=b.shape)
    assert ref_b.indices.dtype == np.int32
    k = rng.uniform(-1.0, 1.0, n - 1)
    x = rng.uniform(-1.0, 1.0, n + 1)
    ref, y = x.copy(), x.copy()
    for _ in range(5):
        assert np.array_equal(b @ x, ref_b @ x)
        assert collocation.sweep(b, k, x, y) == matmul_sweep(ref_b, k, ref)
        x, y = y, x
        assert np.array_equal(x, ref)


def test_delay_map_matmul_checks_the_shape():
    # the kernel reads x unchecked: a short x must not reach it
    b, _ = collocation.delay_map(_cusp_problem(), grids.UniformGrid(8))
    for x in (np.ones(8), np.ones(10), np.ones((9, 1))):
        with pytest.raises(ValueError, match="cannot apply"):
            b @ x


def test_sweep_calls_the_kernel_without_importing():
    # the kernel is bound at module level once a delay map exists: a sweep
    # runs no import statement
    collocation.delay_map(_cusp_problem(), grids.UniformGrid(4))
    assert collocation.csr_matvec is _sparsetools.csr_matvec
    ops = {ins.opname for ins in dis.get_instructions(collocation.sweep)}
    assert not ops & {"IMPORT_NAME", "IMPORT_FROM"}


def test_kernel_without_extension_file_imports_through_scipy_sparse(monkeypatch):
    # where the file finder finds no extension, load_sparse imports the
    # kernel module through the package with one warning naming the
    # directory searched, and the sweep solves as before
    p = _cusp_problem()
    expected = collocation.solve_collocation(p, 64)

    class NoExtension:
        def __init__(self, path, *loader_details):
            pass

        def find_spec(self, fullname, target=None):
            return None

    monkeypatch.setattr(collocation, "FileFinder", NoExtension)
    monkeypatch.delitem(sys.modules, collocation.KERNEL_MODULE)
    # the package import rebinds these two: restore them after the test
    monkeypatch.setattr(collocation, "csr_matvec", collocation.csr_matvec)
    monkeypatch.setattr(sparse, "_sparsetools", _sparsetools)
    with pytest.warns(RuntimeWarning) as record:
        sol = collocation.solve_collocation(p, 64)
    assert len(record) == 1
    where = os.path.dirname(sparse.__file__)
    assert str(record[0].message) == (f"no {collocation.KERNEL_MODULE} extension in "
                                      f"{where}: importing it through scipy.sparse")
    assert collocation.KERNEL_MODULE in sys.modules
    assert sol.stats.solver == "sweep"
    assert sol.stats.sweeps == expected.stats.sweeps
    assert sol.condition == expected.condition
    assert np.array_equal(sol.solution.values, expected.solution.values)


def test_sweep_allocates_nothing_of_iterate_size():
    # a sweep that allocated B x (8 (N - 1) bytes) would reach the bound
    n = 2 ** 14 + 1
    b, k = collocation.delay_map(_cusp_problem(), grids.UniformGrid(n))
    x = np.zeros(n + 1)
    y = x.copy()
    tracemalloc.start()
    try:
        for _ in range(5):
            collocation.sweep(b, k, x, y)
            x, y = y, x
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (n - 1), peak


@pytest.mark.parametrize("beta", [0.9, 0.999])
def test_slow_contraction_gives_up_early(beta, monkeypatch):
    """w contracts by about beta per sweep: far more sweeps than MAX_SWEEPS
    would be needed, and the settled rate shows it within a few sweeps."""
    p = problem.paradise_fish(0.05, beta, 1.0)
    a, rhs = collocation.assemble(p, grids.UniformGrid(4096))
    lu = linalg.factor(a)
    calls = count_splu(monkeypatch)
    sol = collocation.solve_collocation(p, 4096)
    assert len(calls) == 1
    assert sol.stats.solver == "superlu"
    assert 0 < sol.stats.sweeps <= 10
    np.testing.assert_array_equal(sol.solution.values[1:-1], lu.solve(rhs))


def test_large_n_residual_and_condition():
    base = problem.section5(0.02, 0.5)
    manu = manufacture(cusp_solution(0.5), base.phi, base.phi1, base.phi2, 0.5)
    sol = collocation.solve_collocation(manu.problem, 2 ** 16)
    interior = sol.grid.nodes[1:-1]
    defect = np.abs(sol.solution.values[1:-1]
                    - manu.problem.operator(sol.solution, interior)).max()
    assert defect <= collocation.RESIDUAL_TOL
    assert np.isfinite(sol.condition)


def test_assemble_delay_domain():
    p = problem.paradise_fish(0.05, 0.2, 1.0)
    g = grids.UniformGrid(4)

    def tail(value):
        """phi1 = 1/2 + t up to t = 1/2, then the constant value."""
        return FunctionHandle(eval=lambda t: np.where(t >= 0.5, value, 0.5 + t),
                              label=f"tail {value}")

    # an overshoot within CLAMP_TOL is clamped onto the boundary node
    a, rhs = collocation.assemble(replace(p, phi1=tail(1.0 + 5e-13)), g)
    ref_a, ref_rhs = collocation.assemble(replace(p, phi1=tail(1.0)), g)
    np.testing.assert_array_equal(a.toarray(), ref_a.toarray())
    np.testing.assert_array_equal(rhs, ref_rhs)
    # beyond it, the first offending collocation node (t = 1/2) is named
    with pytest.raises(grids.DomainError, match=r"collocation node 2\b"):
        collocation.assemble(replace(p, phi1=tail(1.001)), g)


@pytest.mark.parametrize("phi, node", [
    # 1.2 t > 1 from t = 5/6 on: node 54 = floor(5 N / 6) + 1 at N = 64
    (FunctionHandle(eval=lambda t: 1.2 * np.asarray(t, dtype=float), label="1.2t"), 54),
    (constant(-0.1), 1),
], ids=["1.2t", "-0.1"])
def test_phi_outside_unit_interval_raises(phi, node):
    # no phi outside [0, 1] at a node reaches a solver: B >= 0 by construction
    p = replace(problem.paradise_fish(0.05, 0.2, 1.0), phi=phi)
    g = grids.UniformGrid(64)
    # solve_collocation validates first: the same message, at a sample point
    with pytest.raises(problem.ProblemValidationError,
                       match=r"^invalid problem: phi\(.*\) = .* outside \[0,1\]$"):
        collocation.solve_collocation(p, 64)
    for run in (lambda: collocation.delay_map(p, g),
                lambda: picard.picard_grid(p, g, picard.initial_iterate(p, g))):
        with pytest.raises(grids.DomainError,
                           match=rf"^phi\(.*\) = .* outside \[0,1\] "
                                 rf"\(collocation node {node}\)$") as exc:
            run()
        assert exc.value.index == node - 1
        assert str(exc.value).count("\n") == 0


def test_phi_within_clamp_tol_builds_clamped_map():
    # as for the delays, phi overshooting [0, 1] by rounding is clamped onto it
    p = problem.paradise_fish(0.05, 0.2, 1.0)
    g = grids.UniformGrid(16)

    def phi(lo, hi):
        return FunctionHandle(eval=lambda t: np.where(
            t >= 0.5, hi, np.where(t <= 0.25, lo, np.asarray(t, dtype=float))))

    over = functions.CLAMP_TOL
    b, k = collocation.delay_map(replace(p, phi=phi(-over, 1.0 + over)), g)
    ref_b, ref_k = collocation.delay_map(replace(p, phi=phi(0.0, 1.0)), g)
    np.testing.assert_array_equal(b.data, ref_b.data)
    np.testing.assert_array_equal(b.indices, ref_b.indices)
    np.testing.assert_array_equal(k, ref_k)
    assert b.data.min() >= 0.0


def test_singular_system_surfaces_with_advisory():
    with pytest.raises(collocation.CollocationError) as exc:
        collocation.solve_collocation(singular_problem(), 8)
    assert "certificate" in str(exc.value)


COLD_FALLBACK = """
import sys
import nfeq, nfeq.cli
from nfeq import collocation, grids, picard, problem
from nfeq.functions import constant, identity
from nfeq.oracles import cusp_solution, manufacture

base = problem.section5(0.02, 0.5)
cusp = manufacture(cusp_solution(0.5), base.phi, base.phi1, base.phi2, 0.5).problem
assert collocation.solve_collocation(cusp, 64).stats.solver == "sweep"
grid = grids.UniformGrid(64)
picard.picard_grid(cusp, grid, picard.initial_iterate(cusp, grid))
loaded = [m for m in ("scipy.sparse.linalg", "scipy.linalg") if m in sys.modules]
assert not loaded, f"the sweep path loaded {loaded}"

singular = problem.ProblemSpec(phi=constant(1.0), phi1=identity(), phi2=identity(),
                               source=constant(0.0), boundary_left=0.0,
                               boundary_right=1.0, gamma=1.0)


def superlu():
    sol = collocation.solve_collocation(problem.paradise_fish(0.05, 0.8), 1024)
    assert sol.stats.solver == "superlu", sol.stats


def singular_raises():
    try:
        collocation.solve_collocation(singular, 8)
    except collocation.CollocationError:
        return
    raise AssertionError("the singular system was solved")


order = [superlu, singular_raises]
if sys.argv[1] == "singular":
    order.reverse()
for step in order:
    step()
"""


def run_fresh(script, *args):
    """Run ``script`` in a fresh interpreter on this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("first", ["superlu", "singular"])
def test_sweep_path_stays_lean_and_fallback_works_from_cold(first):
    # only a fresh interpreter shows a broken deferred import of nfeq.linalg:
    # this one has loaded it already; each fallback runs first in one child
    run_fresh(COLD_FALLBACK, first)


LEAN_ANALYSIS = """
import sys
import numpy as np
import nfeq, nfeq.cli
from nfeq import cli, collocation, grids, picard, problem, study
from nfeq.functions import identity
from nfeq.oracles import cusp_solution, manufacture

base = problem.section5(0.02, 0.5)
cusp = manufacture(cusp_solution(0.5), base.phi, base.phi1, base.phi2, 0.5)
assert problem.certify(cusp.problem, m=257).satisfies_collocation
assert problem.certify(cusp.problem, overrides=problem.section5_norms(0.02)).rigorous
trials = grids.random_cusp_trials(np.random.default_rng(0), 5, 0.5)
grids.measure_projector_norm(0.5, grids.UniformGrid(8), trials, m=129)
assert picard.picard_exact_counted(base, identity(), 6, 0.5)[1] == 2 ** 7 - 1
grids.project(cusp.exact, grids.UniformGrid(8))
problem.residual(cusp.problem, cusp.exact)
assert cli.main(["certify", "--problem", "cusp"]) == 0
assert cli.main(["interp-check", "--gamma", "0.5", "--trials", "5"]) == 0
assert "scipy.sparse" not in sys.modules, "the analysis paths loaded scipy.sparse"
assert collocation.KERNEL_MODULE not in sys.modules

collocation.solve_collocation(cusp.problem, 16)
grid = grids.UniformGrid(64)
picard.picard_grid(cusp.problem, grid, picard.initial_iterate(cusp.problem, grid))
study.run_study(cusp, n_ladder=[16, 32, 64, 128])
assert collocation.KERNEL_MODULE in sys.modules
assert "scipy.sparse" not in sys.modules, "the sweep path loaded scipy.sparse"
"""


def test_analysis_paths_leave_scipy_sparse_unloaded():
    # import nfeq, certify, the projector norm and the exact recursion need
    # no linear algebra, and the sweep path loads scipy's CSR kernel alone
    run_fresh(LEAN_ANALYSIS)


SLOW_LINALG_IMPORT = """
import sys, time
from nfeq import collocation, problem


class SlowLinalg:
    def find_spec(self, name, path=None, target=None):
        if name == "nfeq.linalg":
            time.sleep(0.5)
        return None


sys.meta_path.insert(0, SlowLinalg())
stats = collocation.solve_collocation(problem.paradise_fish(0.05, 0.8), 1024).stats
assert stats.solver == "superlu", stats
assert stats.assembly_time + stats.solve_time < 0.25, stats
assert stats.import_time >= 0.5, stats
"""


def test_fallback_import_is_not_timed():
    # a 0.5 s import of nfeq.linalg in a fresh interpreter must show in
    # neither stats timer
    run_fresh(SLOW_LINALG_IMPORT)


SLOW_LINALG_STUDY = SLOW_LINALG_IMPORT.split("stats = ")[0] + """
from nfeq import study
from nfeq.oracles import manufacture, smooth_parabola

base = problem.paradise_fish(0.9, 0.9)
parabola = manufacture(smooth_parabola(), base.phi, base.phi1, base.phi2, base.gamma)
rung = study.run_study(parabola, n_ladder=[16, 32, 64, 128]).ladder[0]
assert rung.runtime < 0.25, rung
stats = collocation.solve_collocation(parabola.problem, 16).stats
assert stats.solver == "superlu" and stats.import_time == 0.0, stats
"""


def test_fallback_import_is_not_in_rung_runtime():
    # the first rung of this study is the process's first SuperLU fallback:
    # its 0.5 s import of nfeq.linalg must not show in the rung's runtime
    run_fresh(SLOW_LINALG_STUDY)


SLOW_KERNEL_LOAD = """
import sys, time
from nfeq import collocation, problem, study
from nfeq.oracles import cusp_solution, manufacture


class SlowKernel:
    # load_sparse finds scipy through sys.meta_path, then loads the kernel
    calls = 0

    def find_spec(self, name, path=None, target=None):
        if name == "scipy":
            SlowKernel.calls += 1
            time.sleep(0.5)
        return None


sys.meta_path.insert(0, SlowKernel())
if sys.argv[1] == "solve":
    stats = collocation.solve_collocation(problem.paradise_fish(0.05, 0.2), 64).stats
    assert stats.solver == "sweep", stats
    assert stats.assembly_time + stats.solve_time < 0.25, stats
else:
    base = problem.section5(0.02, 0.5)
    cusp = manufacture(cusp_solution(0.5), base.phi, base.phi1, base.phi2, 0.5)
    rung = study.run_study(cusp, n_ladder=[16, 32, 64, 128]).ladder[0]
    assert rung.runtime < 0.25, rung
assert SlowKernel.calls == 1, SlowKernel.calls
assert collocation.KERNEL_MODULE in sys.modules
"""


@pytest.mark.parametrize("first", ["solve", "study"])
def test_sparse_import_is_not_timed(first):
    # a 0.5 s load of the CSR kernel in a fresh interpreter must show in
    # neither stats timer of the first solve, nor in the first rung's runtime
    run_fresh(SLOW_KERNEL_LOAD, first)


KERNEL_IDENTITY = """
import sys
import numpy as np
from nfeq import collocation, grids, problem

if sys.argv[1] == "before":
    import scipy.sparse
collocation.delay_map(problem.paradise_fish(0.05, 0.2), grids.UniformGrid(16))
if sys.argv[1] == "after":
    assert "scipy.sparse" not in sys.modules
    import scipy.sparse
from scipy.sparse import _sparsetools
assert _sparsetools is sys.modules[collocation.KERNEL_MODULE]
assert collocation.csr_matvec is _sparsetools.csr_matvec

from nfeq import linalg  # loads scipy.sparse.linalg onto the shared kernel
p = problem.paradise_fish(0.05, 0.8)
a, rhs = collocation.assemble(p, grids.UniformGrid(1024))
lu = linalg.factor(a)
sol = collocation.solve_collocation(p, 1024)
assert sol.stats.solver == "superlu", sol.stats
assert np.array_equal(sol.solution.values[1:-1], lu.solve(rhs))
"""


@pytest.mark.parametrize("order", ["before", "after"])
def test_kernel_is_scipy_sparse_own(order):
    # whether scipy.sparse is imported before or after the kernel is loaded
    # by file, both share one kernel module, and SuperLU still solves
    run_fresh(KERNEL_IDENTITY, order)


def test_singular_system_stops_sweeping_at_n(monkeypatch):
    # dw stays 1 on phi = 1: the sweep gives up at sweep N = 8, where it
    # ran all MAX_SWEEPS before
    calls = count_sweeps(monkeypatch)
    with pytest.raises(collocation.CollocationError):
        collocation.solve_collocation(singular_problem(), 8)
    assert 0 < len(calls) <= 2 * 8
    p = singular_problem()
    [(u, bound, sweeps)] = collocation._certified_sweeps(p, *collocation.delay_map(
        p, grids.UniformGrid(8)), [0])
    assert u is None and bound == np.inf and sweeps == 8


def test_min_subintervals():
    with pytest.raises(ValueError):
        collocation.assemble(problem.paradise_fish(0.0, 0.2, 1.0),
                             grids.UniformGrid(1))


def test_refinement_monotonicity():
    base = problem.section5(0.02, 0.5)
    manu = manufacture(cusp_solution(0.5), base.phi, base.phi1, base.phi2, 0.5)
    ts = (np.arange(1025) + 0.5) / 1025
    exact = manu.exact(ts)
    errors = []
    for n in (32, 128, 512):
        sol = collocation.solve_collocation(manu.problem, n)
        errors.append(np.abs(sol.solution.evaluate(ts) - exact).max())
    assert errors[0] > errors[1] > errors[2]


def test_discrete_fixed_point_matches_grid_picard_map():
    p = problem.paradise_fish(0.0, 0.2, 1.0)
    sol = collocation.solve_collocation(p, 32)
    interior = sol.grid.nodes[1:-1]
    image = p.operator(sol.solution, interior)
    assert np.abs(sol.solution.values[1:-1] - image).max() <= 1e-9


@pytest.mark.parametrize("n", [2, 4])
def test_equivalence_with_slope_intercept_formulation(n):
    """Reconstruct the per-interval slope/intercept unknowns from the nodal
    solution and verify all 2N equations of that formulation: N-1 interior
    collocation conditions, N-1 continuity conditions, and 2 boundary
    conditions."""
    p = problem.paradise_fish(0.0, 0.2, 1.0)
    sol = collocation.solve_collocation(p, n)
    g = sol.grid
    u = sol.solution.values
    h = g.h
    slopes = (u[1:] - u[:-1]) / h                    # a_i on [t_{i-1}, t_i]
    intercepts = u[:-1] - slopes * g.nodes[:-1]      # b_i

    def piecewise(t):
        i = min(max(int(np.searchsorted(g.nodes, t, side="right")) - 1, 0), n - 1)
        return slopes[i] * t + intercepts[i]

    # boundary conditions
    assert abs(slopes[0] * 0.0 + intercepts[0] - p.boundary_left) <= 1e-12
    assert abs(slopes[-1] * 1.0 + intercepts[-1] - p.boundary_right) <= 1e-12
    # continuity at interior nodes
    for i in range(1, n):
        t = g.nodes[i]
        left = slopes[i - 1] * t + intercepts[i - 1]
        right = slopes[i] * t + intercepts[i]
        assert abs(left - right) <= 1e-12
    # collocation conditions at interior nodes
    for i in range(1, n):
        t = g.nodes[i]
        lhs = piecewise(t)
        rhs = (float(p.phi(t)) * piecewise(float(p.phi1(t)))
               + (1.0 - float(p.phi(t))) * piecewise(float(p.phi2(t)))
               + float(p.source(t)))
        assert abs(lhs - rhs) <= 1e-12


def test_assembly_stats_populated():
    sol = collocation.solve_collocation(problem.paradise_fish(0.05, 0.2, 1.0), 32)
    assert sol.stats.nonzeros == 4 * 31
    assert sol.stats.solver == "sweep"
    assert sol.stats.sweeps > 0
    assert sol.stats.assembly_time >= 0.0
    assert sol.stats.solve_time >= 0.0
