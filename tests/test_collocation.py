import numpy as np
import pytest

from nfeq import collocation, grids, linalg, picard, problem
from nfeq.functions import FunctionHandle, constant, identity
from nfeq.oracles import cusp_solution, manufacture


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
        # one grid Picard sweep is the operator at the interior nodes
        f0 = picard.initial_iterate(p, g)
        np.testing.assert_allclose(b @ f0.values + k,
                                   p.operator(f0, g.nodes[1:-1]),
                                   rtol=0.0, atol=1e-15)


def test_two_interval_solution_value():
    sol = collocation.solve_collocation(problem.paradise_fish(0.0, 0.2, 1.0), 2)
    assert sol.solution.values[1] == pytest.approx(5.0 / 9.0, abs=1e-12)


def test_homogeneous_zero_problem():
    from dataclasses import replace
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


def test_interior_residual_invariant():
    p = problem.paradise_fish(0.05, 0.2, 1.0)
    sol = collocation.solve_collocation(p, 64)
    interior = sol.grid.nodes[1:-1]
    defect = np.abs(sol.solution.values[1:-1]
                    - p.operator(sol.solution, interior)).max()
    assert defect <= collocation.RESIDUAL_TOL


def test_condition_recorded_at_every_n():
    p = problem.paradise_fish(0.0, 0.2, 1.0)
    for n in (16, 600, 4096):
        cond = collocation.solve_collocation(p, n).condition
        assert np.isfinite(cond) and cond >= 1.0


def test_one_factorization_per_solve(monkeypatch):
    calls = []
    real = linalg.splu
    monkeypatch.setattr(linalg, "splu", lambda a: calls.append(a) or real(a))
    sol = collocation.solve_collocation(problem.paradise_fish(0.05, 0.2, 1.0), 64)
    assert len(calls) == 1
    assert np.isfinite(sol.condition)


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
    from dataclasses import replace
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


def test_singular_system_surfaces_with_advisory():
    with pytest.raises(collocation.CollocationError) as exc:
        collocation.solve_collocation(singular_problem(), 8)
    assert "certificate" in str(exc.value)


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
    assert sol.stats.nonzeros > 0
    assert sol.stats.assembly_time >= 0.0
    assert sol.stats.solve_time >= 0.0
