import csv
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nfeq import collocation, grids, picard, problem
from nfeq.collocation import solve_collocation
from nfeq.functions import EvaluationError, FunctionHandle, constant, identity
from nfeq.oracles import cusp_solution, manufacture, product_formula

from helpers import exact_reference, grid_picard_reference


def test_exact_depth_zero_returns_initial():
    p = problem.paradise_fish(0.0, 0.2, 1.0)
    assert picard.picard_exact_counted(p, identity(), 0, 0.3)[0] == 0.3


def test_exact_one_step_value():
    # one unrolling at t = 0.5: 0.5 * f0(1) + 0.5 * f0(0.1) = 0.55
    p = problem.paradise_fish(0.0, 0.2, 1.0)
    assert picard.picard_exact_counted(p, identity(), 1, 0.5)[0] == pytest.approx(0.55, abs=1e-15)


def test_exact_deep_iteration_matches_product_formula():
    p = problem.paradise_fish(0.0, 0.2, 1.0)
    val = picard.picard_exact_counted(p, identity(), 20, 0.5)[0]
    assert val == pytest.approx(product_formula(0.2, 0.5), abs=1e-4)


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 6])
def test_exact_visit_count(depth):
    p = problem.paradise_fish(0.0, 0.2, 1.0)
    _, visits = picard.picard_exact_counted(p, identity(), depth, 0.5)
    assert visits == 2 ** (depth + 1) - 1


def test_exact_cost_guard():
    p = problem.paradise_fish(0.0, 0.2, 1.0)
    with pytest.raises(picard.CostGuardError):
        picard.picard_exact_counted(p, identity(), picard.MAX_EXACT_DEPTH + 1, 0.5)
    with pytest.raises(ValueError):
        picard.picard_exact_counted(p, identity(), -1, 0.5)
    with pytest.raises(ValueError):
        picard.picard_exact_counted(p, identity(), 1, 1.5)


def _cusp_problem():
    base = problem.section5(0.02, 0.5)
    return manufacture(cusp_solution(0.5), base.phi, base.phi1, base.phi2, 0.5).problem


_EXACT_PROBLEMS = {"paradise": lambda: problem.paradise_fish(0.05, 0.2, 1.0),
                   "section5": lambda: problem.section5(0.02, 0.5),
                   "cusp": _cusp_problem}
_SIN_F0 = FunctionHandle(
    eval=lambda t: np.sin(3.0 * np.asarray(t, dtype=float)) + np.exp(np.asarray(t, dtype=float)),
    label="sin(3t)+exp(t)")


@pytest.mark.parametrize("f0", [identity(), _SIN_F0], ids=["identity", "sin"])
@pytest.mark.parametrize("name", sorted(_EXACT_PROBLEMS))
def test_exact_matches_scalar_recursion(name, f0):
    p = _EXACT_PROBLEMS[name]()
    for depth in range(13):
        for t in (0.0, 0.3, 0.5, 0.77, 1.0):
            assert picard.picard_exact_counted(p, f0, depth, t) == \
                exact_reference(p, f0, depth, t), (depth, t)


def test_exact_blocks_match_scalar_recursion(monkeypatch):
    # 3-level blocks: depth 10 evaluates 128 subtrees below 7 top levels
    monkeypatch.setattr(picard, "BLOCK_LEVELS", 3)
    p = problem.paradise_fish(0.05, 0.2, 1.0)
    for depth in range(11):
        assert picard.picard_exact_counted(p, _SIN_F0, depth, 0.3) == \
            exact_reference(p, _SIN_F0, depth, 0.3), depth


def test_exact_delay_domain():
    p = problem.paradise_fish(0.05, 0.2, 1.0)

    def tail(value):
        """phi1 = 1/2 + t up to t = 1/2, then the constant value."""
        return FunctionHandle(eval=lambda t: np.where(np.asarray(t) >= 0.5, value,
                                                      0.5 + np.asarray(t)),
                              label=f"tail {value}")

    # an overshoot within CLAMP_TOL is clamped onto 1
    near = picard.picard_exact_counted(replace(p, phi1=tail(1.0 + 5e-13)), identity(), 6, 0.7)[0]
    ref = picard.picard_exact_counted(replace(p, phi1=tail(1.0)), identity(), 6, 0.7)[0]
    assert near == ref
    with pytest.raises(grids.DomainError):
        picard.picard_exact_counted(replace(p, phi1=tail(1.0 + 1e-3)), identity(), 6, 0.7)


def test_exact_phi_outside_unit_interval_raises():
    # phi passes the checked clamp as the delays do; it returned (1.4999, 7)
    p = replace(problem.section5(0.02, 0.5), phi=constant(1.5))
    with pytest.raises(grids.DomainError, match=r"^phi\(0\.5\) = 1\.5 outside \[0,1\]$"):
        picard.picard_exact_counted(p, identity(), 2, 0.5)


def test_exact_non_finite_value_raises():
    p = problem.paradise_fish(0.05, 0.2, 1.0)
    f0 = FunctionHandle(eval=lambda t: np.where(np.asarray(t) < 0.01, np.nan, t),
                        label="nan below 0.01")
    assert np.isfinite(picard.picard_exact_counted(p, f0, 2, 0.5)[0])
    # the leaf phi2(phi2(phi2(0.5))) = 0.004
    with pytest.raises(EvaluationError, match="nan below 0.01"):
        picard.picard_exact_counted(p, f0, 3, 0.5)


def test_exact_memory_bounded_at_depth_20():
    p = problem.paradise_fish(0.0, 0.2, 1.0)
    tracemalloc.start()
    try:
        _, visits = picard.picard_exact_counted(p, identity(), 20, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert visits == 2 ** 21 - 1
    assert peak < 8 * 2 ** 20


def test_initial_iterate_is_boundary_interpolant():
    p = problem.paradise_fish(0.0, 0.2, 1.0)
    g = grids.UniformGrid(4)
    f0 = picard.initial_iterate(p, g)
    np.testing.assert_array_equal(f0.values, g.nodes)


def test_grid_picard_stops_at_fixed_point():
    p = problem.paradise_fish(0.0, 0.2, 1.0)
    sol = solve_collocation(p, 32)
    trace = picard.picard_grid(p, sol.grid, sol.solution)
    assert trace.converged
    assert trace.increments[0] <= 1e-9


def test_grid_picard_limit_matches_collocation():
    p = problem.paradise_fish(0.0, 0.2, 1.0)
    g = grids.UniformGrid(64)
    trace = picard.picard_grid(p, g, picard.initial_iterate(p, g), tol=1e-12)
    assert trace.converged
    sol = solve_collocation(p, 64)
    assert np.abs(trace.final.values - sol.solution.values).max() <= 1e-10


def test_grid_picard_contraction_on_affine_family():
    p = problem.section5(0.02, 0.5)
    g = grids.UniformGrid(64)
    # perturb the start away from the fixed point (the identity solves this
    # family exactly) while keeping the pinned boundary values
    values = g.nodes + 0.3 * np.sin(np.pi * g.nodes)
    f0 = grids.PiecewiseLinear(grid=g, values=values)
    trace = picard.picard_grid(p, g, f0, tol=1e-12)
    assert trace.converged
    ratios = [r for r in trace.contraction_ratios[1:] if np.isfinite(r)]
    assert ratios and max(ratios) <= 0.45


def test_grid_picard_input_validation():
    p = problem.paradise_fish(0.0, 0.2, 1.0)
    g = grids.UniformGrid(8)
    other = picard.initial_iterate(p, grids.UniformGrid(4))
    with pytest.raises(ValueError):
        picard.picard_grid(p, g, other)
    bad_boundary = grids.PiecewiseLinear(grid=g, values=np.linspace(0.5, 1.0, 9))
    with pytest.raises(ValueError):
        picard.picard_grid(p, g, bad_boundary)
    with pytest.raises(ValueError):
        picard.picard_grid(p, g, picard.initial_iterate(p, g), tol=0.0)
    for max_iter in (0, -1):
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            picard.picard_grid(p, g, picard.initial_iterate(p, g), max_iter=max_iter)


def test_grid_picard_nan_tolerance():
    # NaN fails every comparison: only "not tol > 0" refuses it
    p = problem.paradise_fish(0.0, 0.2, 1.0)
    g = grids.UniformGrid(8)
    with pytest.raises(ValueError, match="tol must be positive"):
        picard.picard_grid(p, g, picard.initial_iterate(p, g), tol=float("nan"))


def test_grid_picard_nonconvergence_warns():
    p = problem.paradise_fish(0.05, 0.2, 1.0)
    g = grids.UniformGrid(16)
    with pytest.warns(UserWarning):
        trace = picard.picard_grid(p, g, picard.initial_iterate(p, g),
                                   tol=1e-15, max_iter=2)
    assert not trace.converged
    assert len(trace.increments) == 2


def test_grid_picard_delay_domain():
    p = problem.paradise_fish(0.05, 0.2, 1.0)
    g = grids.UniformGrid(4)
    f0 = picard.initial_iterate(p, g)

    def tail(value):
        """phi1 = 1/2 + t up to t = 1/2, then the constant value."""
        return FunctionHandle(eval=lambda t: np.where(t >= 0.5, value, 0.5 + t),
                              label=f"tail {value}")

    # an overshoot within CLAMP_TOL is clamped onto the boundary node
    near = picard.picard_grid(replace(p, phi1=tail(1.0 + 5e-13)), g, f0)
    ref = picard.picard_grid(replace(p, phi1=tail(1.0)), g, f0)
    assert near.converged
    np.testing.assert_array_equal(near.final.values, ref.final.values)
    # beyond it, the first offending interior node (t = 1/2) is named
    with pytest.raises(grids.DomainError, match=r"collocation node 2\b"):
        picard.picard_grid(replace(p, phi1=tail(1.001)), g, f0)


def test_grid_picard_memory_independent_of_iterations():
    # beta = 0.9 contracts by about 0.9 per sweep, so 200 sweeps never reach
    # the tolerance (beta = 0.2 hits an exact fixed point after 31)
    p = problem.paradise_fish(0.05, 0.9, 1.0)
    g = grids.UniformGrid(2 ** 14)
    f0 = picard.initial_iterate(p, g)
    peaks = []
    for max_iter in (5, 200):
        tracemalloc.start()
        try:
            with pytest.warns(UserWarning):
                trace = picard.picard_grid(p, g, f0, tol=1e-300, max_iter=max_iter)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(trace.increments) == max_iter
    assert peaks[1] <= 1.1 * peaks[0]


@pytest.mark.parametrize("name", sorted(_EXACT_PROBLEMS))
def test_grid_picard_matches_reference_loop(name):
    p = _EXACT_PROBLEMS[name]()
    for n in (2, 3, 97, 4096):
        g = grids.UniformGrid(n)
        f0 = grids.PiecewiseLinear(grid=g, values=picard.initial_iterate(p, g).values
                                   + 0.3 * np.sin(np.pi * g.nodes))
        trace = picard.picard_grid(p, g, f0, tol=1e-12)
        values, increments = grid_picard_reference(p, g, f0, tol=1e-12, max_iter=1000)
        assert trace.increments == increments
        np.testing.assert_array_equal(trace.final.values, values)


def test_grid_picard_across_delay_blocks_matches_reference():
    # N - 1 = 3 B + 5 interior rows: three full blocks of B and a short one
    p = _cusp_problem()
    g = grids.UniformGrid(3 * collocation.DELAY_BLOCK_ROWS + 6)
    f0 = picard.initial_iterate(p, g)
    trace = picard.picard_grid(p, g, f0, tol=1e-12)
    values, increments = grid_picard_reference(p, g, f0, tol=1e-12, max_iter=1000)
    assert trace.converged
    assert trace.increments == increments
    np.testing.assert_array_equal(trace.final.values, values)


def test_trace_csv(tmp_path):
    p = problem.paradise_fish(0.0, 0.2, 1.0)
    g = grids.UniformGrid(16)
    trace = picard.picard_grid(p, g, picard.initial_iterate(p, g), tol=1e-12)
    path = tmp_path / "trace.csv"
    picard.write_trace_csv(trace, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "increment", "ratio"]
    assert len(rows) == len(trace.increments) + 1
    assert float(rows[1][1]) == trace.increments[0]


def test_trace_csv_bytes(tmp_path):
    u = picard.initial_iterate(problem.paradise_fish(0.0, 0.2, 1.0), grids.UniformGrid(2))
    trace = picard.PicardTrace(final=u, increments=[0.5, 0.25, 0.1],
                               contraction_ratios=[0.5, 0.4], converged=True)
    path = tmp_path / "trace.csv"
    picard.write_trace_csv(trace, path)
    assert path.read_bytes() == (b"iteration,increment,ratio\r\n1,0.5,nan\r\n"
                                 b"2,0.25,0.5\r\n"
                                 b"3,0.10000000000000001,0.40000000000000002\r\n")
