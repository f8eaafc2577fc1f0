import math

import numpy as np
import pytest

from nfeq import linalg


def test_identity_solve():
    rhs = np.array([3.0, -1.0, 0.5])
    np.testing.assert_array_equal(linalg.solve(np.eye(3), rhs), rhs)


def test_unit_solution_system():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    x = linalg.solve(a, np.array([3.0, 4.0]))
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)


def test_one_by_one_collocation_system():
    # hand-assembled interior equation of the two-interval solve:
    # (1 - 0.1) u = 0.5
    x = linalg.solve(np.array([[0.9]]), np.array([0.5]))
    assert x[0] == pytest.approx(5.0 / 9.0, abs=1e-15)


def test_singular_matrix_error_carries_step():
    # SuperLU reports exact singularity without the elimination step
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(linalg.SingularMatrixError) as exc:
        linalg.solve(a, np.array([1.0, 1.0]))
    assert exc.value.step is None
    # a nonzero pivot below PIVOT_FLOOR is reported with its step
    with pytest.raises(linalg.SingularMatrixError) as exc:
        linalg.solve(np.diag([1.0, 1e-310]), np.array([1.0, 1.0]))
    assert exc.value.step == 2


def test_zero_matrix_singular():
    with pytest.raises(linalg.SingularMatrixError):
        linalg.solve(np.zeros((3, 3)), np.zeros(3))


def test_shape_validation():
    with pytest.raises(ValueError):
        linalg.solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        linalg.solve(np.eye(2), np.ones(3))
    with pytest.raises(ValueError):
        linalg.solve(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.ones(2))


def test_condition_identity():
    assert linalg.condition_estimate(np.eye(5)) == 1.0


def test_condition_diagonal():
    a = np.diag([1.0, 1e-6])
    assert linalg.condition_estimate(a) == pytest.approx(1e6, rel=1e-12)


def test_condition_singular_is_inf():
    assert linalg.condition_estimate(np.ones((2, 2))) == math.inf


def test_condition_estimate_within_factor_of_exact():
    """The 1-norm estimate is a lower bound within a factor 3 of the exact
    inverse-based condition number, on collocation systems and on random
    matrices whose inverse has mixed signs."""
    from nfeq import collocation, grids, problem
    from nfeq.oracles import cusp_solution, manufacture

    base = problem.section5(0.02, 0.5)
    systems = [collocation.assemble(p, grids.UniformGrid(n))[0]
               for p in (problem.paradise_fish(0.0, 0.2, 1.0),
                         problem.paradise_fish(0.05, 0.2, 1.0),
                         manufacture(cusp_solution(0.5), base.phi, base.phi1,
                                     base.phi2, 0.5).problem)
               for n in (3, 16, 100, 512)]
    rng = np.random.default_rng(3)
    systems += [np.eye(n) + 0.3 * rng.standard_normal((n, n)) for n in (5, 64, 200)]
    for a in systems:
        dense = a.toarray() if hasattr(a, "toarray") else a
        exact = (np.abs(dense).sum(axis=1).max()
                 * np.abs(np.linalg.inv(dense)).sum(axis=1).max())
        est = linalg.condition_estimate(a)
        assert exact / 3.0 <= est <= exact * (1.0 + 1e-12)


def test_random_solve_recovery():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = np.eye(64) + 0.1 * rng.standard_normal((64, 64))
        x = rng.standard_normal(64)
        cond = linalg.condition_estimate(a)
        got = linalg.solve(a, a @ x)
        rel = np.abs(got - x).max() / max(np.abs(x).max(), 1e-30)
        assert rel <= cond * 1e-13


def test_row_permutation_invariance():
    rng = np.random.default_rng(5)
    a = np.eye(16) + 0.2 * rng.standard_normal((16, 16))
    rhs = rng.standard_normal(16)
    x = linalg.solve(a, rhs)
    perm = rng.permutation(16)
    xp = linalg.solve(a[perm], rhs[perm])
    np.testing.assert_allclose(xp, x, atol=1e-12)


def test_solve_residual_bound():
    rng = np.random.default_rng(9)
    a = np.eye(32) + 0.1 * rng.standard_normal((32, 32))
    rhs = rng.standard_normal(32)
    x = linalg.solve(a, rhs)
    assert np.abs(a @ x - rhs).max() <= 1e-10 * (1.0 + np.abs(rhs).max())
