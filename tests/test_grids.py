import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfeq import grids
from nfeq.functions import EvaluationError, FunctionHandle, constant, identity
from nfeq.oracles import cusp_solution

from helpers import poly_handle, projector_norm_reference


# ---------------------------------------------------------------------------
# grid and evaluation
# ---------------------------------------------------------------------------

def test_uniform_grid_nodes():
    g = grids.UniformGrid(4)
    assert g.h == 0.25
    np.testing.assert_array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        grids.UniformGrid(0)


def test_linear_reproduction():
    g = grids.UniformGrid(7)
    u = grids.project(poly_handle([0.3, -0.1]), g)  # 0.3t - 0.1
    ts = np.linspace(0, 1, 101)
    np.testing.assert_allclose(u.evaluate(ts), 0.3 * ts - 0.1, atol=1e-15)


def test_quadratic_interpolation_values():
    u = grids.project(poly_handle([1.0, 0.0, 0.0]), grids.UniformGrid(2))  # t^2
    np.testing.assert_array_equal(u.values, [0.0, 0.25, 1.0])
    assert u.evaluate(0.25) == 0.125
    assert u.evaluate(0.75) == 0.625


def test_single_interval():
    u = grids.PiecewiseLinear(grid=grids.UniformGrid(1), values=np.array([0.0, 1.0]))
    assert u.evaluate(0.3) == 0.3


def test_nodal_exactness_bitwise():
    g = grids.UniformGrid(16)
    u = grids.project(cusp_solution(0.5), g)
    for i, t in enumerate(g.nodes):
        assert u.evaluate(t) == u.values[i]


def test_cusp_peak_node_coincidence():
    u = grids.project(cusp_solution(0.25), grids.UniformGrid(2))
    assert u.evaluate(0.5) == 0.5 ** 0.25


def test_domain_clamping_and_error():
    u = grids.PiecewiseLinear(grid=grids.UniformGrid(2),
                              values=np.array([0.0, 1.0, 0.0]))
    assert u.evaluate(1.0 + 5e-13) == 0.0
    assert u.evaluate(-5e-13) == 0.0
    with pytest.raises(grids.DomainError):
        u.evaluate(1.001)
    with pytest.raises(grids.DomainError):
        u.evaluate(-0.001)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_locate_matches_searchsorted(data):
    n = data.draw(st.one_of(
        st.integers(1, 2 ** 20),
        st.sampled_from([2 ** k + d for k in range(21) for d in (-1, 0, 1)
                         if 1 <= 2 ** k + d <= 2 ** 20])), label="N")
    g = grids.UniformGrid(n)
    nodes = g.nodes
    js = np.array(data.draw(st.lists(st.integers(0, n), min_size=1, max_size=50)))
    js = np.concatenate((js, np.arange(0, n + 1, max(1, n // 1000))))
    near = nodes[js]
    over = data.draw(st.floats(0.0, grids.CLAMP_TOL), label="overshoot")
    free = data.draw(st.lists(st.floats(0.0, 1.0), max_size=20), label="points")
    ts = np.concatenate((near, np.nextafter(near, -1.0), np.nextafter(near, 2.0),
                         js / n, (np.minimum(js, n - 1) + 0.5) / n,
                         [0.0, 1.0, -over, 1.0 + over], free))
    i, w = grids.locate(g, ts)
    tc = np.clip(ts, 0.0, 1.0)
    ref = np.clip(np.searchsorted(nodes, tc, side="right") - 1, 0, n - 1)
    np.testing.assert_array_equal(i, ref)
    np.testing.assert_array_equal(w, (tc - nodes[ref]) / (nodes[ref + 1] - nodes[ref]))


def test_values_validation():
    with pytest.raises(ValueError):
        grids.PiecewiseLinear(grid=grids.UniformGrid(2), values=np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        grids.PiecewiseLinear(grid=grids.UniformGrid(1),
                              values=np.array([0.0, np.nan]))


# ---------------------------------------------------------------------------
# projector properties
# ---------------------------------------------------------------------------

def test_projection_idempotence_bitwise():
    g = grids.UniformGrid(9)
    u = grids.project(cusp_solution(0.75), g)
    again = grids.project(u, g)
    assert np.array_equal(u.values, again.values)


def test_projection_linearity():
    g = grids.UniformGrid(8)
    f, h = poly_handle([1, -1, 0.5]), cusp_solution(0.5)
    combo = FunctionHandle(eval=lambda t: 2.0 * f(t) - 3.0 * h(t))
    ts = np.linspace(0, 1, 257)
    lhs = grids.project(combo, g).evaluate(ts)
    rhs = 2.0 * grids.project(f, g).evaluate(ts) - 3.0 * grids.project(h, g).evaluate(ts)
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_project_error_carries_node_index():
    bad = FunctionHandle(eval=lambda t: np.where(np.asarray(t) >= 0.5, np.nan, 0.0),
                         label="bad")
    with pytest.raises(EvaluationError) as exc:
        grids.project(bad, grids.UniformGrid(4))
    assert "grid node 2" in str(exc.value)


def test_nodal_error_vanishing():
    g = grids.UniformGrid(8)
    f = cusp_solution(0.5)
    u = grids.project(f, g)
    assert np.abs(u.evaluate(g.nodes) - f(g.nodes)).max() == 0.0


# ---------------------------------------------------------------------------
# error bounds
# ---------------------------------------------------------------------------

def test_sup_error_bound_values():
    assert grids.sup_error_bound(2.0, 1.0, 1, 0.5) == pytest.approx(0.125, abs=1e-15)
    assert grids.sup_error_bound(0.0, 1.0, 0, 0.1) == 0.0
    assert grids.sup_error_bound(1.0, 0.5, 0, 2.0 ** -10) == \
        pytest.approx(2.0 ** -5.5, abs=1e-12)


def test_sup_error_bound_validation():
    with pytest.raises(ValueError):
        grids.sup_error_bound(1.0, 0.5, 2, 0.1)
    with pytest.raises(ValueError):
        grids.sup_error_bound(1.0, 1.5, 0, 0.1)
    with pytest.raises(ValueError):
        grids.sup_error_bound(1.0, 0.5, 0, 0.0)


def test_interp_error_linear_is_zero():
    sup, hoe = grids.measure_interp_error(identity(), grids.UniformGrid(5), gamma=0.5)
    assert sup <= 1e-14 and hoe <= 1e-12


def test_interp_error_quadratic():
    sup, _ = grids.measure_interp_error(poly_handle([1.0, 0.0, 0.0]),
                                        grids.UniformGrid(2), gamma=1.0)
    assert sup == pytest.approx(0.0625, abs=1e-15)
    assert sup <= grids.sup_error_bound(2.0, 1.0, 1, 0.5)


def test_interp_error_cusp_order_gamma_decay():
    f = cusp_solution(0.5)
    e16, _ = grids.measure_interp_error(f, grids.UniformGrid(16), gamma=0.5)
    e64, _ = grids.measure_interp_error(f, grids.UniformGrid(64), gamma=0.5)
    assert e64 / e16 == pytest.approx(0.5, abs=0.1)


# ---------------------------------------------------------------------------
# projector norm measurement
# ---------------------------------------------------------------------------

def test_projector_norm_linear_trials():
    trials = [poly_handle([0.5, 0.2]), poly_handle([-1.0, 1.0])]
    ratio = grids.measure_projector_norm(0.5, grids.UniformGrid(8), trials)
    assert ratio == pytest.approx(1.0, abs=1e-12)


def test_projector_norm_fixed_point_trial():
    g = grids.UniformGrid(4)
    u = grids.PiecewiseLinear(grid=g, values=np.array([0.0, 1.0, -0.5, 0.25, 0.0]))
    ratio = grids.measure_projector_norm(0.5, g, [u])
    assert ratio == pytest.approx(1.0, abs=1e-12)


def test_projector_norm_random_trials_below_bound():
    rng = np.random.default_rng(42)
    trials = grids.random_cusp_trials(rng, 50, 0.5)
    ratio = grids.measure_projector_norm(0.5, grids.UniformGrid(8), trials)
    assert ratio <= 1.0 + 2.0 ** 0.5 + 1e-9


@pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
def test_projector_norm_matches_per_trial_loop(gamma):
    # the criterion-4 trial sets, and one with zero-norm trials among them
    trials = grids.random_cusp_trials(np.random.default_rng(42), 50, gamma)
    grid = grids.UniformGrid(8)
    assert grids.measure_projector_norm(gamma, grid, trials) == \
        projector_norm_reference(gamma, grid, trials)
    mixed = [constant(0.0, "zero-a"), *trials[:5], constant(0.0, "zero-b")]
    with pytest.warns(UserWarning) as batched:
        ratio = grids.measure_projector_norm(gamma, grid, mixed, m=129)
    with pytest.warns(UserWarning) as reference:
        expected = projector_norm_reference(gamma, grid, mixed, m=129)
    assert ratio == expected
    assert [str(w.message) for w in batched] == [str(w.message) for w in reference]
    assert "zero-a" in str(batched[0].message) and "zero-b" in str(batched[1].message)


def test_projector_norm_skips_zero_trials():
    trials = [constant(0.0), identity()]
    with pytest.warns(UserWarning):
        ratio = grids.measure_projector_norm(0.5, grids.UniformGrid(4), trials)
    assert ratio == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        with pytest.warns(UserWarning):
            grids.measure_projector_norm(0.5, grids.UniformGrid(4), [constant(0.0)])
    with pytest.raises(ValueError):
        grids.measure_projector_norm(0.5, grids.UniformGrid(4), [])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_csv_round_trip_bitwise(tmp_path):
    g = grids.UniformGrid(8)
    u = grids.project(cusp_solution(0.5), g)
    path = tmp_path / "u.csv"
    grids.write_csv(u, path)
    back = grids.read_csv(path)
    assert back.grid.n == 8
    assert np.array_equal(back.values, u.values)


def test_csv_header_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n0,0\n1,1\n")
    with pytest.raises(ValueError):
        grids.read_csv(path)


def test_csv_nonuniform_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,value\n0,0\n0.4,0.5\n1,1\n")
    with pytest.raises(ValueError):
        grids.read_csv(path)
