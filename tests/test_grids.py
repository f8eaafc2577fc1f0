import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfeq import grids
from nfeq.functions import CLAMP_TOL, EvaluationError, FunctionHandle, constant, identity
from nfeq.oracles import cusp_solution

from helpers import plain_cusp_trials, poly_handle, projector_norm_reference


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


@pytest.mark.parametrize("t, bad", [
    (np.array([0.0, 0.25, 1.0]), None),
    (np.array([0.5, 1.0 + 5e-13, -5e-13]), None),
    (np.array([0.5, -5e-13, 1.001, -0.001]), 2),
    (np.array([-1e-3, 0.5]), 0),
    (0.75, None),
    (1.0 + 5e-13, None),
    (-1e-3, 0),
    (np.array([0.5, np.nan, 2.0]), 1),
])
def test_clamp_unit_values_and_error_index(t, bad):
    if bad is None:
        out = grids.clamp_unit(t)
        np.testing.assert_array_equal(out, np.clip(np.atleast_1d(t), 0.0, 1.0))
        assert out.shape == np.atleast_1d(t).shape and out.dtype == float
    else:
        with pytest.raises(grids.DomainError) as exc:
            grids.clamp_unit(t)
        assert exc.value.index == bad


@pytest.mark.parametrize("t", [np.linspace(0.0, 1.0, 9), np.array([0.5, 1.0 + 5e-13])])
def test_clamp_unit_never_aliases_input(t):
    # locate writes the hat weights into clamp_unit's result
    before = t.copy()
    out = grids.clamp_unit(t)
    assert not np.shares_memory(out, t)
    grids.locate(grids.UniformGrid(3), t)
    np.testing.assert_array_equal(t, before)


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
    over = data.draw(st.floats(0.0, CLAMP_TOL), label="overshoot")
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


def test_projector_norm_scans_no_zero_norm_trial(monkeypatch):
    # a zero stride bound already proves a trial all zero: it is warned about
    # and dropped without an exact pair scan of its samples
    scanned = []
    scan = grids.holder.pairwise_seminorm

    def counted(ts, vals, gamma):
        if np.ndim(vals) == 2:
            scanned.extend(not row.any() for row in vals)
        return scan(ts, vals, gamma)

    monkeypatch.setattr(grids.holder, "pairwise_seminorm", counted)
    trials = grids.random_cusp_trials(np.random.default_rng(42), 5, 0.5)
    mixed = [constant(0.0, "zero-a"), *trials, constant(0.0, "zero-b")]
    with pytest.warns(UserWarning):
        grids.measure_projector_norm(0.5, grids.UniformGrid(8), mixed, m=129)
    assert scanned and not any(scanned)


def _pwl_trials(rng, count):
    """Random piecewise-linear trials on grids of their own, values of mixed scale."""
    trials = []
    for _ in range(count):
        n = int(rng.integers(1, 40))
        values = rng.normal(size=n + 1) * 10.0 ** rng.uniform(-3.0, 3.0)
        trials.append(grids.PiecewiseLinear(grid=grids.UniformGrid(n), values=values))
    return trials


@pytest.mark.parametrize("gamma, n, m, kind", [
    (0.5, 7, 513, "cusp"),    # nodes between the samples
    (0.5, 8, 9, "cusp"),      # N + 1 >= m: every projection is scanned
    (0.25, 64, 17, "cusp"),
    (1.0, 8, 513, "cusp"),
    (0.75, 33, 257, "cusp"),  # the first trial scanned is not the maximum
    (0.5, 8, 257, "pwl"),
    (1.0, 7, 513, "pwl"),
])
def test_projector_norm_matches_reference(gamma, n, m, kind):
    rng = np.random.default_rng(5)
    trials = (grids.random_cusp_trials(rng, 30, gamma) if kind == "cusp"
              else _pwl_trials(rng, 30))
    grid = grids.UniformGrid(n)
    assert grids.measure_projector_norm(gamma, grid, trials, m=m) == \
        projector_norm_reference(gamma, grid, trials, m=m)


@pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
def test_projector_norm_is_one_on_nodes_among_samples(gamma):
    # interpolation at nodes that are samples never raises the sampled
    # gamma-norm: |P_h f(0)| = |f(0)| and the node-pair seminorm of P_h f is
    # one of f's own sampled quotients, so ||P_h|| measures 1
    trials = grids.random_cusp_trials(np.random.default_rng(42), 50, gamma)
    for n in (1, 2, 4, 8, 16, 64, 128, 512):
        assert grids.measure_projector_norm(gamma, grids.UniformGrid(n), trials,
                                            m=513) <= 1.0 + 1e-12


def test_projector_norm_scans_only_projections_that_can_win(monkeypatch):
    scans = []
    scan = grids.holder.pairwise_seminorm

    def counted(ts, vals, gamma):
        if np.ndim(vals) == 1:  # one projection's samples
            scans.append(len(ts))
        return scan(ts, vals, gamma)

    monkeypatch.setattr(grids.holder, "pairwise_seminorm", counted)
    trials = grids.random_cusp_trials(np.random.default_rng(42), 50, 0.5)
    grids.measure_projector_norm(0.5, grids.UniformGrid(8), trials)
    assert 1 <= len(scans) <= 5
    scans.clear()
    # N + 1 >= m: the bounds are inf and the same loop scans all 50
    grids.measure_projector_norm(0.5, grids.UniformGrid(8), trials, m=9)
    assert len(scans) == 50


def test_projector_norm_takes_exact_norms_only_of_trials_that_can_win(monkeypatch):
    rows = []
    scan = grids.holder.pairwise_seminorm

    def counted(ts, vals, gamma):
        if np.ndim(vals) == 2 and len(ts) == 513:  # a batch of trials' exact norms
            rows.append(len(vals))
        return scan(ts, vals, gamma)

    monkeypatch.setattr(grids.holder, "pairwise_seminorm", counted)
    grid = grids.UniformGrid(8)
    trials = grids.random_cusp_trials(np.random.default_rng(42), 50, 0.5)
    grids.measure_projector_norm(0.5, grid, trials)
    assert 1 <= sum(rows) <= 10  # of 50 trials
    # the workload's trial sets: some take a second batch, all match
    batches = []
    for seed in range(1, 13):
        trials = grids.random_cusp_trials(np.random.default_rng(seed), 50, 0.5)
        rows.clear()
        ratio = grids.measure_projector_norm(0.5, grid, trials)
        batches.append(len(rows))
        assert ratio == projector_norm_reference(0.5, grid, trials)
    assert min(batches) == 1 and max(batches) == 2


def test_projector_norm_unsound_bound_raises(monkeypatch):
    bounds = grids.node_pair_bounds
    monkeypatch.setattr(grids, "node_pair_bounds",
                        lambda *args: 0.5 * bounds(*args))
    trials = grids.random_cusp_trials(np.random.default_rng(42), 10, 0.5)
    with pytest.raises(RuntimeError, match="above its node-pair bound"):
        grids.measure_projector_norm(0.5, grids.UniformGrid(8), trials)


def _counted(trials):
    """The trials, each wrapped to append its index to the list returned."""
    calls = []

    def wrap(k, f):
        def g(t):
            calls.append(k)
            return f(t)
        return FunctionHandle(eval=g, label=f.label)

    return [wrap(k, f) for k, f in enumerate(trials)], calls


@pytest.mark.parametrize("m", [513, 9])  # pruned; N + 1 >= m scans every projection
def test_projector_norm_evaluates_each_trial_once(m):
    trials = grids.random_cusp_trials(np.random.default_rng(42), 50, 0.5)
    counted, calls = _counted(trials)
    grid = grids.UniformGrid(8)
    ratio = grids.measure_projector_norm(0.5, grid, counted, m=m)
    assert calls == list(range(50))
    assert ratio == projector_norm_reference(0.5, grid, trials, m=m)


def _nan_at(label, bad):
    """A smooth trial that is NaN where ``bad(t)`` holds."""
    return FunctionHandle(eval=lambda t: np.where(bad(np.asarray(t)), np.nan, np.sin(t)),
                          label=label)


_NODE_3_OF_7 = float(grids.UniformGrid(7).nodes[3])  # 3/7 is no sample i/512


@pytest.mark.parametrize("bad_trials, message", [
    ([_nan_at("node", lambda t: t == _NODE_3_OF_7)],
     f"'node' evaluated to nan at t={_NODE_3_OF_7!r} (grid node 3)"),
    ([_nan_at("sample", lambda t: t >= 0.5)], "'sample' evaluated to nan at t=0.5"),
    ([_nan_at("node", lambda t: t == _NODE_3_OF_7), _nan_at("sample", lambda t: t >= 0.5)],
     f"'node' evaluated to nan at t={_NODE_3_OF_7!r} (grid node 3)"),
], ids=["node", "sample", "first-trial"])
def test_projector_norm_non_finite_trial_errors(bad_trials, message):
    # trial after trial, a bad sample raises as the samples alone do, and a
    # bad node only as projection does, with its node
    trials = [*grids.random_cusp_trials(np.random.default_rng(42), 3, 0.5), *bad_trials]
    grid = grids.UniformGrid(7)
    with pytest.raises(EvaluationError) as exc:
        grids.measure_projector_norm(0.5, grid, trials, m=513)
    with pytest.raises(EvaluationError) as ref:
        projector_norm_reference(0.5, grid, trials, m=513)
    assert str(exc.value) == str(ref.value) == message


@pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
def test_cusp_trials_match_plain_expression(gamma):
    trials = grids.random_cusp_trials(np.random.default_rng(11), 50, gamma)
    plain = plain_cusp_trials(np.random.default_rng(11), 50, gamma)
    inputs = [grids.holder.uniform_samples(513), grids.UniformGrid(7).nodes,
              grids.UniformGrid(8).nodes, (np.arange(4097) + 0.5) / 4097]
    for f, ref in zip(trials, plain):
        for t in (0.0, 0.3, 0.5, 1.0):  # a scalar gives the one-point array's value
            out = f(t)
            assert np.ndim(out) == 0 and out == f(np.array([t]))[0]
        for ts in inputs:
            assert np.array_equal(f(ts), ref(ts))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 64),
       gamma=st.one_of(st.sampled_from([0.5, 1.0]),
                       st.floats(0.0, 1.0, exclude_min=True)),
       scale=st.sampled_from([1e-300, 1e-6, 1e-3, 1.0, 1e3, 1e6]),
       offset=st.sampled_from([0.0, 1.0, 1e4]))
def test_node_pair_bound_is_sound(data, n, gamma, scale, offset):
    on_nodes = data.draw(st.booleans(), label="nodes on samples")
    if on_nodes:
        m = n * data.draw(st.integers(1, max(1, 599 // n)), label="per cell") + 1
    else:
        m = data.draw(st.integers(2, 600), label="m")
    raw = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n + 1, max_size=n + 1),
                    label="values")
    values = scale * (offset + np.array(raw))
    grid = grids.UniformGrid(n)
    ts = grids.holder.uniform_samples(m)
    sampled = grids.holder.pairwise_seminorm(
        ts, grids.PiecewiseLinear(grid=grid, values=values).evaluate(ts), gamma)
    bound = grids.node_pair_bounds(grid, values, gamma, ts)
    assert bound.shape == (1,)
    assert sampled <= bound[0]


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


def test_write_csv_bytes(tmp_path):
    # pins the CSV number format: floats to 17 significant digits, csv's \r\n
    u = grids.PiecewiseLinear(grid=grids.UniformGrid(2), values=np.array([0.0, 1 / 3, 1.0]))
    path = tmp_path / "u.csv"
    grids.write_csv(u, path)
    assert path.read_bytes() == b"t,value\r\n0,0\r\n0.5,0.33333333333333331\r\n1,1\r\n"


@pytest.mark.parametrize("text, match", [
    ("x,y\n0,0\n1,1\n", "expected header 't,value'"),
    ("t,value\n0,0\n0.4,0.5\n1,1\n", "not a uniform grid"),
    ("t,value\n0,0\n0.5\n1,1\n", r"bad\.csv:3: expected a row 't,value', got '0\.5'"),
    ("t,value\n0,0\n0.5,x\n1,1\n", r"bad\.csv:3: expected a row 't,value', got '0\.5,x'"),
], ids=["header", "nonuniform", "short-row", "not-a-number"])
def test_csv_rejected(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        grids.read_csv(path)
