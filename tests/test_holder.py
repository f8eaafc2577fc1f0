import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfeq import holder
from nfeq.functions import FunctionHandle, constant, identity
from nfeq.grids import PiecewiseLinear, UniformGrid, random_cusp_trials
from nfeq.oracles import cusp_solution
from nfeq.problem import certify, paradise_fish, section5

from helpers import poly_handle, random_function, row_block_seminorm


def sqrt_handle():
    return FunctionHandle(eval=lambda t: np.sqrt(np.asarray(t, dtype=float)),
                          label="sqrt")


# ---------------------------------------------------------------------------
# norm estimators
# ---------------------------------------------------------------------------

def test_identity_norm_is_one():
    est = holder.estimate_hoelder_norm(identity(), 0.5, m=101)
    assert est.norm == 1.0
    assert est.boundary_term == 0.0
    assert est.seminorm == 1.0


def test_constant_norm():
    est = holder.estimate_hoelder_norm(constant(-2.5), 0.75, m=51)
    assert est.norm == 2.5
    assert est.seminorm == 0.0


def test_sqrt_norm_near_one():
    # |sqrt(t) - sqrt(s)| <= |t-s|^{1/2} with equality at the pair (1, 0)
    est = holder.estimate_hoelder_norm(sqrt_handle(), 0.5, m=1001)
    assert abs(est.norm - 1.0) <= 1e-9


def test_norm_is_boundary_plus_seminorm():
    est = holder.estimate_hoelder_norm(poly_handle([1.0, -0.3, 0.7]), 0.5)
    assert est.norm == est.boundary_term + est.seminorm


def test_sup_norm_parabola():
    f = FunctionHandle(eval=lambda t: np.asarray(t, float) * (1 - np.asarray(t, float)))
    assert holder.estimate_sup_norm(f, m=101) == 0.25


def test_sup_norm_negative_constant():
    assert holder.estimate_sup_norm(constant(-1.0), m=2) == 1.0


def test_sup_norm_cusp():
    assert holder.estimate_sup_norm(cusp_solution(0.5), m=101) == \
        pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_lipschitz_norm_scaled_identity():
    f = FunctionHandle(eval=lambda t: 0.2 * np.asarray(t, dtype=float))
    assert holder.estimate_lipschitz_norms([f])[0] == pytest.approx(0.2, abs=1e-12)


def test_lipschitz_norm_affine():
    # |f(0)| = 0.7 plus slope 0.3
    alpha = 0.3
    f = FunctionHandle(eval=lambda t: alpha * np.asarray(t, float) + 1 - alpha)
    assert holder.estimate_lipschitz_norms([f])[0] == pytest.approx(1.0, abs=1e-12)


def test_gamma_validation():
    with pytest.raises(ValueError):
        holder.estimate_hoelder_norm(identity(), 0.0)
    with pytest.raises(ValueError):
        holder.estimate_hoelder_norm(identity(), 1.5)
    with pytest.raises(ValueError):
        holder.uniform_samples(1)


def _full_scan_seminorm(ts, vals, gamma):
    """Every ordered pair at once: the m x m reference for pairwise_seminorm."""
    dt = np.abs(ts[:, None] - ts[None, :])
    dv = np.abs(vals[:, None] - vals[None, :])
    keep = dt >= holder.MIN_PAIR_SEPARATION
    return float((dv[keep] / dt[keep] ** gamma).max(initial=0.0))


def _sample_row(data, ts, label):
    """One row of samples: random, constant, affine (ties at gamma = 1), or tiny."""
    m = ts.size
    kind = data.draw(st.sampled_from(["random", "constant", "affine", "tiny"]), label=label)
    if kind == "constant":
        return np.full(m, data.draw(st.floats(-1e3, 1e3), label=f"{label} value"))
    if kind == "affine":
        a, b = data.draw(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                         label=f"{label} coefficients")
        return a + b * ts
    row = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=m, max_size=m),
                             label=f"{label} values"))
    # scaled by 1e-300 or 1e-310, differences and quotients go subnormal
    scale = data.draw(st.sampled_from([1e-300, 1e-310]), label=f"{label} scale")
    return row * scale if kind == "tiny" else row


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       gamma=st.one_of(st.sampled_from([0.5, 1.0]),
                       st.floats(0.0, 1.0, exclude_min=True)))
def test_pairwise_seminorm_matches_full_scan(data, gamma):
    m = data.draw(st.integers(1, 200), label="m")
    # drawing the points from a pool of at most m gives unsorted samples
    # with duplicates; nudges of a few 1e-15 give near-duplicates closer
    # than MIN_PAIR_SEPARATION
    pool = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=m), label="pool")
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=m, max_size=m),
                      label="picks")
    nudges = data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m),
                       label="nudges")
    ts = np.array(pool)[picks] + 3e-15 * np.array(nudges)
    k = data.draw(st.integers(1, 5), label="K")
    rows = np.stack([_sample_row(data, ts, f"row {i}") for i in range(k)])
    batch = holder.pairwise_seminorm(ts, rows, gamma)
    assert batch.shape == (k,)
    assert np.array_equal(batch, row_block_seminorm(ts, rows, gamma))
    for vals, sem in zip(rows, batch):
        assert sem == _full_scan_seminorm(ts, vals, gamma)
    # the one-function call is the K = 1 case and returns a float
    single = holder.pairwise_seminorm(ts, rows[0], gamma)
    assert type(single) is float and single == batch[0]


@pytest.mark.parametrize("m", [9, 64, 65, 513, 1000, 2049])
@pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75, 1.0])
def test_pairwise_seminorm_matches_row_block_scan(m, gamma):
    # the shapes the tile scan prunes and the ties it cannot: identity,
    # cusps, noise, a random walk, a constant and affine data
    rng = np.random.default_rng(m)
    ts = holder.uniform_samples(m)
    rows = np.stack([ts, cusp_solution(0.5)(ts), np.sqrt(ts), rng.normal(size=m),
                     np.cumsum(rng.normal(size=m)), np.full(m, -2.5), 0.3 * ts + 0.7,
                     rng.normal(size=m) * 1e-300])
    assert np.array_equal(holder.pairwise_seminorm(ts, rows, gamma),
                          row_block_seminorm(ts, rows, gamma))
    shuffled = rng.permutation(m)
    assert np.array_equal(holder.pairwise_seminorm(ts[shuffled], rows[:, shuffled], gamma),
                          row_block_seminorm(ts, rows, gamma))


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       gamma=st.one_of(st.sampled_from([0.5, 1.0]),
                       st.floats(0.0, 1.0, exclude_min=True)))
def test_tile_bounds_hold_for_every_pair(data, gamma):
    # every level's allowed bound is at least each quotient of its tile, as
    # the scan computes it, and a tile of zero oscillation has only zeros;
    # steps of a few subnormal ulps make the float slopes and bounds err by
    # whole ulps, which the relative allowance alone does not cover
    m = data.draw(st.integers(2, 120), label="m")
    ts = np.sort(np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m),
                                    label="ts")))
    k = data.draw(st.integers(1, 3), label="K")
    rows = []
    for i in range(k):
        if data.draw(st.booleans(), label=f"row {i} in ulps"):
            steps = data.draw(st.lists(st.integers(-5, 5), min_size=m - 1, max_size=m - 1),
                              label=f"row {i} steps")
            rows.append(np.concatenate(([0.0], np.cumsum(steps))) * 2.0 ** -1074)
        else:
            rows.append(_sample_row(data, ts, f"row {i}"))
    v = np.stack(rows)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = holder._divide(v[:, :, None] - v[:, None, :],
                           holder._pair_distances(ts[:, None] - ts[None, :], gamma))
        levels = holder._block_levels(v, holder._allowed_slopes(ts, v))
        for lev, level in enumerate(levels):
            size = holder.TILE_LEAF << lev
            width = -(-m // size)
            pad = np.zeros((k, width * size, width * size))
            pad[:, :m, :m] = q
            tile_max = pad.reshape(k, width, size, width, size).max(axis=(2, 4))
            tk, ti, tj = (a.ravel() for a in np.meshgrid(
                np.arange(k), np.arange(width), np.arange(width), indexing="ij"))
            upper = ti <= tj
            tk, ti, tj = tk[upper], ti[upper], tj[upper]
            bound, osc = holder._tile_bounds(ts, level, size, tk, ti, tj, gamma)
            qmax = tile_max[tk, ti, tj]
            assert not np.any(bound < qmax)
            assert np.all(qmax[osc == 0.0] == 0.0)


def test_tile_bound_allowance_covers_subnormal_rounding():
    # 3 ulps over 0.7 at gamma = 0.5: the slope rounds down to 4 ulps and its
    # product with 0.7^0.5 down to 3, while the quotient rounds up to 4;
    # only the ulp allowance keeps the bound above the quotient
    ulp = 2.0 ** -1074
    ts, v = np.array([0.0, 0.7]), np.array([[0.0, 3 * ulp]])
    levels = holder._block_levels(v, holder._allowed_slopes(ts, v))
    zero = np.zeros(1, np.intp)
    bound, _ = holder._tile_bounds(ts, levels[0], holder.TILE_LEAF, zero, zero, zero, 0.5)
    assert holder.pairwise_seminorm(ts, v[0], 0.5) == 4 * ulp <= bound[0]


@pytest.mark.parametrize("cap, chunk", [(40, 4096), (400, 4096), (1 << 15, 7)])
def test_pairwise_seminorm_frontier_cap_and_leaf_chunks(monkeypatch, cap, chunk):
    # a small frontier cap splits the refinement into many batches; a small
    # leaf chunk splits the leaf gather
    monkeypatch.setattr(holder, "MAX_LIVE_TILES", cap)
    monkeypatch.setattr(holder, "LEAF_CHUNK", chunk)
    rng = np.random.default_rng(4)
    ts = holder.uniform_samples(700)
    rows = np.stack([cusp_solution(0.5)(ts), np.cumsum(rng.normal(size=700)),
                     rng.normal(size=700)])
    assert np.array_equal(holder.pairwise_seminorm(ts, rows, 0.5),
                          row_block_seminorm(ts, rows, 0.5))


def test_pruning_reaches_few_leaf_tiles(monkeypatch):
    # sound bounds keep every result right even when they prune nothing, so
    # only a count sees lost pruning: certify's affine phi at m = 2049 sends
    # 4 leaf tiles to the scan and verify-analysis' batch of 50 cusp trials
    # at m = 513 about 1,900, against about 33,000 and 36,000 without the
    # (first of I, last of J) witness pairs
    scanned = []
    scan = holder._scan_leaves
    monkeypatch.setattr(holder, "_scan_leaves",
                        lambda *args: scanned.append(args[4].size) or scan(*args))
    certify(replace(section5(0.02, 0.5), norms=None), m=2049)  # sampled norms
    assert sum(scanned) <= 16
    scanned.clear()
    ts = holder.uniform_samples(513)
    trials = random_cusp_trials(np.random.default_rng(51), 50, 0.5)
    holder.pairwise_seminorm(ts, np.stack([f(ts) for f in trials]), 0.5)
    assert sum(scanned) <= 4096


def test_pairwise_seminorm_exponents_outside_unit_interval():
    # no tile bound holds there: nothing is pruned and the leaf scan covers
    # every pair; at 203 samples the last leaf is padded, and values away
    # from 0 would show a padded pair that is not a real one at gamma = 0
    rng = np.random.default_rng(0)
    for m, shift in ((200, 0.0), (203, 5.0)):
        ts = rng.uniform(size=m)
        rows = rng.normal(size=(3, m)) + shift
        for gamma in (0.0, 1.5, 2.0):
            assert np.array_equal(holder.pairwise_seminorm(ts, rows, gamma),
                                  row_block_seminorm(ts, rows, gamma))


def test_pairwise_seminorm_memory_bounded():
    ts = holder.uniform_samples(4097)
    vals = cusp_solution(0.5)(ts)
    tracemalloc.start()
    try:
        sem = holder.pairwise_seminorm(ts, vals, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sem == _full_scan_seminorm(ts, vals, 0.5)
    assert peak < 24 * 2 ** 20


def test_batched_seminorm_memory_bounded():
    # the scratch buffers do not grow with the number of rows K
    ts = holder.uniform_samples(4097)
    rows = np.stack([cusp_solution(0.5)(ts) * (k + 1) + np.sin(k * ts)
                     for k in range(32)])
    tracemalloc.start()
    try:
        sems = holder.pairwise_seminorm(ts, rows, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20
    assert sems[-1] == _full_scan_seminorm(ts, rows[-1], 0.5)


@pytest.mark.parametrize("rows", [
    np.cumsum(np.random.default_rng(1).normal(size=(32, 4097)), axis=1),
    np.random.default_rng(1).normal(size=(64, 4097)),
], ids=["random-walks", "white-noise"])
def test_random_walk_seminorm_memory_bounded(rows):
    # rough data prunes least: 50,000 to 60,000 leaf tiles stay live here
    ts = holder.uniform_samples(4097)
    tracemalloc.start()
    try:
        sems = holder.pairwise_seminorm(ts, rows, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20
    assert sems[0] == _full_scan_seminorm(ts, rows[0], 0.5)


def test_pairwise_seminorm_shape_mismatch():
    ts = holder.uniform_samples(5)
    with pytest.raises(ValueError, match="do not match 5 sample points"):
        holder.pairwise_seminorm(ts, np.zeros((2, 4)), 0.5)
    with pytest.raises(ValueError):
        holder.pairwise_seminorm(ts, np.zeros((2, 2, 5)), 0.5)


def test_lipschitz_norms_match_one_at_a_time():
    fs = [poly_handle([0.3, -0.2, 0.7]), cusp_solution(0.5), identity()]
    assert holder.estimate_lipschitz_norms(fs, 257) == \
        [holder.estimate_hoelder_norm(f, 1.0, 257).norm for f in fs]


@pytest.mark.parametrize("m", [101, 513, 2049, 4097])
def test_lipschitz_norms_equal_pair_scan_on_affine_delays(m):
    # the four affine delays of the certified families
    fs = [p.phi1 for p in (paradise_fish(0.05, 0.2), section5(0.02, 0.5))] + \
         [p.phi2 for p in (paradise_fish(0.05, 0.2), section5(0.02, 0.5))]
    ts = holder.uniform_samples(m)
    vals = np.stack([f(ts) for f in fs])
    pair = np.abs(vals[:, 0]) + holder.pairwise_seminorm(ts, vals, 1.0)
    assert holder.estimate_lipschitz_norms(fs, m) == [float(p) for p in pair]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(2, 600),
       scale=st.sampled_from([1e-6, 1.0, 1e6]))
def test_lipschitz_norms_adjacent_within_ulps_of_pair_scan(data, m, scale):
    # steps in multiples of 1e-6 keep every slope clear of subnormal rounding
    steps = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=m - 1,
                               max_size=m - 1), label="steps")
    start = data.draw(st.floats(-1.0, 1.0), label="start")
    walk = scale * (start + 1e-6 * np.concatenate(([0.0], np.cumsum(steps))))
    # a PiecewiseLinear on m - 1 cells reproduces the walk at the m samples
    f = PiecewiseLinear(grid=UniformGrid(m - 1), values=walk)
    ts = holder.uniform_samples(m)
    adjacent = holder.estimate_lipschitz_norms([f], m)[0]
    pair = abs(walk[0]) + holder.pairwise_seminorm(ts, walk, 1.0)
    assert adjacent <= pair <= adjacent * (1.0 + 1e-14)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.sampled_from([2, 3, 513]),
       gamma=st.sampled_from([0.25, 0.5, 1.0]))
def test_stride_seminorms_never_exceed_pair_scan(data, m, gamma):
    # the projector study prunes on this lower bound: each stride quotient is
    # one of the pair scan's own, so it holds in floats, subnormal rounding
    # and the ties of affine data at gamma = 1 included
    ts = holder.uniform_samples(m)
    k = data.draw(st.integers(1, 4), label="K")
    rows = np.stack([np.zeros(m), *(_sample_row(data, ts, f"row {i}") for i in range(k))])
    lower = holder._stride_seminorms(ts, rows, gamma)
    exact = holder.pairwise_seminorm(ts, rows, gamma)
    assert lower.shape == (k + 1,) and lower[0] == 0.0
    assert np.all(lower <= exact)
    if m <= 3:  # every pair is a power of two apart
        assert np.array_equal(lower, exact)


# ---------------------------------------------------------------------------
# inequality checks
# ---------------------------------------------------------------------------

def test_embedding_identity():
    reports = holder.check_embedding_inequality(identity(), 0.25, 0.75)
    assert all(r.passed for r in reports)
    assert reports[0].lhs == 1.0 and reports[0].rhs == 1.0


def test_embedding_zero_function():
    reports = holder.check_embedding_inequality(constant(0.0), 0.3, 0.9)
    assert all(r.passed for r in reports)
    assert reports[0].lhs == 0.0


def test_embedding_cusp():
    reports = holder.check_embedding_inequality(cusp_solution(0.5), 0.25, 0.5, m=501)
    assert all(r.passed for r in reports)


def test_embedding_exponent_ordering():
    with pytest.raises(ValueError):
        holder.check_embedding_inequality(identity(), 0.75, 0.25)


def test_product_bound_identity_squared():
    rep = holder.check_product_bound(identity(), identity(), 0.5)
    assert rep.passed
    assert rep.rhs == pytest.approx(2.0, abs=1e-12)
    # sampled seminorm of t^2 with gamma=0.5: the true supremum of
    # (t+s)|t-s|^{1/2} is (4/3)sqrt(2/3) at (1, 1/3)
    analytic = (4.0 / 3.0) * math.sqrt(2.0 / 3.0)
    assert rep.lhs <= analytic + 1e-12
    assert rep.lhs > analytic - 1e-3


def test_product_bound_zero_factor():
    rep = holder.check_product_bound(constant(0.0), poly_handle([1, 2, 3]), 0.5)
    assert rep.passed
    assert rep.lhs == 0.0 and rep.rhs == 0.0


def test_product_bound_parabola_split():
    one_minus = FunctionHandle(eval=lambda t: 1.0 - np.asarray(t, dtype=float))
    rep = holder.check_product_bound(identity(), one_minus, 1.0)
    assert rep.passed
    assert rep.rhs == pytest.approx(2.0, abs=1e-12)
    assert 1.0 - 1e-2 <= rep.lhs <= 1.0 + 1e-12


def test_product_bound_matches_one_scan_per_vector():
    rng = np.random.default_rng(3)
    f, g = random_function(rng, 0.5), random_function(rng, 0.75)
    ts = holder.uniform_samples(257)
    fv, gv = f(ts), g(ts)
    boundary = abs(float(fv[0]) * float(gv[0]))
    rep = holder.check_product_bound(f, g, 0.5, m=257)
    assert rep.lhs == boundary + holder.pairwise_seminorm(ts, fv * gv, 0.5)
    assert rep.rhs == (float(np.abs(fv).max()) * holder.pairwise_seminorm(ts, gv, 0.5)
                       + float(np.abs(gv).max()) * holder.pairwise_seminorm(ts, fv, 0.5)
                       + boundary)


def test_composition_pointwise_scaled_delay():
    phi = FunctionHandle(eval=lambda t: 0.2 * np.asarray(t, dtype=float))
    reports = holder.check_composition_bound(identity(), phi, 1.0)
    assert all(r.passed for r in reports)
    pointwise = [r for r in reports if "pointwise" in r.name]
    assert pointwise and pointwise[0].lhs == pytest.approx(0.2, abs=1e-12)


def test_composition_zero_function():
    phi = FunctionHandle(eval=lambda t: 0.5 * np.asarray(t, dtype=float))
    reports = holder.check_composition_bound(constant(0.0), phi, 0.5)
    assert all(r.passed for r in reports)


def test_composition_sqrt_half_equality():
    phi = FunctionHandle(eval=lambda t: 0.5 * np.asarray(t, dtype=float))
    reports = holder.check_composition_bound(sqrt_handle(), phi, 0.5, slack=1e-12)
    assert all(r.passed for r in reports)
    pointwise = [r for r in reports if "pointwise" in r.name][0]
    assert pointwise.lhs == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert pointwise.rhs == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_composition_range_violation():
    phi = FunctionHandle(eval=lambda t: 1.5 * np.asarray(t, dtype=float))
    with pytest.raises(ValueError):
        holder.check_composition_bound(identity(), phi, 0.5)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_nested_grid_monotonicity():
    f = cusp_solution(0.5)
    # the m=65 grid nodes are a subset of the m=129 grid nodes
    coarse = holder.estimate_hoelder_norm(f, 0.5, m=65).seminorm
    fine = holder.estimate_hoelder_norm(f, 0.5, m=129).seminorm
    assert coarse <= fine <= 1.0 + 1e-12


def test_sup_below_gamma_norm_shared_samples():
    rng = np.random.default_rng(7)
    for _ in range(10):
        f = poly_handle(rng.uniform(-1, 1, size=4))
        gamma = rng.uniform(0.1, 1.0)
        sup = holder.estimate_sup_norm(f, m=129)
        norm = holder.estimate_hoelder_norm(f, gamma, m=129).norm
        assert sup <= norm + 1e-12


@settings(max_examples=30, deadline=None)
@given(c=st.floats(-10, 10, allow_nan=False),
       coeffs=st.lists(st.floats(-1, 1, allow_nan=False), min_size=2, max_size=4),
       gamma=st.floats(0.1, 1.0, allow_nan=False))
def test_scaling_property(c, coeffs, gamma):
    f = poly_handle(coeffs)
    cf = FunctionHandle(eval=lambda t: c * f(t))
    a = holder.estimate_hoelder_norm(f, gamma, m=65).norm
    b = holder.estimate_hoelder_norm(cf, gamma, m=65).norm
    assert b == pytest.approx(abs(c) * a, rel=1e-12, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(cf=st.lists(st.floats(-1, 1, allow_nan=False), min_size=2, max_size=4),
       cg=st.lists(st.floats(-1, 1, allow_nan=False), min_size=2, max_size=4),
       gamma=st.floats(0.1, 1.0, allow_nan=False))
def test_triangle_inequality(cf, cg, gamma):
    f, g = poly_handle(cf), poly_handle(cg)
    fg = FunctionHandle(eval=lambda t: f(t) + g(t))
    nf = holder.estimate_hoelder_norm(f, gamma, m=65).norm
    ng = holder.estimate_hoelder_norm(g, gamma, m=65).norm
    nfg = holder.estimate_hoelder_norm(fg, gamma, m=65).norm
    assert nfg <= nf + ng + 1e-12
