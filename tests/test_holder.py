import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nfeq import holder
from nfeq.functions import FunctionHandle, constant, identity
from nfeq.oracles import cusp_solution

from helpers import poly_handle


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
    assert holder.estimate_lipschitz_norm(f) == pytest.approx(0.2, abs=1e-12)


def test_lipschitz_norm_affine():
    # |f(0)| = 0.7 plus slope 0.3
    alpha = 0.3
    f = FunctionHandle(eval=lambda t: alpha * np.asarray(t, float) + 1 - alpha)
    assert holder.estimate_lipschitz_norm(f) == pytest.approx(1.0, abs=1e-12)


def test_c1_norm_uses_analytic_derivative():
    f = FunctionHandle(eval=lambda t: np.asarray(t, float) ** 2,
                       deriv=lambda t: 2.0 * np.asarray(t, float))
    assert holder.estimate_c1_hoelder_norm(f, 1.0) == pytest.approx(2.0, abs=1e-12)


def test_c1_norm_finite_differences():
    f = FunctionHandle(eval=lambda t: np.asarray(t, float) ** 2)
    assert holder.estimate_c1_hoelder_norm(f, 1.0) == pytest.approx(2.0, abs=1e-4)


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


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       gamma=st.one_of(st.sampled_from([0.5, 1.0]),
                       st.floats(0.0, 1.0, exclude_min=True)))
def test_pairwise_seminorm_matches_full_scan(data, gamma):
    m = data.draw(st.integers(1, 300), label="m")
    # drawing the points from a pool of at most m gives unsorted samples
    # with duplicates and near-duplicates
    pool = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=m), label="pool")
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=m, max_size=m),
                      label="picks")
    vals = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=m, max_size=m), label="vals")
    ts = np.array(pool)[picks]
    vals = np.array(vals)
    assert holder.pairwise_seminorm(ts, vals, gamma) == _full_scan_seminorm(ts, vals, gamma)


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
