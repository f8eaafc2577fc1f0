import numpy as np
import pytest

from nfeq import oracles, problem
from nfeq.functions import DomainError, FunctionHandle, constant, identity

from helpers import fancy_index_product


# ---------------------------------------------------------------------------
# product formula
# ---------------------------------------------------------------------------

def test_product_formula_endpoints():
    assert oracles.product_formula(0.2, 1.0) == 1.0
    assert oracles.product_formula(0.2, 0.0) == 0.0


def test_product_formula_midpoint():
    # partial products 0.5 * 0.9 * 0.98 * 0.996 * ... -> deficit ~ 0.43880
    val = oracles.product_formula(0.2, 0.5)
    assert val == pytest.approx(0.56120, abs=1e-5)
    assert val == pytest.approx(0.5612031627963614, abs=1e-12)


def test_product_formula_validation():
    with pytest.raises(ValueError):
        oracles.product_formula(1.0, 0.5)
    with pytest.raises(ValueError):
        oracles.product_formula(0.2, 1.5)
    with pytest.raises(ValueError):
        oracles.product_formula(0.2, 0.5, tol=0.0)


@pytest.mark.parametrize("beta", [0.2, 0.5, 0.9])
def test_product_formula_array_matches_scalar(beta):
    ts = np.concatenate(([0.0, 1.0], np.random.default_rng(7).uniform(0, 1, 200)))
    vals = oracles.product_formula(beta, ts)
    assert vals.shape == ts.shape
    assert np.array_equal(vals, [oracles.product_formula(beta, float(t)) for t in ts])
    grid = oracles.product_formula(beta, ts[:200].reshape(10, 20))
    assert np.array_equal(grid, vals[:200].reshape(10, 20))
    assert type(oracles.product_formula(beta, 0.5)) is float


@pytest.mark.parametrize("beta", [0.2, 0.5, 0.9])
def test_product_formula_matches_fancy_index_loop(beta):
    rng = np.random.default_rng(11)
    tol = 1e-6
    # points below tol are never live; points at it get one factor
    ts = np.concatenate(([0.0, 1.0, 0.5 * tol, tol, 2 * tol],
                         rng.uniform(0.0, 1.0, 300), 10.0 ** -rng.uniform(0, 8, 100)))
    for t in (ts, ts[:120].reshape(4, 30)):
        got = oracles.product_formula(beta, t, tol)
        assert np.array_equal(got, fancy_index_product(beta, t, tol))
    for t in ts[:10]:
        got = oracles.product_formula(beta, float(t), tol)
        assert type(got) is float
        assert got == fancy_index_product(beta, float(t), tol)
        assert oracles.product_formula(beta, float(t)) == fancy_index_product(beta, float(t))


def test_product_formula_names_first_bad_point():
    with pytest.raises(ValueError, match=r"t=-0\.5 outside"):
        oracles.product_formula(0.2, np.array([0.1, -0.5, 2.0]))
    with pytest.raises(ValueError, match=r"t=nan outside"):
        oracles.product_formula(0.2, np.array([0.1, np.nan]))


def test_product_satisfies_functional_identity():
    # F(t) = t + (1-t) F(beta t) on 101 samples
    beta = 0.2
    f = oracles.product_solution(beta)
    ts = np.linspace(0, 1, 101)
    vals = np.array([f(t) for t in ts])
    shifted = np.array([f(beta * t) for t in ts])
    assert np.abs(vals - ts - (1 - ts) * shifted).max() <= 1e-12


def test_product_is_exact_solution_of_alpha_zero_problem():
    p = problem.paradise_fish(0.0, 0.2, 1.0)
    assert problem.residual(p, oracles.product_solution(0.2), 101) <= 1e-12


# ---------------------------------------------------------------------------
# cusp
# ---------------------------------------------------------------------------

def test_cusp_endpoints_and_peak():
    f = oracles.cusp_solution(0.5)
    assert f(0.0) == 0.0 and f(1.0) == 0.0
    assert float(f(0.5)) == pytest.approx(0.70711, abs=1e-5)


def test_cusp_symmetry_bitwise():
    f = oracles.cusp_solution(0.25)
    ts = np.arange(0, 65) / 64.0
    left = np.asarray(f(ts))
    right = np.asarray(f(1.0 - ts))
    assert np.array_equal(left, right)


def test_cusp_sampled_norm_is_one():
    from nfeq import holder
    est = holder.estimate_hoelder_norm(oracles.cusp_solution(0.5), 0.5, m=513)
    assert est.norm == pytest.approx(1.0, abs=1e-6)


def test_cusp_gamma_validation():
    with pytest.raises(ValueError):
        oracles.cusp_solution(1.0)
    with pytest.raises(ValueError):
        oracles.cusp_solution(0.0)


# ---------------------------------------------------------------------------
# manufactured problems
# ---------------------------------------------------------------------------

def test_manufacture_zero_target():
    manu = oracles.manufacture(constant(0.0), identity(), identity(), identity(), 1.0)
    ts = np.linspace(0, 1, 21)
    assert np.abs(manu.problem.source(ts)).max() == 0.0


def test_manufacture_cusp_on_affine_family():
    base = problem.section5(0.02, 0.5)
    manu = oracles.manufacture(oracles.cusp_solution(0.5), base.phi, base.phi1,
                               base.phi2, 0.5)
    k = manu.problem.source
    assert abs(float(k(0.0))) <= 1e-12 and abs(float(k(1.0))) <= 1e-12
    assert problem.residual(manu.problem, manu.exact, 101) <= 1e-12
    # the problem carries its target, but not the norms of its coefficients
    assert manu.problem.exact is manu.exact
    assert manu.problem.norms is None


def test_manufacture_smooth_target_on_paradise():
    p = problem.paradise_fish(0.05, 0.2, 1.0)
    manu = oracles.manufacture(oracles.smooth_parabola(), p.phi, p.phi1, p.phi2, 1.0)
    assert problem.residual(manu.problem, manu.exact, 101) <= 1e-12
    problem.validate(manu.problem)


def _dipping_delay(depth):
    """0.2 t, minus a hat of height 0.001 + depth centred on t = 0.005.

    The hat vanishes outside (0.001, 0.009), so the 101 residual samples
    j/100 see 0.2 t and only points between the first two leave [0, 1],
    by ``depth`` at t = 0.005.
    """
    def f(t):
        t = np.asarray(t, dtype=float)
        hat = np.clip(1.0 - np.abs(t - 0.005) / 0.004, 0.0, None)
        return 0.2 * t - (0.001 + depth) * hat
    return FunctionHandle(eval=f, label=f"dip({depth:g})")


def test_manufacture_delay_overshoot_raises():
    p = problem.paradise_fish(0.05, 0.2, 1.0)
    manu = oracles.manufacture(oracles.smooth_parabola(), p.phi, p.phi1,
                               _dipping_delay(1e-3), 1.0)
    k = manu.problem.source
    with pytest.raises(DomainError, match=r"^phi2\(0\.005\) = -0\.00(1|09)\d* outside \[0,1\]$") as exc:
        k(np.array([0.0, 0.005, 0.5]))
    assert exc.value.index == 1
    with pytest.raises(DomainError):
        k(0.005)


def test_manufacture_rounding_overshoot_clamps():
    p = problem.paradise_fish(0.05, 0.2, 1.0)
    target = oracles.smooth_parabola()
    manu = oracles.manufacture(target, p.phi, p.phi1, _dipping_delay(5e-13), 1.0)
    k = manu.problem.source
    # the delay at t = 0.005 clamps onto 0, where the target vanishes
    expected = target(0.005) - 0.005 * target(p.phi1(0.005))
    assert float(k(0.005)) == expected
    assert np.shape(k(0.005)) == ()
    assert np.shape(k(np.array([0.005]))) == (1,)


def test_manufacture_rejects_nonvanishing_target():
    with pytest.raises(ValueError):
        oracles.manufacture(identity(), identity(), identity(), identity(), 1.0)

