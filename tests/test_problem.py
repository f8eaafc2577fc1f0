import math
import re
from dataclasses import replace

import numpy as np
import pytest

from nfeq import collocation, functions, grids, holder, picard, problem
from nfeq.collocation import solve_collocation
from nfeq.functions import FunctionHandle, constant, identity
from nfeq.oracles import cusp_solution, manufacture, product_solution, smooth_parabola


def constant_delay_problem():
    """phi = 1/2, phi1 = 1, phi2 = 0: all delay terms collapse to boundary data."""
    return problem.ProblemSpec(
        phi=constant(0.5), phi1=constant(1.0), phi2=constant(0.0),
        source=constant(0.0), boundary_left=0.0, boundary_right=1.0, gamma=0.5)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def test_certify_paradise_analytic():
    p = problem.paradise_fish(0.05, 0.2, gamma=1.0)
    cert = problem.certify(p, overrides=problem.paradise_fish_norms(0.05, 0.2))
    assert cert.lipschitz_factor == pytest.approx(0.5, abs=1e-12)
    assert cert.fixed_point_factor == pytest.approx(1.45, abs=1e-12)
    assert cert.collocation_threshold == pytest.approx(0.5, abs=1e-12)
    assert not cert.satisfies_existence
    assert not cert.satisfies_collocation


def test_certify_affine_family_analytic():
    p = problem.section5(0.02, gamma=0.5)
    cert = problem.certify(p, overrides=problem.section5_norms(0.02))
    # 2^{2-gamma} alpha^gamma = 4 * 0.01^{0.5} = 0.4
    assert cert.lipschitz_factor == pytest.approx(0.4, abs=1e-12)
    assert cert.collocation_threshold == pytest.approx(1.0 / (1.0 + math.sqrt(2)),
                                                       abs=1e-12)
    assert cert.satisfies_collocation
    # the fixed-point factor is 1.3 here: the Banach route does not certify
    # existence for this family even though collocation convergence holds
    assert cert.fixed_point_factor == pytest.approx(1.3, abs=1e-12)
    assert not cert.satisfies_existence


@pytest.mark.parametrize("alpha", [0.01, 0.02, 0.1, 0.37])
def test_section5_is_the_two_rate_family_at_half_alpha(alpha):
    # section5 is paradise_fish(alpha/2, alpha/2): its coefficients are the
    # paper's affine ones up to rounding, and its certificate is the family's
    ts = np.linspace(0.0, 1.0, 1025)
    half = alpha / 2.0
    p = problem.section5(alpha, 0.5)
    phi1 = 1.0 - half * (1.0 - ts)
    phi2 = half * ts
    assert np.all(np.abs(p.phi1(ts) - phi1) <= 4 * np.spacing(phi1))
    assert np.all(np.abs(p.phi2(ts) - phi2) <= 4 * np.spacing(phi2))
    assert problem.certify(p, overrides=problem.section5_norms(alpha)) == problem.certify(
        problem.paradise_fish(half, half, 0.5), overrides=problem.paradise_fish_norms(half, half))


@pytest.mark.parametrize("gamma", [0.0, -0.5, 1.5, float("nan")])
@pytest.mark.parametrize("entry", [
    lambda g: holder.estimate_hoelder_norm(identity(), g),
    lambda g: holder.check_product_bound(identity(), identity(), g),
    lambda g: holder.check_composition_bound(identity(), identity(), g),
    lambda g: grids.sup_error_bound(1.0, g, 2, -1.0),  # gamma is checked first
    lambda g: grids.measure_projector_norm(g, grids.UniformGrid(8), []),  # likewise
    lambda g: problem.check_corollary_conditions(0.5, 0.1, g),  # likewise
    lambda g: problem.section5_alpha_bound(g),
], ids=["estimate_hoelder_norm", "check_product_bound", "check_composition_bound",
        "sup_error_bound", "measure_projector_norm", "check_corollary_conditions",
        "section5_alpha_bound"])
def test_every_exponent_check_raises_one_message(entry, gamma):
    with pytest.raises(ValueError, match=re.escape(f"gamma must lie in (0, 1], got {gamma}")):
        entry(gamma)


def test_certificate_rigorous_only_with_exact_norms():
    p = problem.section5(0.02, gamma=0.5)
    assert problem.certify(p, overrides=problem.section5_norms(0.02)).rigorous is True
    assert problem.certify(replace(p, norms=None)).rigorous is False


@pytest.mark.parametrize("spec, norms", [
    (problem.paradise_fish(0.0, 0.2, 1.0), problem.paradise_fish_norms(0.0, 0.2)),
    (problem.paradise_fish(0.05, 0.2, 0.5), problem.paradise_fish_norms(0.05, 0.2)),
    (problem.section5(0.02, 0.5), problem.section5_norms(0.02)),
], ids=["paradise", "paradise-slow", "section5"])
def test_builtin_families_carry_their_exact_norms(spec, norms):
    # certify needs no overrides for a built-in family: its norms are the
    # family's exact ones, so the certificate is rigorous and the same
    cert = problem.certify(spec)
    assert cert.rigorous is True
    assert cert == problem.certify(spec, overrides=norms)
    assert spec.norms == norms


def test_paradise_carries_its_exact_solution_only_at_alpha_zero():
    p = problem.paradise_fish(0.0, 0.2)
    assert p.exact.label == "product(beta=0.2)"
    assert problem.residual(p, p.exact) <= 1e-12
    for alpha, beta in ((0.05, 0.2), (0.0, 0.0), (0.0, 1.0)):
        assert problem.paradise_fish(alpha, beta).exact is None
    assert problem.section5(0.02, 0.5).exact is None


def test_certify_constant_delays():
    cert = problem.certify(constant_delay_problem())
    assert cert.lipschitz_factor == 0.0
    assert cert.satisfies_existence and cert.satisfies_collocation


def test_certificate_internal_consistency():
    p = problem.paradise_fish(0.1, 0.3, gamma=0.7)
    cert = problem.certify(p)
    g = p.gamma
    drift = max(cert.norm_phi1_lip - cert.phi1_at_zero, 0.0)
    assert cert.lipschitz_factor == pytest.approx(
        2 * cert.norm_phi_gamma * (cert.norm_phi2_lip ** g + drift ** g), abs=1e-14)
    assert cert.fixed_point_factor == pytest.approx(
        cert.norm_phi_gamma * (2 * cert.norm_phi2_lip ** g + drift ** g
                               + cert.norm_phi1_lip ** g), abs=1e-14)
    assert cert.lipschitz_factor <= cert.fixed_point_factor
    assert cert.satisfies_existence == (cert.fixed_point_factor < 1.0)
    assert cert.satisfies_collocation == \
        (cert.lipschitz_factor < cert.collocation_threshold)


def test_certify_matches_per_function_estimates():
    base = problem.section5(0.02, 0.5)
    p = manufacture(cusp_solution(0.5), base.phi, base.phi1, base.phi2, 0.5).problem
    m = 1025
    cert = problem.certify(p, m=m)
    assert cert.norm_phi_gamma == holder.estimate_hoelder_norm(p.phi, 0.5, m).norm
    for name, fn in (("phi1", p.phi1), ("phi2", p.phi2)):
        assert getattr(cert, f"norm_{name}_lip") == holder.estimate_hoelder_norm(fn, 1.0, m).norm


def test_norm_overrides_take_all_four_norms():
    with pytest.raises(TypeError):
        problem.NormOverrides()
    with pytest.raises(TypeError):
        problem.NormOverrides(norm_phi_gamma=1.0, norm_phi1_lip=1.0, norm_phi2_lip=0.2)
    with pytest.raises(TypeError):
        problem.NormOverrides(norm_phi1_lip=7.0)


_NORM_FIELDS = ("norm_phi_gamma", "norm_phi1_lip", "norm_phi2_lip", "phi1_at_zero")


@pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75, 1.0])
def test_family_norms_match_sampled_norms(gamma):
    # the CLI certifies every built-in family with these exact norms, so
    # each must agree with the sampled estimate it replaces
    for alpha in (0.0, 0.02, 0.1, 0.5, 1.0):
        for beta in (0.0, 0.2, 0.5, 0.999, 1.0):
            exact = problem.paradise_fish_norms(alpha, beta)
            sampled = problem.certify(replace(problem.paradise_fish(alpha, beta, gamma),
                                              norms=None))
            for name in _NORM_FIELDS:
                assert getattr(sampled, name) == pytest.approx(
                    getattr(exact, name), rel=0, abs=1e-12), (alpha, beta, name)
        exact = problem.section5_norms(alpha)
        sampled = problem.certify(replace(problem.section5(alpha, gamma), norms=None))
        for name in _NORM_FIELDS:
            assert getattr(sampled, name) == pytest.approx(
                getattr(exact, name), rel=0, abs=1e-12), (alpha, name)


def test_certify_override_monotonicity():
    p = replace(problem.paradise_fish(0.05, 0.2, gamma=1.0), norms=None)
    sampled = problem.certify(p)
    echo = problem.certify(p, overrides=problem.NormOverrides(
        norm_phi_gamma=sampled.norm_phi_gamma,
        norm_phi1_lip=sampled.norm_phi1_lip,
        norm_phi2_lip=sampled.norm_phi2_lip,
        phi1_at_zero=sampled.phi1_at_zero))
    assert echo == sampled
    bigger = problem.certify(p, overrides=problem.NormOverrides(
        norm_phi_gamma=sampled.norm_phi_gamma * 1.5,
        norm_phi1_lip=sampled.norm_phi1_lip + 0.1,
        norm_phi2_lip=sampled.norm_phi2_lip + 0.1,
        phi1_at_zero=sampled.phi1_at_zero))
    assert bigger.lipschitz_factor >= sampled.lipschitz_factor
    assert bigger.fixed_point_factor >= sampled.fixed_point_factor


def test_paradise_lipschitz_closed_form():
    for alpha, beta, gamma in [(0.05, 0.2, 1.0), (0.1, 0.4, 0.5), (0.0, 0.3, 0.75)]:
        p = problem.paradise_fish(alpha, beta, gamma)
        cert = problem.certify(p, overrides=problem.paradise_fish_norms(alpha, beta))
        assert cert.lipschitz_factor == pytest.approx(
            2 * (alpha ** gamma + beta ** gamma), abs=1e-12)


# ---------------------------------------------------------------------------
# sufficient conditions
# ---------------------------------------------------------------------------

def test_corollary_both_hold():
    rep = problem.check_corollary_conditions(0.24, 0.24, 1.0)
    assert rep.condition_a and rep.a_value == pytest.approx(0.48, abs=1e-12)
    assert rep.condition_b and rep.b_bound == pytest.approx(0.25, abs=1e-12)
    assert rep.implication_holds


def test_corollary_b_is_strict():
    rep = problem.check_corollary_conditions(0.01, 0.0625, 0.5)
    assert rep.b_bound == pytest.approx(0.0625, abs=1e-15)
    assert not rep.condition_b


def test_corollary_small_rates():
    rep = problem.check_corollary_conditions(1e-6, 1e-6, 0.8)
    assert rep.condition_a and rep.condition_b and rep.implication_holds


def test_corollary_ordering_violation():
    with pytest.raises(ValueError):
        problem.check_corollary_conditions(0.5, 0.2, 1.0)


def test_corollary_implication_on_random_rates():
    rng = np.random.default_rng(3)
    for _ in range(50):
        gamma = rng.uniform(0.1, 1.0)
        beta = rng.uniform(1e-4, 1.0)
        alpha = rng.uniform(1e-6, beta)
        rep = problem.check_corollary_conditions(alpha, beta, gamma)
        assert rep.implication_holds  # (b) implies (a) whenever alpha <= beta


# ---------------------------------------------------------------------------
# reformulation and residual
# ---------------------------------------------------------------------------

def test_to_homogeneous_paradise_source():
    hom = problem.to_homogeneous(problem.paradise_fish(0.0, 0.2, 1.0))
    assert hom.boundary_left == 0.0 and hom.boundary_right == 0.0
    ts = np.linspace(0, 1, 11)
    np.testing.assert_allclose(hom.source(ts), 0.2 * ts * (1 - ts), atol=1e-14)


def test_to_homogeneous_identity_delays():
    p = problem.ProblemSpec(phi=identity(), phi1=identity(), phi2=identity(),
                            source=constant(0.0), boundary_left=0.0,
                            boundary_right=1.0, gamma=1.0)
    hom = problem.to_homogeneous(p)
    assert np.abs(hom.source(np.linspace(0, 1, 21))).max() <= 1e-15


def test_to_homogeneous_affine_midpoint():
    hom = problem.to_homogeneous(problem.section5(0.02, 0.5))
    assert abs(float(hom.source(0.5))) <= 1e-15
    assert abs(float(hom.source(0.0))) <= 1e-12
    assert abs(float(hom.source(1.0))) <= 1e-12


def test_to_homogeneous_shifts_the_exact_solution():
    # the shifted problem is solved by product(beta) - t, not by product(beta)
    p = problem.paradise_fish(0.0, 0.2)
    h = problem.to_homogeneous(p)
    assert problem.residual(h, h.exact) <= 1e-12
    assert problem.residual(h, p.exact) > 0.01
    assert h.norms == p.norms
    assert problem.to_homogeneous(problem.section5(0.02, 0.5)).exact is None


def test_to_homogeneous_rejects_homogeneous_input():
    hom = problem.to_homogeneous(problem.paradise_fish(0.0, 0.2, 1.0))
    with pytest.raises(problem.FormError):
        problem.to_homogeneous(hom)


def test_residual_of_product_oracle():
    p = problem.paradise_fish(0.0, 0.2, 1.0)
    assert problem.residual(p, product_solution(0.2), 101) < 1e-12


def test_residual_of_zero_on_homogeneous_zero_problem():
    p = problem.ProblemSpec(phi=identity(), phi1=identity(), phi2=identity(),
                            source=constant(0.0), boundary_left=0.0,
                            boundary_right=0.0, gamma=1.0)
    assert problem.residual(p, constant(0.0), 101) == 0.0


def test_residual_of_identity_on_paradise():
    p = problem.paradise_fish(0.0, 0.2, 1.0)
    assert problem.residual(p, identity(), 101) == pytest.approx(0.05, abs=1e-14)


def test_homogeneous_shift_consistency():
    orig = problem.paradise_fish(0.05, 0.2, 1.0)
    hom = problem.to_homogeneous(orig)
    g = solve_collocation(hom, 64).solution
    f = FunctionHandle(eval=lambda t: g(t) + np.asarray(t, dtype=float))
    assert problem.residual(orig, f, 101) <= problem.residual(hom, g, 101) + 1e-12


# ---------------------------------------------------------------------------
# validation and families
# ---------------------------------------------------------------------------

def test_validate_reports_all_violations():
    bad = problem.ProblemSpec(
        phi=identity(),
        phi1=FunctionHandle(eval=lambda t: 0.5 * np.asarray(t, dtype=float)),
        phi2=FunctionHandle(eval=lambda t: 0.3 + np.asarray(t, dtype=float)),
        source=constant(0.0), boundary_left=0.0, boundary_right=1.0, gamma=2.0)
    with pytest.raises(problem.ProblemValidationError) as exc:
        problem.validate(bad)
    text = "; ".join(exc.value.violations)
    assert "gamma" in text and "phi1(1)" in text and "phi2(0)" in text


@pytest.mark.parametrize("name, end", [("phi1", "phi1(1)=nan != 1"),
                                       ("phi2", "phi2(0)=nan != 0")])
def test_validate_reports_a_nan_delay(name, end):
    # the endpoint conditions read validate's own samples, so a NaN delay is
    # reported as a violation naming it, not raised as an evaluation error
    p = replace(problem.paradise_fish(0.05, 0.2), **{name: constant(math.nan)})
    with pytest.raises(problem.ProblemValidationError) as exc:
        problem.validate(p)
    assert exc.value.violations == [f"{name}(0.0) = nan outside [0,1]", end]


def test_validate_zero_boundary_message_prints_plain_floats():
    p = problem.ProblemSpec(phi=identity(), phi1=identity(), phi2=identity(),
                            source=constant(0.1), boundary_left=0.0,
                            boundary_right=0.0, gamma=1.0)
    with pytest.raises(problem.ProblemValidationError) as exc:
        problem.validate(p)
    assert exc.value.violations == ["zero-boundary form requires k(0)=k(1)=0, got 0.1, 0.1"]


def test_validate_boundary_form():
    p = problem.ProblemSpec(phi=identity(), phi1=identity(), phi2=identity(),
                            source=constant(0.0), boundary_left=0.5,
                            boundary_right=1.0, gamma=1.0)
    with pytest.raises(problem.ProblemValidationError):
        problem.validate(p)


def test_validate_nonzero_source_in_original_form():
    p = problem.ProblemSpec(phi=identity(), phi1=identity(), phi2=identity(),
                            source=constant(0.1), boundary_left=0.0,
                            boundary_right=1.0, gamma=1.0)
    with pytest.raises(problem.ProblemValidationError):
        problem.validate(p)


def test_family_endpoint_conditions():
    for p in (problem.paradise_fish(0.3, 0.6, 0.5), problem.section5(0.1, 0.5)):
        assert float(p.phi1(1.0)) == pytest.approx(1.0, abs=1e-15)
        assert float(p.phi2(0.0)) == 0.0
        problem.validate(p)


def test_affine_alpha_bound_saturates_threshold():
    for gamma in (0.25, 0.5, 0.75, 1.0):
        bound = problem.section5_alpha_bound(gamma)
        lhs = 2.0 ** (2.0 - gamma) * bound ** gamma
        assert lhs == pytest.approx(1.0 / (1.0 + 2.0 ** (1.0 - gamma)), abs=1e-12)
    assert problem.section5_alpha_bound(0.5) == pytest.approx(0.021446, abs=1e-5)


def test_operator_delay_domain():
    from dataclasses import replace
    p = problem.paradise_fish(0.1, 0.3, 1.0)
    f = FunctionHandle(eval=lambda t: np.asarray(t, dtype=float) ** 2)
    # an overshoot within CLAMP_TOL is clamped onto 1
    near = replace(p, phi1=FunctionHandle(eval=lambda t: np.full_like(t, 1.0 + 5e-13)))
    assert near.operator(f, 0.4) == pytest.approx(0.4 + 0.6 * f(0.12), abs=1e-15)
    # beyond it, the first offending point is named by its index
    far = replace(p, phi1=FunctionHandle(
        eval=lambda t: np.where(t >= 0.5, 1.001, 0.5 + t)))
    with pytest.raises(grids.DomainError) as exc:
        far.operator(f, [0.25, 0.5, 0.75])
    assert exc.value.index == 1


def test_residual_refuses_phi_outside_unit_interval():
    from dataclasses import replace
    p = replace(problem.paradise_fish(0.05, 0.2), phi=constant(1.5))
    with pytest.raises(functions.DomainError):
        problem.residual(p, identity(), 101)
    with pytest.raises(functions.DomainError):
        manufacture(cusp_solution(0.5), constant(1.5), p.phi1, p.phi2, 0.5)


@pytest.mark.parametrize("name, fn, message, index", [
    ("phi", constant(1.5), "phi(0.0) = 1.5 outside [0,1]", 0),
    ("phi1", constant(1.5), "phi1(0.0) = 1.5 outside [0,1]", 0),
    ("phi2", FunctionHandle(eval=lambda t: np.where(t >= 0.5, -0.25, 0.25 * t)),
     "phi2(0.5) = -0.25 outside [0,1]", 50),
])
def test_operator_domain_error_names_function_point_and_value(name, fn, message, index):
    from dataclasses import replace
    p = replace(problem.paradise_fish(0.05, 0.2), **{name: fn})
    with pytest.raises(functions.DomainError) as exc:
        problem.residual(p, identity(), 101)
    assert str(exc.value) == message
    assert exc.value.index == index


def test_residual_clamps_phi_within_clamp_tol():
    # phi runs from -CLAMP_TOL to 1 + CLAMP_TOL: the same residual, bit for
    # bit, as phi clamped onto [0, 1]
    from dataclasses import replace
    tol = functions.CLAMP_TOL

    def near(t):
        return np.asarray(t, dtype=float) * (1.0 + 2.0 * tol) - tol

    p = problem.paradise_fish(0.05, 0.2)
    f = FunctionHandle(eval=lambda t: np.sqrt(np.asarray(t, dtype=float)))
    outside = replace(p, phi=FunctionHandle(eval=near))
    clamped = replace(p, phi=FunctionHandle(eval=lambda t: np.clip(near(t), 0.0, 1.0)))
    assert near(0.0) < 0.0 and near(1.0) > 1.0
    ts = holder.uniform_samples(101)
    assert np.array_equal(outside.operator(f, ts), clamped.operator(f, ts))
    assert problem.residual(outside, f, 101) == problem.residual(clamped, f, 101)


def test_validate_range_is_the_clamp_tolerance():
    # a delay within CLAMP_TOL of [0, 1] validates and is clamped; past it,
    # validation and the clamp both refuse it
    from dataclasses import replace
    ts = holder.uniform_samples(holder.DEFAULT_SAMPLES)
    for over, accepted in ((0.5, True), (2.0, False)):
        top = 1.0 + over * functions.CLAMP_TOL
        p = replace(problem.paradise_fish(0.1, 0.3, 1.0), phi1=FunctionHandle(
            eval=lambda t, top=top: np.where(np.asarray(t) == 0.5, top,
                                             0.9 + 0.1 * np.asarray(t, dtype=float))))
        if accepted:
            problem.validate(p)
            assert functions.clamp_unit(p.phi1(ts)).max() == 1.0
        else:
            with pytest.raises(problem.ProblemValidationError,
                               match=r"phi1\(0\.5\) = .* outside \[0,1\]"):
                problem.validate(p)
            with pytest.raises(functions.DomainError):
                functions.clamp_unit(p.phi1(ts))


def _dip(t):
    """0.2 t minus a hat of height 0.002 on (0.001, 0.009): below 0 only
    there, between the samples j/100 that ``manufacture`` checks."""
    t = np.asarray(t, dtype=float)
    return 0.2 * t - 0.002 * np.clip(1.0 - np.abs(t - 0.005) / 0.004, 0.0, None)


#: points 1/512 apart: two of them, and node 1 of N = 256, fall in the dip
_TS = holder.uniform_samples(513)
_N = 256
_BAD_COEFFICIENTS = {
    "phi=1.5": ("phi", constant(1.5)),
    "phi1=1+t/2": ("phi1", FunctionHandle(eval=lambda t: 1.0 + 0.5 * np.asarray(t, dtype=float))),
    "phi2 dips": ("phi2", FunctionHandle(eval=_dip)),
    "phi=nan": ("phi", constant(math.nan)),
}


def _picard_grid(p):
    g = grids.UniformGrid(_N)
    return picard.picard_grid(p, g, picard.initial_iterate(p, g))


#: path -> (run on the bad problem, refused by validation, names the node)
_PATHS = {
    "validate": (problem.validate, True, False),
    "operator": (lambda p: p.operator(identity(), _TS), False, False),
    "residual": (lambda p: problem.residual(p, identity(), _TS.size), False, False),
    "homogeneous source": (lambda p: problem.to_homogeneous(p).source(_TS), False, False),
    "manufactured source": (lambda p: manufacture(
        smooth_parabola(), p.phi, p.phi1, p.phi2, 1.0).problem.source(_TS), False, False),
    "delay_map": (lambda p: collocation.delay_map(p, grids.UniformGrid(_N)), False, True),
    "picard_exact_counted": (
        lambda p: picard.picard_exact_counted(p, identity(), 2, 0.005), False, False),
    "solve_collocation": (lambda p: solve_collocation(p, _N), True, False),
    "picard_grid": (_picard_grid, False, True),
}


@pytest.mark.parametrize("path", list(_PATHS))
@pytest.mark.parametrize("bad", list(_BAD_COEFFICIENTS))
def test_every_path_refuses_a_bad_coefficient_alike(bad, path):
    name, fn = _BAD_COEFFICIENTS[bad]
    run, validated, at_node = _PATHS[path]
    p = replace(problem.paradise_fish(0.05, 0.2), **{name: fn})
    error = problem.ProblemValidationError if validated else functions.DomainError
    with pytest.raises(error) as exc:
        run(p)
    text = str(exc.value)
    assert text.count("\n") == 0
    # validation lists every violation; the range one comes first
    message = exc.value.violations[0] if validated else text
    node = r" \(collocation node (?P<node>\d+)\)" if at_node else ""
    m = re.fullmatch(rf"{name}\((?P<t>[^)]+)\) = (?P<v>\S+) outside \[0,1\]{node}", message)
    assert m, message
    t, v = float(m["t"]), float(m["v"])
    assert v == float(fn(t)) or math.isnan(v) and math.isnan(float(fn(t)))
    assert not 0.0 <= v <= 1.0
    if at_node:
        assert t == int(m["node"]) / _N


def test_validate_reports_a_delay_its_source_refuses():
    # the manufactured source reads phi2 too: validation reports phi2's
    # violation instead of letting the source's error escape
    p = problem.paradise_fish(0.05, 0.2, 1.0)
    manu = manufacture(smooth_parabola(), p.phi, p.phi1, FunctionHandle(eval=_dip), 1.0)
    with pytest.raises(problem.ProblemValidationError) as exc:
        problem.validate(manu.problem)
    assert exc.value.violations == [f"phi2(0.001953125) = {float(_dip(0.001953125))!r} outside [0,1]"]


def test_operator_matches_definition():
    p = problem.paradise_fish(0.1, 0.3, 1.0)
    f = FunctionHandle(eval=lambda t: np.asarray(t, dtype=float) ** 2)
    t = 0.4
    expected = (0.4 * f(0.1 * t + 0.9) + 0.6 * f(0.3 * t))
    assert p.operator(f, t) == pytest.approx(expected, abs=1e-15)
