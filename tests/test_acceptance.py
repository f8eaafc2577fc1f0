"""End-to-end acceptance criteria.

Each test exercises one criterion at its stated tolerance and records a
single pass/fail line (echoed again in the terminal summary).
"""
import numpy as np
import pytest

from nfeq import collocation, grids, holder, picard, problem, study
from nfeq.functions import FunctionHandle
from nfeq.oracles import (cusp_solution, manufacture, product_solution,
                          smooth_parabola)

from helpers import random_delay_map, random_function

GAMMAS = (0.25, 0.5, 0.75)


def admissible_alpha(gamma: float) -> float:
    # alpha = 0.02 is the reference choice at gamma = 0.5; elsewhere take 90%
    # of the largest admissible rate
    if gamma == 0.5:
        return 0.02
    return 0.9 * problem.section5_alpha_bound(gamma)


def cusp_problem(gamma: float):
    base = problem.section5(admissible_alpha(gamma), gamma)
    return manufacture(cusp_solution(gamma), base.phi, base.phi1, base.phi2,
                       gamma, description=f"cusp gamma={gamma:g}")


def test_criterion_1_cusp_order_gamma(acceptance):
    ladder = [2 ** k for k in range(4, 13)]
    fitted = {}
    for gamma in GAMMAS:
        report = study.run_study(cusp_problem(gamma), n_ladder=ladder)
        assert report.failure is None
        fitted[gamma] = report.fitted_order
    ok = all(abs(fitted[g] - g) <= 0.1 for g in GAMMAS)
    detail = ", ".join(f"gamma={g:g}: fitted={fitted[g]:.4f}" for g in GAMMAS)
    acceptance("1 cusp convergence order equals gamma +- 0.1", ok, detail)


def test_criterion_2_smooth_order_two(acceptance):
    p = problem.paradise_fish(0.05, 0.2, 1.0)
    manu = manufacture(smooth_parabola(), p.phi, p.phi1, p.phi2, 1.0,
                       description="parabola on paradise")
    report = study.run_study(manu, n_ladder=[2 ** k for k in range(4, 11)],
                             smoothness_k=1)
    assert report.failure is None
    ok = abs(report.fitted_order - 2.0) <= 0.15
    acceptance("2 smooth-solution order 2 +- 0.15", ok,
               f"fitted={report.fitted_order:.4f}")


def test_criterion_3_oracle_equivalence(acceptance):
    p = problem.paradise_fish(0.0, 0.2, 1.0)
    exact = product_solution(0.2)
    sol = collocation.solve_collocation(p, 1024)
    ts = study.error_sample_points(4097)
    dev = float(np.abs(sol.solution.evaluate(ts)
                       - np.array([exact(t) for t in ts])).max())
    small = collocation.solve_collocation(p, 2)
    node_err = abs(small.solution.values[1] - 5.0 / 9.0)
    ok = dev <= 1e-4 and node_err <= 1e-12
    acceptance("3 oracle equivalence (product formula)", ok,
               f"sup dev={dev:.3e}, |u1 - 5/9|={node_err:.1e}")


def test_criterion_4_projector_bounds(acceptance):
    # (a) sup-norm interpolation error below the certified bound built from
    # analytic norm over-estimates, for every N in {8, ..., 512}
    def handle(fn, label):
        return FunctionHandle(eval=fn, label=label)

    trials = []
    for g in GAMMAS:
        trials.append((cusp_solution(g), 0, g, 1.0))
        trials.append((handle(lambda t, g=g: 2.0 * np.minimum(
            np.asarray(t, float), 1 - np.asarray(t, float)) ** g, "2cusp"), 0, g, 2.0))
        trials.append((handle(lambda t, g=g: np.asarray(t, float) ** g, "t^g"),
                       0, g, 1.0))
        trials.append((handle(lambda t, g=g: 0.5 * np.asarray(t, float) ** g
                              + np.minimum(np.asarray(t, float),
                                           1 - np.asarray(t, float)) ** g,
                              "mix"), 0, g, 1.5))
    trials += [
        (handle(lambda t: np.asarray(t, float) ** 2, "t^2"), 1, 1.0, 2.0),
        (handle(lambda t: np.asarray(t, float) * (1 - np.asarray(t, float)),
                "t(1-t)"), 1, 1.0, 3.0),
        (handle(lambda t: np.sin(np.pi * np.asarray(t, float)), "sin"),
         1, 1.0, np.pi + np.pi ** 2),
        (handle(lambda t: np.asarray(t, float) ** 3, "t^3"), 1, 1.0, 6.0),
        (handle(lambda t: np.asarray(t, float) ** 2 * (1 - np.asarray(t, float)),
                "t^2(1-t)"), 1, 1.0, 5.0),
        (handle(lambda t: np.asarray(t, float) ** 2, "t^2g5"), 1, 0.5, 2.0),
        (handle(lambda t: np.asarray(t, float) ** 3, "t^3g5"), 1, 0.5, 3.3),
        (handle(lambda t: np.sin(np.pi * np.asarray(t, float)), "sing5"),
         1, 0.5, np.pi + np.pi ** 2),
    ]
    assert len(trials) == 20
    sup_ok = True
    for f, k, g, norm in trials:
        for n in (8, 16, 32, 64, 128, 256, 512):
            grid = grids.UniformGrid(n)
            sup = grids.interp_sup_error(f, grid)
            if sup > grids.sup_error_bound(norm, g, k, grid.h):
                sup_ok = False

    # (b) empirical projector-norm ratios below 1 + 2^{1-gamma}
    ratio_ok = True
    ratios = {}
    for g in GAMMAS:
        rng = np.random.default_rng(42)
        ratios[g] = grids.measure_projector_norm(
            g, grids.UniformGrid(8), grids.random_cusp_trials(rng, 50, g))
        if ratios[g] > 1.0 + 2.0 ** (1.0 - g) + 1e-9:
            ratio_ok = False

    # (c) Hoelder-norm error decay rate at least beta - gamma - 0.1 for the
    # cusp of exponent beta measured in the gamma-norm (k = 0)
    decay_ok = True
    slopes = {}
    for beta, g in ((0.5, 0.25), (0.75, 0.25), (0.75, 0.5)):
        points = []
        for n in (16, 32, 64, 128, 256):
            _, hoe = grids.measure_interp_error(cusp_solution(beta),
                                                grids.UniformGrid(n), gamma=g)
            points.append((1.0 / n, hoe))
        slope, _ = study.fit_order(points)
        slopes[(beta, g)] = slope
        if slope < beta - g - 0.1:
            decay_ok = False

    ok = sup_ok and ratio_ok and decay_ok
    detail = (f"sup-bound={'ok' if sup_ok else 'violated'}; "
              + "ratios " + ", ".join(f"{g:g}:{ratios[g]:.3f}" for g in GAMMAS)
              + "; decay " + ", ".join(f"({b:g},{g:g}):{s:.3f}"
                                       for (b, g), s in slopes.items()))
    acceptance("4 projector bounds (sup error, norm ratio, Hoelder decay)",
               ok, detail)


def test_criterion_5_contraction_behavior(acceptance):
    tol = 1e-12
    cases = []
    p1 = problem.paradise_fish(0.0, 0.2, 1.0)
    c1 = problem.certify(p1, overrides=problem.paradise_fish_norms(0.0, 0.2))
    cases.append(("paradise", p1, c1))
    p2 = problem.section5(0.02, 0.5)
    c2 = problem.certify(p2, overrides=problem.section5_norms(0.02))
    cases.append(("section5", p2, c2))
    manu = cusp_problem(0.5)
    c3 = problem.certify(manu.problem, overrides=problem.section5_norms(0.02))
    cases.append(("cusp", manu.problem, c3))

    ok = True
    details = []
    for name, p, cert in cases:
        assert cert.satisfies_collocation
        g = grids.UniformGrid(128)
        # start away from the fixed point while keeping pinned boundaries
        values = (p.boundary_left
                  + (p.boundary_right - p.boundary_left) * g.nodes
                  + 0.3 * np.sin(np.pi * g.nodes))
        trace = picard.picard_grid(p, g, grids.PiecewiseLinear(grid=g, values=values),
                                   tol=tol)
        ratios = [r for r in trace.contraction_ratios[1:] if np.isfinite(r)]
        worst = max(ratios)
        sol = collocation.solve_collocation(p, 128)
        dev = float(np.abs(trace.final.values - sol.solution.values).max())
        if not (trace.converged and worst <= cert.lipschitz_factor + 0.05
                and dev <= 10 * tol):
            ok = False
        details.append(f"{name}: max ratio={worst:.3f} "
                       f"(L={cert.lipschitz_factor:.3f}), dev={dev:.1e}")
    acceptance("5 grid Picard contraction and collocation agreement", ok,
               "; ".join(details))


def test_criterion_6_inequality_suite(acceptance):
    rng = np.random.default_rng(20260824)
    slack = 1e-9
    counts = {"2.1": 0, "2.2": 0, "2.3": 0, "2.5": 0}
    ok = True
    for _ in range(100):
        gamma = rng.uniform(0.1, 0.99)
        beta = rng.uniform(gamma + 1e-3, 1.0)
        f = random_function(rng, exponent=rng.uniform(0.3, 1.0))
        g = random_function(rng, exponent=rng.uniform(0.3, 1.0))
        fz = random_function(rng, exponent=rng.uniform(0.3, 1.0),
                             zero_at_origin=True)
        phi = random_delay_map(rng)

        # Lemma 2.1: sup norm below the gamma-norm on shared samples
        if holder.estimate_sup_norm(f) <= \
                holder.estimate_hoelder_norm(f, gamma).norm + slack:
            counts["2.1"] += 1
        # Lemma 2.2: embedding of the stronger exponent
        if all(r.passed for r in
               holder.check_embedding_inequality(f, gamma, beta, slack=slack)):
            counts["2.2"] += 1
        # Lemma 2.3 + Remark: product bound
        if holder.check_product_bound(f, g, gamma, slack=slack).passed:
            counts["2.3"] += 1
        # Lemma 2.5: composition bounds, including the pointwise one (f(0)=0)
        reports = holder.check_composition_bound(fz, phi, gamma, slack=slack)
        if all(r.passed for r in reports) and len(reports) == 3:
            counts["2.5"] += 1
    if any(c != 100 for c in counts.values()):
        ok = False

    # Lemma 2.4: sampled identity norm is exactly 1 for every gamma and m
    from nfeq.functions import identity
    identity_ok = all(
        holder.estimate_hoelder_norm(identity(), g, m=m).norm == 1.0
        for g in (0.1, 0.25, 0.5, 0.75, 0.9, 1.0) for m in (2, 3, 17, 513))
    ok = ok and identity_ok

    detail = (", ".join(f"lemma {k}: {v}/100" for k, v in sorted(counts.items()))
              + f", identity norm exact: {identity_ok}")
    acceptance("6 Hoelder inequality suite on randomized pairs", ok, detail)


def test_criterion_7_exponential_cost(acceptance):
    p = problem.paradise_fish(0.0, 0.2, 1.0)
    from nfeq.functions import identity
    ok = True
    for depth in range(21):
        _, visits = picard.picard_exact_counted(p, identity(), depth, 0.5)
        if visits != 2 ** (depth + 1) - 1:
            ok = False
    val, visits = picard.picard_exact_counted(p, identity(), 20, 0.5)
    value_ok = abs(val - product_solution(0.2)(0.5)) <= 1e-4
    acceptance("7 exact Picard cost is 2^(d+1)-1 evaluations", ok and value_ok,
               f"depth 20: {visits} visits, value dev "
               f"{abs(val - product_solution(0.2)(0.5)):.1e}")
