"""The four benchmark workloads: set-up from the seed, one op, its checks.

Each workload builds its inputs once (``__init__``), runs one closed-loop
operation (``op``) that returns the program's outputs together with the
measured ``sup_error``, and judges those outputs (``check``), returning the
failed checks. Library functions are looked up on their modules at call
time, so the traced run sees every call through its wrappers.

The tolerances are those of the acceptance criteria, plus one bound on the
cusp solvers' sup error that is loose enough for every solver path. The seed draws verify-analysis's
random trial functions; the other inputs are fixed by the workload.
"""
from __future__ import annotations

import math

import numpy as np

from nfeq import collocation, functions, grids, oracles, picard, problem, study

GAMMA = 0.5
ALPHA = 0.02
#: error sample count, as in study.DEFAULT_ERROR_SAMPLES
ERROR_SAMPLES = 4097
#: sup error of the cusp solutions (4.3e-3 by collocation at N = 4096)
CUSP_SUP_TOL = 1e-2
#: criterion 1: fitted order within gamma +- 0.1
ORDER_TOL = 0.1
#: criterion 3: product-formula deviation at N = 1024
PRODUCT_SUP_TOL = 1e-4
#: criterion 5: contraction ratio may exceed the certified factor by this
CONTRACTION_SLACK = 0.05
#: criterion 4: slack on the projector-norm bound 1 + 2^(1-gamma)
PROJECTOR_SLACK = 1e-9


def cusp_problem():
    """The cusp gamma = 0.5 manufactured on section5(0.02) coefficients."""
    base = problem.section5(ALPHA, GAMMA)
    return oracles.manufacture(oracles.cusp_solution(GAMMA), base.phi,
                               base.phi1, base.phi2, GAMMA,
                               description="cusp gamma=0.5")


def sup_error(u, ts, exact_vals) -> float:
    """max |u - exact| over the error sample points."""
    return float(np.abs(u.evaluate(ts) - exact_vals).max())


class _CuspWorkload:
    """Shared set-up: the cusp problem and its exact values at the midpoints."""

    def __init__(self, seed: int) -> None:
        self.cusp = cusp_problem()
        self.ts = study.error_sample_points(ERROR_SAMPLES)
        self.exact_vals = functions.eval_on(self.cusp.exact, self.ts)


class SolveLarge(_CuspWorkload):
    N = 4096

    def op(self) -> dict:
        sol = collocation.solve_collocation(self.cusp.problem, self.N)
        return {"sup_error": sup_error(sol.solution, self.ts, self.exact_vals)}

    def check(self, out: dict) -> list[str]:
        if out["sup_error"] <= CUSP_SUP_TOL:
            return []
        return [f"sup_error {out['sup_error']:.3e} > {CUSP_SUP_TOL:g}"]


class StudyLadder:
    LADDER = [2 ** k for k in range(4, 11)]

    def __init__(self, seed: int) -> None:
        self.cusp = cusp_problem()
        self.fish = problem.paradise_fish(0.0, 0.2)
        self.product = oracles.product_solution(0.2)

    def op(self) -> dict:
        cusp = study.run_study(self.cusp, n_ladder=self.LADDER)
        prod = study.run_study(self.fish, exact=self.product, n_ladder=self.LADDER)
        finest = [r.sup_error for r in prod.ladder if r.n == self.LADDER[-1]]
        return {"cusp": cusp, "product": prod,
                "sup_error": finest[0] if finest else math.nan}

    def check(self, out: dict) -> list[str]:
        failed = [f"{name} study: {rep.failure}"
                  for name, rep in (("cusp", out["cusp"]), ("product", out["product"]))
                  if rep.failure is not None]
        order = out["cusp"].fitted_order
        if not abs(order - GAMMA) <= ORDER_TOL:
            failed.append(f"cusp fitted order {order:.4f} not within "
                          f"{GAMMA:g} +- {ORDER_TOL:g}")
        if not out["sup_error"] <= PRODUCT_SUP_TOL:
            failed.append(f"product sup_error {out['sup_error']:.3e} at "
                          f"N={self.LADDER[-1]} > {PRODUCT_SUP_TOL:g}")
        return failed


class PicardSweep(_CuspWorkload):
    N = 2 ** 18
    TOL = 1e-12

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.grid = grids.UniformGrid(self.N)
        self.f0 = picard.initial_iterate(self.cusp.problem, self.grid)
        self.lipschitz = problem.certify(
            self.cusp.problem, overrides=problem.section5_norms(ALPHA)).lipschitz_factor

    def op(self) -> dict:
        trace = picard.picard_grid(self.cusp.problem, self.grid, self.f0, tol=self.TOL)
        return {"trace": trace,
                "sup_error": sup_error(trace.final, self.ts, self.exact_vals)}

    def check(self, out: dict) -> list[str]:
        trace = out["trace"]
        failed = [] if trace.converged else ["grid Picard did not converge"]
        # criterion 5 skips the first ratio, which still carries the start-up
        ratios = [r for r in trace.contraction_ratios[1:] if math.isfinite(r)]
        worst = max(ratios, default=math.inf)
        if not worst <= self.lipschitz + CONTRACTION_SLACK:
            failed.append(f"max contraction ratio {worst:.4f} > certified "
                          f"{self.lipschitz:.4f} + {CONTRACTION_SLACK:g}")
        if not out["sup_error"] <= CUSP_SUP_TOL:
            failed.append(f"sup_error {out['sup_error']:.3e} > {CUSP_SUP_TOL:g}")
        return failed


class VerifyAnalysis(_CuspWorkload):
    DEPTH = 16

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.trials = grids.random_cusp_trials(np.random.default_rng(seed), 50, GAMMA)
        self.grid = grids.UniformGrid(8)
        self.section5 = problem.section5(ALPHA, GAMMA)
        self.f0 = functions.identity()

    def op(self) -> dict:
        cert = problem.certify(self.cusp.problem, m=2049)
        ratio = grids.measure_projector_norm(GAMMA, self.grid, self.trials, m=513)
        _, visits = picard.picard_exact_counted(self.section5, self.f0, self.DEPTH, 0.5)
        # the exact recursion reproduces section5's exact solution t without
        # error, so the accuracy guard here is the projector's error on the
        # cusp whose certificate this op builds
        projected = grids.project(self.cusp.exact, self.grid)
        return {"certificate": cert, "ratio": ratio, "visits": visits,
                "sup_error": sup_error(projected, self.ts, self.exact_vals)}

    def check(self, out: dict) -> list[str]:
        failed = []
        expected = 2 ** (self.DEPTH + 1) - 1
        if out["visits"] != expected:
            failed.append(f"exact Picard visits {out['visits']} != {expected}")
        bound = 1.0 + 2.0 ** (1.0 - GAMMA)
        if not out["ratio"] <= bound + PROJECTOR_SLACK:
            failed.append(f"projector ratio {out['ratio']:.6f} > {bound:.6f}")
        if not out["certificate"].satisfies_collocation:
            failed.append("certificate does not satisfy the collocation hypothesis")
        return failed


WORKLOADS = {
    "solve-large": SolveLarge,
    "study-ladder": StudyLadder,
    "picard-sweep": PicardSweep,
    "verify-analysis": VerifyAnalysis,
}
