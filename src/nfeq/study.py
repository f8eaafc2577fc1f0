"""Mesh-refinement studies and empirical convergence orders."""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .collocation import _solve_ladder
from .functions import FunctionHandle, eval_on
from .grids import write_table
from .oracles import ManufacturedProblem
from .problem import ProblemSpec, validate

#: default number of sup-error sample points
DEFAULT_ERROR_SAMPLES = 4097
#: rungs below this N are recorded but excluded from the fit by default
DEFAULT_FIT_MIN_N = 16


class FitError(ValueError):
    """Too few usable (h, error) points to fit a convergence order."""


def error_sample_points(m: int) -> np.ndarray:
    """m uniform midpoint samples (j+1/2)/m.

    For odd m at most the single point 1/2 can land on a dyadic grid node,
    so nodal super-accuracy cannot fake the measured order."""
    if m < 1:
        raise ValueError(f"need at least 1 sample, got {m}")
    return (np.arange(m) + 0.5) / m


@dataclass(frozen=True)
class LadderRung:
    """``runtime`` is the rung's own ``assembly_time + solve_time`` (with a
    fallback's ``assemble`` rebuild) plus its sup-error measurement: no
    one-time load and no validation is in it."""

    n: int
    h: float
    sup_error: float
    runtime: float


@dataclass(frozen=True)
class ConvergenceReport:
    problem_label: str
    gamma: float
    ladder: list
    fitted_order: float
    fit_residual: float
    theory_order: float
    notes: list = field(default_factory=list)
    failure: Optional[str] = None


def fit_order(points) -> tuple[float, float]:
    """Ordinary least squares of log(error) on log(h); returns (slope, RMS residual)."""
    usable = [(h, e) for h, e in points if e > 0.0]
    if len(usable) < 2:
        raise FitError(f"need at least 2 positive-error points, got {len(usable)}")
    logs_h = np.log([h for h, _ in usable])
    logs_e = np.log([e for _, e in usable])
    slope, intercept = np.polyfit(logs_h, logs_e, 1)
    resid = logs_e - (slope * logs_h + intercept)
    return float(slope), float(np.sqrt(np.mean(resid ** 2)))


def run_study(problem, exact: FunctionHandle | None = None,
              n_ladder=None, m: int = DEFAULT_ERROR_SAMPLES,
              fit_min_n: int | None = None,
              smoothness_k: int = 0,
              label: str | None = None) -> ConvergenceReport:
    """Solve across the refinement ladder, measure sup errors, fit the order.

    ``problem`` may be a ProblemSpec or a ManufacturedProblem. Without
    ``exact`` it compares against the spec's own ``exact``. The problem is
    validated once, and then every rung is solved at once as one
    block-diagonal system (``collocation._solve_ladder``): each rung's
    solution, condition and stats are those of ``solve_collocation`` on its
    own N. A solver failure on a rung leaves a partial ladder with the
    failure recorded. A ``fit_min_n`` (None: DEFAULT_FIT_MIN_N) above the
    second largest N, which would leave fewer than two rungs to fit, raises
    ValueError; so does an ``m`` below the largest N, which would leave cells
    with no error sample. Both messages name the parameter by its ``nfeq
    study`` flag, ``--fit-min-n`` (saying so if the default applied) or
    ``--error-samples``.
    """
    spec = problem.problem if isinstance(problem, ManufacturedProblem) else problem
    label = label or getattr(problem, "description", "problem")
    exact = exact or spec.exact
    if exact is None:
        raise ValueError("an exact solution is required to measure errors")
    ladder = sorted(int(n) for n in (n_ladder or []))
    if len(ladder) < 4:
        raise ValueError(f"ladder needs at least 4 entries, got {len(ladder)}")
    if ladder[0] < 2:
        raise ValueError(f"every rung needs N >= 2, got {ladder[0]}")
    named = fit_min_n if fit_min_n is not None else f"defaults to {DEFAULT_FIT_MIN_N}, which"
    fit_min_n = DEFAULT_FIT_MIN_N if fit_min_n is None else fit_min_n
    if fit_min_n > ladder[-2]:
        raise ValueError(f"--fit-min-n {named} leaves fewer than 2 rungs to fit: "
                         f"it can be at most N={ladder[-2]}")
    if m < ladder[-1]:
        raise ValueError(f"--error-samples {m} leaves cells of N={ladder[-1]} "
                         f"unsampled: it must be at least {ladder[-1]}")

    ts = error_sample_points(m)
    exact_vals = eval_on(exact, ts)

    validate(spec)  # depends on no N, so once for every rung
    solutions, failure = _solve_ladder(spec, ladder)
    rungs: list[LadderRung] = []
    notes: list[str] = []
    for sol in solutions:
        n = sol.grid.n
        t0 = time.perf_counter()
        err = float(np.abs(sol.solution.evaluate(ts) - exact_vals).max())
        runtime = sol.stats.assembly_time + sol.stats.solve_time + (time.perf_counter() - t0)
        rungs.append(LadderRung(n=n, h=1.0 / n, sup_error=err, runtime=runtime))
    if failure is not None:
        failure = f"N={ladder[len(solutions)]}: {failure}"

    fit_points = [(r.h, r.sup_error) for r in rungs if r.n >= fit_min_n]
    excluded = [r for r in rungs if r.n < fit_min_n]
    if excluded:
        notes.append(f"excluded {len(excluded)} pre-asymptotic rungs (N < {fit_min_n})")
    zero_rungs = [r for r in rungs if r.n >= fit_min_n and r.sup_error <= 0.0]
    if zero_rungs:
        notes.append(f"excluded {len(zero_rungs)} zero-error rungs from the fit")
    try:
        fitted, resid = fit_order(fit_points)
    except FitError as exc:
        fitted, resid = math.nan, math.nan
        notes.append(str(exc))

    return ConvergenceReport(problem_label=label, gamma=spec.gamma, ladder=rungs,
                             fitted_order=fitted, fit_residual=resid,
                             theory_order=smoothness_k + spec.gamma,
                             notes=notes, failure=failure)


def write_report_csv(report: ConvergenceReport, path) -> None:
    write_table(path, ["N", "h", "error", "runtime"],
                ((r.n, r.h, r.sup_error, r.runtime) for r in report.ladder))


def summary_line(report: ConvergenceReport) -> str:
    line = (f"{report.problem_label}: fitted_order={report.fitted_order:.4f} "
            f"theory_order={report.theory_order:.4f} "
            f"fit_residual={report.fit_residual:.3e}")
    if report.failure:
        line += f" [partial: {report.failure}]"
    return line
