"""Command-line front end: solve, certify, picard, study, interp-check.

One argparse parser reads every input. ``@path`` stands for the shell words
in path (``#`` starts a comment), read in place, so later arguments win and
the file may hold the subcommand. A usage or input error ends in one
``nfeq: ...`` stderr line and exit 1; ``--help`` and ``--version`` exit 0.
"""
from __future__ import annotations

import argparse
import dataclasses
import shlex
import sys
from typing import NoReturn

import numpy as np

from . import __version__, collocation, grids, holder, picard, problem, study
from .functions import constant, eval_on
from .oracles import cusp_solution, manufacture, smooth_parabola

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


def _err(msg: str) -> None:
    print(f"nfeq: {msg}", file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Option-file lines split as shell words, and files do not nest (one
    that named itself would recurse without end); a usage error raises
    ValueError, which ``main`` prints as one line like any other."""

    def convert_arg_line_to_args(self, arg_line: str) -> list[str]:
        words = shlex.split(arg_line, comments=True)
        for word in words:
            if word.startswith("@"):
                raise ValueError(f"an option file cannot name another: {word}")
        return words

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nfeq", fromfile_prefix_chars="@",
        description="Collocation and fixed-point solvers for nonlocal "
                    "functional equations with vanishing delays.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_flags(p):
        p.add_argument("--problem", choices=["paradise", "section5", "cusp", "custom"],
                       default="paradise")
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--samples", type=int, default=holder.DEFAULT_SAMPLES,
                       help="sample count for norms and residuals")
        p.add_argument("--phi-csv", default=None, help="custom problem: tabulated phi")
        p.add_argument("--phi1-csv", default=None)
        p.add_argument("--phi2-csv", default=None)
        p.add_argument("--source-csv", default=None)

    p_solve = sub.add_parser("solve", help="solve by collocation")
    add_problem_flags(p_solve)
    p_solve.add_argument("--n", type=int, default=64)
    p_solve.add_argument("--output-csv", default=None)
    p_solve.add_argument("--stats", action="store_true",
                         help="print assembly stats as key=value")

    add_problem_flags(sub.add_parser("certify", help="print the contraction certificate"))

    p_pic = sub.add_parser("picard", help="grid fixed-point iteration")
    add_problem_flags(p_pic)
    p_pic.add_argument("--n", type=int, default=64)
    p_pic.add_argument("--tol", type=float, default=1e-12)
    p_pic.add_argument("--max-iter", type=int, default=1000)
    p_pic.add_argument("--output-csv", default=None)

    p_study = sub.add_parser("study", help="mesh-refinement convergence study")
    add_problem_flags(p_study)
    p_study.add_argument("--nmin", type=int, default=16)
    p_study.add_argument("--nmax", type=int, default=4096)
    p_study.add_argument("--error-samples", type=int, default=study.DEFAULT_ERROR_SAMPLES)
    p_study.add_argument("--target", choices=["smooth_parabola", "cusp"], default=None,
                         help="manufacture this target on the chosen coefficients")
    p_study.add_argument("--smoothness-k", type=int, choices=[0, 1], default=0)
    p_study.add_argument("--fit-min-n", type=int, default=None)
    p_study.add_argument("--output-csv", default=None)

    p_interp = sub.add_parser("interp-check",
                              help="projector norm and interpolation-error checks")
    p_interp.add_argument("--gamma", type=float, default=0.5)
    p_interp.add_argument("--n", type=int, default=8)
    p_interp.add_argument("--trials", type=int, default=50)
    p_interp.add_argument("--seed", type=int, default=0)
    p_interp.add_argument("--samples", type=int, default=holder.DEFAULT_SAMPLES)
    return parser


_FAMILY_DEFAULTS = {
    "paradise": {"alpha": 0.05, "beta": 0.2, "gamma": 1.0},
    "section5": {"alpha": 0.02, "gamma": 0.5},
    "cusp": {"gamma": 0.5},
}


def _fill_defaults(args) -> None:
    for key, val in _FAMILY_DEFAULTS.get(args.problem, {}).items():
        if getattr(args, key, None) is None:
            setattr(args, key, val)
    if args.gamma is None:
        args.gamma = 0.5
    if args.problem == "cusp" and args.alpha is None:
        args.alpha = 0.9 * problem.section5_alpha_bound(args.gamma)


def _custom_problem(args) -> problem.ProblemSpec:
    needed = {"phi": args.phi_csv, "phi1": args.phi1_csv, "phi2": args.phi2_csv}
    missing = [k for k, v in needed.items() if not v]
    if missing:
        raise ValueError("custom problem needs --phi-csv, --phi1-csv and "
                         f"--phi2-csv (missing {', '.join(missing)})")
    phi, phi1, phi2 = (grids.read_csv(path) for path in needed.values())
    if args.source_csv:
        source = grids.read_csv(args.source_csv)
        boundary = (0.0, 0.0)
    else:
        source = constant(0.0, "0")
        boundary = (0.0, 1.0)
    return problem.ProblemSpec(phi=phi, phi1=phi1, phi2=phi2, source=source,
                               boundary_left=boundary[0], boundary_right=boundary[1],
                               gamma=args.gamma)


def _manufacture_on(base: problem.ProblemSpec, target) -> problem.ProblemSpec:
    """``target`` manufactured on base's coefficients, keeping base's norms."""
    manu = manufacture(target, base.phi, base.phi1, base.phi2, base.gamma)
    return dataclasses.replace(manu.problem, norms=base.norms)


def _build_problem(args) -> problem.ProblemSpec:
    _fill_defaults(args)
    if args.problem == "paradise":
        return problem.paradise_fish(args.alpha, args.beta, args.gamma)
    if args.problem == "section5":
        return problem.section5(args.alpha, args.gamma)
    if args.problem == "cusp":
        return _manufacture_on(problem.section5(args.alpha, args.gamma),
                               cusp_solution(args.gamma))
    return _custom_problem(args)


def _notice_regime(args, spec) -> None:
    """One stderr line when the computed run lies outside the paper's
    sufficient condition for collocation convergence; it is not an error."""
    cert = problem.certify(spec, m=args.samples)
    if not cert.satisfies_collocation:
        print(f"notice: lipschitz_factor={cert.lipschitz_factor:.6g} >= "
              f"collocation_threshold={cert.collocation_threshold:.6g}: outside the "
              "paper's sufficient condition for collocation convergence"
              + ("" if cert.rigorous else " (sampled norms)"), file=sys.stderr)


def _cmd_solve(args) -> int:
    spec = _build_problem(args)
    exact = spec.exact
    sol = collocation.solve_collocation(spec, args.n)
    _notice_regime(args, spec)
    res = problem.residual(spec, sol.solution, min(args.samples, 4097))
    print(f"solved N={args.n} residual={res:.3e} condition={sol.condition:.6g}")
    if args.stats:
        print(f"solver={sol.stats.solver} nonzeros={sol.stats.nonzeros} "
              f"sweeps={sol.stats.sweeps} "
              f"assembly_time={sol.stats.assembly_time:.6g} "
              f"solve_time={sol.stats.solve_time:.6g}")
    if exact is not None:
        ts = study.error_sample_points(study.DEFAULT_ERROR_SAMPLES)
        dev = float(np.abs(sol.solution.evaluate(ts) - eval_on(exact, ts)).max())
        print(f"sup deviation vs {exact.label}: {dev:.6e}")
    if args.output_csv:
        grids.write_csv(sol.solution, args.output_csv)
        print(f"wrote {args.output_csv}")
    return EXIT_OK


def _cmd_certify(args) -> int:
    spec = _build_problem(args)
    if spec.norms is None:
        print("warning: certification uses sampled norms (lower bounds)",
              file=sys.stderr)
    cert = problem.certify(spec, m=args.samples)
    for field in dataclasses.fields(cert):
        value = getattr(cert, field.name)
        print(f"{field.name}={value}" if isinstance(value, bool) else f"{field.name}={value:.12g}")
    if args.problem == "paradise" and 0.0 < args.alpha <= args.beta <= 1.0:
        rep = problem.check_corollary_conditions(args.alpha, args.beta, args.gamma)
        print(f"corollary_a (alpha^g+beta^g={rep.a_value:.6g} < 0.5): {rep.condition_a}")
        print(f"corollary_b (beta < {rep.b_bound:.6g}): {rep.condition_b}")
        print(f"existence_by_corollary={rep.condition_a or rep.condition_b}")
    return EXIT_OK


def _cmd_picard(args) -> int:
    spec = _build_problem(args)
    problem.validate(spec, args.samples)
    grid = grids.UniformGrid(args.n)
    f0 = picard.initial_iterate(spec, grid)
    trace = picard.picard_grid(spec, grid, f0, tol=args.tol, max_iter=args.max_iter)
    _notice_regime(args, spec)
    tail = trace.contraction_ratios[-1] if trace.contraction_ratios else float("nan")
    print(f"iterations={len(trace.increments)} converged={trace.converged} "
          f"final_increment={trace.increments[-1]:.3e} last_ratio={tail:.4f}")
    if args.output_csv:
        picard.write_trace_csv(trace, args.output_csv)
        print(f"wrote {args.output_csv}")
    return EXIT_OK if trace.converged else EXIT_NUMERICAL


def _ladder(nmin: int, nmax: int) -> list[int]:
    if nmin < 2 or nmax < nmin:
        raise ValueError(f"need 2 <= nmin <= nmax, got {nmin}, {nmax}")
    ladder = []
    n = nmin
    while n <= nmax:
        ladder.append(n)
        n *= 2
    return ladder


def _cmd_study(args) -> int:
    spec = _build_problem(args)
    if args.target:
        target = smooth_parabola() if args.target == "smooth_parabola" \
            else cusp_solution(args.gamma)
        spec = _manufacture_on(spec, target)
    if spec.exact is None:
        raise ValueError("study needs an exact solution: use --problem cusp, --target, "
                         "or --problem paradise with --alpha 0 and 0 < --beta < 1")
    report = study.run_study(spec, n_ladder=_ladder(args.nmin, args.nmax),
                             m=args.error_samples, fit_min_n=args.fit_min_n,
                             smoothness_k=args.smoothness_k,
                             label=f"{args.problem} gamma={args.gamma:g}")
    _notice_regime(args, spec)
    for r in report.ladder:
        print(f"N={r.n:6d} h={r.h:.6g} error={r.sup_error:.6e} runtime={r.runtime:.3g}s")
    print(study.summary_line(report))
    for note in report.notes:
        print(f"note: {note}")
    if args.output_csv:
        study.write_report_csv(report, args.output_csv)
        print(f"wrote {args.output_csv}")
    if report.failure:
        _err(report.failure)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_interp_check(args) -> int:
    cusp = cusp_solution(args.gamma)
    rng = np.random.default_rng(args.seed)
    grid = grids.UniformGrid(args.n)
    trials = grids.random_cusp_trials(rng, args.trials, args.gamma)
    ratio = grids.measure_projector_norm(args.gamma, grid, trials, m=args.samples)
    bound = 1.0 + 2.0 ** (1.0 - args.gamma)
    ok = ratio <= bound + 1e-9
    print(f"projector norm ratio={ratio:.6f} bound={bound:.6f} "
          f"{'PASS' if ok else 'FAIL'} ({args.trials} trials, N={args.n})")

    sup_err = grids.interp_sup_error(cusp, grid)
    bound_sup = grids.sup_error_bound(1.0, args.gamma, 0, grid.h)
    ok_sup = sup_err <= bound_sup
    print(f"cusp interpolation error={sup_err:.6e} bound={bound_sup:.6e} "
          f"{'PASS' if ok_sup else 'FAIL'}")
    return EXIT_OK if ok and ok_sup else EXIT_NUMERICAL


_COMMANDS = {
    "solve": _cmd_solve,
    "certify": _cmd_certify,
    "picard": _cmd_picard,
    "study": _cmd_study,
    "interp-check": _cmd_interp_check,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # only --help and --version leave the parse this way
        return exc.code
    except (collocation.CollocationError, study.FitError) as exc:
        _err(str(exc))
        return EXIT_NUMERICAL
    except (problem.ProblemValidationError, problem.FormError, ValueError,
            OSError, MemoryError) as exc:  # numpy's MemoryError names the array
        _err(str(exc) or type(exc).__name__)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
