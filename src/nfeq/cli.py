"""Command-line front end: solve, certify, picard, study, interp-check."""
from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import __version__, collocation, grids, holder, picard, problem, study, svgplot
from .functions import eval_on
from .oracles import ManufacturedProblem, cusp_solution, manufacture, oracle_by_name, smooth_parabola

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


def _err(msg: str) -> None:
    print(f"nfeq: {msg}", file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfeq",
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
        p.add_argument("--config", default=None,
                       help="key=value file; values override flags")

    p_solve = sub.add_parser("solve", help="solve by collocation")
    add_problem_flags(p_solve)
    p_solve.add_argument("--n", type=int, default=64)
    p_solve.add_argument("--oracle", choices=["product", "cusp", "smooth_parabola"],
                         default=None)
    p_solve.add_argument("--output-csv", default=None)
    p_solve.add_argument("--output-svg", default=None)
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
    p_study.add_argument("--oracle", choices=["product"], default=None,
                         help="compare against a closed-form solution instead")
    p_study.add_argument("--smoothness-k", type=int, choices=[0, 1], default=0)
    p_study.add_argument("--fit-min-n", type=int, default=study.DEFAULT_FIT_MIN_N)
    p_study.add_argument("--output-csv", default=None)
    p_study.add_argument("--output-svg", default=None)

    p_interp = sub.add_parser("interp-check",
                              help="projector norm and interpolation-error checks")
    p_interp.add_argument("--gamma", type=float, default=0.5)
    p_interp.add_argument("--n", type=int, default=8)
    p_interp.add_argument("--trials", type=int, default=50)
    p_interp.add_argument("--seed", type=int, default=0)
    p_interp.add_argument("--samples", type=int, default=holder.DEFAULT_SAMPLES)
    p_interp.add_argument("--config", default=None)
    return parser


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _coerce(action: argparse.Action, raw: str):
    """A config value converted as its flag would be: by the action's type
    and choices, or as one of the _BOOLEANS for an on/off flag."""
    if isinstance(action.default, bool):
        if raw.lower() not in _BOOLEANS:
            raise ValueError(f"expected one of {', '.join(_BOOLEANS)}, got {raw!r}")
        return _BOOLEANS[raw.lower()]
    try:
        value = action.type(raw) if action.type is not None else raw
    except (TypeError, ValueError):
        raise ValueError(f"invalid {action.type.__name__} value {raw!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"invalid choice {raw!r} (expected one of "
                         f"{', '.join(map(str, action.choices))})")
    return value


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    path = getattr(args, "config", None)
    if not path:
        return
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices[args.command]._actions}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, raw = (s.strip() for s in line.split("=", 1))
            attr = key.replace("-", "_")
            if attr not in actions:
                raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
            try:
                value = _coerce(actions[attr], raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
            setattr(args, attr, value)


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
    phi = grids.read_csv(args.phi_csv)
    phi1 = grids.read_csv(args.phi1_csv)
    phi2 = grids.read_csv(args.phi2_csv)
    if args.source_csv:
        source = grids.read_csv(args.source_csv)
        boundary = (0.0, 0.0)
    else:
        from .functions import constant
        source = constant(0.0, "0")
        boundary = (0.0, 1.0)
    return problem.ProblemSpec(phi=phi, phi1=phi1, phi2=phi2, source=source,
                               boundary_left=boundary[0], boundary_right=boundary[1],
                               gamma=args.gamma)


def _build_problem(args):
    """Returns (ProblemSpec, exact-or-None, NormOverrides-or-None)."""
    _fill_defaults(args)
    if args.problem == "paradise":
        spec = problem.paradise_fish(args.alpha, args.beta, args.gamma)
        norms = problem.paradise_fish_norms(args.alpha, args.beta)
        return spec, None, norms
    if args.problem == "section5":
        spec = problem.section5(args.alpha, args.gamma)
        return spec, None, problem.section5_norms(args.alpha)
    if args.problem == "cusp":
        base = problem.section5(args.alpha, args.gamma)
        manu = manufacture(cusp_solution(args.gamma), base.phi, base.phi1,
                           base.phi2, args.gamma,
                           description=f"cusp gamma={args.gamma:g} alpha={args.alpha:g}")
        return manu.problem, manu.exact, problem.section5_norms(args.alpha)
    return _custom_problem(args), None, None


def _cmd_solve(args) -> int:
    spec, exact, _ = _build_problem(args)
    sol = collocation.solve_collocation(spec, args.n)
    res = problem.residual(spec, sol.solution, min(args.samples, 4097))
    print(f"solved N={args.n} residual={res:.3e} condition={sol.condition:.6g}")
    if args.stats:
        print(f"solver={sol.stats.solver} nonzeros={sol.stats.nonzeros} "
              f"sweeps={sol.stats.sweeps} "
              f"assembly_time={sol.stats.assembly_time:.6g} "
              f"solve_time={sol.stats.solve_time:.6g}")
    if args.oracle:
        exact = oracle_by_name(args.oracle, gamma=args.gamma, beta=args.beta)
    if exact is not None:
        ts = study.error_sample_points(study.DEFAULT_ERROR_SAMPLES)
        dev = float(np.abs(sol.solution.evaluate(ts) - eval_on(exact, ts)).max())
        print(f"sup deviation vs {getattr(exact, 'label', 'oracle')}: {dev:.6e}")
    if args.output_csv:
        grids.write_csv(sol.solution, args.output_csv)
        print(f"wrote {args.output_csv}")
    if args.output_svg:
        ts = np.linspace(0.0, 1.0, 513)
        series = [(f"collocation N={args.n}", ts, sol.solution.evaluate(ts))]
        if exact is not None:
            series.append((getattr(exact, "label", "exact"), ts, eval_on(exact, ts)))
        svgplot.write_svg(args.output_svg, series, log=False, title="solution",
                          xlabel="t", ylabel="f(t)")
        print(f"wrote {args.output_svg}")
    return EXIT_OK


def _cmd_certify(args) -> int:
    spec, _, norms = _build_problem(args)
    if norms is None:
        print("warning: certification uses sampled norms (lower bounds)",
              file=sys.stderr)
    cert = problem.certify(spec, m=args.samples, overrides=norms)
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
    spec, _, _ = _build_problem(args)
    problem.validate(spec, args.samples)
    grid = grids.UniformGrid(args.n)
    f0 = picard.initial_iterate(spec, grid)
    trace = picard.picard_grid(spec, grid, f0, tol=args.tol, max_iter=args.max_iter)
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
    spec, exact, _ = _build_problem(args)
    smoothness_k = args.smoothness_k
    if args.problem != "cusp":
        if args.target:
            target = smooth_parabola() if args.target == "smooth_parabola" \
                else cusp_solution(args.gamma)
            manu = manufacture(target, spec.phi, spec.phi1, spec.phi2, args.gamma,
                               description=f"{args.target} on {args.problem}")
            spec, exact = manu.problem, manu.exact
        elif args.oracle == "product":
            if args.problem != "paradise" or args.alpha != 0.0:
                raise ValueError("the product oracle is exact only for the "
                                 "paradise family with alpha = 0")
            exact = oracle_by_name("product", beta=args.beta)
        else:
            raise ValueError("study needs an exact solution: use --problem cusp, "
                             "--target, or --oracle product")
    report = study.run_study(spec, exact=exact, n_ladder=_ladder(args.nmin, args.nmax),
                             m=args.error_samples, fit_min_n=args.fit_min_n,
                             smoothness_k=smoothness_k,
                             label=f"{args.problem} gamma={args.gamma:g}")
    for r in report.ladder:
        print(f"N={r.n:6d} h={r.h:.6g} error={r.sup_error:.6e} runtime={r.runtime:.3g}s")
    print(study.summary_line(report))
    for note in report.notes:
        print(f"note: {note}")
    if args.output_csv:
        study.write_report_csv(report, args.output_csv)
        print(f"wrote {args.output_csv}")
    if args.output_svg:
        hs = [r.h for r in report.ladder]
        es = [r.sup_error for r in report.ladder]
        svgplot.write_svg(args.output_svg, [(report.problem_label, hs, es)],
                          log=True, title="convergence study", xlabel="h",
                          ylabel="error", reference_slope=report.theory_order)
        print(f"wrote {args.output_svg}")
    if report.failure:
        _err(report.failure)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_interp_check(args) -> int:
    if not 0.0 < args.gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {args.gamma}")
    rng = np.random.default_rng(args.seed)
    grid = grids.UniformGrid(args.n)
    trials = grids.random_cusp_trials(rng, args.trials, args.gamma)
    ratio = grids.measure_projector_norm(args.gamma, grid, trials, m=args.samples)
    bound = 1.0 + 2.0 ** (1.0 - args.gamma)
    ok = ratio <= bound + 1e-9
    print(f"projector norm ratio={ratio:.6f} bound={bound:.6f} "
          f"{'PASS' if ok else 'FAIL'} ({args.trials} trials, N={args.n})")

    cusp = cusp_solution(args.gamma)
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        _apply_config(args, parser)
        return _COMMANDS[args.command](args)
    except (collocation.CollocationError, study.FitError) as exc:
        _err(str(exc))
        return EXIT_NUMERICAL
    except (problem.ProblemValidationError, problem.FormError, ValueError,
            OSError) as exc:
        _err(str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
