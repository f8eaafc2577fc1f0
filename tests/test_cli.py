import re

import numpy as np
import pytest

from nfeq import cli, grids, problem
from nfeq.functions import FunctionHandle


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_paradise_analytic(capsys):
    code, out, err = run(["certify", "--problem", "paradise",
                          "--alpha", "0.05", "--beta", "0.2", "--gamma", "1"], capsys)
    assert code == 0
    assert "lipschitz_factor=0.5" in out
    assert "existence_by_corollary=True" in out
    assert "warning" not in err


def test_certify_prints_every_field_in_order(capsys):
    code, out, _ = run(["certify", "--problem", "section5"], capsys)
    assert code == 0
    assert out == ("norm_phi_gamma=1\nnorm_phi1_lip=1\nnorm_phi2_lip=0.01\n"
                   "phi1_at_zero=0.99\nlipschitz_factor=0.4\nfixed_point_factor=1.3\n"
                   "collocation_threshold=0.414213562373\nsatisfies_existence=False\n"
                   "satisfies_collocation=True\nrigorous=True\n")


def tabulated_problem_args(tmp_path, beta=0.2):
    """--problem custom flags for phi = t, phi1 = 1, phi2 = beta t tabulated at N = 64."""
    g = grids.UniformGrid(64)
    handles = {
        "phi": FunctionHandle(eval=lambda t: np.asarray(t, dtype=float)),
        "phi1": FunctionHandle(eval=lambda t: np.ones_like(np.asarray(t, float))),
        "phi2": FunctionHandle(eval=lambda t: beta * np.asarray(t, dtype=float)),
    }
    args = ["--problem", "custom", "--gamma", "1"]
    for name, h in handles.items():
        path = tmp_path / f"{name}.csv"
        grids.write_csv(grids.project(h, g), path)
        args += [f"--{name}-csv", str(path)]
    return args


def test_certify_sampled_norms_warn(tmp_path, capsys):
    # tabulated data has no exact norms: the sampled ones are flagged
    code, out, err = run(["certify"] + tabulated_problem_args(tmp_path), capsys)
    assert code == 0
    assert "lower bounds" in err
    assert "satisfies_collocation=" in out
    # a built-in family certifies with its exact norms, and says nothing
    code, out, err = run(["certify", "--problem", "section5"], capsys)
    assert code == 0
    assert err == ""
    assert "satisfies_collocation=True" in out


@pytest.mark.parametrize("tabulated", [False, True], ids=["section5", "tabulated"])
def test_certify_says_whether_it_is_rigorous(tabulated, tmp_path, capsys):
    # exact family norms make a rigorous certificate, sampled ones do not
    argv = ["certify"] + (tabulated_problem_args(tmp_path) if tabulated
                          else ["--problem", "section5"])
    args = cli._build_parser().parse_args(argv)
    spec = cli._build_problem(args)
    assert (spec.norms is None) is tabulated
    cert = problem.certify(spec, m=args.samples)
    assert cert.rigorous is not tabulated
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert (f"satisfies_collocation={cert.satisfies_collocation}\n"
            f"rigorous={not tabulated}\n") in out


def test_certify_analytic_norms_flag_is_gone(capsys):
    code, out, err = run(["certify", "--problem", "paradise", "--analytic-norms"], capsys)
    assert code == 1
    assert out == ""
    assert "--analytic-norms" in err


@pytest.mark.parametrize("argv", [
    ["--problem", "paradise", "--alpha", "0.05", "--beta", "0.2", "--gamma", "1"],
    ["--problem", "section5", "--alpha", "0.02", "--gamma", "1"],
    ["--problem", "cusp"],
], ids=["paradise", "section5", "cusp"])
def test_certify_prints_the_exact_family_norms(argv, capsys):
    spec = cli._build_problem(cli._build_parser().parse_args(["certify"] + argv))
    cert = problem.certify(spec)
    code, out, err = run(["certify"] + argv, capsys)
    assert code == 0 and err == ""
    assert f"lipschitz_factor={cert.lipschitz_factor:.12g}\n" in out
    assert f"norm_phi2_lip={spec.norms.norm_phi2_lip:.12g}\n" in out


@pytest.mark.parametrize("gamma", ["0.25", "0.5"])
def test_cusp_problem_carries_its_exact_norms_and_solution(gamma):
    # the cusp keeps the norms of the section5 coefficients it is
    # manufactured on, so it certifies rigorously without overrides
    args = cli._build_parser().parse_args(["certify", "--problem", "cusp",
                                           "--gamma", gamma])
    spec = cli._build_problem(args)
    cert = problem.certify(spec)
    assert cert.rigorous is True
    assert cert == problem.certify(spec, overrides=problem.section5_norms(args.alpha))
    assert spec.exact.label == f"cusp(gamma={gamma})"


def test_certify_invalid_gamma(capsys):
    code, _, err = run(["certify", "--problem", "paradise", "--gamma", "3"], capsys)
    assert code == 1
    assert "gamma" in err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_writes_csv_and_reruns_identically(tmp_path, capsys):
    path = tmp_path / "sol.csv"
    args = ["solve", "--problem", "paradise", "--alpha", "0", "--beta", "0.2",
            "--n", "2", "--output-csv", str(path)]
    code, out, _ = run(args, capsys)
    assert code == 0
    assert "solved N=2" in out
    sol = grids.read_csv(path)
    assert sol.values[1] == pytest.approx(5.0 / 9.0, abs=1e-12)
    first = path.read_bytes()
    code, _, _ = run(args, capsys)
    assert code == 0
    assert path.read_bytes() == first


def test_solve_with_product_oracle(capsys):
    # paradise at alpha = 0 carries product(beta) as its exact solution
    code, out, _ = run(["solve", "--problem", "paradise", "--alpha", "0",
                        "--beta", "0.2", "--n", "256"], capsys)
    assert code == 0
    assert "sup deviation vs product(beta=0.2)" in out
    dev = float(out.split("sup deviation vs")[1].split(":")[1])
    assert dev <= 1e-3


def test_solve_prints_no_deviation_without_an_exact_solution(capsys):
    code, out, _ = run(["solve", "--problem", "paradise", "--alpha", "0.05",
                        "--n", "16"], capsys)
    assert code == 0 and "solved N=16" in out
    assert "deviation" not in out


@pytest.mark.parametrize("command", ["solve", "study"])
def test_oracle_flag_is_gone(command, capsys):
    # a problem carries its own exact solution: none can be paired with it by
    # hand, and the run stops at argparse before anything is solved
    code, out, err = run([command, "--problem", "paradise", "--alpha", "0",
                          "--oracle", "smooth_parabola"], capsys)
    assert code == 1
    assert out == ""
    assert err == "nfeq: unrecognized arguments: --oracle smooth_parabola\n"


def test_solve_large_n_stats(capsys):
    n = 65536
    code, out, _ = run(["solve", "--problem", "cusp", "--gamma", "0.5",
                        "--n", str(n), "--stats"], capsys)
    assert code == 0
    fields = dict(item.split("=", 1) for item in out.split() if "=" in item)
    assert np.isfinite(float(fields["condition"]))
    assert int(fields["nonzeros"]) <= 5 * (n - 1)
    assert fields["solver"] == "sweep"
    assert int(fields["sweeps"]) > 0


def test_solve_fallback_stats(capsys):
    code, out, _ = run(["solve", "--problem", "paradise", "--alpha", "0.05",
                        "--beta", "0.999", "--n", "4096", "--stats"], capsys)
    assert code == 0
    fields = dict(item.split("=", 1) for item in out.split() if "=" in item)
    assert fields["solver"] == "superlu"
    # the sweeps tried before SuperLU took over
    assert 0 < int(fields["sweeps"]) <= 10


@pytest.mark.parametrize("command", ["solve", "study"])
def test_svg_flag_is_gone(command, tmp_path, capsys):
    # SVG output was removed: the CSVs carry the same data
    path = tmp_path / "out.svg"
    code, out, err = run([command, "--problem", "cusp", "--output-svg", str(path)],
                         capsys)
    assert code == 1
    assert out == ""
    assert err == f"nfeq: unrecognized arguments: --output-svg {path}\n"
    assert not path.exists()


# ---------------------------------------------------------------------------
# picard
# ---------------------------------------------------------------------------

def test_picard_converges(capsys):
    code, out, _ = run(["picard", "--problem", "paradise", "--alpha", "0",
                        "--beta", "0.2", "--n", "32"], capsys)
    assert code == 0
    assert "converged=True" in out


def test_picard_nonconvergence_exit_code(capsys):
    with pytest.warns(UserWarning):
        code = cli.main(["picard", "--problem", "paradise", "--n", "32",
                         "--tol", "1e-15", "--max-iter", "1"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("max_iter", ["0", "-1"])
def test_picard_nonpositive_max_iter(capsys, max_iter):
    code, _, err = run(["picard", "--problem", "paradise", "--n", "32",
                        "--max-iter", max_iter], capsys)
    assert code == 1
    assert err.count("\n") == 1 and "max_iter must be at least 1" in err


def test_picard_nan_tolerance(capsys):
    code, _, err = run(["picard", "--problem", "paradise", "--n", "4",
                        "--tol", "nan", "--max-iter", "3"], capsys)
    assert code == 1
    assert err.count("\n") == 1 and "tol must be positive" in err


def test_picard_infinite_tolerance(capsys):
    code, out, err = run(["picard", "--problem", "paradise", "--n", "4", "--tol", "inf"],
                         capsys)
    assert code == 1
    assert out == ""
    assert err == "nfeq: tol must be positive and finite, got inf\n"


# ---------------------------------------------------------------------------
# study
# ---------------------------------------------------------------------------

def test_study_cusp_outputs(tmp_path, capsys):
    csv_path = tmp_path / "study.csv"
    code, out, _ = run(["study", "--problem", "cusp", "--gamma", "0.5",
                        "--alpha", "0.02", "--nmin", "16", "--nmax", "128",
                        "--error-samples", "1025",
                        "--output-csv", str(csv_path)], capsys)
    assert code == 0
    assert "fitted_order=" in out
    fitted = float(out.split("fitted_order=")[1].split()[0])
    assert fitted == pytest.approx(0.5, abs=0.15)
    printed = [float(line.split("error=")[1].split()[0])
               for line in out.splitlines() if line.startswith("N=")]
    header, *rows = csv_path.read_text().splitlines()
    assert header == "N,h,error,runtime"
    assert [int(row.split(",")[0]) for row in rows] == [16, 32, 64, 128]
    for row, shown in zip(rows, printed, strict=True):
        n, h, error, _ = row.split(",")
        assert float(h) == 1.0 / int(n)
        assert f"{float(error):.6e}" == f"{shown:.6e}"


def test_study_requires_exact_solution(capsys):
    code, _, err = run(["study", "--problem", "paradise"], capsys)
    assert code == 1
    assert "exact solution" in err


def test_study_hint_names_the_family_range_with_an_exact_solution(capsys):
    # paradise at alpha = 0 has an exact solution only for 0 < beta < 1,
    # so the hint must not just repeat --alpha 0
    code, out, err = run(["study", "--problem", "paradise", "--alpha", "0",
                          "--beta", "0"], capsys)
    assert (code, out) == (1, "")
    assert err == ("nfeq: study needs an exact solution: use --problem cusp, --target, "
                   "or --problem paradise with --alpha 0 and 0 < --beta < 1\n")


@pytest.mark.parametrize("samples, code", [("1", 1), ("255", 1), ("256", 0)])
def test_study_error_samples_must_reach_every_cell(samples, code, capsys):
    result, out, err = run(["study", "--problem", "cusp", "--nmax", "256",
                            "--error-samples", samples], capsys)
    assert result == code
    if code:
        assert out == ""
        # the message names the flag the user typed
        assert err == (f"nfeq: --error-samples {samples} leaves cells of N=256 "
                       "unsampled: it must be at least 256\n")
    else:
        assert "fitted_order=" in out


def test_study_paradise_at_alpha_zero_needs_no_flag(capsys):
    code, out, err = run(["study", "--problem", "paradise", "--alpha", "0",
                          "--nmin", "16", "--nmax", "128"], capsys)
    assert code == 0 and err == ""
    assert "fitted_order=" in out


def test_study_target_applies_to_cusp(capsys):
    # --target manufactures on the cusp problem's coefficients too
    argv = ["study", "--problem", "cusp", "--nmin", "16", "--nmax", "128"]
    code, plain, _ = run(argv, capsys)
    assert code == 0
    code, parabola, _ = run(argv + ["--target", "smooth_parabola"], capsys)
    assert code == 0
    assert parabola != plain
    fitted = float(parabola.split("fitted_order=")[1].split()[0])
    assert fitted > 1.5


def test_study_refuses_fit_min_n_above_nmax(capsys):
    # at N = nmax too, one rung would enter the fit
    for fit_min_n in ("100000", "256"):
        code, out, err = run(["study", "--problem", "cusp", "--nmax", "256",
                              "--fit-min-n", fit_min_n], capsys)
        assert code == 1 and out == ""
        assert err == (f"nfeq: --fit-min-n {fit_min_n} leaves fewer than 2 rungs to "
                       "fit: it can be at most N=128\n")


def test_study_refusal_of_the_default_fit_min_n_says_it_is_the_default(capsys):
    # a flag the user never typed is named as the default it is
    code, out, err = run(["study", "--problem", "cusp", "--nmin", "2", "--nmax", "16"],
                         capsys)
    assert code == 1 and out == ""
    assert err == ("nfeq: --fit-min-n defaults to 16, which leaves "
                   "fewer than 2 rungs to fit: it can be at most N=8\n")


# ---------------------------------------------------------------------------
# interp-check
# ---------------------------------------------------------------------------

def test_interp_check(capsys):
    code, out, _ = run(["interp-check", "--gamma", "0.5", "--trials", "10",
                        "--samples", "257", "--seed", "1"], capsys)
    assert code == 0
    assert out.count("PASS") == 2


@pytest.mark.parametrize("gamma, shown", [("1", "1.0"), ("nan", "nan")])
def test_interp_check_refuses_gamma_outside_the_open_interval(gamma, shown, capsys):
    # the cusp's own check, before any projector trial runs
    code, out, err = run(["interp-check", "--gamma", gamma], capsys)
    assert (code, out) == (1, "")
    assert err == f"nfeq: gamma must lie in (0, 1), got {shown}\n"


def test_interp_check_failed_bound_is_numerical(monkeypatch, capsys):
    monkeypatch.setattr(grids, "measure_projector_norm", lambda *a, **k: 10.0)
    code, out, _ = run(["interp-check", "--trials", "2", "--samples", "65"], capsys)
    assert code == cli.EXIT_NUMERICAL
    assert "FAIL" in out


# ---------------------------------------------------------------------------
# option files and custom problems
# ---------------------------------------------------------------------------

def test_config_overrides_flags(tmp_path, capsys):
    # an @file is read in place, so it overrides the flags before it
    opts = tmp_path / "run.args"
    opts.write_text("--alpha 0.1  # overrides the flag\n")
    code, out, _ = run(["certify", "--problem", "paradise", "--alpha", "0.05",
                        "--beta", "0.2", "--gamma", "1", f"@{opts}"], capsys)
    assert code == 0
    assert "lipschitz_factor=0.6" in out


def test_config_unknown_key(tmp_path, capsys):
    opts = tmp_path / "run.args"
    opts.write_text("--frobnicate 1\n")
    code, out, err = run(["certify", f"@{opts}"], capsys)
    assert (code, out) == (1, "")
    assert err == "nfeq: unrecognized arguments: --frobnicate 1\n"


def test_config_value_of_wrong_type(tmp_path, capsys):
    opts = tmp_path / "run.args"
    opts.write_text("--n 64.5\n")
    code, out, err = run(["solve", f"@{opts}"], capsys)
    assert (code, out) == (1, "")
    assert err == "nfeq: argument --n: invalid int value: '64.5'\n"


def test_config_unparseable_boolean(tmp_path, capsys):
    # an on/off flag takes no value, in a file as on the command line
    opts = tmp_path / "run.args"
    opts.write_text("--stats=ture\n")
    code, out, err = run(["solve", f"@{opts}"], capsys)
    assert (code, out) == (1, "")
    assert err == "nfeq: argument --stats: ignored explicit argument 'ture'\n"


def test_config_flag_is_gone(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.1\n")
    code, out, err = run(["certify", "--config", str(cfg)], capsys)
    assert (code, out) == (1, "")
    assert err == f"nfeq: unrecognized arguments: --config {cfg}\n"


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "paradise", "--alpha", "0", "--beta", "0.2", "--n", "32"],
    ["certify", "--problem", "section5", "--gamma", "0.5"],
    ["picard", "--problem", "cusp", "--n", "32", "--tol", "1e-10"],
    ["study", "--problem", "cusp", "--nmin", "16", "--nmax", "128"],
    ["interp-check", "--gamma", "0.25", "--trials", "5", "--samples", "129"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("with_command", [False, True], ids=["flags", "command"])
def test_option_file_run_equals_the_flag_run(argv, with_command, tmp_path, capsys):
    # one flag and its value a line, after a comment and a blank line; the
    # file may hold the subcommand too
    lines = ([argv[0]] if with_command else []) + [
        " ".join(argv[i:i + 2]) for i in range(1, len(argv), 2)]
    opts = tmp_path / "run.args"
    opts.write_text("# the same run\n\n" + "\n".join(lines) + "\n")
    by_file = run([f"@{opts}"] if with_command else [argv[0], f"@{opts}"], capsys)
    by_flags = run(argv, capsys)
    # a study rung's runtime is wall time; every other byte must match
    file_out, flags_out = (re.sub(r"runtime=\S+", "", r[1]) for r in (by_file, by_flags))
    assert by_file[0] == by_flags[0] == 0
    assert file_out == flags_out != ""
    assert by_file[2] == by_flags[2]


def test_later_arguments_override_the_option_file(tmp_path, capsys):
    opts = tmp_path / "run.args"
    opts.write_text("--problem paradise --alpha 0.1 --beta 0.2 --gamma 1\n")
    code, out, _ = run(["certify", f"@{opts}", "--alpha", "0.05"], capsys)
    assert code == 0
    assert out == run(["certify", "--problem", "paradise", "--alpha", "0.05",
                       "--beta", "0.2", "--gamma", "1"], capsys)[1]
    assert "lipschitz_factor=0.5\n" in out


def test_option_file_words_are_shell_words(tmp_path, capsys):
    # quotes keep a path with a space whole, and # outside quotes is a comment
    path = tmp_path / "my dir" / "sol #1.csv"
    path.parent.mkdir()
    opts = tmp_path / "run.args"
    opts.write_text(f"--n 4 --output-csv '{path}'  # quoted\n")
    code, out, err = run(["solve", "--problem", "cusp", f"@{opts}"], capsys)
    assert (code, err) == (0, "")
    assert out.endswith(f"wrote {path}\n")
    assert path.exists()


def test_custom_problem_from_csv(tmp_path, capsys):
    code, out, _ = run(["solve"] + tabulated_problem_args(tmp_path) + ["--n", "16"],
                       capsys)
    assert code == 0
    assert "solved N=16" in out


def test_custom_problem_short_csv_row(tmp_path, capsys):
    # a one-column row is a usage error naming the file and line, not a traceback
    args = tabulated_problem_args(tmp_path)
    path = args[args.index("--phi1-csv") + 1]
    with open(path, "a") as fh:
        fh.write("0.5\n")
    code, out, err = run(["certify"] + args, capsys)
    assert code == 1
    assert out == ""
    assert err == f"nfeq: {path}:67: expected a row 't,value', got '0.5'\n"
    assert "Traceback" not in err


def test_custom_problem_phi_outside_unit_interval(tmp_path, capsys):
    # a tabulated phi = 1.5 is refused by validation, before any solver
    g = grids.UniformGrid(8)
    handles = {
        "phi": FunctionHandle(eval=lambda t: np.full_like(np.asarray(t, float), 1.5)),
        "phi1": FunctionHandle(eval=lambda t: 0.5 + 0.5 * np.asarray(t, dtype=float)),
        "phi2": FunctionHandle(eval=lambda t: 0.5 * np.asarray(t, dtype=float)),
    }
    args = ["solve", "--problem", "custom", "--gamma", "1", "--n", "256"]
    for name, h in handles.items():
        path = tmp_path / f"{name}.csv"
        grids.write_csv(grids.project(h, g), path)
        args += [f"--{name}-csv", str(path)]
    code, out, err = run(args, capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err == "nfeq: invalid problem: phi(0.0) = 1.5 outside [0,1]\n"


def test_custom_problem_missing_tables(capsys):
    code, _, err = run(["solve", "--problem", "custom"], capsys)
    assert code == 1
    assert "missing" in err


# ---------------------------------------------------------------------------
# out-of-regime notice
# ---------------------------------------------------------------------------

NOTICE = ("notice: lipschitz_factor={} >= collocation_threshold=0.5: outside the "
          "paper's sufficient condition for collocation convergence{}\n")


@pytest.mark.parametrize("argv", [
    ["solve"],
    ["picard"],
    ["study", "--target", "smooth_parabola", "--nmin", "16", "--nmax", "128"],
])
def test_default_problem_prints_regime_notice(argv, capsys):
    # the default paradise(0.05, 0.2) has L = 0.5, on the threshold itself
    code, out, err = run(argv, capsys)
    assert code == 0 and out != ""
    assert err == NOTICE.format("0.5", "")


def test_regime_notice_follows_a_nonconverged_picard(capsys):
    with pytest.warns(UserWarning):
        code, _, err = run(["picard", "--n", "32", "--tol", "1e-15", "--max-iter", "1"],
                           capsys)
    assert code == 2
    assert err == NOTICE.format("0.5", "")


@pytest.mark.parametrize("problem_args", [
    ["--problem", "cusp"],
    ["--problem", "paradise", "--alpha", "0", "--beta", "0.2"],
])
@pytest.mark.parametrize("command", ["solve", "picard", "study"])
def test_in_regime_runs_print_no_notice(command, problem_args, capsys):
    argv = [command] + problem_args
    if command == "study":
        argv += ["--nmin", "16", "--nmax", "128"]
    code, out, err = run(argv, capsys)
    assert code == 0 and out != ""
    assert err == ""


def test_custom_problem_notice_says_norms_are_sampled(tmp_path, capsys):
    code, out, err = run(["solve"] + tabulated_problem_args(tmp_path, beta=0.6)
                         + ["--n", "16"], capsys)
    assert code == 0 and "solved N=16" in out
    assert err == NOTICE.format("1.2", " (sampled norms)")
    code, _, err = run(["solve"] + tabulated_problem_args(tmp_path) + ["--n", "16"],
                       capsys)
    assert code == 0 and err == ""


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, contents", [
    (["solve", "--n", "x"], None),
    (["solve", "--problem", "paradis"], None),
    (["solve", "--frobnicate"], None),
    (["--problem", "cusp"], None),
    (["solve", "@absent.args"], None),
    (["solve", "@run.args"], b"--output-csv 'a.csv\n"),
    (["@run.args"], b"picard\n--tol tiny\n"),
    (["solve", "@run.args"], b"--n \xff\xfe\n"),
    (["solve", "@run.args"], b"--n 8 @run.args\n"),
], ids=["bad int", "bad choice", "unknown flag", "missing subcommand", "missing file",
        "unclosed quote", "bad value in file", "undecodable file", "nested file"])
def test_every_usage_error_is_one_line(argv, contents, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if contents is not None:
        (tmp_path / "run.args").write_bytes(contents)
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("nfeq: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("command", ["solve", "picard", "interp-check"])
@pytest.mark.parametrize("message", [
    "Unable to allocate 7.28 TiB for an array with shape (1000000000001,) and data type "
    "float64", ""], ids=["numpy", "bare"])
def test_an_impossible_grid_is_one_line(command, message, monkeypatch, capsys):
    # the grid constructor raises as numpy's linspace does for --n 10^12,
    # without trying the allocation
    def refuse(self):
        raise MemoryError(message)

    monkeypatch.setattr(grids.UniformGrid, "__post_init__", refuse)
    line = message or "MemoryError"
    assert run([command, "--n", "1000000000000"], capsys) == (1, "", f"nfeq: {line}\n")


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_exits_ok(argv, capsys):
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert out != ""


def test_version_exits_ok(capsys):
    assert cli.main(["--version"]) == 0
    capsys.readouterr()


def test_unknown_flag(capsys):
    assert run(["solve", "--frobnicate"], capsys) == (
        1, "", "nfeq: unrecognized arguments: --frobnicate\n")


def test_missing_command(capsys):
    assert run([], capsys) == (1, "", "nfeq: the following arguments are required: "
                                      "command\n")
