import numpy as np
import pytest

from nfeq import cli, grids
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
                          "--alpha", "0.05", "--beta", "0.2", "--gamma", "1",
                          "--analytic-norms"], capsys)
    assert code == 0
    assert "lipschitz_factor=0.5" in out
    assert "existence_by_corollary=True" in out
    assert "warning" not in err


def test_certify_sampled_norms_warn(capsys):
    code, out, err = run(["certify", "--problem", "section5"], capsys)
    assert code == 0
    assert "lower bounds" in err
    assert "satisfies_collocation=True" in out


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
    code, out, _ = run(["solve", "--problem", "paradise", "--alpha", "0",
                        "--beta", "0.2", "--n", "256", "--oracle", "product"],
                       capsys)
    assert code == 0
    assert "sup deviation" in out
    dev = float(out.split("sup deviation vs")[1].split(":")[1])
    assert dev <= 1e-3


def test_solve_large_n_stats(capsys):
    n = 65536
    code, out, _ = run(["solve", "--problem", "cusp", "--gamma", "0.5",
                        "--n", str(n), "--stats"], capsys)
    assert code == 0
    fields = dict(item.split("=", 1) for item in out.split() if "=" in item)
    assert np.isfinite(float(fields["condition"]))
    assert int(fields["nonzeros"]) <= 5 * (n - 1)


def test_solve_svg_output(tmp_path, capsys):
    path = tmp_path / "sol.svg"
    code, _, _ = run(["solve", "--problem", "cusp", "--gamma", "0.5",
                      "--n", "32", "--output-svg", str(path)], capsys)
    assert code == 0
    assert path.read_text().startswith("<svg")


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


# ---------------------------------------------------------------------------
# study
# ---------------------------------------------------------------------------

def test_study_cusp_outputs(tmp_path, capsys):
    csv_path = tmp_path / "study.csv"
    svg_path = tmp_path / "study.svg"
    code, out, _ = run(["study", "--problem", "cusp", "--gamma", "0.5",
                        "--alpha", "0.02", "--nmin", "16", "--nmax", "128",
                        "--error-samples", "1025",
                        "--output-csv", str(csv_path),
                        "--output-svg", str(svg_path)], capsys)
    assert code == 0
    assert "fitted_order=" in out
    fitted = float(out.split("fitted_order=")[1].split()[0])
    assert fitted == pytest.approx(0.5, abs=0.15)
    assert csv_path.exists() and svg_path.exists()


def test_study_requires_exact_solution(capsys):
    code, _, err = run(["study", "--problem", "paradise"], capsys)
    assert code == 1
    assert "exact solution" in err


def test_study_product_oracle_requires_alpha_zero(capsys):
    code, _, err = run(["study", "--problem", "paradise", "--oracle", "product"],
                       capsys)
    assert code == 1
    assert "alpha = 0" in err


# ---------------------------------------------------------------------------
# interp-check
# ---------------------------------------------------------------------------

def test_interp_check(capsys):
    code, out, _ = run(["interp-check", "--gamma", "0.5", "--trials", "10",
                        "--samples", "257", "--seed", "1"], capsys)
    assert code == 0
    assert out.count("PASS") == 2


# ---------------------------------------------------------------------------
# config files and custom problems
# ---------------------------------------------------------------------------

def test_config_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.1  # overrides the flag\n")
    code, out, _ = run(["certify", "--problem", "paradise", "--alpha", "0.05",
                        "--beta", "0.2", "--gamma", "1", "--analytic-norms",
                        "--config", str(cfg)], capsys)
    assert code == 0
    assert "lipschitz_factor=0.6" in out


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobnicate=1\n")
    code, _, err = run(["certify", "--config", str(cfg)], capsys)
    assert code == 1
    assert "unknown option" in err


def test_config_value_of_wrong_type(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=64.5\n")
    code, _, err = run(["solve", "--config", str(cfg)], capsys)
    assert code == 1
    assert err.count("\n") == 1
    assert "n: invalid int value '64.5'" in err


def test_config_unparseable_boolean(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("stats=ture\n")
    code, _, err = run(["solve", "--config", str(cfg)], capsys)
    assert code == 1
    assert err.count("\n") == 1
    assert "stats: expected one of" in err and "'ture'" in err


def test_custom_problem_from_csv(tmp_path, capsys):
    g = grids.UniformGrid(64)
    handles = {
        "phi": FunctionHandle(eval=lambda t: np.asarray(t, dtype=float)),
        "phi1": FunctionHandle(eval=lambda t: np.ones_like(np.asarray(t, float))),
        "phi2": FunctionHandle(eval=lambda t: 0.2 * np.asarray(t, dtype=float)),
    }
    paths = {}
    for name, h in handles.items():
        paths[name] = tmp_path / f"{name}.csv"
        grids.write_csv(grids.project(h, g), paths[name])
    code, out, _ = run(["solve", "--problem", "custom", "--gamma", "1",
                        "--phi-csv", str(paths["phi"]),
                        "--phi1-csv", str(paths["phi1"]),
                        "--phi2-csv", str(paths["phi2"]),
                        "--n", "16"], capsys)
    assert code == 0
    assert "solved N=16" in out


def test_custom_problem_missing_tables(capsys):
    code, _, err = run(["solve", "--problem", "custom"], capsys)
    assert code == 1
    assert "missing" in err


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def test_version_exits_ok(capsys):
    assert cli.main(["--version"]) == 0
    capsys.readouterr()


def test_unknown_flag(capsys):
    assert cli.main(["solve", "--frobnicate"]) == 1
    capsys.readouterr()


def test_missing_command(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()
