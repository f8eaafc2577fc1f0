import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from nfeq import collocation, problem, study
from nfeq.functions import EvaluationError, FunctionHandle, constant, eval_on, identity
from nfeq.oracles import cusp_solution, manufacture, product_solution, smooth_parabola

#: the refinement ladder of criteria 1-2 and of the study-ladder workload
LADDER = [2 ** k for k in range(4, 11)]


def smooth_manufactured():
    p = problem.paradise_fish(0.05, 0.2, 1.0)
    return manufacture(smooth_parabola(), p.phi, p.phi1, p.phi2, 1.0,
                       description="parabola on paradise")


def test_error_sample_points_avoid_dyadic_nodes():
    ts = study.error_sample_points(4097)
    assert ts.min() > 0.0 and ts.max() < 1.0
    # only the single sample t = 1/2 coincides with a node of the finest
    # dyadic grid; most samples stay far off-node
    dist = np.abs(ts - np.round(ts * 4096) / 4096)
    assert np.count_nonzero(dist < 1e-12) == 1
    assert float(np.median(dist)) > 1e-5


def test_error_sample_points_validation():
    with pytest.raises(ValueError):
        study.error_sample_points(0)


def test_fit_order_exact_line():
    slope, resid = study.fit_order([(0.1, 0.01), (0.01, 0.0001)])
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert resid <= 1e-12


def test_fit_order_power_law():
    hs = [0.5 ** k for k in range(1, 6)]
    slope, resid = study.fit_order([(h, 3.7 * h ** 0.75) for h in hs])
    assert slope == pytest.approx(0.75, abs=1e-12)
    assert resid <= 1e-12


def test_fit_order_scale_invariance():
    pts = [(0.5 ** k, 0.5 ** (0.6 * k) * (1 + 0.01 * k)) for k in range(1, 7)]
    s1, _ = study.fit_order(pts)
    s2, _ = study.fit_order([(h, 100.0 * e) for h, e in pts])
    assert abs(s1 - s2) <= 1e-12


def test_fit_order_excludes_nonpositive():
    with pytest.raises(study.FitError):
        study.fit_order([(0.1, 0.0), (0.01, -1.0)])
    slope, _ = study.fit_order([(0.1, 0.0), (0.5, 0.25), (0.25, 0.0625)])
    assert slope == pytest.approx(2.0, abs=1e-12)


def cusp_manufactured():
    base = problem.section5(0.02, 0.5)
    return manufacture(cusp_solution(0.5), base.phi, base.phi1, base.phi2, 0.5,
                       description="cusp gamma=0.5")


def count_validate(monkeypatch) -> list:
    """Counts ``validate`` calls through the names study and collocation use."""
    calls = []

    def counted(p, *args, **kwargs):
        calls.append(p)
        return problem.validate(p, *args, **kwargs)

    monkeypatch.setattr(study, "validate", counted)
    monkeypatch.setattr(collocation, "validate", counted)
    return calls


def test_run_study_validates_once(monkeypatch):
    calls = count_validate(monkeypatch)
    manu = cusp_manufactured()
    report = study.run_study(manu, n_ladder=LADDER)
    assert len(report.ladder) == 7 and report.failure is None
    assert calls == [manu.problem]


def test_solve_collocation_validates_every_call(monkeypatch):
    calls = count_validate(monkeypatch)
    spec = cusp_manufactured().problem
    for n in (16, 32):
        collocation.solve_collocation(spec, n)
    assert calls == [spec, spec]


@pytest.mark.parametrize("case", ["cusp", "product"])
def test_run_study_rungs_equal_solve_collocation(case):
    if case == "cusp":
        manu = cusp_manufactured()
        spec, exact = manu.problem, manu.exact
    else:
        spec, exact = problem.paradise_fish(0.0, 0.2), product_solution(0.2)
    report = study.run_study(spec, exact=exact, n_ladder=LADDER)
    ts = study.error_sample_points(study.DEFAULT_ERROR_SAMPLES)
    exact_vals = eval_on(exact, ts)
    expected = [float(np.abs(collocation.solve_collocation(spec, n).solution.evaluate(ts)
                             - exact_vals).max()) for n in LADDER]
    assert [r.n for r in report.ladder] == LADDER
    assert [r.sup_error for r in report.ladder] == expected


def test_run_study_falls_back_to_the_spec_exact_solution():
    spec = problem.paradise_fish(0.0, 0.2)
    own = study.run_study(spec, n_ladder=LADDER)
    given = study.run_study(spec, exact=product_solution(0.2), n_ladder=LADDER)
    assert [r.sup_error for r in own.ladder] == [r.sup_error for r in given.ladder]
    # an exact solution passed in wins over the spec's own
    zero = study.run_study(spec, exact=constant(0.0), n_ladder=LADDER)
    assert zero.ladder[-1].sup_error > 0.5


def test_run_study_refuses_invalid_problem_before_any_rung(monkeypatch):
    solved = []
    monkeypatch.setattr(study, "_solve", lambda p, n: solved.append(n))
    spec = replace(problem.paradise_fish(0.0, 0.2), phi=constant(1.5))
    with pytest.raises(problem.ProblemValidationError) as info:
        study.run_study(spec, exact=product_solution(0.2), n_ladder=LADDER)
    assert str(info.value) == "invalid problem: phi(0.0) = 1.5 outside [0,1]"
    assert solved == []


def test_run_study_evaluates_exact_before_validation(monkeypatch):
    calls = count_validate(monkeypatch)
    nan = FunctionHandle(eval=lambda t: np.full_like(np.asarray(t, float), np.nan),
                         label="nan")
    with pytest.raises(EvaluationError):
        study.run_study(problem.paradise_fish(0.0, 0.2), exact=nan, n_ladder=LADDER)
    assert calls == []


def test_run_study_smooth_problem():
    report = study.run_study(smooth_manufactured(), n_ladder=[4, 8, 16, 32, 64],
                             m=1025, smoothness_k=1)
    assert [r.n for r in report.ladder] == [4, 8, 16, 32, 64]
    assert report.theory_order == 2.0
    assert report.failure is None
    assert all(r.sup_error > 0 and math.isfinite(r.sup_error) for r in report.ladder)
    assert any("pre-asymptotic" in note for note in report.notes)
    # errors decrease under refinement
    errs = [r.sup_error for r in report.ladder]
    assert errs == sorted(errs, reverse=True)


def test_run_study_deterministic():
    a = study.run_study(smooth_manufactured(), n_ladder=[4, 8, 16, 32], m=257)
    b = study.run_study(smooth_manufactured(), n_ladder=[4, 8, 16, 32], m=257)
    assert [r.sup_error for r in a.ladder] == [r.sup_error for r in b.ladder]
    assert a.fitted_order == b.fitted_order


def test_run_study_records_solver_failure():
    bad = problem.ProblemSpec(phi=constant(1.0), phi1=identity(), phi2=identity(),
                              source=constant(0.0), boundary_left=0.0,
                              boundary_right=1.0, gamma=1.0)
    report = study.run_study(bad, exact=identity(), n_ladder=[2, 4, 8, 16], m=65)
    assert report.failure is not None and "N=2" in report.failure
    assert report.ladder == []
    assert math.isnan(report.fitted_order)


def test_run_study_input_validation():
    manu = smooth_manufactured()
    with pytest.raises(ValueError):
        study.run_study(manu, n_ladder=[4, 8, 16], m=65)  # too few rungs
    with pytest.raises(ValueError):
        study.run_study(manu, n_ladder=[1, 2, 4, 8], m=65)  # rung below 2
    with pytest.raises(ValueError):
        study.run_study(problem.paradise_fish(0.05, 0.2, 1.0),
                        n_ladder=[4, 8, 16, 32], m=65)  # no exact solution


def test_report_csv(tmp_path):
    report = study.run_study(smooth_manufactured(), n_ladder=[4, 8, 16, 32], m=257)
    path = tmp_path / "report.csv"
    study.write_report_csv(report, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["N", "h", "error", "runtime"]
    assert len(rows) == 5
    assert float(rows[1][2]) == report.ladder[0].sup_error


def test_report_csv_bytes(tmp_path):
    rungs = [study.LadderRung(16, 0.0625, 0.1, 0.002),
             study.LadderRung(32, 0.03125, 0.07, 0.25)]
    report = study.ConvergenceReport(problem_label="x", gamma=0.5, ladder=rungs,
                                     fitted_order=0.5, fit_residual=0.0,
                                     theory_order=0.5)
    path = tmp_path / "report.csv"
    study.write_report_csv(report, path)
    assert path.read_bytes() == (b"N,h,error,runtime\r\n"
                                 b"16,0.0625,0.10000000000000001,0.002\r\n"
                                 b"32,0.03125,0.070000000000000007,0.25\r\n")


def test_summary_line_mentions_partial_failure():
    bad = problem.ProblemSpec(phi=constant(1.0), phi1=identity(), phi2=identity(),
                              source=constant(0.0), boundary_left=0.0,
                              boundary_right=1.0, gamma=1.0)
    report = study.run_study(bad, exact=identity(), n_ladder=[2, 4, 8, 16], m=65)
    line = study.summary_line(report)
    assert "partial" in line
