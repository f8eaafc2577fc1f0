import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from nfeq import collocation, grids, problem, study
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


def singular_problem():
    """phi = 1 makes every interior row u_i - u_i = 0: a singular system."""
    return problem.ProblemSpec(phi=constant(1.0), phi1=identity(), phi2=identity(),
                               source=constant(0.0), boundary_left=0.0,
                               boundary_right=1.0, gamma=1.0)


def ladder_solves(monkeypatch):
    """Records what ``run_study``'s one ladder solve returns."""
    seen = []

    def recorded(p, ns):
        seen.append(collocation._solve_ladder(p, ns))
        return seen[-1]

    monkeypatch.setattr(study, "_solve_ladder", recorded)
    return seen


@pytest.mark.parametrize("case, ladder", [
    ("cusp", LADDER),
    ("section5", LADDER),
    ("product", LADDER),
    # 105 sweeps at N = 16, SuperLU from N = 1024 on
    ("paradise-slow", [2 ** k for k in range(4, 13)]),
    ("cusp", [30, 5, 12, 7]),
], ids=["cusp", "section5", "product", "paradise-slow", "cusp-unsorted"])
def test_run_study_solves_every_rung_as_solve_collocation(case, ladder, monkeypatch):
    spec = {"cusp": lambda: cusp_manufactured().problem,
            "section5": lambda: problem.section5(0.02, 0.5),
            "product": lambda: problem.paradise_fish(0.0, 0.2),
            "paradise-slow": lambda: problem.paradise_fish(0.05, 0.8)}[case]()
    seen = ladder_solves(monkeypatch)
    report = study.run_study(spec, exact=constant(0.0), n_ladder=ladder, fit_min_n=5)
    assert report.failure is None
    [(solutions, failure)] = seen
    assert failure is None and [s.grid.n for s in solutions] == sorted(ladder)
    for sol in solutions:
        ref = collocation.solve_collocation(spec, sol.grid.n)
        assert np.array_equal(sol.solution.values, ref.solution.values)
        assert sol.condition == ref.condition
        assert (sol.stats.sweeps, sol.stats.solver, sol.stats.nonzeros) == \
            (ref.stats.sweeps, ref.stats.solver, ref.stats.nonzeros)
    if case == "paradise-slow":
        assert {s.stats.solver for s in solutions} == {"sweep", "superlu"}


def test_run_study_singular_problem_fails_at_its_first_rung():
    with pytest.raises(collocation.CollocationError) as exc:
        collocation.solve_collocation(singular_problem(), 16)
    report = study.run_study(singular_problem(), exact=identity(), n_ladder=LADDER)
    assert report.ladder == []
    assert report.failure == f"N=16: {exc.value}"


def fallback_manufactured():
    """A parabola on paradise at beta = 0.8: on [16, 64, 256, 1024] N = 16
    sweeps and the rest fall back to SuperLU."""
    base = problem.paradise_fish(0.05, 0.8)
    return manufacture(smooth_parabola(), base.phi, base.phi1, base.phi2, base.gamma)


@pytest.mark.parametrize("case", ["cusp", "fallback"])
def test_run_study_runtime_is_at_least_the_rungs_own_stats(case, monkeypatch):
    seen = ladder_solves(monkeypatch)
    if case == "cusp":
        report = study.run_study(cusp_manufactured(), n_ladder=LADDER)
    else:
        report = study.run_study(fallback_manufactured(), n_ladder=[16, 64, 256, 1024])
    [(solutions, _)] = seen
    if case == "fallback":
        assert [s.stats.solver for s in solutions] == ["sweep"] + 3 * ["superlu"]
    for rung, sol in zip(report.ladder, solutions, strict=True):
        # the rest is the rung's own error measurement
        assert rung.runtime >= sol.stats.assembly_time + sol.stats.solve_time > 0.0


def test_run_study_runtime_is_the_stats_sum_plus_the_error_measurement(monkeypatch):
    # no other clock enters a rung's runtime: stats of 1 s and 2 s read
    # 3 s plus a measurement that takes well under 0.5 s
    def fixed(p, ns):
        solutions, failure = collocation._solve_ladder(p, ns)
        return [replace(sol, stats=replace(sol.stats, assembly_time=1.0, solve_time=2.0))
                for sol in solutions], failure

    monkeypatch.setattr(study, "_solve_ladder", fixed)
    report = study.run_study(cusp_manufactured(), n_ladder=LADDER)
    assert [r.n for r in report.ladder] == LADDER
    assert all(3.0 <= r.runtime < 3.5 for r in report.ladder)


def test_run_study_domain_error_names_the_later_rungs_own_node():
    # phi1 leaves [0, 1] only at node 1 of N = 30, which is no node of the
    # coarser rungs nor a sample point of validate
    base = problem.paradise_fish(0.0, 0.2)
    bad = grids.UniformGrid(30).nodes[1]
    spec = replace(base, phi1=FunctionHandle(
        eval=lambda t: np.where(np.isin(t, bad), 1.001, base.phi1(t)), label="spiked"))
    for n in (5, 7, 12):
        collocation.solve_collocation(spec, n)
    with pytest.raises(grids.DomainError) as own:
        collocation.solve_collocation(spec, 30)
    assert str(own.value).endswith("(collocation node 1)")
    with pytest.raises(grids.DomainError) as batched:
        study.run_study(spec, n_ladder=[30, 5, 12, 7], fit_min_n=5)
    assert str(batched.value) == str(own.value)
    assert batched.value.index == own.value.index
    with pytest.raises(grids.DomainError) as built:
        collocation.delay_map(spec, *(grids.UniformGrid(n) for n in (5, 7, 12, 30)))
    assert str(built.value) == str(own.value)


def test_run_study_refuses_fit_min_n_above_the_ladder(monkeypatch):
    # fewer than two rungs at or above fit_min_n could fit no order
    seen = ladder_solves(monkeypatch)
    for fit_min_n in (100000, 1025, 1024, 513):
        with pytest.raises(ValueError, match=rf"^--fit-min-n {fit_min_n} leaves fewer "
                                             r"than 2 rungs to fit: it can be at most "
                                             r"N=512$"):
            study.run_study(cusp_manufactured(), n_ladder=LADDER, fit_min_n=fit_min_n)
    assert seen == []
    # the two largest rungs still fit an order
    report = study.run_study(cusp_manufactured(), n_ladder=LADDER, fit_min_n=512)
    assert math.isfinite(report.fitted_order)
    assert report.notes == ["excluded 5 pre-asymptotic rungs (N < 512)"]


def test_run_study_refuses_error_samples_below_the_largest_n(monkeypatch):
    # m midpoint samples 1/m apart leave a cell of N = 1024 unsampled when
    # m < 1024; at m = 1024 each cell holds its own midpoint
    seen = ladder_solves(monkeypatch)
    for m in (1, 1023):
        with pytest.raises(ValueError, match=rf"^--error-samples {m} leaves cells of "
                                             r"N=1024 unsampled: it must be at least "
                                             r"1024$"):
            study.run_study(cusp_manufactured(), n_ladder=LADDER, m=m)
    assert seen == []
    report = study.run_study(cusp_manufactured(), n_ladder=LADDER, m=1024)
    assert report.failure is None and len(report.ladder) == len(LADDER)
    assert math.isfinite(report.fitted_order)


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
    monkeypatch.setattr(study, "_solve_ladder", lambda p, ns: solved.append(ns))
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
    report = study.run_study(bad, exact=identity(), n_ladder=[2, 4, 8, 16], m=65,
                             fit_min_n=2)
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
    report = study.run_study(bad, exact=identity(), n_ladder=[2, 4, 8, 16], m=65,
                             fit_min_n=2)
    line = study.summary_line(report)
    assert "partial" in line
