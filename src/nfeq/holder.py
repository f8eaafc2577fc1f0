"""Sampled Hoelder-space norms and the certified inequalities behind them.

All estimates are pairwise maxima over finite sample sets and therefore
lower bounds on the true norms. The pair scan visits each unordered pair
once, in row blocks of bounded size, so its memory grows only linearly in
the sample count. Checks report (lhs, rhs, margin) instead of a bare
boolean so near-equality cases stay diagnosable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import FunctionHandle, eval_on

DEFAULT_SAMPLES = 513
#: pairs closer than this are skipped (0/0 quotient)
MIN_PAIR_SEPARATION = 1e-14
#: rows of the pair scan compared at once against the columns to their right
PAIR_BLOCK_ROWS = 64
#: finite-difference step for derivative estimation
FD_STEP = 1e-6


def uniform_samples(m: int) -> np.ndarray:
    if m < 2:
        raise ValueError(f"need at least 2 samples, got {m}")
    return np.linspace(0.0, 1.0, m)


def pairwise_seminorm(ts: np.ndarray, vals: np.ndarray, gamma: float) -> float:
    """max over sample pairs of |v_i - v_j| / |t_i - t_j|^gamma.

    Scans each pair once, i < j, in blocks of PAIR_BLOCK_ROWS rows: rows
    [lo, hi) meet columns lo: only, since |a - b| == |b - a| exactly.
    """
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(vals, dtype=float)
    best = 0.0
    for lo in range(0, ts.size, PAIR_BLOCK_ROWS):
        hi = min(lo + PAIR_BLOCK_ROWS, ts.size)
        dt = np.abs(ts[lo:hi, None] - ts[None, lo:])
        dv = np.abs(vals[lo:hi, None] - vals[None, lo:])
        # skipped pairs get quotient 0: dv / inf
        dt[dt < MIN_PAIR_SEPARATION] = np.inf
        dt **= gamma  # the operator keeps numpy's sqrt fast path for 0.5
        dv /= dt
        m = float(dv.max())
        if m > best:
            best = m
    return best


@dataclass(frozen=True)
class HoelderEstimate:
    gamma: float
    boundary_term: float
    seminorm: float
    norm: float
    sample_count: int


@dataclass(frozen=True)
class CheckReport:
    name: str
    lhs: float
    rhs: float
    margin: float
    passed: bool


def _report(name: str, lhs: float, rhs: float, slack: float = 0.0) -> CheckReport:
    return CheckReport(name, lhs, rhs, rhs - lhs, bool(lhs <= rhs + slack))


def _check_gamma(gamma: float) -> None:
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")


def estimate_hoelder_norm(f, gamma: float, m: int = DEFAULT_SAMPLES) -> HoelderEstimate:
    """|f(0)| plus the pairwise difference-quotient maximum on m uniform samples."""
    _check_gamma(gamma)
    ts = uniform_samples(m)
    vals = eval_on(f, ts)
    sem = pairwise_seminorm(ts, vals, gamma)
    b = abs(float(vals[0]))
    return HoelderEstimate(gamma=gamma, boundary_term=b, seminorm=sem,
                           norm=b + sem, sample_count=m)


def estimate_sup_norm(f, m: int = DEFAULT_SAMPLES) -> float:
    ts = uniform_samples(m)
    return float(np.abs(eval_on(f, ts)).max())


def estimate_lipschitz_norm(f, m: int = DEFAULT_SAMPLES) -> float:
    return estimate_hoelder_norm(f, 1.0, m).norm


def estimate_c1_hoelder_norm(f, gamma: float, m: int = DEFAULT_SAMPLES) -> float:
    """Norm of the derivative, ||f'||_gamma.

    Uses the handle's analytic derivative when present, otherwise central
    differences at step FD_STEP (clamped so stencils stay inside [0, 1]).
    """
    _check_gamma(gamma)
    deriv = getattr(f, "deriv", None)
    if deriv is not None:
        d = FunctionHandle(eval=deriv, label=f"{getattr(f, 'label', 'f')}'")
        return estimate_hoelder_norm(d, gamma, m).norm
    ts = uniform_samples(m)
    tc = np.clip(ts, FD_STEP, 1.0 - FD_STEP)
    dvals = (eval_on(f, tc + FD_STEP) - eval_on(f, tc - FD_STEP)) / (2.0 * FD_STEP)
    sem = pairwise_seminorm(ts, dvals, gamma)
    return abs(float(dvals[0])) + sem


def check_embedding_inequality(f, gamma: float, beta: float,
                               m: int = DEFAULT_SAMPLES,
                               slack: float = 0.0) -> list[CheckReport]:
    """On [0,1]: ||f||_gamma <= ||f||_beta for gamma < beta, and ||f||_inf <= ||f||_gamma.

    Both sides use the same sample set, which makes the sampled inequalities
    exact consequences of the pointwise ones.
    """
    if not 0.0 < gamma < beta <= 1.0:
        raise ValueError(f"need 0 < gamma < beta <= 1, got gamma={gamma}, beta={beta}")
    ts = uniform_samples(m)
    vals = eval_on(f, ts)
    b = abs(float(vals[0]))
    norm_g = b + pairwise_seminorm(ts, vals, gamma)
    norm_b = b + pairwise_seminorm(ts, vals, beta)
    sup = float(np.abs(vals).max())
    return [
        _report("embedding ||f||_gamma <= ||f||_beta", norm_g, norm_b, slack),
        _report("embedding ||f||_inf <= ||f||_gamma", sup, norm_g, slack),
    ]


def check_product_bound(f, g, gamma: float, m: int = DEFAULT_SAMPLES,
                        slack: float = 0.0) -> CheckReport:
    """Banach-algebra bound for f*g in the gamma-norm.

    lhs is the sampled norm of the product (exact |f(0)g(0)| boundary term
    plus sampled seminorm); rhs is the sup/seminorm cross bound plus the
    same boundary term.
    """
    _check_gamma(gamma)
    ts = uniform_samples(m)
    fv = eval_on(f, ts)
    gv = eval_on(g, ts)
    boundary = abs(float(fv[0]) * float(gv[0]))
    lhs = boundary + pairwise_seminorm(ts, fv * gv, gamma)
    sem_f = pairwise_seminorm(ts, fv, gamma)
    sem_g = pairwise_seminorm(ts, gv, gamma)
    sup_f = float(np.abs(fv).max())
    sup_g = float(np.abs(gv).max())
    rhs = sup_f * sem_g + sup_g * sem_f + boundary
    return _report("product ||f*g||_gamma bound", lhs, rhs, slack)


def check_composition_bound(f, phi, gamma: float, m: int = DEFAULT_SAMPLES,
                            slack: float = 0.0) -> list[CheckReport]:
    """Bounds for the composition f(phi(t)) with Lipschitz phi: [0,1] -> [0,1].

    Verifies (in order): finiteness of the sampled gamma-norm of the
    composition, the norm bound through |f(phi(0))| and the Lipschitz
    seminorm of phi, and -- when f(0)=0 -- the pointwise bound
    |f(phi(t))| <= ||f||_gamma * ||phi||_1^gamma.

    The inner seminorm of f is taken over the uniform grid enriched with the
    image phi(grid) so every sampled quotient is covered by the sampled sup.
    """
    _check_gamma(gamma)
    ts = uniform_samples(m)
    phis = eval_on(phi, ts)
    if phis.min() < -1e-12 or phis.max() > 1.0 + 1e-12:
        raise ValueError(
            f"phi must map [0,1] into [0,1]; sampled range "
            f"[{phis.min():.3g}, {phis.max():.3g}]")
    phis = np.clip(phis, 0.0, 1.0)

    comp = eval_on(f, phis)
    b_comp = abs(float(comp[0]))
    norm_comp = b_comp + pairwise_seminorm(ts, comp, gamma)

    enriched = np.unique(np.concatenate([ts, phis]))
    f_enr = eval_on(f, enriched)
    f0 = float(eval_on(f, np.array([0.0]))[0])
    sem_f = pairwise_seminorm(enriched, f_enr, gamma)
    norm_f = abs(f0) + sem_f

    phi0 = float(phis[0])
    lip_phi = pairwise_seminorm(ts, phis, 1.0)
    norm_phi_lip = abs(phi0) + lip_phi

    reports = [
        _report("composition gamma-norm finite", norm_comp, math.inf),
        _report("composition norm bound",
                norm_comp, abs(float(comp[0])) + sem_f * lip_phi ** gamma, slack),
    ]
    if abs(f0) <= 1e-12:
        pointwise = float(np.abs(comp).max())
        reports.append(_report("composition pointwise bound",
                               pointwise, norm_f * norm_phi_lip ** gamma, slack))
    return reports
