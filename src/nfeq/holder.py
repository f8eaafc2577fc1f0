"""Sampled Hoelder-space norms and the certified inequalities behind them.

All estimates are pairwise maxima over finite sample sets and therefore
lower bounds on the true norms. The pair scan visits each unordered pair
once, in row blocks of bounded size, so its memory grows only linearly in
the sample count. It takes several functions sampled on the same points at
once and builds each block's distances |t_i - t_j|^gamma once for all of
them; the projector-norm study and the product bound scan that way.

Two shortcuts skip pairs that cannot change a result. The Lipschitz norms
take only adjacent samples: a chord slope over sorted samples is a weighted
mean of the adjacent slopes it spans, so the largest adjacent slope is the
pair maximum in exact arithmetic (in floats it is never above the pair scan,
whose own adjacent quotients it is, and within a few ulps of it). The
projector-norm study (``grids.measure_projector_norm``) bounds a
piecewise-linear function's sampled seminorm by its node-pair seminorm and
scans a projection only when that bound could raise the maximum. Checks
report (lhs, rhs, margin) instead of a bare boolean so near-equality cases
stay diagnosable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import eval_on

DEFAULT_SAMPLES = 513
#: pairs closer than this are skipped (0/0 quotient)
MIN_PAIR_SEPARATION = 1e-14
#: rows of the pair scan compared at once against the columns to their right
PAIR_BLOCK_ROWS = 64


def uniform_samples(m: int) -> np.ndarray:
    if m < 2:
        raise ValueError(f"need at least 2 samples, got {m}")
    return np.linspace(0.0, 1.0, m)


def pairwise_seminorm(ts: np.ndarray, vals: np.ndarray, gamma: float):
    """max over sample pairs of |v_i - v_j| / |t_i - t_j|^gamma.

    ``vals`` is one function's samples, shape (m,), giving a float, or K
    functions sampled on the same points, shape (K, m), giving K maxima.
    Scans each pair once, i < j, in blocks of PAIR_BLOCK_ROWS rows: rows
    [lo, hi) meet columns lo: only, since |a - b| == |b - a| exactly. Each
    block's distances |t_i - t_j|^gamma are built once and shared by the K
    rows, in two reused block buffers whatever K is.
    """
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(vals, dtype=float)
    rows = np.atleast_2d(vals)
    m = ts.size
    if vals.ndim > 2 or rows.shape[1] != m:
        raise ValueError(f"vals of shape {vals.shape} do not match {m} sample points")
    best = np.zeros(rows.shape[0])
    width = min(PAIR_BLOCK_ROWS, m)
    dt_buf, dv_buf = np.empty(width * m), np.empty(width * m)
    for lo in range(0, m, PAIR_BLOCK_ROWS):
        hi = min(lo + PAIR_BLOCK_ROWS, m)
        shape = (hi - lo, m - lo)
        size = shape[0] * shape[1]
        dt = np.subtract(ts[lo:hi, None], ts[None, lo:],
                         out=dt_buf[:size].reshape(shape))
        np.abs(dt, out=dt)
        # skipped pairs get quotient 0: dv / inf
        dt[dt < MIN_PAIR_SEPARATION] = np.inf
        dt **= gamma  # the operator keeps numpy's sqrt fast path for 0.5
        dv = dv_buf[:size].reshape(shape)
        for k, v in enumerate(rows):
            np.subtract(v[lo:hi, None], v[None, lo:], out=dv)
            np.abs(dv, out=dv)
            dv /= dt
            best[k] = max(best[k], dv.max())
    return float(best[0]) if vals.ndim < 2 else best


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
    return estimate_lipschitz_norms([f], m)[0]


def estimate_lipschitz_norms(fs, m: int = DEFAULT_SAMPLES) -> list[float]:
    """|f(0)| plus the Lipschitz seminorm of each f: the largest adjacent slope.

    The pair scan's own adjacent quotients, so never above
    ``pairwise_seminorm(ts, vals, 1.0)``, and equal to it in exact
    arithmetic (module docstring).
    """
    ts = uniform_samples(m)
    vals = np.stack([eval_on(f, ts) for f in fs])
    slopes = np.abs(np.diff(vals, axis=1))
    slopes /= np.diff(ts)
    return [float(n) for n in np.abs(vals[:, 0]) + slopes.max(axis=1)]


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
    sems = pairwise_seminorm(ts, np.stack((fv * gv, fv, gv)), gamma)
    sem_fg, sem_f, sem_g = map(float, sems)
    lhs = boundary + sem_fg
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
