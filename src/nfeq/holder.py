"""Sampled Hoelder-space norms and the certified inequalities behind them.

All estimates are pairwise maxima over finite sample sets and therefore
lower bounds on the true norms. ``pairwise_seminorm`` takes one or several
functions sampled on the same points and returns, for each, the maximum of
|v_i - v_j| / |t_i - t_j|^gamma over all pairs: bit for bit what a scan of
every pair returns, from a small fraction of the pairs.

It is a branch-and-bound over tiles I x J, pairs of blocks of the sorted
samples (Lipschitz branch-and-bound, Shubert 1972, run over pairs of blocks
as in dual-tree algorithms). Dyadic blocks of TILE_LEAF samples and up carry
their value range and their largest adjacent slope, the step into the next
block included. For 0 < gamma <= 1 every pair (a, b) of a tile obeys two
bounds, and the tile's bound is the smaller:

- oscillation: with g = t_first(J) - t_last(I), the gap from I to J,
  |v_a - v_b| / |t_a - t_b|^gamma <= max(max_J v - min_I v, max_I v -
  min_J v) / g^gamma. Scanned pairs are at least MIN_PAIR_SEPARATION apart,
  so g is taken no smaller, which makes the bound hold for I = J too;
- Lipschitz, for J = I or J the block after I: a chord of sorted samples is
  the sum of the adjacent steps it spans, each counted in the slope of I or
  of J, so with L the larger of the two and s the span of I u J,
  |v_a - v_b| <= L |t_a - t_b| and the quotient is at most L s^(1 - gamma).
  It is the only bound that prunes next to the diagonal, where g is one
  sample spacing.

Each function's running maximum starts at its adjacent-pair quotients.
Refinement is depth first: a stack holds batches of at most MAX_LIVE_TILES
tiles of one level, starting from all pairs of the top level's at most
TOP_BLOCKS blocks. Each batch popped adds one witness pair per live tile,
(first of I, last of J), computed by the scan's own float steps
(``_pair_distances``, ``_divide``), so the running maximum is always a
member of the maximum; it spans the tile, so on smooth data its quotient
comes near the tile's bound. A tile is dropped where its bound is <= the
running maximum. Above the leaves the rest split in four (less the
children below the diagonal) and go back on the stack, first batch on top;
at the leaves they are gathered and scanned LEAF_CHUNK at a time. The
stack holds a few batches per level, whatever K and m, which bounds memory.

Why pruning cannot change the float maximum: the bounds hold for exact
quotients, while the scan and the bounds compute in floats, each step
correctly rounded (numpy's power to a few ulps), except that a product or a
quotient that underflows errs by up to half the least subnormal instead. So
a scanned quotient exceeds its exact value, and a float bound falls short of
its exact one, by less than a relative 32 eps plus a few such halves. Each
bound is multiplied by 1 + BOUND_REL (1e-9) and raised by BOUND_ULPS ulps
(np.spacing, at least the least subnormal, where a relative allowance alone
would underflow to 0); the adjacent slopes get the same allowance before
the Lipschitz bound multiplies them by s^(1 - gamma), which could scale up
their underflow error. Every quotient of a dropped tile is then <= a member
of the maximum. A NaN or infinite bound never drops a tile.

Ties keep tiles whose quotients equal the maximum up to rounding. A tile of
one value has only zero quotients and is dropped outright; other tied tiles
(affine data at gamma = 1, where every chord ties) reach the leaves and are
scanned there. For an exponent outside (0, 1] the bounds fail, so they are
taken as inf: nothing is pruned and the leaf scan covers every pair.

The Lipschitz norms take only adjacent samples: by the Lipschitz bound the
largest adjacent slope is the pair maximum in exact arithmetic (in floats
it is never above the pair scan, whose own adjacent quotients it is, by
``_adjacent_quotients``, and within a few ulps of it). The projector-norm study
(``grids.measure_projector_norm``) bounds a piecewise-linear function's
sampled seminorm by its node-pair seminorm, and a trial's norm from below
by ``_stride_seminorms``, the scan's own quotients over pairs a power of
two apart (``_adjacent_quotients`` at strides 1, 2, 4, ...). Their quotient
U_k bounds the trial's ratio, so the study takes exact norms and scans
projections only for trials with U_k above the running maximum: rounding
is monotone, so the others cannot raise it. Checks report (lhs, rhs, margin)
instead of a bare boolean so near-equality cases stay diagnosable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functions import BOUNDARY_TOL, clamp_unit, eval_on

DEFAULT_SAMPLES = 513
#: pairs closer than this are skipped (0/0 quotient)
MIN_PAIR_SEPARATION = 1e-14
#: samples per leaf block of the tile branch-and-bound
TILE_LEAF = 8
#: most blocks of the top level, whose block pairs are the first tiles. A
#: batch costs far more than a tile: 64, not 8, takes certify's m = 2049 scan
#: from 7 batches (159 tiles) to 4 (617), and 50 cusp trials at m = 513 from
#: 5 (19,280 tiles) to 2 (35,168)
TOP_BLOCKS = 64
#: most tiles in one batch of the refinement stack
MAX_LIVE_TILES = 1 << 16
#: leaf tiles gathered at once by the leaf scan
LEAF_CHUNK = 512
#: tile bounds: relative allowance for the float rounding (module docstring)
BOUND_REL = 1e-9
#: tile bounds: underflow allowance, in ulps of the bound
BOUND_ULPS = 4


def uniform_samples(m: int) -> np.ndarray:
    if m < 2:
        raise ValueError(f"need at least 2 samples, got {m}")
    return np.linspace(0.0, 1.0, m)


def _pair_distances(dt: np.ndarray, gamma: float) -> np.ndarray:
    """t_i - t_j in place to |t_i - t_j|^gamma, skipped pairs to inf."""
    np.abs(dt, out=dt)
    # skipped pairs get quotient 0: dv / inf
    dt[dt < MIN_PAIR_SEPARATION] = np.inf
    dt **= gamma  # the operator keeps numpy's sqrt fast path for 0.5
    return dt


def _divide(dv: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """v_i - v_j in place to the quotient |v_i - v_j| / dt."""
    np.abs(dv, out=dv)
    dv /= dt
    return dv


def _adjacent_quotients(t: np.ndarray, v: np.ndarray, gamma: float,
                        stride: int = 1) -> np.ndarray:
    """|v_{i+s} - v_i| / |t_{i+s} - t_i|^gamma per function for stride s,
    as the pair scan takes them."""
    return _divide(v[:, stride:] - v[:, :-stride],
                   _pair_distances(t[stride:] - t[:-stride], gamma))


def _stride_seminorms(ts: np.ndarray, vals: np.ndarray, gamma: float) -> np.ndarray:
    """Per row of vals (K, m), the largest quotient over sample pairs whose
    indices are a power of two apart: a lower bound on ``pairwise_seminorm``.

    Every quotient is one of the pair scan's own, by its float steps, so
    the bound is never above the pair scan's maximum, bit for bit.
    """
    best = np.zeros(vals.shape[0])
    stride = 1
    while stride < ts.size:
        np.maximum(best, _adjacent_quotients(ts, vals, gamma, stride).max(axis=1), out=best)
        stride *= 2
    return best


def _allow(bound: np.ndarray) -> np.ndarray:
    """bound (1 + BOUND_REL) + BOUND_ULPS ulps: the float allowance."""
    out = bound * (1.0 + BOUND_REL)
    out += BOUND_ULPS * np.spacing(bound)
    return out


def pairwise_seminorm(ts: np.ndarray, vals: np.ndarray, gamma: float):
    """max over sample pairs of |v_i - v_j| / |t_i - t_j|^gamma.

    ``vals`` is one function's samples, shape (m,), giving a float, or K
    functions sampled on the same points, shape (K, m), giving K maxima.
    The points need not be sorted or distinct; pairs closer than
    MIN_PAIR_SEPARATION are skipped. For finite samples the result equals
    a scan of every pair, bit for bit, by the tile branch-and-bound of the
    module docstring: the points are sorted once (which leaves the set of
    pair quotients unchanged), and memory stays linear in K m.
    """
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(vals, dtype=float)
    rows = np.atleast_2d(vals)
    m = ts.size
    if vals.ndim > 2 or rows.shape[1] != m:
        raise ValueError(f"vals of shape {vals.shape} do not match {m} sample points")
    best = np.zeros(rows.shape[0])
    if m > 1:
        t, v = ts, rows
        if np.any(ts[1:] < ts[:-1]):
            order = np.argsort(ts, kind="stable")
            t, v = ts[order], rows[:, order]
        best = _adjacent_quotients(t, v, gamma).max(axis=1)
        # bounds may be inf or NaN (duplicate points), which keeps tiles
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            _refine(t, v, gamma, best)
    return float(best[0]) if vals.ndim < 2 else best


def _block_levels(v: np.ndarray, slopes: np.ndarray) -> list:
    """Per dyadic level, from TILE_LEAF samples up to at most TOP_BLOCKS blocks.

    ``slopes`` are the allowed adjacent slopes, slopes[:, i] from sample i
    to i + 1. Each level is (vmin, vmax, lip), flat over (function k, block
    b) at k * width + b: the block's value range and its largest adjacent
    slope, the step to the next block included. A lone last block gets an
    empty sibling, which never wins a min, a max or a slope.
    """
    k, m = v.shape
    width = -(-m // TILE_LEAF)
    # leaves as (offset in block, function, block): reductions over offsets
    # run along contiguous rows; copies of the last sample fill the last leaf
    vt = np.empty((k, width * TILE_LEAF))
    vt[:, :m] = v
    vt[:, m:] = v[:, m - 1:]
    vt = vt.reshape(k, width, TILE_LEAF).transpose(2, 0, 1).copy()
    st = np.zeros((k, width * TILE_LEAF))
    st[:, :m - 1] = slopes
    st = st.reshape(k, width, TILE_LEAF).transpose(2, 0, 1).copy()
    level = (vt.min(axis=0), vt.max(axis=0), st.max(axis=0))
    levels = [tuple(a.ravel() for a in level)]
    while width > TOP_BLOCKS:
        if width % 2:
            level = tuple(np.concatenate((a, np.full((k, 1), c)), axis=1)
                          for a, c in zip(level, (np.inf, -np.inf, 0.0)))
        level = tuple(f(a[:, 0::2], a[:, 1::2])
                      for f, a in zip((np.minimum, np.maximum, np.maximum), level))
        width = level[0].shape[1]
        levels.append(tuple(a.ravel() for a in level))
    return levels


def _allowed_slopes(t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """|v_{i+1} - v_i| / (t_{i+1} - t_i) per function, with the float allowance."""
    slopes = np.abs(np.diff(v, axis=1))
    slopes /= np.diff(t)
    return _allow(slopes)


def _tile_bounds(t: np.ndarray, level: tuple, size: int, tk: np.ndarray,
                 ti: np.ndarray, tj: np.ndarray, gamma: float) -> tuple:
    """Allowed bounds on the quotients of the tiles (k, i, j) and their oscillations.

    ``level`` is the ``_block_levels`` level of blocks of ``size`` samples;
    the bounds are those of the module docstring, and inf for an exponent
    outside (0, 1], where they fail.
    """
    vmin, vmax, lip = level
    m = t.size
    width = -(-m // size)
    first = np.arange(0, m, size)
    last = np.minimum(first + size, m) - 1
    ii, jj = tk * width + ti, tk * width + tj
    osc = np.maximum(vmax[jj] - vmin[ii], vmax[ii] - vmin[jj])
    if not 0.0 < gamma <= 1.0:
        return np.full(osc.shape, np.inf), osc
    gap = t[first[tj]] - t[last[ti]]
    np.maximum(gap, MIN_PAIR_SEPARATION, out=gap)
    bound = osc / gap ** gamma
    chord = np.maximum(lip[ii], lip[jj])
    chord *= (t[last[tj]] - t[first[ti]]) ** (1.0 - gamma)
    np.minimum(bound, chord, out=bound, where=tj - ti <= 1)
    return _allow(bound), osc


def _refine(t: np.ndarray, v: np.ndarray, gamma: float, best: np.ndarray) -> None:
    """Refine tiles depth first, raising best by their witnesses and leaf pairs."""
    k, m = v.shape
    flat = v.ravel()
    levels = _block_levels(v, _allowed_slopes(t, v))
    # leaves padded with copies of the last sample, whose pairs are real pairs
    padded = np.minimum(np.arange(-(-m // TILE_LEAF) * TILE_LEAF), m - 1)
    tp = t[padded].reshape(-1, TILE_LEAF)
    vp = v[:, padded].reshape(k, -1, TILE_LEAF)
    # every pair of the top level's blocks
    ti, tj = np.triu_indices(levels[-1][0].size // k)
    stack = [(len(levels) - 1, np.repeat(np.arange(k), ti.size), np.tile(ti, k),
              np.tile(tj, k))]
    while stack:
        lev, tk, ti, tj = stack.pop()
        if tk.size > MAX_LIVE_TILES:
            # memory: the first batch on top of the rest
            cut = MAX_LIVE_TILES
            stack.append((lev, tk[cut:], ti[cut:], tj[cut:]))
            stack.append((lev, tk[:cut], ti[:cut], tj[:cut]))
            continue
        size = TILE_LEAF << lev
        bound, osc = _tile_bounds(t, levels[lev], size, tk, ti, tj, gamma)
        # a tile of one value has only zero quotients
        keep = ~(bound <= best[tk]) & (osc != 0.0)
        tk, ti, tj, bound = tk[keep], ti[keep], tj[keep], bound[keep]
        # each tile's witness pair, by the scan's own float steps
        a, b = ti * size, np.minimum(tj * size + size, m) - 1
        w = _divide(flat[tk * m + a] - flat[tk * m + b], _pair_distances(t[a] - t[b], gamma))
        np.maximum.at(best, tk, w)
        keep = ~(bound <= best[tk])
        tk, ti, tj = tk[keep], ti[keep], tj[keep]
        if lev == 0:
            _scan_leaves(tp, vp, gamma, best, tk, ti, tj)
        elif tk.size:
            # four children each, less those below the diagonal or past the end
            tk = np.repeat(tk, 4)
            ti = (2 * ti[:, None] + (0, 0, 1, 1)).ravel()
            tj = (2 * tj[:, None] + (0, 1, 0, 1)).ravel()
            real = (ti <= tj) & (tj < -(-m // (size // 2)))
            stack.append((lev - 1, tk[real], ti[real], tj[real]))


def _scan_leaves(tp: np.ndarray, vp: np.ndarray, gamma: float, best: np.ndarray,
                 tk: np.ndarray, ti: np.ndarray, tj: np.ndarray) -> None:
    """Raise best by every pair of the leaf tiles (k, i, j), LEAF_CHUNK at a time.

    Each tile's TILE_LEAF x TILE_LEAF pairs are gathered from the padded
    samples ``tp`` (leaf, offset) and ``vp`` (function, leaf, offset).
    """
    for c in range(0, tk.size, LEAF_CHUNK):
        ck, ci, cj = tk[c:c + LEAF_CHUNK], ti[c:c + LEAF_CHUNK], tj[c:c + LEAF_CHUNK]
        dt = _pair_distances(tp[ci][:, :, None] - tp[cj][:, None, :], gamma)
        q = _divide(vp[ck, ci][:, :, None] - vp[ck, cj][:, None, :], dt)
        np.maximum.at(best, ck, q.max(axis=(1, 2)))


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


def check_gamma(gamma: float) -> None:
    """The one Hoelder-exponent check, shared by every entry that refuses an
    exponent: gamma must lie in (0, 1], and NaN does not."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")


def estimate_hoelder_norm(f, gamma: float, m: int = DEFAULT_SAMPLES) -> HoelderEstimate:
    """|f(0)| plus the pairwise difference-quotient maximum on m uniform samples."""
    check_gamma(gamma)
    ts = uniform_samples(m)
    vals = eval_on(f, ts)
    sem = pairwise_seminorm(ts, vals, gamma)
    b = abs(float(vals[0]))
    return HoelderEstimate(gamma=gamma, boundary_term=b, seminorm=sem,
                           norm=b + sem, sample_count=m)


def estimate_sup_norm(f, m: int = DEFAULT_SAMPLES) -> float:
    ts = uniform_samples(m)
    return float(np.abs(eval_on(f, ts)).max())


def estimate_lipschitz_norms(fs, m: int = DEFAULT_SAMPLES) -> list[float]:
    """|f(0)| plus the Lipschitz seminorm of each f: the largest adjacent slope.

    The pair scan's own adjacent quotients, so never above
    ``pairwise_seminorm(ts, vals, 1.0)``, and equal to it in exact
    arithmetic (module docstring).
    """
    ts = uniform_samples(m)
    vals = np.stack([eval_on(f, ts) for f in fs])
    slopes = _adjacent_quotients(ts, vals, 1.0).max(axis=1)
    return [float(n) for n in np.abs(vals[:, 0]) + slopes]


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
    check_gamma(gamma)
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
    phi's samples pass ``clamp_unit``: one beyond CLAMP_TOL raises DomainError.
    """
    check_gamma(gamma)
    ts = uniform_samples(m)
    phis = clamp_unit(eval_on(phi, ts))

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
    if abs(f0) <= BOUNDARY_TOL:
        pointwise = float(np.abs(comp).max())
        reports.append(_report("composition pointwise bound",
                               pointwise, norm_f * norm_phi_lip ** gamma, slack))
    return reports
