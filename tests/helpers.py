"""Shared generators for randomized test inputs."""
from __future__ import annotations

import warnings

import numpy as np
from scipy import sparse

from nfeq import grids, holder
from nfeq.functions import DomainError, FunctionHandle, eval_on
from nfeq.grids import locate, project

#: rows of the reference pair scan compared at once against the columns to
#: their right; blocking changes no quotient, only the memory
ROW_BLOCK = 64


def random_function(rng: np.random.Generator, exponent: float = 1.0,
                    zero_at_origin: bool = False) -> FunctionHandle:
    """Random smooth-plus-kink function: polynomial + sine + one |t-c|^e bump.

    Bounded on [0,1] with a finite sampled Hoelder norm for every gamma.
    """
    coeffs = rng.uniform(-1.0, 1.0, size=5)
    amp = rng.uniform(-1.0, 1.0)
    freq = int(rng.integers(1, 6))
    bump_amp = rng.uniform(-1.0, 1.0)
    center = rng.uniform(0.0, 1.0)

    def raw(t):
        t = np.asarray(t, dtype=float)
        return (np.polyval(coeffs, t) + amp * np.sin(freq * np.pi * t)
                + bump_amp * np.abs(t - center) ** exponent)

    shift = float(raw(0.0)) if zero_at_origin else 0.0

    def f(t):
        return raw(t) - shift

    return FunctionHandle(eval=f, label="random")


def random_delay_map(rng: np.random.Generator) -> FunctionHandle:
    """Random Lipschitz map of [0,1] into itself."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        a = rng.uniform(0.0, 0.5)
        b = rng.uniform(0.0, 1.0 - a)
        return FunctionHandle(
            eval=lambda t: a + b * np.asarray(t, dtype=float),
            label=f"{a:.3g}+{b:.3g}t")
    if kind == 1:
        lam = rng.uniform(0.0, 1.0)
        return FunctionHandle(
            eval=lambda t: lam * np.asarray(t, dtype=float)
            + (1.0 - lam) * np.asarray(t, dtype=float) ** 2,
            label=f"blend({lam:.3g})")
    beta = rng.uniform(0.05, 0.95)
    return FunctionHandle(eval=lambda t: beta * np.asarray(t, dtype=float),
                          label=f"{beta:.3g}t")


def poly_handle(coeffs) -> FunctionHandle:
    coeffs = np.asarray(coeffs, dtype=float)
    return FunctionHandle(
        eval=lambda t: np.polyval(coeffs, np.asarray(t, dtype=float)),
        label="poly")


def exact_reference(p, f0, depth: int, t: float) -> tuple[float, int]:
    """Depth-th Picard iterate at t by direct scalar recursion, with its node count.

    The reference for ``picard.picard_exact_counted``: the same recursion
    one node at a time, delays clamped onto [0, 1].
    """
    phi, phi1, phi2, source = p.phi, p.phi1, p.phi2, p.source
    f0_eval = f0.eval if hasattr(f0, "eval") else f0
    visits = 0

    def rec(d: int, x: float) -> float:
        nonlocal visits
        visits += 1
        if d == 0:
            return float(f0_eval(x))
        w = float(phi(x))
        return (w * rec(d - 1, min(max(float(phi1(x)), 0.0), 1.0))
                + (1.0 - w) * rec(d - 1, min(max(float(phi2(x)), 0.0), 1.0))
                + float(source(x)))

    return rec(depth, float(t)), visits


def whole_delay_map(p, grid):
    """The delay map B and source k built over all interior nodes at once.

    The reference for ``collocation.delay_map``, which builds the same rows
    a block at a time.
    """
    n = grid.n
    interior = grid.nodes[1:-1]
    phi_vals = eval_on(p.phi, interior)
    idx = np.int32 if 4 * n <= np.iinfo(np.int32).max else np.int64
    data = np.empty((n - 1, 4))
    indices = np.empty((n - 1, 4), dtype=idx)
    for col, coeff, delay in ((0, phi_vals, p.phi1), (2, 1.0 - phi_vals, p.phi2)):
        try:
            i, w = locate(grid, eval_on(delay, interior))
        except DomainError as exc:
            raise DomainError(f"delay argument {exc} (collocation node "
                              f"{exc.index + 1})", exc.index) from None
        data[:, col] = coeff * (1.0 - w)
        data[:, col + 1] = coeff * w
        indices[:, col] = i
        indices[:, col + 1] = i + 1
    b = sparse.csr_array((data.ravel(), indices.ravel(), 4 * np.arange(n, dtype=idx)),
                         shape=(n - 1, n + 1))
    return b, eval_on(p.source, interior)


def grid_picard_reference(p, grid, f0, tol: float, max_iter: int):
    """Grid Picard written out, values[1:-1] = B values + k per sweep.

    The reference for ``picard.picard_grid``: the delay map comes from
    ``whole_delay_map``, and the increment is |new - old| in a fresh array.
    Returns the final nodal values and every increment.
    """
    b, k = whole_delay_map(p, grid)
    values = f0.values.copy()
    values[0], values[-1] = p.boundary_left, p.boundary_right
    increments = []
    for _ in range(max_iter):
        new = b @ values + k
        increments.append(float(np.abs(new - values[1:-1]).max()))
        values[1:-1] = new
        if increments[-1] < tol:
            break
    return values, increments


def row_block_seminorm(ts, vals, gamma):
    """The plain row-block pair scan: the reference for ``holder.pairwise_seminorm``.

    Scans each pair once, i < j, in blocks of ROW_BLOCK rows: rows
    [lo, hi) meet columns lo: only. Each block's distances |t_i - t_j|^gamma
    are built once and shared by the K rows of ``vals`` (shape (m,) or
    (K, m)); pairs closer than MIN_PAIR_SEPARATION get quotient 0.
    """
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(vals, dtype=float)
    rows = np.atleast_2d(vals)
    m = ts.size
    best = np.zeros(rows.shape[0])
    step = ROW_BLOCK
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        dt = np.abs(ts[lo:hi, None] - ts[None, lo:])
        dt[dt < holder.MIN_PAIR_SEPARATION] = np.inf
        dt **= gamma
        for k, v in enumerate(rows):
            dv = np.abs(v[lo:hi, None] - v[None, lo:])
            dv /= dt
            best[k] = max(best[k], dv.max())
    return float(best[0]) if vals.ndim < 2 else best


def projector_norm_reference(gamma, grid, trials, m=holder.DEFAULT_SAMPLES):
    """One pair scan per trial and per projection, trial after trial.

    The reference for ``grids.measure_projector_norm``, which scans all of
    them at once.
    """
    ts = holder.uniform_samples(m)
    best = 0.0
    used = 0
    for f in trials:
        fv = eval_on(f, ts)
        norm_f = abs(float(fv[0])) + holder.pairwise_seminorm(ts, fv, gamma)
        if norm_f <= 0.0:
            warnings.warn(f"skipping zero-norm trial {getattr(f, 'label', f)!r}")
            continue
        pv = project(f, grid).evaluate(ts)
        norm_p = abs(float(pv[0])) + holder.pairwise_seminorm(ts, pv, gamma)
        best = max(best, norm_p / norm_f)
        used += 1
    if used == 0:
        raise ValueError("all trial functions had zero sampled norm")
    return best


def plain_cusp_trials(rng: np.random.Generator, count: int, gamma: float) -> list:
    """The draws of ``grids.random_cusp_trials``, each bump the plain expression.

    The reference for its closures, which compute each bump in place: here
    every bump is a * clip(r - |t - c|, 0, None) ** gamma in fresh arrays.
    """
    trials = []
    for _ in range(count):
        nb = int(rng.integers(1, grids.MAX_CUSP_BUMPS + 1))
        amps = rng.uniform(-2.0, 2.0, size=nb)
        centers = rng.uniform(0.0, 1.0, size=nb)
        radii = rng.uniform(0.05, 0.5, size=nb)
        slope = rng.uniform(-1.0, 1.0)
        wave_amp = rng.uniform(-0.5, 0.5)
        freq = int(rng.integers(1, 24))

        def f(t, amps=amps, centers=centers, radii=radii, slope=slope,
              wave_amp=wave_amp, freq=freq):
            t = np.asarray(t, dtype=float)
            out = slope * t + wave_amp * np.sin(np.pi * freq * t)
            for a, c, r in zip(amps, centers, radii):
                out = out + a * np.clip(r - np.abs(t - c), 0.0, None) ** gamma
            return out

        trials.append(f)
    return trials


def fancy_index_product(beta, t, tol=1e-16):
    """1 - prod_n (1 - beta^n t) with the live points indexed out per factor.

    The reference for ``oracles.product_formula``, which runs the same loop
    on a boolean mask in place; ``t`` has been validated by the caller.
    """
    x = np.array(t, dtype=float).ravel()
    prod = np.ones_like(x)
    live = np.flatnonzero(x >= tol)
    while live.size:
        prod[live] *= 1.0 - x[live]
        x[live] *= beta
        live = live[x[live] >= tol]
    out = 1.0 - prod
    return float(out[0]) if np.ndim(t) == 0 else out.reshape(np.shape(t))
