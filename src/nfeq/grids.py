"""Uniform grids, the piecewise-linear interpolation projector and its bounds.

``locate`` checks every point with ``functions.clamp_unit``; the delays
``collocation.delay_map`` places come checked by ``ProblemSpec.coefficients``.
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .functions import DomainError, EvaluationError, clamp_unit, eval_on
from . import holder

#: cap on the default error sample count (the pair scan prunes most pairs
#: of smooth errors, but scans every pair of a tied one)
MAX_ERROR_SAMPLES = 4097
#: node_pair_bounds: relative allowance for the float quotients
NODE_BOUND_REL = 1e-6
#: node_pair_bounds: evaluation rounding allowance, in ulps of max|v| / dmin^gamma
NODE_BOUND_ULPS = 64
#: random_cusp_trials: most cusp bumps in one trial
MAX_CUSP_BUMPS = 3


@dataclass(frozen=True)
class UniformGrid:
    """N equal subintervals of [0,1] with nodes t_i = i/N."""

    n: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least 1 subinterval, got {self.n}")
        object.__setattr__(self, "nodes", np.linspace(0.0, 1.0, self.n + 1))

    @property
    def h(self) -> float:
        return 1.0 / self.n


def locate(grid: UniformGrid, t) -> tuple[np.ndarray, np.ndarray]:
    """Cell index i and hat weight w with t = (1 - w) t_i + w t_{i+1}.

    The points pass through clamp_unit first. The cell is floor(t N), moved
    by one step where rounding put t N on the wrong side of a node, so i
    equals searchsorted(grid.nodes, t, "right") - 1 clipped to [0, N-1].
    """
    tc = clamp_unit(t)
    nodes, n = grid.nodes, grid.n
    # floor(t N) as tc >= 0, cast straight into the index array
    i = np.multiply(tc, n, out=np.empty(tc.shape, np.intp), casting="unsafe")
    np.minimum(i, n - 1, out=i)
    left = nodes[i]
    width = nodes[i + 1]
    below, above = left > tc, width <= tc
    if below.any() or above.any():
        above &= i < n - 1  # the last cell ends at t = 1
        i -= below
        i += above
        left = nodes[i]
        width = nodes[i + 1]
    # w = (tc - left) / (right - left) in place: fewer full-size temporaries
    # halve the page faults of grid Picard at N = 2^18 (measured)
    width -= left
    tc -= left
    tc /= width
    return i, tc


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function given by nodal values on a uniform grid."""

    grid: UniformGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n + 1,):
            raise ValueError(
                f"expected {self.grid.n + 1} nodal values, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("nodal values must be finite")
        object.__setattr__(self, "values", vals)

    def evaluate(self, t):
        """Linear interpolation; exact at nodes, clamps rounding overshoot."""
        scalar = np.ndim(t) == 0
        i, w = locate(self.grid, t)
        out = (1.0 - w) * self.values[i]
        i += 1
        out += w * self.values[i]
        return float(out[0]) if scalar else out

    __call__ = evaluate

    @property
    def label(self) -> str:
        return f"pwl(N={self.grid.n})"


def project(f, grid: UniformGrid) -> PiecewiseLinear:
    """Interpolate f at the grid nodes (the projector's defining data)."""
    try:
        vals = eval_on(f, grid.nodes)
    except EvaluationError as exc:
        idx = int(round(exc.t * grid.n))
        exc.args = (f"{exc.args[0]} (grid node {idx})",)
        raise
    return PiecewiseLinear(grid=grid, values=vals)


def sup_error_bound(norm_kgamma: float, gamma: float, k: int, h: float) -> float:
    """Certified sup-norm interpolation error bound 2^(-gamma-(2-gamma)k) h^(k+gamma) ||u||_{k,gamma}."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    if k not in (0, 1):
        raise ValueError(f"k must be 0 or 1, got {k}")
    if h <= 0.0:
        raise ValueError(f"h must be positive, got {h}")
    return 2.0 ** (-gamma - (2.0 - gamma) * k) * h ** (k + gamma) * norm_kgamma


def _interp_error_samples(f, grid: UniformGrid, m: int | None):
    """Sample points and the interpolation error P_h f - f at them."""
    if m is None:
        m = min(32 * grid.n + 1, MAX_ERROR_SAMPLES)
    ts = holder.uniform_samples(m)
    return ts, project(f, grid).evaluate(ts) - eval_on(f, ts)


def interp_sup_error(f, grid: UniformGrid) -> float:
    """Sampled sup-norm of the interpolation error P_h f - f."""
    _, err = _interp_error_samples(f, grid, None)
    return float(np.abs(err).max())


def measure_interp_error(f, grid: UniformGrid, m: int | None = None,
                         gamma: float = 0.5) -> tuple[float, float]:
    """Sampled sup-norm and gamma-norm of the interpolation error P_h f - f.

    The same samples as ``interp_sup_error``. The boundary term of the
    gamma-norm is |e(0)| = 0 since the error vanishes at nodes.
    """
    ts, err = _interp_error_samples(f, grid, m)
    sup_error = float(np.abs(err).max())
    hoelder_error = abs(float(err[0])) + holder.pairwise_seminorm(ts, err, gamma)
    return sup_error, hoelder_error


def node_pair_bounds(grid: UniformGrid, values, gamma: float, ts) -> np.ndarray:
    """Upper bounds on the sampled gamma-seminorm of each projection at ts.

    Row k of ``values`` is the nodal data v of a PiecewiseLinear g on
    ``grid``; entry k bounds ``holder.pairwise_seminorm(ts, g.evaluate(ts),
    gamma)`` for increasing ``ts``. It is the node-pair seminorm S of v plus
    a rounding allowance. S is g's seminorm over all of [0,1]^2: for s, t
    in one cell the quotient is |slope| |s - t|^(1-gamma), largest at the
    cell's nodes; for t outside the cell of s, |g(s) - g(t)| is convex in s
    there and |s - t|^gamma positive and concave, so the quotient is
    quasi-convex in s and peaks at a node. Doing this for s, then for t,
    reaches a node pair.

    Allowance: in evaluate, t - t_i and t_{i+1} - t_i are exact (Sterbenz),
    and the hat weight and (1 - w) v_i + w v_{i+1} take a few roundings, so
    a sample is within a few ulps of max|v| of the exact interpolant and a
    difference of two within about a dozen; over |s - t|^gamma >= dmin^gamma
    (dmin the smallest sample spacing) that is far below NODE_BOUND_ULPS
    ulps of max|v| over dmin^gamma. The ulp (np.spacing) stays positive
    where eps max|v| would underflow. The quotients' own arithmetic and the
    float node-pair scan err by a few eps relative, far inside the factor
    1 + NODE_BOUND_REL.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    node_sem = holder.pairwise_seminorm(grid.nodes, values, gamma)
    dmin = float(np.diff(ts).min())
    slack = NODE_BOUND_ULPS * np.spacing(np.abs(values).max(axis=1))
    return node_sem * (1.0 + NODE_BOUND_REL) + slack / dmin ** gamma


def measure_projector_norm(gamma: float, grid: UniformGrid, trial_functions,
                           m: int = holder.DEFAULT_SAMPLES) -> float:
    """Empirical lower bound on ||P_h||: max ratio of sampled gamma-norms.

    One pair scan serves every trial. A projection is scanned only where it
    can raise the maximum: its sampled seminorm is at most its
    ``node_pair_bounds`` entry, so trials go in falling order of
    (|v_0| + bound) / ||f|| and the scan stops once that ratio cannot exceed
    the running maximum. Float rounding is monotone, so the result is the
    full scan's, bit for bit. When grid.n + 1 >= m the node-pair scan would
    cost more than the sampled one, the bounds are inf and every projection
    is scanned. A scanned projection above its bound raises RuntimeError:
    an unsound bound never prunes silently.
    """
    trials = list(trial_functions)
    if not trials:
        raise ValueError("trial set must be nonempty")
    ts = holder.uniform_samples(m)
    vals = np.empty((len(trials), m))
    projections = []
    for i, f in enumerate(trials):
        vals[i] = eval_on(f, ts)
        projections.append(project(f, grid))
    norms = np.abs(vals[:, 0]) + holder.pairwise_seminorm(ts, vals, gamma)
    for f, norm_f in zip(trials, norms):
        if norm_f <= 0.0:
            warnings.warn(f"skipping zero-norm trial {getattr(f, 'label', f)!r}")
    live = np.flatnonzero(norms > 0.0)
    if live.size == 0:
        raise ValueError("all trial functions had zero sampled norm")
    nodal = np.stack([projections[i].values for i in live])
    bounds = (node_pair_bounds(grid, nodal, gamma, ts) if grid.n + 1 < m
              else np.full(live.size, np.inf))
    reach = (np.abs(nodal[:, 0]) + bounds) / norms[live]
    best = 0.0
    for k in np.argsort(-reach, kind="stable"):
        if reach[k] <= best:
            break
        i = live[k]
        pv = projections[i].evaluate(ts)
        sem = holder.pairwise_seminorm(ts, pv, gamma)
        if sem > bounds[k]:
            raise RuntimeError(
                f"projection of trial {getattr(trials[i], 'label', trials[i])!r} has "
                f"sampled seminorm {sem!r} above its node-pair bound {bounds[k]!r}")
        best = max(best, float((abs(pv[0]) + sem) / norms[i]))
    return best


def random_cusp_trials(rng: np.random.Generator, count: int, gamma: float) -> list:
    """Random sums of cusp bumps a*(r - |t-c|)_+^gamma plus an oscillation.

    Rough test functions for empirical projector-norm studies; the
    high-frequency sine keeps the seminorm away from the endpoint pair so
    projection actually gets stressed.
    """
    from .functions import FunctionHandle

    trials = []
    for k in range(count):
        nb = int(rng.integers(1, MAX_CUSP_BUMPS + 1))
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

        trials.append(FunctionHandle(eval=f, label=f"cusp-trial-{k}"))
    return trials


def write_table(path, header, rows) -> None:
    """Write a CSV table: floats with 17 significant digits, the rest as is."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row]
                         for row in rows)


def write_csv(u: PiecewiseLinear, path) -> None:
    """Serialize nodal data as (t, value) rows with 17 significant digits."""
    write_table(path, ["t", "value"], zip(u.grid.nodes, u.values))


def read_csv(path) -> PiecewiseLinear:
    """Read (t, value) rows back, validating the uniform-grid invariant."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:2]] != ["t", "value"]:
            raise ValueError(f"{path}: expected header 't,value', got {header}")
        rows = [(float(r[0]), float(r[1])) for r in reader if r]
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 rows")
    ts = np.array([r[0] for r in rows])
    vals = np.array([r[1] for r in rows])
    n = len(rows) - 1
    expected = np.linspace(0.0, 1.0, n + 1)
    if np.any(np.diff(ts) <= 0) or np.abs(ts - expected).max() > 1e-12:
        raise ValueError(f"{path}: nodes are not a uniform grid on [0,1]")
    return PiecewiseLinear(grid=UniformGrid(n), values=vals)
