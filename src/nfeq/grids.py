"""Uniform grids, the piecewise-linear interpolation projector and its bounds.

``locate`` checks every point with ``functions.clamp_unit`` and hands a copy
to ``place``; ``collocation.delay_map`` calls ``place`` directly on copies of
the delays ``ProblemSpec.coefficients`` already checked.
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
#: measure_projector_norm: exact norms in the first batch, the trials of
#: highest ratio bound. On 40 sets of 50 cusp trials at m = 513 (seeds
#: 1-40, gamma 0.5, N = 8; alternating in-process runs, 2 cores) the study
#: took 8% / 3% / 7% longer at the median with 2 / 6 / 8 than with 4; with
#: 1, seed 11 took 21 exact norms where 4 takes 4
FIRST_NORM_BATCH = 4
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
    """``place`` for a copy of the points t checked and clamped by clamp_unit."""
    return place(grid.nodes, grid.n, clamp_unit(t).copy())


def place(nodes: np.ndarray, n, tc: np.ndarray,
          first: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Cell index i and hat weight w with tc = (1 - w) t_i + w t_{i+1}.

    The grid has n subintervals and nodes t_0..t_n = nodes[first:first + n + 1].
    n and first may be arrays, one entry per point of tc: then each point
    is placed on its own grid, whose nodes lie at ``first`` in the
    concatenated ``nodes`` of several grids. tc, a 1-d float array in [0, 1]
    that the caller owns, becomes w in place. The cell is floor(tc n), moved
    by one step where rounding put tc n on the wrong side of a node, so i
    equals searchsorted(t_0..t_n, tc, "right") - 1 clipped to [0, n-1].
    """
    rights = nodes[1:]  # t_{i+1} as rights.take(i): no i + 1 array is made
    # floor(tc n) as tc >= 0, cast straight into the index array
    i = np.multiply(tc, n, out=np.empty(tc.shape, np.intp), casting="unsafe")
    np.minimum(i, n - 1, out=i)
    at = i if first is None else i + first
    left = nodes.take(at)
    width = rights.take(at)
    below, above = left > tc, width <= tc
    if below.any() or above.any():
        above &= i < n - 1  # the last cell ends at t = 1
        i -= below
        i += above
        at = i if first is None else i + first
        left = nodes.take(at)
        width = rights.take(at)
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
    holder.check_gamma(gamma)
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

    One evaluation per trial, on the m samples and the grid nodes at once:
    the samples give ||f||, the nodes P_h f's data. A non-finite value
    raises, trial after trial, the error ``eval_on`` raises at a sample, or
    else ``project``'s at a node. Only a trial that can raise the maximum
    gets its exact norm and its projection scanned. Its projection's
    sampled seminorm is at most its ``node_pair_bounds`` entry, and its
    norm at least L_k, |f(0)| plus the largest quotient over sample pairs a
    power of two apart (pairs of the scan's own, so L_k <= ||f|| in floats;
    it is 0 only for an all-zero trial, which is skipped with a warning). So
    its ratio is at most U_k = (|v_0| + bound) / L_k. Exact norms are taken
    in batches, one pair scan each: first the FIRST_NORM_BATCH trials of
    highest U_k, then all the others whose U_k is above the running
    maximum. Within a batch trials go in falling order of (|v_0| + bound) /
    ||f||, and the scan stops once that cannot exceed the running maximum.
    Float rounding is monotone, so a trial with U_k <= best cannot raise it,
    and the result is the full scan's, bit for bit. When grid.n + 1 >= m
    the node-pair scan would cost more than the sampled one, the bounds are
    inf and every trial is scanned. A scanned projection above its bound
    raises RuntimeError: an unsound bound never prunes silently.
    """
    holder.check_gamma(gamma)
    trials = list(trial_functions)
    if not trials:
        raise ValueError("trial set must be nonempty")
    ts = holder.uniform_samples(m)
    points = np.concatenate((ts, grid.nodes))
    sampled = np.empty((len(trials), points.size))
    for i, f in enumerate(trials):
        try:
            sampled[i] = eval_on(f, points)
        except EvaluationError:
            eval_on(f, ts)  # raises a sample's error as the samples alone do
            project(f, grid)  # else a node's, with its grid node
            raise
    vals = sampled[:, :m]
    heads = np.abs(vals[:, 0])
    # lower[k] <= ||f_k|| is 0 only if every sample is 0 (adjacent quotients are
    # stride ones, uniform spacing >> MIN_PAIR_SEPARATION, and a nonzero difference
    # over dt**gamma <= 1 never rounds to 0), so a pair scan could only confirm it
    lower = heads + holder._stride_seminorms(ts, vals, gamma)
    for i in np.flatnonzero(lower <= 0.0):
        warnings.warn(f"skipping zero-norm trial {getattr(trials[i], 'label', trials[i])!r}")
    live = np.flatnonzero(lower > 0.0)
    if live.size == 0:
        raise ValueError("all trial functions had zero sampled norm")
    nodal = sampled[live, m:]
    bounds = (node_pair_bounds(grid, nodal, gamma, ts) if grid.n + 1 < m
              else np.full(live.size, np.inf))
    tops = np.abs(nodal[:, 0]) + bounds
    upper = tops / lower[live]
    pending = np.argsort(-upper, kind="stable")
    take = FIRST_NORM_BATCH
    best = 0.0
    while pending.size:
        batch, pending = pending[:take], pending[take:]
        norms = heads[live[batch]] + holder.pairwise_seminorm(ts, vals[live[batch]], gamma)
        reach = tops[batch] / norms
        for j in np.argsort(-reach, kind="stable"):
            if reach[j] <= best:
                break
            k = batch[j]
            i = live[k]
            pv = PiecewiseLinear(grid=grid, values=nodal[k]).evaluate(ts)
            sem = holder.pairwise_seminorm(ts, pv, gamma)
            if sem > bounds[k]:
                raise RuntimeError(
                    f"projection of trial {getattr(trials[i], 'label', trials[i])!r} has "
                    f"sampled seminorm {sem!r} above its node-pair bound {bounds[k]!r}")
            best = max(best, float((abs(pv[0]) + sem) / norms[j]))
        pending = pending[~(upper[pending] <= best)]
        take = pending.size
    return best


def random_cusp_trials(rng: np.random.Generator, count: int, gamma: float) -> list:
    """Random sums of cusp bumps a*(r - |t-c|)_+^gamma plus an oscillation.

    Rough test functions for empirical projector-norm studies; the
    high-frequency sine keeps the seminorm away from the endpoint pair so
    projection actually gets stressed. Each bump is computed in place in
    one buffer per call, by the formula's operations in its order, so on
    an array t the values are the plain expression's; a scalar t gives the
    value the one-point array gives.
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
        bumps = tuple(zip(amps.tolist(), centers.tolist(), radii.tolist()))

        def f(t, bumps=bumps, slope=slope, wave_amp=wave_amp, freq=freq):
            t = np.asarray(t, dtype=float)
            out = slope * t + wave_amp * np.sin(np.pi * freq * t)
            x = np.empty(t.shape)
            for a, c, r in bumps:
                np.subtract(t, c, out=x)
                np.abs(x, out=x)
                np.subtract(r, x, out=x)
                np.maximum(x, 0.0, out=x)  # np.clip(x, 0.0, None)
                x **= gamma  # the operator keeps numpy's sqrt at gamma = 0.5
                x *= a
                out += x
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
        rows = []
        for r in filter(None, reader):  # blank lines are skipped
            try:
                rows.append((float(r[0]), float(r[1])))
            except (IndexError, ValueError):
                raise ValueError(f"{path}:{reader.line_num}: expected a row 't,value', "
                                 f"got {','.join(r)!r}") from None
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 rows")
    ts = np.array([r[0] for r in rows])
    vals = np.array([r[1] for r in rows])
    n = len(rows) - 1
    expected = np.linspace(0.0, 1.0, n + 1)
    if np.any(np.diff(ts) <= 0) or np.abs(ts - expected).max() > 1e-12:
        raise ValueError(f"{path}: nodes are not a uniform grid on [0,1]")
    return PiecewiseLinear(grid=UniformGrid(n), values=vals)
