"""Uniform grids, the piecewise-linear interpolation projector and its bounds."""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .functions import EvaluationError, eval_on
from . import holder

#: slop for clamping arguments that leave [0,1] by rounding only
CLAMP_TOL = 1e-12
#: hard cap on pair-scan samples in measure_interp_error
MAX_ERROR_SAMPLES = 4097


class DomainError(ValueError):
    """Evaluation point outside [0,1] beyond the clamp tolerance, at ``index``."""

    def __init__(self, message: str, index: int | None = None) -> None:
        super().__init__(message)
        self.index = index


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


def clamp_unit(t) -> np.ndarray:
    """Points t as a 1-d array clamped onto [0,1].

    Points within CLAMP_TOL of [0,1] are clamped onto it; the first point
    further out raises DomainError carrying its index.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if ts.min() < -CLAMP_TOL or ts.max() > 1.0 + CLAMP_TOL:
        k = int(np.flatnonzero((ts < -CLAMP_TOL) | (ts > 1.0 + CLAMP_TOL))[0])
        raise DomainError(f"t={float(ts[k])!r} outside [0,1]", index=k)
    return np.clip(ts, 0.0, 1.0)


def locate(grid: UniformGrid, t) -> tuple[np.ndarray, np.ndarray]:
    """Cell index i and hat weight w with t = (1 - w) t_i + w t_{i+1}.

    The points pass through clamp_unit first.
    """
    tc = clamp_unit(t)
    nodes = grid.nodes
    i = np.searchsorted(nodes, tc, side="right")
    i -= 1
    np.clip(i, 0, grid.n - 1, out=i)
    # w = (tc - left) / (right - left) in place: fewer full-size temporaries
    # halve the page faults of grid Picard at N = 2^18 (measured)
    left = nodes[i]
    width = nodes[i + 1]
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

    # lets eval_on treat a PiecewiseLinear like a FunctionHandle
    @property
    def eval(self):
        return self.evaluate


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


def measure_interp_error(f, grid: UniformGrid, m: int | None = None,
                         gamma: float = 0.5) -> tuple[float, float]:
    """Sampled sup-norm and gamma-norm of the interpolation error P_h f - f.

    The boundary term of the gamma-norm is |e(0)| = 0 since the error
    vanishes at nodes.
    """
    if m is None:
        m = min(32 * grid.n + 1, MAX_ERROR_SAMPLES)
    ts = holder.uniform_samples(m)
    u = project(f, grid)
    err = u.evaluate(ts) - eval_on(f, ts)
    sup_error = float(np.abs(err).max())
    hoelder_error = abs(float(err[0])) + holder.pairwise_seminorm(ts, err, gamma)
    return sup_error, hoelder_error


def measure_projector_norm(gamma: float, grid: UniformGrid, trial_functions,
                           m: int = holder.DEFAULT_SAMPLES) -> float:
    """Empirical lower bound on ||P_h||: max ratio of sampled gamma-norms."""
    trials = list(trial_functions)
    if not trials:
        raise ValueError("trial set must be nonempty")
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


def random_cusp_trials(rng: np.random.Generator, count: int, gamma: float,
                       max_bumps: int = 3) -> list:
    """Random sums of cusp bumps a*(r - |t-c|)_+^gamma plus an oscillation.

    Rough test functions for empirical projector-norm studies; the
    high-frequency sine keeps the seminorm away from the endpoint pair so
    projection actually gets stressed.
    """
    from .functions import FunctionHandle

    trials = []
    for k in range(count):
        nb = int(rng.integers(1, max_bumps + 1))
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


def write_csv(u: PiecewiseLinear, path) -> None:
    """Serialize nodal data as (t, value) rows with 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "value"])
        for t, v in zip(u.grid.nodes, u.values):
            writer.writerow([f"{t:.17g}", f"{v:.17g}"])


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
