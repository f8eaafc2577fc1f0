"""Evaluatable real-valued functions on [0, 1], and the one domain policy:
every value that must lie in [0, 1] passes ``clamp_unit``, the coefficients
phi, phi1 and phi2 through ``checked_unit`` (one error on every path), and
endpoint conditions hold to BOUNDARY_TOL."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: slop for clamping arguments that leave [0,1] by rounding only
CLAMP_TOL = 1e-12
#: endpoint conditions (phi1(1) = 1, a vanishing source or target) hold to this
BOUNDARY_TOL = 1e-12


class EvaluationError(ValueError):
    """A function produced a non-finite value somewhere on [0, 1]."""

    def __init__(self, label: str, t: float, value) -> None:
        self.label = label
        self.t = t
        self.value = value
        super().__init__(f"{label!r} evaluated to {value!r} at t={t!r}")


class DomainError(ValueError):
    """Evaluation point outside [0,1] beyond the clamp tolerance, at ``index``."""

    def __init__(self, message: str, index: int | None = None) -> None:
        super().__init__(message)
        self.index = index


def clamp_unit(t) -> np.ndarray:
    """Points t as a float array of at least 1 dimension clamped onto [0,1].

    Points within CLAMP_TOL of [0,1] are clamped onto it; the first point
    further out, or NaN, raises DomainError carrying its index. Only a clamp
    copies, so a caller that writes into the result copies it first.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    lo, hi = ts.min(initial=np.inf), ts.max(initial=-np.inf)  # an empty t passes
    if not (lo >= -CLAMP_TOL and hi <= 1.0 + CLAMP_TOL):  # NaN fails too
        k = int(np.flatnonzero(~((ts >= -CLAMP_TOL) & (ts <= 1.0 + CLAMP_TOL)))[0])
        raise DomainError(f"t={float(ts[k])!r} outside [0,1]", index=k)
    if lo < 0.0 or hi > 1.0:
        ts = np.clip(ts, 0.0, 1.0)
    return ts


@dataclass(frozen=True)
class FunctionHandle:
    """A real function on [0, 1] with a short label."""

    eval: Callable
    label: str = "f"

    def __call__(self, t):
        return self.eval(t)


def constant(c: float, label: str | None = None) -> FunctionHandle:
    c = float(c)
    return FunctionHandle(
        eval=lambda t: np.full_like(np.asarray(t, dtype=float), c) if np.ndim(t) else c,
        label=label or f"const({c:g})",
    )


def identity(label: str = "t") -> FunctionHandle:
    return FunctionHandle(eval=lambda t: np.asarray(t, dtype=float) if np.ndim(t) else float(t),
                          label=label)


def sample(f, ts) -> np.ndarray:
    """f at the points ts, by one vector call or else a scalar loop; unchecked."""
    fn = f.eval if isinstance(f, FunctionHandle) else f
    try:
        vals = np.asarray(fn(ts), dtype=float)
        if vals.shape == ts.shape:
            return vals
    except (DomainError, EvaluationError):
        raise
    except (TypeError, ValueError, IndexError):
        pass
    return np.array([float(fn(float(t))) for t in ts.ravel()]).reshape(ts.shape)


def eval_on(f, ts) -> np.ndarray:
    """Evaluate ``f`` on an array of points, falling back to a scalar loop.

    The scalar loop runs when the vector call fails or returns the wrong
    shape, except for DomainError and EvaluationError, which propagate as
    raised. Raises EvaluationError carrying the offending point if any value
    is non-finite.
    """
    ts = np.asarray(ts, dtype=float)
    vals = sample(f, ts)
    if not np.all(np.isfinite(vals)):
        bad = np.flatnonzero(~np.isfinite(vals.ravel()))[0]
        label = getattr(f, "label", getattr(f, "__name__", "f"))
        raise EvaluationError(label, float(ts.ravel()[bad]), float(vals.ravel()[bad]))
    return vals


def checked_unit(name: str, vals: np.ndarray, ts: np.ndarray,
                 row: int | None = None) -> np.ndarray:
    """clamp_unit(vals), so maybe vals itself, for the values ``vals =
    sample(fn, ts)`` of the function called ``name`` at 1-d points ts. Its
    DomainError, raised for a value outside [0, 1] or non-finite, names the
    function, the point and the value, and, given ``row``, the interior row
    of ts[0], the collocation node."""
    try:
        return clamp_unit(vals)
    except DomainError as exc:
        j = exc.index
        node = "" if row is None else f" (collocation node {row + j + 1})"
        raise DomainError(f"{name}({float(ts[j])!r}) = {float(vals[j])!r} outside [0,1]{node}",
                          j + (row or 0)) from None
