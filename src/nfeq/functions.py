"""Evaluatable real-valued functions on [0, 1]."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


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


def eval_on(f, ts) -> np.ndarray:
    """Evaluate ``f`` on an array of points, falling back to a scalar loop.

    The scalar loop runs when the vector call fails or returns the wrong
    shape, except for DomainError and EvaluationError, which propagate as
    raised. Raises EvaluationError carrying the offending point if any value
    is non-finite.
    """
    ts = np.asarray(ts, dtype=float)
    fn = f.eval if isinstance(f, FunctionHandle) else f
    vals = None
    try:
        cand = np.asarray(fn(ts), dtype=float)
        if cand.shape == ts.shape:
            vals = cand
    except (DomainError, EvaluationError):
        raise
    except (TypeError, ValueError, IndexError):
        vals = None
    if vals is None:
        vals = np.array([float(fn(float(t))) for t in ts.ravel()]).reshape(ts.shape)
    if not np.all(np.isfinite(vals)):
        bad = np.flatnonzero(~np.isfinite(vals.ravel()))[0]
        label = getattr(f, "label", getattr(f, "__name__", "f"))
        raise EvaluationError(label, float(ts.ravel()[bad]), float(vals.ravel()[bad]))
    return vals
