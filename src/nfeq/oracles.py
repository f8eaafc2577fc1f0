"""Exact and manufactured solutions for verification."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functions import BOUNDARY_TOL, FunctionHandle, clamp_unit
from .problem import ProblemSpec, residual

#: default truncation threshold for the infinite product
PRODUCT_TOL = 1e-16
#: manufactured problems must reproduce their target to this defect
MANUFACTURE_TOL = 1e-10


def product_formula(beta: float, t, tol: float = PRODUCT_TOL):
    """Closed-form solution 1 - prod_n (1 - beta^n t) of the one-sided family.

    The product is truncated once beta^n * t drops below ``tol``; the
    relative truncation error is at most tol / (1 - beta). ``t`` is a point
    (giving a float) or an array of points; each point's factors are the
    same float operations either way. Points pass through ``clamp_unit``.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    x = clamp_unit(t).flatten()  # a copy: the product scales x in place
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    prod = np.ones_like(x)
    live = x >= tol
    while live.any():
        np.multiply(prod, 1.0 - x, out=prod, where=live)
        np.multiply(x, beta, out=x, where=live)
        live &= x >= tol
    out = 1.0 - prod
    return float(out[0]) if np.ndim(t) == 0 else out.reshape(np.shape(t))


def product_solution(beta: float) -> FunctionHandle:
    return FunctionHandle(eval=lambda t: product_formula(beta, t),
                          label=f"product(beta={beta:g})")


def cusp_solution(gamma: float) -> FunctionHandle:
    """The symmetric cusp (1/2 - |t - 1/2|)^gamma, vanishing at both endpoints.

    Implemented as min(t, 1-t)^gamma so symmetric dyadic sample pairs
    evaluate bit-for-bit equal.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")

    def f(t):
        t = np.asarray(t, dtype=float)
        return np.clip(np.minimum(t, 1.0 - t), 0.0, 0.5) ** gamma

    return FunctionHandle(eval=f, label=f"cusp(gamma={gamma:g})")


def smooth_parabola() -> FunctionHandle:
    return FunctionHandle(eval=lambda t: np.asarray(t, dtype=float) * (1.0 - np.asarray(t, dtype=float)),
                          label="t(1-t)")


@dataclass(frozen=True)
class ManufacturedProblem:
    problem: ProblemSpec
    exact: FunctionHandle
    description: str


def manufacture(target: FunctionHandle, phi: FunctionHandle,
                phi1: FunctionHandle, phi2: FunctionHandle,
                gamma: float, description: str = "") -> ManufacturedProblem:
    """Choose the source so ``target`` becomes the exact zero-boundary solution,
    which the problem carries as its ``exact``.

    k(t) = target(t) - phi(t) target(phi1(t)) - (1-phi(t)) target(phi2(t)),
    a composite closure so collocation can sample it at arbitrary nodes. It
    reads the coefficients through ``ProblemSpec.coefficients``, so a value
    outside [0, 1] raises the DomainError every path raises.
    """
    t0 = float(np.asarray(target(0.0), dtype=float))
    t1 = float(np.asarray(target(1.0), dtype=float))
    if abs(t0) > BOUNDARY_TOL or abs(t1) > BOUNDARY_TOL:
        raise ValueError(
            f"target must vanish at both endpoints, got {t0!r} and {t1!r}")

    def k(t):
        ts = np.asarray(t, dtype=float).ravel()
        pt, x1, x2 = prob.coefficients(ts)
        return (np.asarray(target(ts), dtype=float)
                - pt * np.asarray(target(x1), dtype=float)
                - (1.0 - pt) * np.asarray(target(x2), dtype=float)).reshape(np.shape(t))[()]

    source = FunctionHandle(eval=k, label=f"manufactured({target.label})")
    prob = ProblemSpec(phi=phi, phi1=phi1, phi2=phi2, source=source,
                       boundary_left=0.0, boundary_right=0.0, gamma=gamma, exact=target)
    defect = residual(prob, target, 101)
    if defect > MANUFACTURE_TOL:
        raise ValueError(f"manufactured residual {defect:.3e} exceeds "
                         f"{MANUFACTURE_TOL:.0e}")
    return ManufacturedProblem(problem=prob, exact=target,
                               description=description or f"target {target.label}")
