"""Problem definition, contraction certification and form reformulation.

The equation solved throughout is

    f(t) = phi(t) f(phi1(t)) + (1 - phi(t)) f(phi2(t)) + k(t),   t in [0, 1],

either in its original form (f(0)=0, f(1)=1, k identically 0) or in the
zero-boundary form with a source term k vanishing at the endpoints.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .functions import FunctionHandle, constant, eval_on, identity
from .grids import clamp_unit
from . import holder

BOUNDARY_TOL = 1e-12
RANGE_TOL = 1e-12


class ProblemValidationError(ValueError):
    def __init__(self, violations: list[str]) -> None:
        self.violations = violations
        super().__init__("invalid problem: " + "; ".join(violations))


@dataclass(frozen=True)
class ProblemSpec:
    phi: FunctionHandle
    phi1: FunctionHandle
    phi2: FunctionHandle
    source: FunctionHandle
    boundary_left: float
    boundary_right: float
    gamma: float

    @property
    def is_original_form(self) -> bool:
        return self.boundary_left == 0.0 and self.boundary_right == 1.0

    def operator(self, f, t):
        """Apply the substitution operator Tf plus the source at points t."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        pt = eval_on(self.phi, ts)
        x1 = clamp_unit(eval_on(self.phi1, ts))
        x2 = clamp_unit(eval_on(self.phi2, ts))
        out = (pt * eval_on(f, x1) + (1.0 - pt) * eval_on(f, x2)
               + eval_on(self.source, ts))
        return float(out[0]) if np.ndim(t) == 0 else out


def validate(p: ProblemSpec, m: int = holder.DEFAULT_SAMPLES) -> None:
    """Check coefficient ranges, endpoint conditions and the problem form."""
    violations: list[str] = []
    if not 0.0 < p.gamma <= 1.0:
        violations.append(f"gamma={p.gamma} outside (0, 1]")
    ts = holder.uniform_samples(m)
    for name, fn in (("phi1", p.phi1), ("phi2", p.phi2)):
        vals = eval_on(fn, ts)
        if vals.min() < -RANGE_TOL or vals.max() > 1.0 + RANGE_TOL:
            violations.append(
                f"{name} leaves [0,1]: sampled range [{vals.min():.6g}, {vals.max():.6g}]")
    p1_end = float(eval_on(p.phi1, np.array([1.0]))[0])
    p2_start = float(eval_on(p.phi2, np.array([0.0]))[0])
    if abs(p1_end - 1.0) > BOUNDARY_TOL:
        violations.append(f"phi1(1)={p1_end!r} != 1")
    if abs(p2_start) > BOUNDARY_TOL:
        violations.append(f"phi2(0)={p2_start!r} != 0")
    kv = eval_on(p.source, ts)
    if (p.boundary_left, p.boundary_right) == (0.0, 1.0):
        if np.abs(kv).max() > BOUNDARY_TOL:
            violations.append("original form requires source identically 0")
    elif (p.boundary_left, p.boundary_right) == (0.0, 0.0):
        if abs(kv[0]) > BOUNDARY_TOL or abs(kv[-1]) > BOUNDARY_TOL:
            violations.append(
                f"zero-boundary form requires k(0)=k(1)=0, got {kv[0]!r}, {kv[-1]!r}")
    else:
        violations.append(
            f"boundary values must be (0,1) or (0,0), got "
            f"({p.boundary_left}, {p.boundary_right})")
    if violations:
        raise ProblemValidationError(violations)


@dataclass(frozen=True)
class NormOverrides:
    """Analytic coefficient norms, overriding sampled estimates in certify."""

    norm_phi_gamma: Optional[float] = None
    norm_phi1_lip: Optional[float] = None
    norm_phi2_lip: Optional[float] = None
    phi1_at_zero: Optional[float] = None


@dataclass(frozen=True)
class ContractionCertificate:
    norm_phi_gamma: float
    norm_phi1_lip: float
    norm_phi2_lip: float
    phi1_at_zero: float
    lipschitz_factor: float
    fixed_point_factor: float
    collocation_threshold: float
    satisfies_existence: bool
    satisfies_collocation: bool


def certify(p: ProblemSpec, m: int = holder.DEFAULT_SAMPLES,
            overrides: NormOverrides | None = None) -> ContractionCertificate:
    """Build the contraction certificate from (sampled or supplied) norms.

    Sampled norms are lower bounds, so certification without analytic
    overrides is heuristic: it can declare contraction where the true
    factors are slightly larger.
    """
    validate(p, m)
    ov = overrides or NormOverrides()
    g = p.gamma
    ng = ov.norm_phi_gamma if ov.norm_phi_gamma is not None else \
        holder.estimate_hoelder_norm(p.phi, g, m).norm
    n1 = ov.norm_phi1_lip if ov.norm_phi1_lip is not None else \
        holder.estimate_lipschitz_norm(p.phi1, m)
    n2 = ov.norm_phi2_lip if ov.norm_phi2_lip is not None else \
        holder.estimate_lipschitz_norm(p.phi2, m)
    p10 = ov.phi1_at_zero if ov.phi1_at_zero is not None else \
        float(eval_on(p.phi1, np.array([0.0]))[0])

    drift = max(n1 - p10, 0.0)
    lipschitz = 2.0 * ng * (n2 ** g + drift ** g)
    fixed_point = ng * (2.0 * n2 ** g + drift ** g + n1 ** g)
    threshold = 1.0 / (1.0 + 2.0 ** (1.0 - g))
    return ContractionCertificate(
        norm_phi_gamma=ng,
        norm_phi1_lip=n1,
        norm_phi2_lip=n2,
        phi1_at_zero=p10,
        lipschitz_factor=lipschitz,
        fixed_point_factor=fixed_point,
        collocation_threshold=threshold,
        satisfies_existence=fixed_point < 1.0,
        satisfies_collocation=lipschitz < threshold,
    )


@dataclass(frozen=True)
class CorollaryReport:
    condition_a: bool
    a_value: float
    condition_b: bool
    b_bound: float
    implication_holds: bool


def check_corollary_conditions(alpha: float, beta: float, gamma: float) -> CorollaryReport:
    """Sufficient-condition checks for the two-rate family.

    (a) alpha^gamma + beta^gamma < 1/2 and (b) 0 < beta < 4^(-1/gamma),
    plus the implication (b) => (a) under alpha <= beta.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    if not 0.0 < alpha <= beta <= 1.0:
        raise ValueError(f"need 0 < alpha <= beta <= 1, got alpha={alpha}, beta={beta}")
    a_value = alpha ** gamma + beta ** gamma
    condition_a = a_value < 0.5
    b_bound = 4.0 ** (-1.0 / gamma)
    condition_b = 0.0 < beta < b_bound
    return CorollaryReport(
        condition_a=condition_a,
        a_value=a_value,
        condition_b=condition_b,
        b_bound=b_bound,
        implication_holds=(not condition_b) or condition_a,
    )


class FormError(ValueError):
    """Problem is not in the form required by the requested reformulation."""


def to_homogeneous(p: ProblemSpec) -> ProblemSpec:
    """Shift f -> f - t: zero boundary values and source k = T(identity) - identity."""
    if not p.is_original_form:
        raise FormError("problem already has zero boundary values")

    def k(t, phi=p.phi, phi1=p.phi1, phi2=p.phi2):
        t = np.asarray(t, dtype=float)
        pt = np.asarray(phi(t), dtype=float)
        return pt * np.asarray(phi1(t), dtype=float) \
            + (1.0 - pt) * np.asarray(phi2(t), dtype=float) - t

    source = FunctionHandle(eval=k, label="T(id)-id")
    return replace(p, source=source, boundary_left=0.0, boundary_right=0.0)


def residual(p: ProblemSpec, f, m: int = 101) -> float:
    """Sup-norm defect of f in the functional equation over m uniform samples."""
    ts = holder.uniform_samples(m)
    fv = eval_on(f, ts)
    return float(np.abs(fv - p.operator(f, ts)).max())


# ---------------------------------------------------------------------------
# Built-in coefficient families
# ---------------------------------------------------------------------------

def paradise_fish(alpha: float, beta: float, gamma: float = 1.0) -> ProblemSpec:
    """Two-gate learning family: phi=t, phi1 = alpha*t + 1 - alpha, phi2 = beta*t."""
    phi1 = FunctionHandle(
        eval=lambda t: alpha * np.asarray(t, dtype=float) + (1.0 - alpha),
        label=f"{alpha:g}*t+{1 - alpha:g}")
    phi2 = FunctionHandle(
        eval=lambda t: beta * np.asarray(t, dtype=float),
        label=f"{beta:g}*t")
    return ProblemSpec(phi=identity("t"), phi1=phi1, phi2=phi2,
                       source=constant(0.0, "0"),
                       boundary_left=0.0, boundary_right=1.0, gamma=gamma)


def paradise_fish_norms(alpha: float, beta: float) -> NormOverrides:
    return NormOverrides(norm_phi_gamma=1.0, norm_phi1_lip=1.0,
                         norm_phi2_lip=beta, phi1_at_zero=1.0 - alpha)


def section5(alpha: float, gamma: float) -> ProblemSpec:
    """Affine family phi=t, phi1 = 1 - (alpha/2)(1-t), phi2 = (alpha/2) t."""
    half = alpha / 2.0
    phi1 = FunctionHandle(
        eval=lambda t: 1.0 - half * (1.0 - np.asarray(t, dtype=float)),
        label=f"1-{half:g}*(1-t)")
    phi2 = FunctionHandle(
        eval=lambda t: half * np.asarray(t, dtype=float),
        label=f"{half:g}*t")
    return ProblemSpec(phi=identity("t"), phi1=phi1, phi2=phi2,
                       source=constant(0.0, "0"),
                       boundary_left=0.0, boundary_right=1.0, gamma=gamma)


def section5_norms(alpha: float) -> NormOverrides:
    return NormOverrides(norm_phi_gamma=1.0, norm_phi1_lip=1.0,
                         norm_phi2_lip=alpha / 2.0, phi1_at_zero=1.0 - alpha / 2.0)


def section5_alpha_bound(gamma: float) -> float:
    """Largest alpha keeping the affine family inside the collocation
    convergence hypothesis: 2^(2-gamma) alpha^gamma < (1+2^(1-gamma))^(-1)."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    return (2.0 ** (gamma - 2.0) / (1.0 + 2.0 ** (1.0 - gamma))) ** (1.0 / gamma)
