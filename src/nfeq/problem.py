"""Problem definition, contraction certification and form reformulation.

The equation solved throughout is

    f(t) = phi(t) f(phi1(t)) + (1 - phi(t)) f(phi2(t)) + k(t),   t in [0, 1],

either in its original form (f(0)=0, f(1)=1, k identically 0) or in the
zero-boundary form with a source term k vanishing at the endpoints.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .functions import (BOUNDARY_TOL, DomainError, FunctionHandle, checked_unit, constant,
                        eval_on, identity, sample)
from . import holder


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
    #: exact coefficient norms, which make certify rigorous, when known
    norms: NormOverrides | None = field(default=None, compare=False)
    #: the exact solution, which studies and solves compare against, when known
    exact: FunctionHandle | None = field(default=None, compare=False)

    @property
    def is_original_form(self) -> bool:
        return self.boundary_left == 0.0 and self.boundary_right == 1.0

    def coefficients(self, ts: np.ndarray, row: int | None = None):
        """phi, phi1 and phi2 at the 1-d points ts, each through
        ``functions.checked_unit``: the one reader of the three for the
        equation, so every path clamps them and refuses them with one error.
        Only a clamp copies, so one may be ts itself: copy before writing.
        ``row`` names ts[0]'s collocation node in that error."""
        return tuple(checked_unit(name, sample(fn, ts), ts, row) for name, fn in
                     (("phi", self.phi), ("phi1", self.phi1), ("phi2", self.phi2)))

    def operator(self, f, t):
        """Apply the substitution operator Tf plus the source at points t."""
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        pt, x1, x2 = self.coefficients(ts)
        out = (pt * eval_on(f, x1) + (1.0 - pt) * eval_on(f, x2)
               + eval_on(self.source, ts))
        return float(out[0]) if np.ndim(t) == 0 else out


def validate(p: ProblemSpec, m: int = holder.DEFAULT_SAMPLES) -> None:
    """Check coefficient ranges, endpoint conditions and the problem form."""
    violations: list[str] = []
    if not 0.0 < p.gamma <= 1.0:
        violations.append(f"gamma={p.gamma} outside (0, 1]")
    ts = holder.uniform_samples(m)  # ts[0] = 0 and ts[-1] = 1
    in_range = True
    samples = {}
    for name, fn in (("phi", p.phi), ("phi1", p.phi1), ("phi2", p.phi2)):
        try:
            samples[name] = sample(fn, ts)
            checked_unit(name, samples[name], ts)
        except DomainError as exc:
            violations.append(str(exc))
            in_range = False
    # the endpoint conditions read the same raw samples; "not <=" reports NaN
    if "phi1" in samples and not abs(samples["phi1"][-1] - 1.0) <= BOUNDARY_TOL:
        violations.append(f"phi1(1)={float(samples['phi1'][-1])!r} != 1")
    if "phi2" in samples and not abs(samples["phi2"][0]) <= BOUNDARY_TOL:
        violations.append(f"phi2(0)={float(samples['phi2'][0])!r} != 0")
    form = (p.boundary_left, p.boundary_right)
    if form not in ((0.0, 1.0), (0.0, 0.0)):
        violations.append(
            f"boundary values must be (0,1) or (0,0), got "
            f"({p.boundary_left}, {p.boundary_right})")
    elif in_range:  # a source may read the coefficients and raise their error again
        kv = eval_on(p.source, ts)
        if form == (0.0, 1.0) and np.abs(kv).max() > BOUNDARY_TOL:
            violations.append("original form requires source identically 0")
        elif form == (0.0, 0.0) and (abs(kv[0]) > BOUNDARY_TOL or abs(kv[-1]) > BOUNDARY_TOL):
            k0, k1 = float(kv[0]), float(kv[-1])
            violations.append(f"zero-boundary form requires k(0)=k(1)=0, got {k0!r}, {k1!r}")
    if violations:
        raise ProblemValidationError(violations)


@dataclass(frozen=True)
class NormOverrides:
    """Exact coefficient norms, used by certify in place of sampled ones."""

    norm_phi_gamma: float
    norm_phi1_lip: float
    norm_phi2_lip: float
    phi1_at_zero: float


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
    #: True when built from exact norms, False when sampled: how
    #: the norms were found, so certificates of equal norms compare equal
    rigorous: bool = field(compare=False)


def certify(p: ProblemSpec, m: int = holder.DEFAULT_SAMPLES,
            overrides: NormOverrides | None = None) -> ContractionCertificate:
    """Build the contraction certificate from exact or sampled norms.

    It uses the four norms of ``overrides``, else the problem's own
    ``p.norms``; with neither it samples all four on m points. Sampled
    norms are lower bounds, so that certificate is heuristic: it can
    declare contraction where the true factors are slightly larger.

    ``satisfies_existence`` (the paper's fixed_point_factor < 1) cannot hold
    when |phi(1)| >= 1, as for every built-in family (phi = t). validate
    enforces phi1(1) = 1, so n1 = |phi1(0)| + [phi1]_1 >= |phi1(0)| +
    |1 - phi1(0)| >= 1, and likewise ng >= |phi(0)| + |phi(1) - phi(0)| >=
    |phi(1)|; the samples include t = 0 and 1, so sampled norms obey both,
    as do analytic norms that bound the true ones.
    Hence fixed_point_factor >= ng n1^gamma >= |phi(1)|. The line is kept
    as the paper states it.
    """
    validate(p, m)
    g = p.gamma
    norms = overrides if overrides is not None else p.norms
    if norms is None:
        ng = holder.estimate_hoelder_norm(p.phi, g, m).norm
        n1, n2 = holder.estimate_lipschitz_norms([p.phi1, p.phi2], m)
        p10 = float(eval_on(p.phi1, np.array([0.0]))[0])
    else:
        ng, n1, n2, p10 = (norms.norm_phi_gamma, norms.norm_phi1_lip,
                           norms.norm_phi2_lip, norms.phi1_at_zero)

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
        rigorous=norms is not None,
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
    holder.check_gamma(gamma)
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
    """Shift f -> f - t: zero boundary values and source k(t) = p.operator(id, t) - t.

    The coefficients, and so ``p.norms``, are kept; a known exact solution
    u becomes u - t."""
    if not p.is_original_form:
        raise FormError("problem already has zero boundary values")
    ident = identity()
    source = FunctionHandle(eval=lambda t: p.operator(ident, t) - t, label="T(id)-id")
    exact = None if p.exact is None else FunctionHandle(
        eval=lambda t: p.exact(t) - np.asarray(t, dtype=float), label=f"{p.exact.label}-t")
    return replace(p, source=source, boundary_left=0.0, boundary_right=0.0, exact=exact)


def residual(p: ProblemSpec, f, m: int = 101) -> float:
    """Sup-norm defect of f in the functional equation over m uniform samples."""
    ts = holder.uniform_samples(m)
    fv = eval_on(f, ts)
    return float(np.abs(fv - p.operator(f, ts)).max())


# ---------------------------------------------------------------------------
# Built-in coefficient families
# ---------------------------------------------------------------------------

def paradise_fish(alpha: float, beta: float, gamma: float = 1.0) -> ProblemSpec:
    """Two-gate learning family: phi=t, phi1 = alpha*t + 1 - alpha, phi2 = beta*t.

    It carries its exact norms, and at alpha = 0 < beta < 1 its exact
    solution ``oracles.product_solution(beta)``."""
    from .oracles import product_solution  # oracles imports this module
    phi1 = FunctionHandle(
        eval=lambda t: alpha * np.asarray(t, dtype=float) + (1.0 - alpha),
        label=f"{alpha:g}*t+{1 - alpha:g}")
    phi2 = FunctionHandle(
        eval=lambda t: beta * np.asarray(t, dtype=float),
        label=f"{beta:g}*t")
    exact = product_solution(beta) if alpha == 0.0 and 0.0 < beta < 1.0 else None
    return ProblemSpec(phi=identity("t"), phi1=phi1, phi2=phi2,
                       source=constant(0.0, "0"),
                       boundary_left=0.0, boundary_right=1.0, gamma=gamma,
                       norms=paradise_fish_norms(alpha, beta), exact=exact)


def paradise_fish_norms(alpha: float, beta: float) -> NormOverrides:
    return NormOverrides(norm_phi_gamma=1.0, norm_phi1_lip=1.0,
                         norm_phi2_lip=beta, phi1_at_zero=1.0 - alpha)


def section5(alpha: float, gamma: float) -> ProblemSpec:
    """The paper's affine example, phi1 = 1 - (alpha/2)(1 - t) and phi2 =
    (alpha/2) t: the two-rate family at alpha = beta = alpha/2, whose exact
    norms it carries."""
    return paradise_fish(alpha / 2.0, alpha / 2.0, gamma)


def section5_norms(alpha: float) -> NormOverrides:
    """section5's exact norms: the two-rate family's at alpha = beta = alpha/2."""
    return paradise_fish_norms(alpha / 2.0, alpha / 2.0)


def section5_alpha_bound(gamma: float) -> float:
    """Largest alpha keeping the affine family inside the collocation
    convergence hypothesis: 2^(2-gamma) alpha^gamma < (1+2^(1-gamma))^(-1)."""
    holder.check_gamma(gamma)
    return (2.0 ** (gamma - 2.0) / (1.0 + 2.0 ** (1.0 - gamma))) ** (1.0 / gamma)
