"""Shared generators for randomized test inputs."""
from __future__ import annotations

import numpy as np

from nfeq.functions import FunctionHandle


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
