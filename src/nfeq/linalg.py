"""Sparse direct solver: the fallback for collocation systems the sweep cannot certify.

``collocation.solve_collocation`` solves by a certified Picard sweep and
comes here, to ``factor``, only when the sweep budget runs out or the system
is singular. One SuperLU factor (``scipy.sparse.linalg.splu``; Li & Demmel,
ACM TOMS 2003) serves the solve and ||a^-1||_inf. ``solve`` and the
Hager/Higham-Tisseur estimator ``condition_estimate`` (SIAM J. Matrix Anal.
Appl. 2000) have no caller in the package; tests and benchmark traces use them.
``collocation`` imports this module on its first fallback only: with
scipy.sparse, scipy.sparse.linalg and scipy.linalg it costs about 30 MiB of
resident memory and 0.25 s of import, paid once per process; the sweep path
loads none of them.
"""
from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, SuperLU, onenormest, splu

#: pivots below this magnitude are treated as exact zeros
PIVOT_FLOOR = 1e-300


class SingularMatrixError(ArithmeticError):
    """Elimination hit a (numerically) zero pivot.

    ``step`` is the 1-based elimination step of a pivot below PIVOT_FLOOR,
    or None when SuperLU reports exact singularity without the step.
    """

    def __init__(self, step: int | None) -> None:
        self.step = step
        super().__init__("matrix is exactly singular" if step is None
                         else f"zero pivot at elimination step {step}")


def _as_square(a) -> sparse.csc_array:
    a = sparse.csc_array(a, dtype=float)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.data)):
        raise ValueError("matrix entries must be finite")
    return a


def factor(a) -> SuperLU:
    """SuperLU factor of a square matrix; SingularMatrixError if it is singular."""
    a = _as_square(a)
    try:
        lu = splu(a)
    except RuntimeError:  # SuperLU's "Factor is exactly singular"
        raise SingularMatrixError(None) from None
    diag = np.abs(lu.U.diagonal())
    if diag.min() < PIVOT_FLOOR:
        raise SingularMatrixError(int(diag.argmin()) + 1)
    return lu


def solve(a, rhs) -> np.ndarray:
    """Solve a*x = rhs through one SuperLU factor."""
    a = _as_square(a)
    b = np.asarray(rhs, dtype=float)
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"rhs length {b.shape[0]} does not match matrix "
                         f"dimension {a.shape[0]}")
    return factor(a).solve(b)


def condition_estimate(a, lu: SuperLU | None = None) -> float:
    """Infinity-norm condition number ``||a||_inf ||a^-1||_inf``.

    ``||a^-1||_inf = ||a^-T||_1`` is estimated from a few solves with the
    factor ``lu`` of ``a`` (computed here when not given): a lower bound,
    exact when ``a^-1 >= 0`` as for a nonsingular ``I - B`` with ``B >= 0``.
    One estimator column (t=1) keeps it deterministic; larger t draws from
    NumPy's global random state. Returns +inf for singular matrices.
    """
    a = _as_square(a)
    if lu is None:
        try:
            lu = factor(a)
        except SingularMatrixError:
            return np.inf
    inverse_t = LinearOperator(a.shape, dtype=float,
                               matvec=lambda x: lu.solve(x, trans="T"),
                               rmatvec=lu.solve)
    norm_a = float(abs(a).sum(axis=1).max())
    return norm_a * float(onenormest(inverse_t, t=1))
