import math

import numpy as np
import pytest

from nfeq.functions import (DomainError, EvaluationError, FunctionHandle,
                            constant, eval_on, identity)


def test_constant_handle():
    c = constant(3.5)
    assert c(0.2) == 3.5
    assert np.all(eval_on(c, np.linspace(0, 1, 5)) == 3.5)


def test_identity_handle():
    i = identity()
    ts = np.linspace(0, 1, 7)
    assert np.array_equal(eval_on(i, ts), ts)


def test_eval_on_scalar_fallback():
    # a function that only accepts scalars still evaluates on arrays
    def scalar_only(t):
        return math.sqrt(t)

    ts = np.linspace(0, 1, 9)
    vals = eval_on(scalar_only, ts)
    assert np.allclose(vals, np.sqrt(ts))


@pytest.mark.parametrize("error", [
    DomainError("t=2.0 outside [0,1]", index=3),
    EvaluationError("inner", 0.25, math.nan),
])
def test_eval_on_propagates_domain_and_evaluation_errors(error):
    # no scalar retry: the vector call's error, raised once, reaches the caller
    calls = []

    def f(t):
        calls.append(np.shape(t))
        raise error

    with pytest.raises(type(error)) as exc:
        eval_on(f, np.linspace(0, 1, 5))
    assert exc.value is error
    assert calls == [(5,)]


def test_eval_on_nonfinite_raises_with_point():
    f = FunctionHandle(eval=lambda t: np.where(np.asarray(t) > 0.5,
                                               np.nan, 0.0), label="bad")
    with pytest.raises(EvaluationError) as exc:
        eval_on(f, np.linspace(0, 1, 11))
    assert exc.value.label == "bad"
    assert exc.value.t > 0.5


def test_handle_is_frozen():
    h = identity()
    with pytest.raises(AttributeError):
        h.label = "other"
