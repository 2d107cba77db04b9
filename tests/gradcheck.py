"""Central finite-difference gradient verification.

``check_gradients`` is the tests' independent oracle: it never looks at
the tape, only at forward evaluations of the function under test. It
builds float64 leaves, so every node it checks computes in float64.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from paeff.autodiff import Tensor
from paeff.errors import NumericError


def numeric_gradient(
    f: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    wrt: int,
    step: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of scalar f with respect to inputs[wrt]."""
    base = [np.array(x, dtype=np.float64) for x in inputs]
    grad = np.zeros_like(base[wrt])
    flat = grad.reshape(-1)
    target = base[wrt].reshape(-1)
    for i in range(target.size):
        orig = target[i]
        target[i] = orig + step
        hi = f(*[Tensor(x) for x in base]).item()
        target[i] = orig - step
        lo = f(*[Tensor(x) for x in base]).item()
        target[i] = orig
        flat[i] = (hi - lo) / (2.0 * step)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max over components of |a - n| / max(1, |a|, |n|)."""
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / scale))


def check_gradients(
    f: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    step: float = 1e-6,
    tol: float = 1e-4,
) -> float:
    """Compare tape gradients of scalar ``f`` against central differences.

    Returns the worst relative error across all inputs; raises
    :class:`NumericError` if it exceeds ``tol``.
    """
    tensors = [Tensor(np.array(x, dtype=np.float64), requires_grad=True) for x in inputs]
    out = f(*tensors)
    if out.size != 1:
        raise NumericError("check_gradients needs a scalar-valued function")
    out.backward()
    worst = 0.0
    for i, t in enumerate(tensors):
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = numeric_gradient(f, [x.data for x in tensors], i, step=step)
        err = max_relative_error(analytic, numeric)
        worst = max(worst, err)
        if err > tol:
            raise NumericError(
                f"gradient mismatch on input {i}: relative error {err:.3e} exceeds {tol:.1e}"
            )
    return worst
