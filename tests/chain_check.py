"""Compare a fused tape node with the chain of generic ops it replaces."""

import numpy as np

from paeff.autodiff import Tensor


def value_and_grads(f, arrays, seed=0):
    """f's value at ``arrays`` and the gradient of <w, f> for a fixed random cotangent w."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = f(*tensors)
    w = np.random.default_rng(seed).normal(size=out.shape)
    (out * Tensor(w)).sum().backward()
    return [out.numpy()] + [t.grad for t in tensors]


def assert_matches_chain(fused, chain, arrays):
    """A fused node agrees with its chain of generic ops in value and gradient, within 1e-12."""
    for got, want in zip(value_and_grads(fused, arrays), value_and_grads(chain, arrays)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def log1p(x):
    """log(1 + x) as one node, for the chains; the engine itself has no such op."""
    xd = x.data
    return Tensor.from_op(np.log1p(xd), (x,), (lambda g: g / (1.0 + xd),))


# Generic ops that only the chains and their gradchecks use; the engine has none of them.


def sigmoid(x):
    s = 1.0 / (1.0 + np.exp(-x.data))
    return Tensor.from_op(s, (x,), (lambda g: g * s * (1.0 - s),))


def absolute(x):
    """|x|; subgradient 0 at 0."""
    sign = np.sign(x.data)
    return Tensor.from_op(np.abs(x.data), (x,), (lambda g: g * sign,))


def sqrt(x):
    """Elementwise square root; subgradient 0 at 0, as for ``norm2``."""
    r = np.sqrt(x.data)
    return Tensor.from_op(r, (x,), (lambda g: np.divide(g, 2.0 * r, out=np.zeros_like(r), where=r != 0.0),))


def artanh(x):
    xd = x.data
    return Tensor.from_op(np.arctanh(xd), (x,), (lambda g: g / (1.0 - xd * xd),))


def clamp_max(x, high):
    """min(x, high); the gradient passes where x <= high, ties included."""
    mask = x.data <= high
    return Tensor.from_op(np.minimum(x.data, high), (x,), (lambda g: g * mask,))
