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
