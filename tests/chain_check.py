"""Compare a fused tape node with the chain of generic ops it replaces.

The engine has no generic linear algebra, no division and no broadcasting
of size-1 axes: its fused nodes do that work inside one VJP. The chains
that the tests compare those nodes against are built from the generic
ops below, each a small node of its own. Their binary ops broadcast like
numpy and sum a broadcast gradient back to its operand's shape.

``log_softmax_nll`` and ``symmetric_nll_grad`` are the two softmax losses
as they stood before ``losses`` took both onto one softmax kernel, kept
word for word but for their errors, now ``ContractError``: the chain ``symmetric_nll`` is built on the first, and the
tests hold ``losses.cross_entropy_loss`` and ``losses.contrastive_nll`` to
both bit for bit.
"""

import numpy as np

from paeff.autodiff import Tensor
from paeff.errors import ContractError


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


def _tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unary(x, value, vjp):
    return Tensor.from_op(value, (x,), (vjp,))


def _reduce_to(g, shape):
    """Sum a broadcast gradient back over the axes its operand was broadcast along."""
    if g.shape == shape:
        return g
    if g.ndim != len(shape):
        return np.sum(g).reshape(shape)
    return np.sum(g, axis=tuple(i for i, n in enumerate(shape) if n == 1), keepdims=True)


def _binary(a, b, value, da, db):
    a, b = _tensor(a), _tensor(b)
    out = value(a.data, b.data)
    return Tensor.from_op(
        out,
        (a, b),
        (lambda g: _reduce_to(da(g, a.data, b.data), a.shape), lambda g: _reduce_to(db(g, a.data, b.data), b.shape)),
    )


def add(a, b):
    return _binary(a, b, np.add, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b):
    return _binary(a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b):
    return _binary(a, b, np.multiply, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b):
    return _binary(a, b, np.divide, lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def matmul(a, b):
    ad, bd = a.data, b.data
    return Tensor.from_op(ad @ bd, (a, b), (lambda g: g @ bd.T, lambda g: ad.T @ g))


def transpose(x):
    return _unary(x, np.ascontiguousarray(x.data.T), lambda g: g.T)


def reshape(x, *shape):
    old = x.shape
    return _unary(x, np.ascontiguousarray(x.data.reshape(shape)), lambda g: g.reshape(old))


def axis_sum(x, axis=None, keepdims=False):
    """The sum over ``axis`` (all entries for None)."""
    shape = x.shape

    def vjp(g):
        gg = g if keepdims or axis is None else np.expand_dims(g, axis)
        return np.broadcast_to(gg, shape).copy()

    return _unary(x, np.sum(x.data, axis=axis, keepdims=keepdims), vjp)


def norm2(x, axis=None, keepdims=False):
    """The Euclidean norm over ``axis`` (all entries for None); subgradient 0 at 0."""
    xd = x.data
    n = np.sqrt(np.sum(xd * xd, axis=axis, keepdims=True))
    out = n if keepdims else (n.reshape(()) if axis is None else np.squeeze(n, axis=axis))

    def vjp(g):
        safe = np.where(n == 0.0, 1.0, n)
        return np.asarray(g).reshape(n.shape) * np.where(n == 0.0, 0.0, xd / safe)

    return _unary(x, np.ascontiguousarray(out), vjp)


def exp(x):
    e = np.exp(x.data)
    return _unary(x, e, lambda g: g * e)


def log1p(x):
    xd = x.data
    return _unary(x, np.log1p(xd), lambda g: g / (1.0 + xd))


def tanh(x):
    t = np.tanh(x.data)
    return _unary(x, t, lambda g: g * (1.0 - t * t))


def relu(x):
    """max(x, 0); subgradient 0 at 0."""
    mask = x.data > 0.0
    return _unary(x, np.where(mask, x.data, 0.0), lambda g: g * mask)


def concat_cols(a, b):
    """Two matrices side by side."""
    k = a.shape[1]
    return Tensor.from_op(
        np.concatenate([a.data, b.data], axis=1), (a, b), (lambda g: g[:, :k], lambda g: g[:, k:])
    )


def sigmoid(x):
    s = 1.0 / (1.0 + np.exp(-x.data))
    return _unary(x, s, lambda g: g * s * (1.0 - s))


def absolute(x):
    """|x|; subgradient 0 at 0."""
    sign = np.sign(x.data)
    return _unary(x, np.abs(x.data), lambda g: g * sign)


def sqrt(x):
    """Elementwise square root; subgradient 0 at 0, as for ``norm2``."""
    r = np.sqrt(x.data)
    return _unary(x, r, lambda g: np.divide(g, 2.0 * r, out=np.zeros_like(r), where=r != 0.0))


def artanh(x):
    xd = x.data
    return _unary(x, np.arctanh(xd), lambda g: g / (1.0 - xd * xd))


def clamp_min(x, low):
    """max(x, low), ``low`` a float or a per-element array; the gradient passes where x >= low, ties included."""
    mask = x.data >= low
    return _unary(x, np.maximum(x.data, low), lambda g: g * mask)


def clamp_max(x, high):
    """min(x, high); the gradient passes where x <= high, ties included."""
    mask = x.data <= high
    return _unary(x, np.minimum(x.data, high), lambda g: g * mask)


def normalize_rows(x):
    """Each row divided by its norm floored at 1e-12."""
    return div(x, clamp_min(norm2(x, axis=1, keepdims=True), 1e-12))


def pairwise_cosine(a, b):
    """The cosine of every row of ``a`` with every row of ``b``."""
    return matmul(normalize_rows(a), transpose(normalize_rows(b)))


def symmetric_nll(logits, mask=None):
    """The symmetric contrastive NLL of [B x B] logits as a chain: two ``log_softmax_nll`` of the diagonal."""
    targets = np.arange(logits.shape[0])
    if mask is not None:
        logits = add(logits, Tensor(np.where(mask, -np.inf, 0.0)))
    return mul(add(log_softmax_nll(logits, targets), log_softmax_nll(transpose(logits), targets)), 0.5)


def log_softmax_nll(logits: Tensor, targets) -> Tensor:
    """Mean negative log softmax probability of the target class.

    Numerically stable (max-shifted); gradient is (softmax - onehot) / B.
    """
    if logits.ndim != 2:
        raise ContractError(f"log_softmax_nll expects [B x C] logits, got shape {logits.shape}")
    t = np.asarray(targets)
    if t.ndim != 1 or t.shape[0] != logits.shape[0]:
        raise ContractError(
            f"log_softmax_nll: targets shape {t.shape} does not match batch {logits.shape[0]}"
        )
    if not np.issubdtype(t.dtype, np.integer):
        t = t.astype(np.int64)
    b, c = logits.shape
    if np.any(t < 0) or np.any(t >= c):
        raise ContractError(f"target index out of range for {c} classes")

    z = logits.data - np.max(logits.data, axis=1, keepdims=True)
    target_z = z[np.arange(b), t]
    softmax = np.exp(z, out=z)  # one [B x C] buffer: z, then exp(z), then the softmax
    total = np.sum(softmax, axis=1, keepdims=True)
    loss = -np.mean(target_z - np.log(total).reshape(b))
    softmax /= total

    def vjp(g):
        scale = float(g) / b
        grad = softmax * scale
        grad[np.arange(b), t] -= scale
        return grad

    return Tensor.from_op(np.asarray(loss), (logits,), (vjp,))


def symmetric_nll_grad(z: np.ndarray, mask=None) -> tuple[float, np.ndarray]:
    """The symmetric contrastive loss of [B x B] logits ``z`` and its gradient.

    The loss is the mean of the row-wise and the column-wise
    :func:`log_softmax_nll` of the diagonal: row i's target is column i and
    column j's target is row j. Entries where the boolean ``mask`` is set
    count as -inf: zero softmax probability and zero gradient. This is the
    numpy core of the alignment node. ``z`` is overwritten
    and returned as the gradient ((softmax_rows + softmax_cols) / 2 - I) / B,
    so the pass holds one more [B x B] array, for the row softmax, only
    while it runs. ``mask`` is trusted: [B x B] boolean with a clear diagonal.
    """
    b = z.shape[0]
    if mask is not None:
        np.copyto(z, -np.inf, where=mask)
    diag = z.diagonal().copy()
    top_r = np.max(z, axis=1, keepdims=True)
    rows = np.subtract(z, top_r)
    np.exp(rows, out=rows)
    sum_r = np.sum(rows, axis=1, keepdims=True)
    rows /= sum_r
    top_c = np.max(z, axis=0, keepdims=True)
    z -= top_c
    np.exp(z, out=z)
    sum_c = np.sum(z, axis=0, keepdims=True)
    z /= sum_c
    z += rows
    del rows
    z *= 0.5 / b
    z[np.diag_indices(b)] -= 1.0 / b
    nll = np.mean(np.log(sum_r).reshape(b) + top_r.reshape(b) - diag)
    nll += np.mean(np.log(sum_c).reshape(b) + top_c.reshape(b) - diag)
    return 0.5 * float(nll), z
