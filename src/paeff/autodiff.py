"""Reverse-mode automatic differentiation over dense float64 tensors.

A ``Tensor`` wraps a numpy array and records, at construction time, the
parents it was computed from together with one vector-Jacobian product
per parent. ``Tensor.backward()`` on a scalar output replays that tape in
reverse topological order and accumulates gradients into ``.grad``.

Design constraints kept deliberately tight so every gradient is auditable:

* float64 only; binary ops broadcast a size-1 operand of no higher rank,
  or size-1 axes at equal rank (``[N x D] * [N x 1]``, ``[N x 1] + [1 x M]``);
  any other rank mismatch, such as ``[N]`` with ``[N x 1]``, is a
  ``DimensionError``;
* static graphs (one graph per training step, rebuilt every step);
* single-threaded per graph.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DimensionError, IndexOutOfRangeError, NumericError

__all__ = [
    "Tensor",
    "matmul",
    "tanh",
    "relu",
    "sigmoid",
    "exp",
    "artanh",
    "absolute",
    "sqrt",
    "clamp_min",
    "clamp_max",
    "concat_cols",
    "log_softmax_nll",
]


class Tensor:
    """Dense float64 tensor with optional gradient tracking.

    ``data`` is always a C-contiguous (row-major) float64 array. ``grad``
    is populated by :meth:`backward` for every tensor in the graph that
    has ``requires_grad`` set; repeated backward calls on the same root
    are rejected.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjps", "_backward_done")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._vjps: tuple = ()
        self._backward_done = False

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        """The underlying array. Treat as read-only."""
        return self.data

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- graph plumbing -------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: tuple["Tensor", ...], vjps: tuple) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._vjps = vjps
        return out

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Populate ``.grad`` for every requires_grad ancestor of this scalar.

        Gradients accumulate into existing ``.grad`` buffers, so separate
        backward passes from two loss roots sum, matching the linearity of
        differentiation. Running backward twice on the same root is an error.
        """
        if self.data.size != 1:
            raise ContractError(f"backward() requires a scalar root, got shape {self.shape}")
        if self._backward_done:
            raise ContractError("backward() already ran on this root; rebuild the graph first")
        if not self.requires_grad:
            raise ContractError("backward() on a tensor that does not require gradients")
        self._backward_done = True

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        flowing: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = flowing.pop(id(node), None)
            if g is None:
                continue
            node.grad = g if node.grad is None else node.grad + g
            for parent, vjp in zip(node._parents, node._vjps):
                if not parent.requires_grad:
                    continue
                pg = vjp(g)
                acc = flowing.get(id(parent))
                flowing[id(parent)] = pg if acc is None else acc + pg

    # -- operators -------------------------------------------------------

    def __add__(self, other):
        return _add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return _sub(self, other)

    def __rsub__(self, other):
        return _sub(other, self)

    def __mul__(self, other):
        return _mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _div(self, other)

    def __rtruediv__(self, other):
        return _div(other, self)

    def __neg__(self):
        return Tensor._from_op(-self.data, (self,), (lambda g: -g,))

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        try:
            data = self.data.reshape(shape)
        except ValueError as e:
            raise DimensionError(f"cannot reshape {old} to {shape}") from e
        return Tensor._from_op(np.ascontiguousarray(data), (self,), (lambda g: g.reshape(old),))

    def transpose(self) -> "Tensor":
        if self.data.ndim != 2:
            raise DimensionError(f"transpose needs a matrix, got shape {self.shape}")
        return Tensor._from_op(np.ascontiguousarray(self.data.T), (self,), (lambda g: g.T,))

    # -- reductions ---------------------------------------------------------

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        axis = _check_axis(axis, self.ndim)
        shape = self.data.shape

        def vjp(g):
            if axis is None:
                return np.broadcast_to(g, shape).copy()
            gg = g if keepdims else np.expand_dims(g, axis)
            return np.broadcast_to(gg, shape).copy()

        return Tensor._from_op(np.sum(self.data, axis=axis, keepdims=keepdims), (self,), (vjp,))

    def norm2(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Euclidean norm; gradient is x/||x||, defined as 0 at the zero vector."""
        axis = _check_axis(axis, self.ndim)
        x = self.data
        n = np.sqrt(np.sum(x * x, axis=axis, keepdims=True))
        if keepdims:
            out = n
        elif axis is None:
            out = n.reshape(())
        else:
            out = np.squeeze(n, axis=axis)

        def vjp(g):
            gg = np.asarray(g).reshape(n.shape)
            safe = np.where(n == 0.0, 1.0, n)
            direction = np.where(n == 0.0, 0.0, x / safe)
            return gg * direction

        return Tensor._from_op(np.ascontiguousarray(out), (self,), (vjp,))


# -- helpers ------------------------------------------------------------------


def _check_axis(axis: int | None, ndim: int) -> int | None:
    if axis is None:
        return None
    if not -ndim <= axis < ndim:
        raise DimensionError(f"axis {axis} out of range for {ndim}-d tensor")
    return axis % ndim


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back over the axes its operand was broadcast along."""
    if g.shape == shape:
        return g
    if g.ndim != len(shape):
        return np.sum(g).reshape(shape)
    return np.sum(g, axis=tuple(i for i, n in enumerate(shape) if n == 1), keepdims=True)


def _binary_shapes(a: Tensor, b: Tensor, opname: str) -> None:
    same_rank = a.ndim == b.ndim and all(m == n or 1 in (m, n) for m, n in zip(a.shape, b.shape))
    scalar = (a.size == 1 and a.ndim <= b.ndim) or (b.size == 1 and b.ndim <= a.ndim)
    if not (same_rank or scalar):
        raise DimensionError(f"{opname}: operand shapes {a.shape} and {b.shape} do not broadcast")


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _binary_shapes(a, b, "add")
    return Tensor._from_op(
        a.data + b.data,
        (a, b),
        (lambda g: _reduce_to(g, a.shape), lambda g: _reduce_to(g, b.shape)),
    )


def _sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _binary_shapes(a, b, "sub")
    return Tensor._from_op(
        a.data - b.data,
        (a, b),
        (lambda g: _reduce_to(g, a.shape), lambda g: _reduce_to(-g, b.shape)),
    )


def _mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _binary_shapes(a, b, "mul")
    ad, bd = a.data, b.data
    return Tensor._from_op(
        ad * bd,
        (a, b),
        (lambda g: _reduce_to(g * bd, a.shape), lambda g: _reduce_to(g * ad, b.shape)),
    )


def _div(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    _binary_shapes(a, b, "div")
    ad, bd = a.data, b.data
    return Tensor._from_op(
        ad / bd,
        (a, b),
        (lambda g: _reduce_to(g / bd, a.shape), lambda g: _reduce_to(-g * ad / (bd * bd), b.shape)),
    )


# -- pointwise nonlinearities -------------------------------------------------


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)
    return Tensor._from_op(t, (x,), (lambda g: g * (1.0 - t * t),))


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0.0
    return Tensor._from_op(np.where(mask, x.data, 0.0), (x,), (lambda g: g * mask,))


def sigmoid(x: Tensor) -> Tensor:
    # Stable in both tails: factor through exp of the negative magnitude.
    z = np.exp(-np.abs(x.data))
    s = np.where(x.data >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))
    return Tensor._from_op(s, (x,), (lambda g: g * s * (1.0 - s),))


def exp(x: Tensor) -> Tensor:
    e = np.exp(x.data)
    return Tensor._from_op(e, (x,), (lambda g: g * e,))


def artanh(x: Tensor) -> Tensor:
    """Inverse hyperbolic tangent; domain |x| < 1, derivative 1/(1-x^2)."""
    if np.any(np.abs(x.data) >= 1.0):
        raise NumericError("artanh: argument must lie strictly inside (-1, 1)")
    xd = x.data
    return Tensor._from_op(np.arctanh(xd), (x,), (lambda g: g / (1.0 - xd * xd),))


def absolute(x: Tensor) -> Tensor:
    """|x|; subgradient at 0 is 0."""
    s = np.sign(x.data)
    return Tensor._from_op(np.abs(x.data), (x,), (lambda g: g * s,))


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root; subgradient at 0 is 0 (same policy as norm2)."""
    if np.any(x.data < 0.0):
        raise NumericError("sqrt: argument must be nonnegative")
    r = np.sqrt(x.data)
    safe = np.where(r == 0.0, 1.0, 2.0 * r)
    mask = r != 0.0
    return Tensor._from_op(r, (x,), (lambda g: g * mask / safe,))


def clamp_min(x: Tensor, low: float | np.ndarray) -> Tensor:
    """max(x, low), ``low`` a float or a per-element array; gradient passes where x >= low."""
    mask = x.data >= low
    return Tensor._from_op(np.maximum(x.data, low), (x,), (lambda g: g * mask,))


def clamp_max(x: Tensor, high: float) -> Tensor:
    """min(x, high); gradient passes where x <= high (ties take the identity side)."""
    mask = x.data <= high
    return Tensor._from_op(np.minimum(x.data, high), (x,), (lambda g: g * mask,))


# -- linear algebra -----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions disagree: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    return Tensor._from_op(
        ad @ bd,
        (a, b),
        (lambda g: g @ bd.T, lambda g: ad.T @ g),
    )


# -- structural ops -----------------------------------------------------------


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two matrices along the feature axis."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise DimensionError(f"concat_cols: incompatible shapes {a.shape} and {b.shape}")
    k = a.shape[1]
    return Tensor._from_op(
        np.concatenate([a.data, b.data], axis=1),
        (a, b),
        (lambda g: g[:, :k], lambda g: g[:, k:]),
    )


# -- fused classification loss ------------------------------------------------


def log_softmax_nll(logits: Tensor, targets) -> Tensor:
    """Mean negative log softmax probability of the target class.

    Numerically stable (max-shifted); gradient is (softmax - onehot) / B.
    """
    if logits.ndim != 2:
        raise DimensionError(f"log_softmax_nll expects [B x C] logits, got shape {logits.shape}")
    t = np.asarray(targets)
    if t.ndim != 1 or t.shape[0] != logits.shape[0]:
        raise DimensionError(
            f"log_softmax_nll: targets shape {t.shape} does not match batch {logits.shape[0]}"
        )
    if not np.issubdtype(t.dtype, np.integer):
        t = t.astype(np.int64)
    b, c = logits.shape
    if np.any(t < 0) or np.any(t >= c):
        raise IndexOutOfRangeError(f"target index out of range for {c} classes")

    z = logits.data - np.max(logits.data, axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(z), axis=1, keepdims=True))
    logp = z - lse
    loss = -np.mean(logp[np.arange(b), t])

    softmax = np.exp(logp)

    def vjp(g):
        grad = softmax.copy()
        grad[np.arange(b), t] -= 1.0
        return (float(np.asarray(g).reshape(())) * grad) / b

    return Tensor._from_op(np.asarray(loss), (logits,), (vjp,))
