"""Reverse-mode automatic differentiation over dense float32 or float64 tensors.

A ``Tensor`` wraps a numpy array and records, at construction time, the
parents it was computed from together with the vector-Jacobian products
that carry a gradient back to them. ``Tensor.backward()`` on a scalar
output replays that tape in reverse topological order, accumulates
gradients into the ``.grad`` of the leaves, and frees the tape as it goes.

Design constraints kept deliberately tight so every gradient is auditable:

* one dtype rule: a tensor keeps a float32 array as float32 and holds
  anything else as float64, and every node computes in its inputs' dtype,
  so a graph built on float32 leaves runs in float32 and one built on
  float64 leaves (as the tests' ``gradcheck`` builds them) in float64,
  through the same code; a number operand takes its tensor's dtype;
* a binary op takes two operands of equal shape, or one operand and a
  size-1 scalar of no higher rank; any other pair is a ``ContractError``;
* static graphs (one graph per training step, rebuilt every step); a
  graph is consumed by its backward pass;
* single-threaded per graph.

A node holds one VJP per parent, or, for a fused node with several
parents, one joint VJP that returns a gradient per parent in order.
``Tensor.from_op`` records a node; other modules define their fused
nodes with it: ``hyperbolic``'s all-pairs arccosh distance,
``model``'s EGFF block, one node for its six arms, and ``losses``'
alignment loss, one node for its hyperbolic and cosine arms, orthogonal
projection loss, cross-entropy and weighted objective. A VJP closure holds
the arrays its node saves, directly or through a helper's VJP it closes
over.

The engine's ops, each one node with a hand-written VJP:

* ``t + u`` and ``t * u`` for a tensor t and a tensor or number u, and
  ``t.sum()``, the sum of all entries;
* ``radial(x, radius, *more)``: rows rescaled by functions of their norms,
  y = x * F(||x||); the gradient's radial term is 0 at a zero row. Each
  radius function carries its own clamp rules;
* ``affine(x, w, b)``: x @ w + b.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

__all__ = ["Tensor", "radial", "affine"]


class Tensor:
    """Dense float32 or float64 tensor with optional gradient tracking.

    ``data`` is always a C-contiguous (row-major) array: float32 when given
    float32, float64 for anything else. ``grad``
    is populated by :meth:`backward` for every leaf of the graph, a tensor
    with ``requires_grad`` set that was not computed from other tensors.
    An interior node gets no ``grad``: once its VJP has run, backward
    drops its parents and VJPs, so the graph's saved arrays are freed as
    the pass goes and the node is consumed. A second backward through a
    consumed node, from the same root or another, is rejected.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjps", "_backward_done", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = np.asarray(data, dtype=data.dtype if data.dtype == np.float32 else np.float64, order="C")
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
    def from_op(data: np.ndarray, parents: tuple["Tensor", ...], vjps: tuple) -> "Tensor":
        """A node computed from ``parents``: ``vjps`` holds one VJP per parent, or one joint VJP.

        The joint form, one callable for several parents, returns a tuple
        with a gradient for every parent. With one VJP per parent, the node
        keeps only the parents a gradient flows to: constants and inputs
        that require none are not part of the tape.
        """
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            if len(vjps) == len(parents):
                vjps = tuple(f for p, f in zip(parents, vjps) if p.requires_grad)
                parents = tuple(p for p in parents if p.requires_grad)
            out.requires_grad = True
            out._parents = parents
            out._vjps = vjps
        return out

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Populate ``.grad`` for every requires_grad leaf this scalar depends on.

        Gradients accumulate into existing ``.grad`` buffers, so backward
        passes from two loss roots that share only leaves sum, matching the
        linearity of differentiation. The pass consumes the graph: each
        interior node drops its parents and VJPs once its VJP has run, and
        reaching a consumed node again is an error.
        """
        if self.data.size != 1:
            raise ContractError(f"backward() requires a scalar root, got shape {self.shape}")
        if self._backward_done:
            raise ContractError("backward() already ran on this root; rebuild the graph first")
        if not self.requires_grad:
            raise ContractError("backward() on a tensor that does not require gradients")

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
            if node._backward_done:
                raise ContractError("backward() reached a node an earlier backward consumed; rebuild the graph first")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        flowing: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        while order:  # reverse topological order; each node is released once handled
            node = order.pop()
            g = flowing.pop(id(node), None)
            if g is None:
                continue
            parents, vjps = node._parents, node._vjps
            if not parents:
                node.grad = g if node.grad is None else node.grad + g
                continue
            grads = [vjp(g) for vjp in vjps] if len(vjps) == len(parents) else vjps[0](g)
            node._parents, node._vjps, node._backward_done = (), (), True
            for parent, pg in zip(parents, grads):
                if not parent.requires_grad:
                    continue
                acc = flowing.get(id(parent))
                flowing[id(parent)] = pg if acc is None else acc + pg

    # -- operators -------------------------------------------------------

    def __add__(self, other):
        a, b = _binary(self, other, "add")
        return Tensor.from_op(
            a.data + b.data, (a, b), (lambda g: _to_shape(g, a.shape), lambda g: _to_shape(g, b.shape))
        )

    def __mul__(self, other):
        a, b = _binary(self, other, "mul")
        ad, bd = a.data, b.data
        return Tensor.from_op(
            ad * bd, (a, b), (lambda g: _to_shape(g * bd, a.shape), lambda g: _to_shape(g * ad, b.shape))
        )

    def sum(self) -> "Tensor":
        """The sum of all entries."""
        shape = self.data.shape
        return Tensor.from_op(np.sum(self.data), (self,), (lambda g: np.broadcast_to(g, shape).copy(),))


# -- helpers ------------------------------------------------------------------


def _binary(a: Tensor, b, opname: str) -> tuple[Tensor, Tensor]:
    """Both operands as tensors: of equal shape, or one a size-1 scalar of no higher rank.

    A number becomes a tensor of ``a``'s dtype, so it does not widen a float32 operand.
    """
    b = b if isinstance(b, Tensor) else Tensor(np.asarray(b, dtype=a.data.dtype))
    if not (a.shape == b.shape or (a.size == 1 and a.ndim <= b.ndim) or (b.size == 1 and b.ndim <= a.ndim)):
        raise ContractError(f"{opname}: operand shapes {a.shape} and {b.shape} differ")
    return a, b


def _to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The gradient of an operand of ``shape``: ``g`` itself, or its total for a broadcast scalar."""
    return g if g.shape == shape else np.sum(g).reshape(shape)


# -- linear algebra -----------------------------------------------------------


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for [N x K] rows, a [K x M] weight and an [M] bias."""
    if x.ndim != 2 or w.ndim != 2 or b.shape != (w.shape[1],) or x.shape[1] != w.shape[0]:
        raise ContractError(f"affine: incompatible shapes {x.shape} @ {w.shape} + {b.shape}")
    xd, wd = x.data, w.data
    out = xd @ wd
    out += b.data
    return Tensor.from_op(
        out,
        (x, w, b),
        (lambda g: g @ wd.T, lambda g: xd.T @ g, lambda g: np.sum(g, axis=0)),
    )


# -- fused row maps -------------------------------------------------------------


def radial(x: Tensor, radius, *more) -> Tensor:
    """Each row rescaled by functions of its norm, applied in turn, as one node.

    A ``radius`` maps the [B x 1] norms n of the rows it receives to
    (phi(n), phi'(n)) and rescales those rows by phi(n). A chain of such
    maps is itself radial, y = x * F(||x||), with F and F' built by the
    chain rule from the norms each map sees, n_k = ||x|| * F_k. The VJP is

        g * F + x * (F'(n) / n) * <g, x>,

    whose second term is 0 at a zero row.
    """
    if x.ndim != 2:
        raise ContractError(f"radial needs [B x D] rows, got shape {x.shape}")
    xd = x.data
    n = np.sqrt(np.sum(xd * xd, axis=1, keepdims=True))
    factor, slope = radius(n)
    for radius in more:
        phi, dphi = radius(n * factor)
        slope = slope * phi + factor * dphi * (factor + n * slope)
        factor = factor * phi
    coef = np.divide(slope, n, out=np.zeros_like(n), where=n != 0.0)

    def vjp(g):
        return g * factor + xd * (coef * np.sum(g * xd, axis=1, keepdims=True))

    return Tensor.from_op(xd * factor, (x,), (vjp,))

