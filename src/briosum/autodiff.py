"""Reverse-mode automatic differentiation over numpy arrays.

A tiny tape: every op returns a new Tensor holding the forward value and,
while gradients are enabled, a closure that maps the output gradient to the
input gradients. ``Tensor.backward()`` walks the graph once in reverse
topological order and accumulates into the ``grad`` buffer of every leaf
created with ``requires_grad=True``. Calling backward twice on the same
graph adds the same gradients again (accumulation is the contract; clearing
is the optimizer's job).

All arithmetic is float64.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def grad_enabled() -> bool:
    return _GRAD_ENABLED


class Tensor:
    """A float64 numpy array plus optional gradient bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    # -- graph plumbing -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def _in_graph(self) -> bool:
        return self.requires_grad or self._vjp is not None

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every requires_grad leaf.

        ``self`` must be a scalar (size-1) tensor. Gradient flow through
        intermediate nodes lives in a per-call map, so repeated calls on the
        same graph add identical contributions into the leaves.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        if not self._in_graph():
            raise RuntimeError("backward() on a tensor with no graph attached")

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen and parent._in_graph():
                    stack.append((parent, False))

        flow: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            out_grad = flow.pop(id(node), None)
            if out_grad is None:
                continue
            if node.requires_grad:
                node.grad += out_grad
            if node._vjp is None:
                continue
            for parent, contrib in zip(node._parents, node._vjp(out_grad)):
                if contrib is None or not parent._in_graph():
                    continue
                held = flow.get(id(parent))
                if held is None:
                    flow[id(parent)] = contrib
                else:
                    held += contrib

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p._in_graph() for p in parents):
        out._parents = parents
        out._vjp = vjp
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise ---------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _node(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _node(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data * b.data

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _node(out, (a, b), vjp)


def relu(a: Tensor) -> Tensor:
    a = _wrap(a)
    keep = a.data > 0.0
    out = np.where(keep, a.data, 0.0)

    def vjp(g):
        return (g * keep,)

    return _node(out, (a,), vjp)


_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU (smooth, so finite differences stay clean)."""
    a = _wrap(a)
    x = a.data
    inner = _GELU_C * (x + _GELU_A * x**3)
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)

    def vjp(g):
        dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * x**2)
        local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner
        return (g * local,)

    return _node(out, (a,), vjp)


# -- shape ops -----------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    a = _wrap(a)
    out = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.data.shape),)

    return _node(out, (a,), vjp)


def transpose(a: Tensor, axes) -> Tensor:
    a = _wrap(a)
    axes = tuple(axes)
    out = np.transpose(a.data, axes)
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        return (np.transpose(g, inverse),)

    return _node(out, (a,), vjp)


def getitem(a: Tensor, key) -> Tensor:
    a = _wrap(a)
    out = a.data[key]

    def vjp(g):
        full = np.zeros_like(a.data)
        np.add.at(full, key, g)
        return (full,)

    return _node(np.array(out, dtype=np.float64, copy=True), (a,), vjp)


# -- linear algebra -------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data @ b.data

    def vjp(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return _node(out, (a, b), vjp)


# -- reductions -----------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    a = _wrap(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, a.data.shape).copy(),)

    return _node(out, (a,), vjp)


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    a = _wrap(a)
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in np.atleast_1d(axis)]
    )
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / float(count))


# -- fused nonlinearities --------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return _node(out, (a,), vjp)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    probs = np.exp(out)

    def vjp(g):
        return (g - probs * g.sum(axis=axis, keepdims=True),)

    return _node(out, (a,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = xhat * gain.data + bias.data

    def vjp(g):
        g_gain = _unbroadcast(g * xhat, gain.data.shape)
        g_bias = _unbroadcast(g, bias.data.shape)
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        g_x = (dxhat - m1 - xhat * m2) * inv_std
        return g_x, g_gain, g_bias

    return _node(out, (x, gain, bias), vjp)


# -- lookups ---------------------------------------------------------------


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[..., :] = table[ids[...], :]."""
    table = _wrap(table)
    ids = np.asarray(ids, dtype=np.int64)
    out = table.data[ids]

    def vjp(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids.reshape(-1), g.reshape(-1, table.data.shape[-1]))
        return (full,)

    return _node(out, (table,), vjp)


def gather_last(a: Tensor, idx: np.ndarray) -> Tensor:
    """Pick one entry along the last axis: out[...] = a[..., idx[...]]."""
    a = _wrap(a)
    idx = np.asarray(idx, dtype=np.int64)
    out = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]

    def vjp(g):
        full = np.zeros_like(a.data)
        np.put_along_axis(full, idx[..., None], g[..., None], axis=-1)
        return (full,)

    return _node(out, (a,), vjp)

