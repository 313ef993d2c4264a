"""Reverse-mode automatic differentiation over numpy arrays.

A tiny tape: every op returns a new Tensor holding the forward value and,
while gradients are enabled, a closure that maps the output gradient to the
input gradients. ``Tensor.backward()`` orders the graph's nodes by one
depth-first pass and walks them once in reverse. Every tensor sums its
contributions in one map, in the order the walk makes them; a leaf created
with ``requires_grad=True`` adds its sum into its ``grad`` buffer when the
walk ends. Calling backward twice on the same graph adds the same gradients
again (accumulation is the contract; clearing is the optimizer's job).

All arithmetic is float64.
"""

from __future__ import annotations

import contextlib
import functools
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

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every requires_grad leaf.

        ``self`` must be a scalar (size-1) tensor. Gradient flow through
        intermediate nodes lives in a per-call map, so repeated calls on the
        same graph add identical contributions into the leaves.

        One depth-first pass orders the nodes (tensors with a vjp), which are
        then walked in reverse. Every tensor's contributions join one map:
        the first is kept as it is, each later one is added to the sum, in
        walk order. A node takes its sum when the walk reaches it; the
        requires_grad leaves take theirs after the last node, so no
        contribution is freed in the middle of the walk.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        if self._vjp is None:
            if not self.requires_grad:
                raise RuntimeError("backward() on a tensor with no graph attached")
            self.grad += np.ones_like(self.data)
            return

        topo: list[Tensor] = []
        seen: set[Tensor] = set()
        # ``None`` above a node on the stack: its parents are done, emit it.
        stack: list[Tensor | None] = [self]
        while stack:
            node = stack.pop()
            if node is None:
                topo.append(stack.pop())
                continue
            if node in seen:
                continue
            seen.add(node)
            stack += (node, None)
            for parent in node._parents:
                if parent._vjp is not None and parent not in seen:
                    stack.append(parent)

        flow: dict[Tensor, np.ndarray] = {self: np.ones_like(self.data)}
        for node in reversed(topo):
            out_grad = flow.pop(node, None)
            if out_grad is None:
                continue
            if node.requires_grad:
                node.grad += out_grad
            for parent, contrib in zip(node._parents, node._vjp(out_grad)):
                if contrib is None:
                    continue
                if parent._vjp is None and not parent.requires_grad:
                    continue  # a constant
                # Never add in place: a vjp may hand the same array to two
                # parents (add's g), so ``held`` can alias another flow.
                held = flow.get(parent)
                flow[parent] = contrib if held is None else held + contrib
        # Only leaves are left: they take their sums once the walk is done.
        # Adding each contribution as it arrives would free it at once, and
        # glibc would trim the heap's top after every document and fault it
        # back in on the next: about ten times the minor faults of a BRIO
        # training pass, and slower.
        for leaf, joined in flow.items():
            leaf.grad += joined

    # -- operator sugar --------------------------------------------------

    def __mul__(self, other):
        return mul(self, other)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED:
        for p in parents:
            if p.requires_grad or p._vjp is not None:
                out._parents = parents
                out._vjp = vjp
                break
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


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data * b.data

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _node(out, (a, b), vjp)


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

    def vjp(g):
        return (np.transpose(g, np.argsort(axes)),)

    return _node(out, (a,), vjp)


# -- fused nonlinearities --------------------------------------------------


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    def vjp(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _node(out, (a,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift by the (n,)
    ``gain`` and ``bias``."""
    x, gain, bias = _wrap(x), _wrap(gain), _wrap(bias)
    n = x.data.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True) / n
    xhat = x.data - mu  # centered here, scaled in place below
    var = (xhat**2).sum(axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    out = xhat * gain.data
    out += bias.data

    def vjp(g):
        g_gain = _rows(g * xhat).sum(axis=0)
        g_bias = _rows(g).sum(axis=0)
        g_x = g * gain.data
        m1 = g_x.sum(axis=-1, keepdims=True) / n
        m2 = (g_x * xhat).sum(axis=-1, keepdims=True) / n
        g_x -= m1
        g_x -= xhat * m2
        g_x *= inv_std
        return g_x, g_gain, g_bias

    return _node(out, (x, gain, bias), vjp)


# -- lookups ---------------------------------------------------------------


def embed(table: Tensor, positions: Tensor, ids: np.ndarray, offset: int = 0) -> Tensor:
    """Token plus position embeddings of (B, T) ``ids``:
    ``table[ids] + positions[offset : offset + T]``."""
    ids = np.asarray(ids, dtype=np.int64)
    rows = slice(offset, offset + ids.shape[-1])
    out = table.data[ids]
    out += positions.data[rows]

    def vjp(g):
        g_table = np.zeros_like(table.data)
        np.add.at(g_table, ids.reshape(-1), g.reshape(-1, table.data.shape[-1]))
        g_positions = np.zeros_like(positions.data)
        window = g_positions[rows]
        window += _unbroadcast(g, window.shape)
        return g_table, g_positions

    return _node(out, (table, positions), vjp)


def gold_logprob_sum(logprobs: Tensor, gold: np.ndarray, keep: np.ndarray, axis=None) -> Tensor:
    """Sum of the gold entries ``logprobs[..., gold[...]]`` where ``keep`` holds.

    ``gold`` and ``keep`` have the shape of ``logprobs`` without its last
    axis; the sum runs over ``axis`` of that shape (all of it by default).
    """
    a = _wrap(logprobs)
    # Row r of the (rows, vocab) view gives its entry at column cols[r].
    rows = np.arange(keep.size)
    cols = np.where(keep, gold, 0).reshape(-1)
    weight = keep.astype(np.float64)
    out = (_rows(a.data)[rows, cols].reshape(keep.shape) * weight).sum(axis=axis)

    def vjp(g):
        g_picked = (g if axis is None else np.expand_dims(g, axis)) * weight
        full = np.zeros(a.data.shape)
        _rows(full)[rows, cols] = g_picked.reshape(-1)
        return (full,)

    return _node(out, (a,), vjp)


# -- fused layers ----------------------------------------------------------
#
# Each op is one tape node with a hand-written vjp in place of a chain of
# small ops: at these sizes a layer's cost is per-op Python overhead, not
# arithmetic. Weight gradients contract all leading axes in one product.


def _rows(a: np.ndarray) -> np.ndarray:
    """(..., n) as (rows, n)."""
    return a.reshape(-1, a.shape[-1])


def _to_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """(B, T, d) -> (B, heads, T, d // heads), a view."""
    b, t, d = a.shape
    return a.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _from_heads(a: np.ndarray) -> np.ndarray:
    """(B, heads, T, head_dim) -> (B, T, heads * head_dim)."""
    b, h, t, hd = a.shape
    return a.transpose(0, 2, 1, 3).reshape(b, t, h * hd)


def _row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1, keepdims=True)``, the same values. numpy reduces a
    row at a time, which costs more than copying once from 32 rows on (a
    training pass's scores): then the maxima are taken elementwise over
    a's columns, laid out as the rows of one contiguous copy. A maximum is
    exact, so the order does not change it."""
    n = a.shape[-1]
    if a.size < 32 * n:  # one decoding step's scores: a few rows
        return a.max(axis=-1, keepdims=True)
    return np.ascontiguousarray(a.reshape(-1, n).T).max(axis=0).reshape(*a.shape[:-1], 1)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w + b`` over the last axis of ``x``, or ``x @ w`` without ``b``."""
    out = x.data @ w.data if b is None else x.data @ w.data + b.data

    def vjp(g):
        g_rows = _rows(g)
        grads = (g @ w.data.T, _rows(x.data).T @ g_rows)
        return grads if b is None else (*grads, g_rows.sum(axis=0))

    return _node(out, (x, w) if b is None else (x, w, b), vjp)


def attention(
    queries: Tensor,
    k: Tensor,
    v: Tensor,
    wq: Tensor,
    bq: Tensor,
    wo: Tensor,
    bo: Tensor,
    mask: np.ndarray | None,
    heads: int,
    residual: Tensor | None = None,
) -> Tensor:
    """Multi-head attention from the query projection to the output projection.

    ``queries`` is (B, Tq, d). ``k`` and ``v`` are projected keys and values
    in the merged layout, (Bs, Tk, d) for Bs sources that serve B = r * Bs
    query rows, r consecutive rows each. One source (Bs = 1) is broadcast
    over all B rows, and Bs = B pairs row b with source b. In between, the
    queries are viewed as (Bs, r * Tq, d), so each source serves one block
    of rows in one batched product, with no gather. ``mask`` is an additive
    array broadcastable to (Bs, heads, r * Tq, Tk), or None. Scores are
    scaled by 1/sqrt(d / heads). The softmax probabilities are kept for the
    vjp rather than recomputed (Dao et al. 2022 recompute them; at these
    sizes storing is cheaper). A ``residual`` stream, (B, Tq, d), is added
    to the output and becomes the node's first parent.
    """
    x = queries.data
    if 1 < k.data.shape[0] < x.shape[0]:
        x = x.reshape(k.data.shape[0], -1, x.shape[-1])
    scale = 1.0 / np.sqrt(x.shape[-1] // heads)
    q = x @ wq.data
    q += bq.data
    q = _to_heads(q, heads)
    kh, vh = _to_heads(k.data, heads), _to_heads(v.data, heads)
    # The softmax runs in place on the scores: one array, not five.
    probs = q @ kh.transpose(0, 1, 3, 2)
    probs *= scale
    if mask is not None:
        probs += mask
    probs -= _row_max(probs)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    ctx = _from_heads(probs @ vh)
    out = ctx @ wo.data
    out += bo.data
    if residual is not None:
        out += residual.data.reshape(out.shape)

    def vjp(g_out):
        g = g_out.reshape(x.shape)
        g_rows = _rows(g)
        g_ctx = _to_heads(g @ wo.data.T, heads)
        g_scores = g_ctx @ vh.transpose(0, 1, 3, 2)
        g_scores -= (g_scores * probs).sum(axis=-1, keepdims=True)
        g_scores *= probs
        g_scores *= scale
        g_kh = g_scores.transpose(0, 1, 3, 2) @ q
        g_vh = probs.transpose(0, 1, 3, 2) @ g_ctx
        if k.data.shape[0] != x.shape[0]:
            g_kh, g_vh = g_kh.sum(axis=0, keepdims=True), g_vh.sum(axis=0, keepdims=True)
        g_q = _rows(_from_heads(g_scores @ kh))
        grads = (
            (g_q @ wq.data.T).reshape(queries.data.shape),
            _from_heads(g_kh),
            _from_heads(g_vh),
            _rows(x).T @ g_q,
            g_q.sum(axis=0),
            _rows(ctx).T @ g_rows,
            g_rows.sum(axis=0),
        )
        return grads if residual is None else (g_out, *grads)

    parents = (queries, k, v, wq, bq, wo, bo)
    return _node(out.reshape(queries.data.shape), parents if residual is None else (residual, *parents), vjp)


_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, residual: Tensor | None = None) -> Tensor:
    """Position-wise feed-forward layer ``gelu(x @ w1 + b1) @ w2 + b2``,
    plus ``residual`` (the node's first parent) when given.

    GELU is the tanh approximation (smooth, so finite differences stay
    clean). The cube is ``h * h * h``: numpy's ``h**3`` goes through ``pow``,
    which is far slower on these arrays. Both GELU and its derivative are
    computed in place, in the operand order of
    ``0.5 * h * (1 + tanh(c * (h + a * h**3)))``.
    """
    h = x.data @ w1.data
    h += b1.data
    t = h * h
    t *= h
    t *= _GELU_A
    t += h
    t *= _GELU_C
    np.tanh(t, out=t)
    one_plus_t = 1.0 + t
    act = h * 0.5
    act *= one_plus_t
    out = act @ w2.data
    out += b2.data
    if residual is not None:
        out += residual.data

    def vjp(g):
        g_rows = _rows(g)
        # 0.5 * (1 + t) + 0.5 * h * (1 - t * t) * c * (1 + 3 * a * h * h)
        dinner = h * h
        dinner *= 3.0 * _GELU_A
        dinner += 1.0
        dinner *= _GELU_C
        slope = t * t
        np.subtract(1.0, slope, out=slope)
        tail = h * 0.5
        tail *= slope
        tail *= dinner
        np.multiply(one_plus_t, 0.5, out=slope)
        slope += tail
        g_h = g @ w2.data.T
        g_h *= slope
        g_h_rows = _rows(g_h)
        grads = (
            g_h @ w1.data.T,
            _rows(x.data).T @ g_h_rows,
            g_h_rows.sum(axis=0),
            _rows(act).T @ g_rows,
            g_rows.sum(axis=0),
        )
        return grads if residual is None else (g, *grads)

    parents = (x, w1, b1, w2, b2)
    return _node(out, parents if residual is None else (residual, *parents), vjp)


# -- the BRIO objective ----------------------------------------------------


def pairwise_hinge(scores: np.ndarray, margin: float) -> tuple[np.float64, np.ndarray]:
    """Pairwise margin ranking loss over ``scores`` in quality order.

    Returns the sum over pairs i < j of max(0, s_j - s_i + (j-i)*margin) and
    the (n, n) mask of the pairs whose argument is strictly positive (the
    active hinges; at the kink the subgradient taken is 0).
    """
    steps, upper = _pair_grid(scores.shape[0])
    diffs = scores[None, :] - scores[:, None] + margin * steps
    return np.where(upper, np.maximum(0.0, diffs), 0.0).sum(), upper & (diffs > 0.0)


@functools.cache
def _pair_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (n, n) rank distances j - i and the mask of pairs i < j, read-only."""
    idx = np.arange(n, dtype=np.float64)
    steps = idx[None, :] - idx[:, None]
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    steps.flags.writeable = upper.flags.writeable = False
    return steps, upper


def brio_objective(
    sums: Tensor,
    lengths: np.ndarray,
    mle_weight: float,
    ctr_weight: float,
    margin: float,
    length_penalty: float,
) -> tuple[Tensor, list[tuple[float, float, float]]]:
    """The BRIO loss of k documents from their per-row log-prob sums.

    ``lengths`` is (R,) for one document or (k, R) for k, and document j owns
    rows j * R .. j * R + R - 1 of ``sums``: its rows of non-zero length,
    then empty rows of length 0 that it ignores. A document's row 0 is the
    reference: ``mle = sums[0] * (-1 / lengths[0])``. Its rows 1..N, if
    given, are the candidates in quality order, scored
    ``sums[k] * lengths[k] ** -length_penalty`` and ranked by
    ``pairwise_hinge``. Its loss is ``mle * mle_weight + ctr * ctr_weight``
    (the ranking term only when candidate rows are given). Returns the
    scalar sum of the documents' losses and each one's (loss, mle, ctr).
    """
    lengths = np.atleast_2d(lengths)
    s = sums.data.reshape(lengths.shape)
    values, blocks = [], []  # per document: (loss, mle, ctr); (inv_len0, n, active, scale)
    for s_doc, len_doc in zip(s, lengths):
        n = np.count_nonzero(len_doc)
        inv_len0 = -1.0 / len_doc[0]
        mle = s_doc[0] * inv_len0
        out = mle * mle_weight
        ctr, active, scale = 0.0, None, None
        if n > 1:
            scale = len_doc[1:n] ** -length_penalty
            ctr, active = pairwise_hinge(s_doc[1:n] * scale, margin)
            out = out + ctr * ctr_weight
        values.append((float(out), float(mle), float(ctr)))
        blocks.append((inv_len0, n, active, scale))
    total = sum((loss for loss, _, _ in values[1:]), values[0][0])  # one document: its loss as it is

    def vjp(g):
        grad = np.zeros_like(s)
        for grad_doc, (inv_len0, n, active, scale) in zip(grad, blocks):
            grad_doc[0] = g * (mle_weight * inv_len0)
            if active is not None:
                # A candidate gains +1 from every active pair in which it is the
                # lower-ranked one and -1 from every one in which it is higher.
                grad_doc[1:n] = g * ctr_weight * (active.sum(axis=0) - active.sum(axis=1)) * scale
        return (grad.reshape(sums.data.shape),)

    return _node(total, (sums,), vjp), values
