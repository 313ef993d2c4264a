"""Per-op finite-difference checks and engine semantics."""

import numpy as np
import pytest

from briosum import autodiff as ad
from briosum.autodiff import Tensor

from helpers import tensor_gradcheck

RNG = np.random.default_rng(42)


def leaf(shape, scale=1.0):
    return Tensor(RNG.normal(0.0, scale, size=shape), requires_grad=True)


@pytest.mark.parametrize(
    "name,build",
    [
        ("add", lambda a, b: (a + b).sum()),
        ("sub", lambda a, b: (a - b).sum()),
        ("mul", lambda a, b: (a * b).sum()),
        ("mul_then_add", lambda a, b: ((a * b + a) * 0.5).sum()),
    ],
)
def test_elementwise_ops(name, build):
    a, b = leaf((3, 4)), leaf((3, 4))
    err = tensor_gradcheck(lambda: build(a, b), {"a": a, "b": b})
    assert err < 1e-6


def test_broadcast_add_bias():
    x, b = leaf((2, 5, 4)), leaf((4,))
    err = tensor_gradcheck(lambda: ((x + b) * (x + b)).sum(), {"x": x, "b": b})
    assert err < 1e-6


def test_matmul_2d():
    a, b = leaf((3, 4)), leaf((4, 5))
    err = tensor_gradcheck(lambda: ad.matmul(a, b).sum(), {"a": a, "b": b})
    assert err < 1e-6


def test_matmul_batched_and_broadcast():
    a, b = leaf((2, 3, 4, 5)), leaf((2, 3, 5, 4))
    err = tensor_gradcheck(lambda: (ad.matmul(a, b) * ad.matmul(a, b)).sum(), {"a": a, "b": b}, sample=40)
    assert err < 1e-6
    # weights shared across leading dims
    x, w = leaf((2, 3, 4)), leaf((4, 6))
    err = tensor_gradcheck(lambda: (ad.matmul(x, w) * ad.matmul(x, w)).sum(), {"x": x, "w": w})
    assert err < 1e-6
    # leading-dim broadcast: (1, ...) against (N, ...)
    enc, q = leaf((1, 3, 4)), leaf((5, 3, 4))
    err = tensor_gradcheck(
        lambda: ad.matmul(q, ad.transpose(enc, (0, 2, 1))).sum(), {"enc": enc, "q": q}
    )
    assert err < 1e-6


def test_reshape_transpose_getitem():
    a = leaf((2, 3, 4))
    err = tensor_gradcheck(
        lambda: (ad.transpose(ad.reshape(a, (2, 12)), (1, 0))[3:7] * 2.0).sum(), {"a": a}
    )
    assert err < 1e-6


def test_reductions():
    a = leaf((3, 4))
    for build in (
        lambda: a.sum(),
        lambda: a.mean(),
        lambda: (a.sum(axis=1) * a.sum(axis=1)).sum(),
        lambda: (a.mean(axis=0) * a.mean(axis=0)).sum(),
    ):
        assert tensor_gradcheck(build, {"a": a}) < 1e-6


def test_softmax_rows_normalize_and_grad():
    a = leaf((4, 7))
    out = ad.softmax(a)
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
    err = tensor_gradcheck(lambda: (ad.softmax(a) * ad.softmax(a)).sum(), {"a": a})
    assert err < 1e-6


def test_log_softmax_grad():
    a = leaf((4, 7))
    np.testing.assert_allclose(np.exp(ad.log_softmax(a).data).sum(axis=-1), 1.0, atol=1e-12)
    weights = Tensor(RNG.normal(size=(4, 7)))
    err = tensor_gradcheck(lambda: (ad.log_softmax(a) * weights).sum(), {"a": a})
    assert err < 1e-6


def test_layer_norm_grad():
    x, g, b = leaf((3, 8)), leaf((8,)), leaf((8,))
    weights = Tensor(RNG.normal(size=(3, 8)))
    err = tensor_gradcheck(
        lambda: (ad.layer_norm(x, g, b) * weights).sum(), {"x": x, "g": g, "b": b}
    )
    assert err < 1e-5


def test_gelu_and_relu_grads():
    a = leaf((5, 5))
    assert tensor_gradcheck(lambda: ad.gelu(a).sum(), {"a": a}) < 1e-6
    # keep relu inputs away from the kink
    shifted = Tensor(np.where(np.abs(a.data) < 0.05, a.data + 0.2, a.data), requires_grad=True)
    assert tensor_gradcheck(lambda: ad.relu(shifted).sum(), {"a": shifted}) < 1e-6


def test_embedding_gather_with_repeats():
    table = leaf((6, 3))
    ids = np.array([[0, 2, 2], [5, 0, 1]])
    weights = Tensor(RNG.normal(size=(2, 3, 3)))
    err = tensor_gradcheck(lambda: (ad.embedding(table, ids) * weights).sum(), {"t": table})
    assert err < 1e-6
    # repeated rows accumulate
    out = ad.embedding(table, ids).sum()
    table.zero_grad()
    out.backward()
    assert table.grad[2].sum() == pytest.approx(2 * 3)


def test_gather_last():
    a = leaf((4, 6))
    idx = np.array([0, 5, 2, 2])
    err = tensor_gradcheck(lambda: (ad.gather_last(a, idx) * ad.gather_last(a, idx)).sum(), {"a": a})
    assert err < 1e-6


def test_backward_accumulates_on_second_call():
    a = leaf((3,))
    loss = (a * a).sum()
    loss.backward()
    once = a.grad.copy()
    loss.backward()
    np.testing.assert_allclose(a.grad, 2 * once)


def test_grad_zero_for_unused_parameter():
    a, unused = leaf((3,)), leaf((3,))
    (a * 2.0).sum().backward()
    assert np.all(unused.grad == 0.0)


def test_shared_subgraph_fans_in():
    a = leaf((3,))
    shared = a * 2.0
    ((shared + shared) * 1.0).sum().backward()
    np.testing.assert_allclose(a.grad, np.full(3, 4.0))


def test_no_grad_blocks_graph():
    a = leaf((3,))
    with ad.no_grad():
        out = (a * a).sum()
    assert out._vjp is None
    with pytest.raises(RuntimeError):
        out.backward()


def test_backward_requires_scalar():
    a = leaf((3,))
    with pytest.raises(ValueError):
        (a * 2.0).backward()

