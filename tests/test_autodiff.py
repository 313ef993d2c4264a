"""Per-op finite-difference checks and engine semantics."""

import numpy as np
import pytest

from briosum import autodiff as ad
from briosum.autodiff import Tensor

from helpers import (
    add,
    assert_relative_close,
    composed_attention,
    composed_brio_objective,
    composed_ffn,
    composed_gold_sum,
    composed_linear,
    embedding,
    gather_last,
    gelu,
    getitem,
    matmul,
    reference_backward,
    relu,
    softmax,
    sub,
    tensor_gradcheck,
    tsum,
)

RNG = np.random.default_rng(42)


def leaf(shape, scale=1.0):
    return Tensor(RNG.normal(0.0, scale, size=shape), requires_grad=True)


@pytest.mark.parametrize(
    "name,build",
    [
        ("add", lambda a, b: tsum(add(a, b))),
        ("sub", lambda a, b: tsum(sub(a, b))),
        ("mul", lambda a, b: tsum(a * b)),
        ("mul_then_add", lambda a, b: tsum(add(a * b, a) * 0.5)),
    ],
)
def test_elementwise_ops(name, build):
    a, b = leaf((3, 4)), leaf((3, 4))
    err = tensor_gradcheck(lambda: build(a, b), {"a": a, "b": b})
    assert err < 1e-6


def test_broadcast_add_bias():
    x, b = leaf((2, 5, 4)), leaf((4,))
    err = tensor_gradcheck(lambda: tsum(add(x, b) * add(x, b)), {"x": x, "b": b})
    assert err < 1e-6


def test_matmul_2d():
    a, b = leaf((3, 4)), leaf((4, 5))
    err = tensor_gradcheck(lambda: tsum(matmul(a, b)), {"a": a, "b": b})
    assert err < 1e-6


def test_matmul_batched_and_broadcast():
    a, b = leaf((2, 3, 4, 5)), leaf((2, 3, 5, 4))
    err = tensor_gradcheck(lambda: tsum(matmul(a, b) * matmul(a, b)), {"a": a, "b": b}, sample=40)
    assert err < 1e-6
    # weights shared across leading dims
    x, w = leaf((2, 3, 4)), leaf((4, 6))
    err = tensor_gradcheck(lambda: tsum(matmul(x, w) * matmul(x, w)), {"x": x, "w": w})
    assert err < 1e-6
    # leading-dim broadcast: (1, ...) against (N, ...)
    enc, q = leaf((1, 3, 4)), leaf((5, 3, 4))
    err = tensor_gradcheck(
        lambda: tsum(matmul(q, ad.transpose(enc, (0, 2, 1)))), {"enc": enc, "q": q}
    )
    assert err < 1e-6


def test_reshape_transpose_getitem():
    a = leaf((2, 3, 4))
    err = tensor_gradcheck(
        lambda: tsum(getitem(ad.transpose(ad.reshape(a, (2, 12)), (1, 0)), slice(3, 7)) * 2.0), {"a": a}
    )
    assert err < 1e-6


def test_reductions():
    a = leaf((3, 4))
    for build in (
        lambda: tsum(a),
        lambda: tsum(tsum(a, axis=1) * tsum(a, axis=1)),
        lambda: tsum(tsum(a, axis=0) * tsum(a, axis=0)),
    ):
        assert tensor_gradcheck(build, {"a": a}) < 1e-6


def test_softmax_rows_normalize_and_grad():
    a = leaf((4, 7))
    out = softmax(a)
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
    err = tensor_gradcheck(lambda: tsum(softmax(a) * softmax(a)), {"a": a})
    assert err < 1e-6


def test_log_softmax_grad():
    a = leaf((4, 7))
    np.testing.assert_allclose(np.exp(ad.log_softmax(a).data).sum(axis=-1), 1.0, atol=1e-12)
    weights = Tensor(RNG.normal(size=(4, 7)))
    err = tensor_gradcheck(lambda: tsum(ad.log_softmax(a) * weights), {"a": a})
    assert err < 1e-6


def test_layer_norm_grad():
    x, g, b = leaf((3, 8)), leaf((8,)), leaf((8,))
    weights = Tensor(RNG.normal(size=(3, 8)))
    err = tensor_gradcheck(
        lambda: tsum(ad.layer_norm(x, g, b) * weights), {"x": x, "g": g, "b": b}
    )
    assert err < 1e-5


def test_gelu_and_relu_grads():
    a = leaf((5, 5))
    assert tensor_gradcheck(lambda: tsum(gelu(a)), {"a": a}) < 1e-6
    # keep relu inputs away from the kink
    shifted = Tensor(np.where(np.abs(a.data) < 0.05, a.data + 0.2, a.data), requires_grad=True)
    assert tensor_gradcheck(lambda: tsum(relu(shifted)), {"a": shifted}) < 1e-6


def test_embedding_gather_with_repeats():
    table = leaf((6, 3))
    ids = np.array([[0, 2, 2], [5, 0, 1]])
    weights = Tensor(RNG.normal(size=(2, 3, 3)))
    err = tensor_gradcheck(lambda: tsum(embedding(table, ids) * weights), {"t": table})
    assert err < 1e-6
    # repeated rows accumulate
    out = tsum(embedding(table, ids))
    table.grad[...] = 0.0
    out.backward()
    assert table.grad[2].sum() == pytest.approx(2 * 3)


def test_gather_last():
    a = leaf((4, 6))
    idx = np.array([0, 5, 2, 2])
    err = tensor_gradcheck(lambda: tsum(gather_last(a, idx) * gather_last(a, idx)), {"a": a})
    assert err < 1e-6


def layer_norm_with_np_mean(x, gain, bias, upstream, eps=1e-5):
    """``ad.layer_norm``'s output and input gradient as written with ``np.mean``."""
    centered = x - x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt((centered**2).mean(axis=-1, keepdims=True) + eps)
    xhat = centered * inv_std
    dxhat = upstream * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return xhat * gain + bias, (dxhat - m1 - xhat * m2) * inv_std


@pytest.mark.parametrize("shape", [(3, 8), (200, 32), (7, 16, 64)])
def test_layer_norm_equals_np_mean_form(shape):
    x, g, b = leaf(shape), leaf(shape[-1:]), leaf(shape[-1:])
    upstream = RNG.normal(size=shape)
    out = ad.layer_norm(x, g, b)
    tsum(out * Tensor(upstream)).backward()
    want, want_grad = layer_norm_with_np_mean(x.data, g.data, b.data, upstream)
    assert np.array_equal(out.data, want)
    assert np.array_equal(x.grad, want_grad)


# -- fused ops against the composed graphs they replace -----------------------------


def check_fused_op(fused, composed, leaves, fixed=(), sample=None):
    """Equal values and input gradients within the relative bound, and a
    passing gradcheck. ``fused`` and ``composed`` take ``*leaves, *fixed``."""
    upstream = None
    results = []
    for op in (fused, composed):
        for t in leaves:
            t.grad[...] = 0.0
        out = op(*leaves, *fixed)
        if upstream is None:
            upstream = Tensor(RNG.normal(size=out.shape))
        tsum(out * upstream).backward()
        results.append((out.data.copy(), [t.grad.copy() for t in leaves]))
    (got, got_grads), (want, want_grads) = results
    assert_relative_close(got, want)
    for got_grad, want_grad in zip(got_grads, want_grads):
        assert_relative_close(got_grad, want_grad)
    named = {str(i): t for i, t in enumerate(leaves)}
    return tensor_gradcheck(lambda: tsum(fused(*leaves, *fixed) * upstream), named, sample=sample)


@pytest.mark.parametrize("x_shape", [(3, 4), (2, 3, 4)])
def test_linear_matches_composed_graph(x_shape):
    leaves = [leaf(x_shape), leaf((4, 5)), leaf((5,))]
    assert check_fused_op(ad.linear, composed_linear, leaves) < 1e-6


def causal(n):
    return np.where(np.triu(np.ones((n, n), dtype=bool), k=1), -1e9, 0.0)[None, None]


ATTENTION_CASES = {
    # case: (query rows, K/V rows, key positions, additive mask)
    "self-causal": (2, 2, 4, causal(4)),
    # one K/V row shared by 3 query rows, its last 2 key positions PAD
    "cross-broadcast-pad": (3, 1, 5, np.array([0.0, 0.0, 0.0, -1e9, -1e9])[None, None, None]),
    "unmasked": (2, 2, 3, None),
}


@pytest.mark.parametrize("case", list(ATTENTION_CASES))
def test_attention_matches_composed_graph(case):
    q_rows, kv_rows, tk, mask = ATTENTION_CASES[case]
    d, heads = 8, 2
    leaves = [leaf((q_rows, 4, d)), leaf((kv_rows, tk, d)), leaf((kv_rows, tk, d))]
    leaves += [leaf((d, d), 0.5), leaf((d,)), leaf((d, d), 0.5), leaf((d,))]
    err = check_fused_op(ad.attention, composed_attention, leaves, fixed=(mask, heads), sample=24)
    assert err < 1e-6
    if case == "cross-broadcast-pad":
        k, v = leaves[1], leaves[2]
        assert not k.grad[:, 3:].any() and not v.grad[:, 3:].any()


def test_ffn_matches_composed_graph():
    leaves = [leaf((2, 3, 4)), leaf((4, 6)), leaf((6,)), leaf((6, 4)), leaf((4,))]
    assert check_fused_op(ad.ffn, composed_ffn, leaves) < 1e-6


def check_bitwise(fused, composed, leaves):
    """Equal values and equal gradients of every leaf, bit for bit."""
    upstream = None
    results = []
    for op in (fused, composed):
        for t in leaves:
            t.grad[...] = 0.0
        out = op()
        if upstream is None:
            upstream = Tensor(RNG.normal(size=out.shape))
        tsum(out * upstream).backward()
        results.append((out.data.copy(), [t.grad.copy() for t in leaves]))
    (got, got_grads), (want, want_grads) = results
    assert np.array_equal(got, want)
    for i, (got_grad, want_grad) in enumerate(zip(got_grads, want_grads)):
        assert np.array_equal(got_grad, want_grad), i
    named = {str(i): t for i, t in enumerate(leaves)}
    return tensor_gradcheck(lambda: tsum(fused() * upstream), named, sample=24)


@pytest.mark.parametrize("shared", [False, True], ids=["own-leaf", "residual-is-input"])
@pytest.mark.parametrize("case", list(ATTENTION_CASES))
def test_attention_with_residual_equals_add_of_attention(case, shared):
    # In the model the residual stream also feeds the layer; with
    # ``residual-is-input`` it is the queries themselves.
    q_rows, kv_rows, tk, mask = ATTENTION_CASES[case]
    d, heads = 8, 2
    queries, k, v = leaf((q_rows, 4, d)), leaf((kv_rows, tk, d)), leaf((kv_rows, tk, d))
    weights = [leaf((d, d), 0.5), leaf((d,)), leaf((d, d), 0.5), leaf((d,))]
    residual = queries if shared else leaf((q_rows, 4, d))
    leaves = [queries, k, v, *weights] + ([] if shared else [residual])

    def fused():
        return ad.attention(queries, k, v, *weights, mask, heads, residual)

    def composed():
        return add(residual, ad.attention(queries, k, v, *weights, mask, heads))

    assert check_bitwise(fused, composed, leaves) < 1e-6


@pytest.mark.parametrize("residual", [False, True], ids=["no-residual", "residual"])
@pytest.mark.parametrize("padded", [False, True], ids=["unmasked", "pad"])
def test_grouped_attention_equals_kv_repeated_per_row(padded, residual):
    # 2 sources serve 6 query rows, 3 consecutive rows each: the grouped view
    # against the per-row path with each source's K/V (and mask) repeated.
    d, heads, rows = 8, 2, np.repeat([0, 1], 3)
    queries, k, v = leaf((6, 4, d)), leaf((2, 5, d)), leaf((2, 5, d))
    weights = [leaf((d, d), 0.5), leaf((d,)), leaf((d, d), 0.5), leaf((d,))]
    stream = leaf((6, 4, d)) if residual else None
    leaves = [queries, k, v, *weights] + ([stream] if residual else [])
    mask = np.where(np.arange(5) >= np.array([[3], [5]]), -1e9, 0.0)[:, None, None, :] if padded else None

    def grouped():
        return ad.attention(queries, k, v, *weights, mask, heads, stream)

    def per_row():
        row_mask = None if mask is None else mask[rows]
        return ad.attention(queries, getitem(k, rows), getitem(v, rows), *weights, row_mask, heads, stream)

    upstream = Tensor(RNG.normal(size=(6, 4, d)))
    results = []
    for op in (grouped, per_row):
        for t in leaves:
            t.grad[...] = 0.0
        out = op()
        tsum(out * upstream).backward()
        results.append((out.data.copy(), [t.grad.copy() for t in leaves]))
    (got, got_grads), (want, want_grads) = results
    assert got.shape == want.shape == (6, 4, d)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    for got_grad, want_grad in zip(got_grads, want_grads):
        np.testing.assert_allclose(got_grad, want_grad, rtol=1e-12, atol=1e-12 * np.abs(want_grad).max())
    if padded:
        assert not k.grad[0, 3:].any() and k.grad[1, 3:].any()
    named = {str(i): t for i, t in enumerate(leaves)}
    assert tensor_gradcheck(lambda: tsum(grouped() * upstream), named, sample=24) < 1e-6


@pytest.mark.parametrize("shared", [False, True], ids=["own-leaf", "residual-is-input"])
def test_ffn_with_residual_equals_add_of_ffn(shared):
    x, weights = leaf((2, 3, 4)), [leaf((4, 6)), leaf((6,)), leaf((6, 4)), leaf((4,))]
    residual = x if shared else leaf((2, 3, 4))
    leaves = [x, *weights] + ([] if shared else [residual])

    def fused():
        return ad.ffn(x, *weights, residual)

    def composed():
        return add(residual, ad.ffn(x, *weights))

    assert check_bitwise(fused, composed, leaves) < 1e-6


@pytest.mark.parametrize("offset", [0, 2])
def test_embed_equals_sum_of_two_embeddings(offset):
    table, positions = leaf((6, 3)), leaf((7, 3))
    ids = np.array([[0, 2, 2, 5], [5, 0, 1, 2]])  # repeated rows accumulate

    def fused():
        return ad.embed(table, positions, ids, offset)

    def composed():
        return add(embedding(table, ids), embedding(positions, np.arange(offset, offset + 4)))

    assert check_bitwise(fused, composed, [table, positions]) < 1e-6
    # position rows outside the window get no gradient
    assert not positions.grad[:offset].any() and not positions.grad[offset + 4 :].any()


@pytest.mark.parametrize("axis", [None, 1])
def test_gold_logprob_sum_matches_composed_graph(axis):
    gold = np.array([[1, 4, 2, 0], [0, 0, 0, 0], [5, 5, 3, 0]])
    keep = gold != 0  # row 1 is all PAD, beside two real rows
    table = leaf((3, 4, 6))
    err = check_fused_op(ad.gold_logprob_sum, composed_gold_sum, [table], fixed=(gold, keep, axis))
    assert err < 1e-6
    if axis is not None:
        assert ad.gold_logprob_sum(table, gold, keep, axis).data[1] == 0.0
    assert not table.grad[1].any()



@pytest.mark.parametrize("axis", [None, 1])
def test_gold_logprob_sum_equals_composed_graph_bit_for_bit(axis):
    # The composed graph gathers and scatters with take_along_axis and
    # put_along_axis; the fused op indexes rows of a (rows, vocab) view.
    gold = np.array([[1, 4, 2, 0], [0, 0, 0, 0], [5, 5, 3, 0]])
    keep = gold != 0
    table = leaf((3, 4, 6))
    assert check_bitwise(lambda: ad.gold_logprob_sum(table, gold, keep, axis),
                         lambda: composed_gold_sum(table, gold, keep, axis), [table]) < 1e-6


@pytest.mark.parametrize("shape", [(1, 4, 40, 40), (7, 4, 15, 15), (7, 4, 15, 40), (3, 1)])
def test_row_max_equals_numpy_max_over_the_last_axis(shape):
    a = RNG.normal(size=shape) + np.triu(np.full(shape[-2:], -1e9), k=1)  # masked as scores are
    assert np.array_equal(ad._row_max(a), a.max(axis=-1, keepdims=True))


def test_pairwise_hinge_reads_one_read_only_grid_per_length():
    scores = np.array([-1.0, -0.7, -1.9, -1.6])
    loss, active = ad.pairwise_hinge(scores, 0.1)
    idx = np.arange(4)
    args = scores[None, :] - scores[:, None] + 0.1 * (idx[None, :] - idx[:, None])
    upper = np.triu(np.ones((4, 4), dtype=bool), k=1)
    assert loss == np.where(upper, np.maximum(0.0, args), 0.0).sum()
    assert np.array_equal(active, upper & (args > 0.0))
    steps, mask = ad._pair_grid(4)
    assert ad._pair_grid(4)[0] is steps
    assert not steps.flags.writeable and not mask.flags.writeable


# Candidate scores in quality order: some hinges active, some not.
MIXED = [-1.0, -0.7, -1.9, -1.6, -2.5]
LENGTHS = [5.0, 3.0, 6.0, 4.0, 2.0, 7.0]

# case: (candidate scores, or None for the reference row alone, row lengths,
# mle_weight, ctr_weight, margin, length_penalty)
OBJECTIVE_CASES = {
    "mle-only": (None, [5.0], 1.5, 2.0, 0.1, 1.0),
    "one-candidate": ([-1.2], [5.0, 3.0], 1.5, 2.0, 0.1, 1.0),
    "ctr-weight-0": (MIXED, LENGTHS, 1.5, 0.0, 0.1, 1.0),
    "mle-weight-0": (MIXED, LENGTHS, 0.0, 2.0, 0.1, 1.0),
    "all-inactive": ([-1.0, -1.5, -2.1, -2.8, -3.6], LENGTHS, 1.5, 2.0, 0.1, 1.0),
    "mixed": (MIXED + [-0.4], LENGTHS + [9.0], 1.5, 2.0, 0.1, 1.0),
    "length-penalty-0.5": (MIXED, LENGTHS, 1.5, 2.0, 0.1, 0.5),
    # hinge arguments exactly at the kink, where the subgradient taken is 0
    "kink": ([-1.0, -1.0, -1.5, -1.5], [5.0, 2.0, 4.0, 8.0, 2.0], 1.5, 2.0, 0.0, 1.0),
}


@pytest.mark.parametrize("case", list(OBJECTIVE_CASES))
def test_brio_objective_matches_composed_graph(case):
    scores, lengths, *weights = OBJECTIVE_CASES[case]
    lengths = np.array(lengths)
    margin, length_penalty = weights[2], weights[3]
    ref_sum = -4.3  # the reference row's log-prob sum
    rows = [ref_sum] if scores is None else [ref_sum, *(np.array(scores) * lengths[1:] ** length_penalty)]
    sums = Tensor(np.array(rows), requires_grad=True)
    results = []
    for op in (ad.brio_objective, composed_brio_objective):
        sums.grad[...] = 0.0
        out, [(loss, mle, ctr)] = op(sums, lengths, *weights)
        assert loss == out.item()
        (out * 1.7).backward()
        results.append((out.item(), mle, ctr, sums.grad.copy()))
    (got, got_mle, got_ctr, got_grad), (want, want_mle, want_ctr, want_grad) = results
    assert (got, got_mle, got_ctr) == (want, want_mle, want_ctr)
    assert_relative_close(got_grad, want_grad)
    if case in ("all-inactive", "kink"):
        assert got_ctr == 0.0 and not got_grad[1:].any()
    n, idx = len(rows) - 1, np.arange(len(rows) - 1)
    s = sums.data[1:] * lengths[1:] ** -length_penalty
    args = (s[None, :] - s[:, None] + margin * (idx[None, :] - idx[:, None]))[np.triu_indices(n, k=1)]
    if case == "mixed":
        assert (args > 0.0).any() and (args < 0.0).any()
    if case == "kink":
        assert (args == 0.0).any()
        return
    # finite differences must not step across a kink
    assert n < 2 or np.abs(args).min() > 0.05
    assert tensor_gradcheck(lambda: ad.brio_objective(sums, lengths, *weights)[0], {"sums": sums}) < 1e-6


# Three documents in one objective: 5 rows, then 1 row (MLE only), then 3,
# each block padded with empty rows (length 0) to 5 rows.
BLOCK_SUMS = [[-4.3, -3.0, -2.2, -7.7, -4.4], [-2.7], [-5.1, -1.9, -5.9]]
BLOCK_LENGTHS = [[5.0, 4.0, 3.0, 7.0, 6.0], [3.0], [6.0, 2.0, 9.0]]


def blocks(width=5):
    sums = np.zeros((len(BLOCK_SUMS), width))
    lengths = np.zeros_like(sums)
    for j, (s, n) in enumerate(zip(BLOCK_SUMS, BLOCK_LENGTHS)):
        sums[j, : len(s)], lengths[j, : len(n)] = s, n
    return Tensor(sums.reshape(-1), requires_grad=True), lengths


def test_brio_objective_over_k_documents_sums_the_single_documents():
    weights = (1.5, 2.0, 0.1, 1.0)
    sums, lengths = blocks()
    total, values = ad.brio_objective(sums, lengths, *weights)
    (total * 0.6).backward()
    singles, grads = [], []
    for s, n in zip(BLOCK_SUMS, BLOCK_LENGTHS):
        one = Tensor(np.array(s), requires_grad=True)
        single, [value] = ad.brio_objective(one, np.array(n), *weights)
        (single * 0.6).backward()
        singles.append(value)
        grads.append(one.grad)
    assert values == singles
    assert total.item() == singles[0][0] + singles[1][0] + singles[2][0]
    assert singles[0][2] > 0.0 and singles[1][2] == 0.0  # a ranking term, and an MLE-only block
    grad = sums.grad.reshape(3, 5)
    for j, g in enumerate(grads):
        assert np.array_equal(grad[j, : len(g)], g)
        assert not grad[j, len(g) :].any()  # empty rows take no gradient


def test_brio_objective_over_k_documents_gradcheck():
    sums, lengths = blocks()
    assert tensor_gradcheck(lambda: ad.brio_objective(sums, lengths, 1.5, 2.0, 0.1, 1.0)[0], {"sums": sums}) < 1e-6


def test_backward_accumulates_on_second_call():
    a = leaf((3,))
    loss = tsum(a * a)
    loss.backward()
    once = a.grad.copy()
    loss.backward()
    np.testing.assert_allclose(a.grad, 2 * once)


def test_grad_zero_for_unused_parameter():
    a, unused = leaf((3,)), leaf((3,))
    tsum(a * 2.0).backward()
    assert np.all(unused.grad == 0.0)


def test_shared_subgraph_fans_in():
    a = leaf((3,))
    shared = a * 2.0
    tsum(add(shared, shared) * 1.0).backward()
    np.testing.assert_allclose(a.grad, np.full(3, 4.0))


def test_fan_in_through_add_does_not_alias_gradients():
    # add's vjp hands one array to both parents; accumulating into it in
    # place would also change the other parent's pending gradient.
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)

    def build():
        a, b = x * 2.0, x * 3.0
        return tsum(add(add(a, b), a * b))

    build().backward()
    np.testing.assert_allclose(x.grad, 5.0 + 12.0 * x.data)
    assert tensor_gradcheck(build, {"x": x}) < 1e-6


def walks_agree(build, leaves, calls=1):
    """Each leaf's gradient after ``calls`` walks of ``Tensor.backward`` and
    of ``reference_backward`` over the graph ``build()`` makes, both from the
    same non-zero gradients, compared bit for bit. Returns the starting
    gradients and those the walk left."""
    start = [RNG.normal(size=t.shape) for t in leaves]
    results = []
    for walk in (Tensor.backward, reference_backward):
        for t, g in zip(leaves, start):
            t.grad[...] = g
        root = build()
        for _ in range(calls):
            walk(root)
        results.append([t.grad.copy() for t in leaves])
    for i, (got, want) in enumerate(zip(*results)):
        assert np.array_equal(got, want), i
    return start, results[0]


def test_walk_joins_both_edges_of_mul_a_a_before_adding_them():
    a = leaf((64,))
    (start,), (got,) = walks_agree(lambda: tsum(ad.mul(a, a)), [a])
    # Adding each edge's a on its own rounds differently, so this case tells
    # the two orders apart.
    assert not np.array_equal(got, (start + a.data) + a.data)


def test_walk_from_a_scalar_leaf_adds_one():
    a = Tensor(np.array(0.3), requires_grad=True)
    (start,), (got,) = walks_agree(lambda: a, [a])
    assert got == start + 1.0


def test_walk_twice_on_one_graph_adds_twice():
    x, b, w = leaf((3, 4)), leaf((4,)), leaf((4, 2))

    def build():
        shared = add(x, b) * x
        return add(tsum(shared * 0.5), tsum(matmul(shared, w)))

    walks_agree(build, [x, b, w], calls=2)


def test_walk_with_a_none_contribution_to_a_leaf_of_two_consumers():
    def first_only(a, b):
        return ad._node(a.data + b.data, (a, b), lambda g: (g, None))

    x, w, unused = leaf((5,)), leaf((5,)), leaf((5,))
    # w feeds two nodes, one of which gives it nothing; ``unused`` feeds one
    # node that gives it nothing.
    (_, w_start, unused_start), (_, w_got, unused_got) = walks_agree(
        lambda: tsum(first_only(ad.mul(first_only(x, w), w), unused)), [x, w, unused])
    assert not np.array_equal(w_got, w_start)
    assert np.array_equal(unused_got, unused_start)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_walk_on_random_graphs_with_shared_nodes_and_leaves(seed):
    rng = np.random.default_rng(seed)
    leaves = [leaf((4, 4)) for _ in range(4)]
    constant = Tensor(rng.normal(size=(4, 4)))
    # 14 ops, each on two earlier tensors: (op, first operand, second operand)
    plan = [(rng.integers(4), *rng.integers(0, 5 + k, size=2)) for k in range(14)]

    def build():
        nodes = [*leaves, constant]
        for op, i, j in plan:
            a, b = nodes[i], nodes[j]
            nodes.append(matmul(a, b) * 0.25 if op == 3 else (add, sub, ad.mul)[op](a, b))
        return tsum(add(nodes[-1], nodes[-5]))

    walks_agree(build, leaves)


def test_no_grad_blocks_graph():
    a = leaf((3,))
    with ad.no_grad():
        out = tsum(a * a)
    assert out._vjp is None
    with pytest.raises(RuntimeError):
        out.backward()


def test_backward_requires_scalar():
    a = leaf((3,))
    with pytest.raises(ValueError):
        (a * 2.0).backward()

