"""Transformer contracts: init, masking, losses, scores, checkpoints."""

import json
from dataclasses import replace

import numpy as np
import pytest

from briosum import autodiff as ad
from briosum.autodiff import Tensor
from briosum.corpus import BOS_ID, EOS_ID, PAD_ID
from briosum.model import (
    CheckpointError,
    DecoderCache,
    ModelConfig,
    ModelParams,
    _attend,
    _param_specs,
    _project_kv,
    candidate_scores,
    causal_mask,
    decoder_logprobs,
    encode_source,
    forward,
    init_params,
    load_checkpoint,
    mle_loss,
    pad_ids,
    save_checkpoint,
    score_rows,
    teacher_forcing,
)

from helpers import (
    ACCEPTANCE_MODEL,
    assert_relative_close,
    composed_attention,
    composed_gold_sum,
    composed_linear,
    matmul,
    max_gradcheck_error,
    spec_order_init,
    tiny_config,
    tiny_params,
    tsum,
)


# -- config and init ------------------------------------------------------------


def test_config_validation_names_failed_invariant():
    with pytest.raises(ValueError, match="divisible"):
        ModelConfig(vocab_size=10, model_dim=10, num_heads=3)
    with pytest.raises(ValueError, match="vocab_size"):
        ModelConfig(vocab_size=0)


def test_init_params_deterministic():
    a = tiny_params(seed=5)
    b = tiny_params(seed=5)
    for name, t in a.items():
        np.testing.assert_array_equal(t.data, b[name].data)


def test_init_params_seeds_differ():
    a = tiny_params(seed=1)
    b = tiny_params(seed=2)
    assert not np.array_equal(a["tok_emb"].data, b["tok_emb"].data)


def spec_order(params):
    """The parameters concatenated in ``_param_specs`` order."""
    return np.concatenate([params[name].data.ravel() for name, _, _ in _param_specs(params.config)])


@pytest.mark.parametrize("config", [tiny_config(), ACCEPTANCE_MODEL], ids=["tiny", "acceptance"])
def test_init_params_equal_the_draws_in_spec_order(config):
    params = init_params(config, seed=7)
    assert np.array_equal(spec_order(params), spec_order_init(config, 7))
    # the layout groups shapes, so flat is not in spec order
    assert not np.array_equal(params.flat, spec_order(params))


def test_init_layer_norm_gains_are_ones_biases_zero():
    params = tiny_params()
    np.testing.assert_array_equal(params["enc0.ln1.g"].data, np.ones(8))
    np.testing.assert_array_equal(params["enc0.ln1.b"].data, np.zeros(8))
    np.testing.assert_array_equal(params["out.b"].data, np.zeros(13))


def test_every_param_has_matching_grad_buffer():
    params = tiny_params()
    for _, t in params.items():
        assert t.grad is not None
        assert t.grad.shape == t.data.shape
        assert np.isfinite(t.data).all()


def test_named_tensors_are_views_into_the_parameter_vector():
    params = tiny_params(seed=3)
    assert params.num_params == params.flat.size == sum(t.data.size for _, t in params.items())
    params.flat[0], params.flat[-1] = 5.0, -2.0
    assert params["tok_emb"].data[0, 0] == 5.0 and params["out.b"].data[-1] == -2.0
    assert params.all_finite()
    params["enc0.ffn.w1"].data[1, 2] = np.nan
    assert not params.all_finite()
    for wrong in (params.flat.astype(np.float32), np.append(params.flat, 0.0)):
        with pytest.raises(ValueError, match=f"expected {params.num_params} float64"):
            ModelParams(params.config, wrong)
    with pytest.raises(ValueError):
        ModelParams(params.config, params.flat[:-1])


def test_backward_accumulates_into_the_gradient_vector():
    params = tiny_params(seed=0)
    mle_loss(forward(params, [BOS_ID, 4, EOS_ID], [BOS_ID, 5]), [5, EOS_ID]).backward()
    assert params.grad.any()
    assert np.array_equal(params.grad, np.concatenate([t.grad.ravel() for _, t in params.items()]))
    assert all(np.shares_memory(t.grad, params.grad) for _, t in params.items())
    params.zero_grads()
    assert not any(t.grad.any() for _, t in params.items())


def test_changing_a_copy_leaves_the_original_untouched():
    params = tiny_params(seed=2)
    values = params.flat.copy()
    twin = params.copy()
    assert np.array_equal(twin.flat, values)
    twin.flat += 1.0
    twin["out.b"].data[...] = 7.0
    twin.grad[...] = 3.0
    assert np.array_equal(params.flat, values) and not params.grad.any()
    assert (twin["out.b"].data == 7.0).all()


# -- forward ---------------------------------------------------------------------


def test_forward_rows_are_log_softmax():
    params = tiny_params(seed=1)
    table = forward(params, [BOS_ID, 4, 5, EOS_ID], [BOS_ID, 6, 7, EOS_ID])
    sums = np.exp(table.data).sum(axis=-1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-6)
    assert (table.data <= 0.0).all()


def test_forward_causality_perturbation():
    params = tiny_params(seed=2)
    src = [BOS_ID, 4, 5, EOS_ID]
    tgt = [BOS_ID, 6, 7, 8, 9]
    with ad.no_grad():
        base = forward(params, src, tgt).data
    for t in range(1, len(tgt)):
        perturbed = list(tgt)
        perturbed[t] = 10 if tgt[t] != 10 else 11
        with ad.no_grad():
            changed = forward(params, src, perturbed).data
        np.testing.assert_array_equal(base[:t], changed[:t])
        assert not np.array_equal(base[t:], changed[t:])


def test_forward_ignores_source_padding():
    params = tiny_params(seed=3)
    src = np.array([[BOS_ID, 4, 5, EOS_ID, PAD_ID, PAD_ID]])
    src_short = np.array([[BOS_ID, 4, 5, EOS_ID]])
    tgt = np.array([[BOS_ID, 6, 7]])
    with ad.no_grad():
        padded = decoder_logprobs(params, DecoderCache.start(params, src), tgt)[0].data
        plain = decoder_logprobs(params, DecoderCache.start(params, src_short), tgt)[0].data
    np.testing.assert_allclose(padded, plain, atol=1e-12)


def test_source_without_pad_gets_no_mask_and_the_same_table():
    # Adding a zero mask changes no score, so a PAD-free source skips it.
    params = tiny_params(seed=3)
    assert encode_source(params, np.array([[BOS_ID, 4, 5, EOS_ID]]))[1] is None
    assert encode_source(params, pad_ids([[BOS_ID, 4, 5, EOS_ID], [BOS_ID, EOS_ID]]))[1].shape == (2, 1, 1, 4)
    src, tgt = np.array([[BOS_ID, 4, 5, 6, EOS_ID]]), np.array([[BOS_ID, 6, 7], [BOS_ID, 8, 9]])
    leaves = [t for _, t in params.items()]
    cache = DecoderCache.start(params, src)
    got, got_grads = run_with_grads(lambda: decoder_logprobs(params, cache, tgt)[0], leaves)
    zeros = replace(cache, mask=np.zeros((1, 1, 1, src.shape[1])))
    want, want_grads = run_with_grads(lambda: decoder_logprobs(params, zeros, tgt)[0], leaves)
    assert np.array_equal(got, want)
    for got_grad, want_grad in zip(got_grads, want_grads):
        assert np.array_equal(got_grad, want_grad)


def test_forward_validates_ids_and_lengths():
    params = tiny_params()
    with pytest.raises(ValueError, match="out of range"):
        forward(params, [BOS_ID, 99], [BOS_ID, 4])
    with pytest.raises(ValueError, match="exceeds maximum"):
        forward(params, [4] * 50, [BOS_ID, 4])


# -- mle loss ---------------------------------------------------------------------


def test_mle_loss_uniform_is_log_vocab():
    table = np.log(np.full((1, 4), 0.25))
    assert mle_loss(table, [2]).item() == pytest.approx(np.log(4.0), abs=1e-12)


def test_mle_loss_perfect_prediction_is_zero():
    table = np.full((3, 5), -1e9)
    gold = [1, 3, 2]
    for row, g in enumerate(gold):
        table[row, g] = 0.0
    assert mle_loss(table, gold).item() == pytest.approx(0.0, abs=1e-9)


def test_mle_loss_mean_of_zero_and_two():
    table = np.full((2, 5), np.log(1e-12))
    table[0, 1] = 0.0
    table[1, 2] = -2.0
    assert mle_loss(table, [1, 2]).item() == pytest.approx(1.0, abs=1e-12)


def test_mle_loss_excludes_pad_positions():
    table = np.full((3, 5), np.log(0.2))
    loss = mle_loss(table, [1, PAD_ID, 2])
    assert loss.item() == pytest.approx(np.log(5.0), abs=1e-12)


def test_mle_loss_length_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        mle_loss(np.zeros((2, 4)), [1, 2, 3])
    with pytest.raises(ValueError, match="does not match"):
        mle_loss(np.zeros((2, 3, 4)), np.ones((2, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="does not match"):
        mle_loss(np.zeros((2, 3, 4)), [1, 2, 3])


def test_mle_loss_all_pad_rejected():
    with pytest.raises(ValueError, match="non-PAD"):
        mle_loss(np.zeros((2, 3, 4)), np.full((2, 3), PAD_ID))


# -- gradients ----------------------------------------------------------------------


def test_model_gradcheck_mle():
    params = tiny_params(seed=0)
    src = [BOS_ID, 4, 5, 6, 7, EOS_ID]
    tgt = [BOS_ID, 8, 9, 10, EOS_ID]

    def loss_fn():
        return mle_loss(forward(params, src, tgt[:-1]), tgt[1:])

    assert max_gradcheck_error(params, loss_fn, sample=400) < 1e-4


def test_backward_twice_doubles_gradients():
    params = tiny_params(seed=0)
    loss = mle_loss(forward(params, [BOS_ID, 4, EOS_ID], [BOS_ID, 5]), [5, EOS_ID][:2])
    loss.backward()
    once = params["out.w"].grad.copy()
    loss.backward()
    np.testing.assert_allclose(params["out.w"].grad, 2 * once)


def test_descent_step_decreases_loss():
    from briosum.optim import init_optimizer, optimizer_step

    params = tiny_params(seed=4)
    src = [BOS_ID, 4, 5, EOS_ID]
    tgt = [BOS_ID, 6, 7, EOS_ID]

    def compute():
        return mle_loss(forward(params, src, tgt[:-1]), tgt[1:])

    before = compute()
    before.backward()
    optimizer_step(params, init_optimizer("adam", params), 0.01)
    with ad.no_grad():
        after = compute().item()
    assert after < before.item()


# -- sequence scores -----------------------------------------------------------------


def test_sequence_log_prob_uniform_model():
    # zeroed weights make the output distribution exactly uniform
    params = tiny_params(seed=0)
    for name in ("out.w", "out.b"):
        params[name].data[...] = 0.0
    for cand in ([BOS_ID, 4, EOS_ID], [BOS_ID, 4, 5, 6, 7, EOS_ID]):
        with ad.no_grad():
            score = float(candidate_scores(params, [BOS_ID, 4, EOS_ID], [cand], length_penalty=1.0).data[0])
        assert score == pytest.approx(np.log(1.0 / 13.0), abs=1e-12)


def test_sequence_log_prob_alpha_zero_is_raw_sum():
    params = tiny_params(seed=6)
    src = [BOS_ID, 4, 5, EOS_ID]
    cand = [BOS_ID, 6, 7, EOS_ID]
    with ad.no_grad():
        raw = float(candidate_scores(params, src, [cand], length_penalty=0.0).data[0])
        avg = float(candidate_scores(params, src, [cand], length_penalty=1.0).data[0])
    assert raw == pytest.approx(avg * (len(cand) - 1), rel=1e-12)


def test_sequence_log_prob_known_probs():
    # bias-only logits: fix per-token probabilities via out.b
    params = tiny_params(seed=0)
    for name, t in params.items():
        if name != "out.b":
            t.data[...] = 0.0
    # with all other params zero, every position sees the same logits out.b
    probs = np.full(13, 1e-9)
    probs[4] = 1.0
    probs[EOS_ID] = np.exp(-1.0)
    params["out.b"].data[...] = np.log(probs)
    table = forward(params, [BOS_ID, 4, EOS_ID], [BOS_ID, 4, 4, 4])
    logp = table.data[0]
    np.testing.assert_allclose(np.exp(logp).sum(), 1.0, atol=1e-9)
    # candidate (4, eos): per-token normalized log-probs are equal across rows
    cand = [BOS_ID, 4, 4, EOS_ID]
    with ad.no_grad():
        got = float(candidate_scores(params, [BOS_ID, 4, EOS_ID], [cand], length_penalty=1.0).data[0])
    expected = (logp[4] * 2 + logp[EOS_ID]) / 3.0
    assert got == pytest.approx(expected, rel=1e-12)


def test_sequence_log_prob_framing_errors():
    params = tiny_params()
    with pytest.raises(ValueError, match="BOS.*EOS"):
        candidate_scores(params, [BOS_ID, 4, EOS_ID], [[4, 5]], length_penalty=1.0)
    with pytest.raises(ValueError, match="BOS.*EOS"):
        candidate_scores(params, [BOS_ID, 4, EOS_ID], [[BOS_ID, 4]], length_penalty=1.0)


def test_pad_helpers_match_manual_padding():
    examples = [
        ([BOS_ID, 4, 5, EOS_ID], [BOS_ID, 6, 7, EOS_ID]),
        ([BOS_ID, 8, EOS_ID], [BOS_ID, 9, EOS_ID]),
    ]
    max_src = max(len(s) for s, _ in examples)
    max_tgt = max(len(t) for _, t in examples)
    src = np.full((2, max_src), PAD_ID)
    tgt_in = np.full((2, max_tgt - 1), PAD_ID)
    gold = np.full((2, max_tgt - 1), PAD_ID)
    for i, (s, t) in enumerate(examples):
        src[i, : len(s)] = s
        tgt_in[i, : len(t) - 1] = t[:-1]
        gold[i, : len(t) - 1] = t[1:]
    padded = pad_ids([s for s, _ in examples])
    assert padded.dtype == np.int64
    np.testing.assert_array_equal(padded, src)
    got_in, got_gold = teacher_forcing([t for _, t in examples])
    np.testing.assert_array_equal(got_in, tgt_in)
    np.testing.assert_array_equal(got_gold, gold)


def test_mle_batch_matches_single():
    params = tiny_params(seed=7)
    examples = [
        ([BOS_ID, 4, 5, EOS_ID], [BOS_ID, 6, 7, EOS_ID]),
        ([BOS_ID, 8, EOS_ID], [BOS_ID, 9, EOS_ID]),
    ]
    src = pad_ids([s for s, _ in examples])
    tgt_in, gold = teacher_forcing([t for _, t in examples])
    with ad.no_grad():
        batched = mle_loss(decoder_logprobs(params, DecoderCache.start(params, src), tgt_in)[0], gold).item()
        singles = []
        weights = []
        for s, t in examples:
            singles.append(mle_loss(forward(params, s, t[:-1]), t[1:]).item())
            weights.append(len(t) - 1)
    expected = float(np.average(singles, weights=weights))
    assert batched == pytest.approx(expected, rel=1e-9)


# -- fused layers against composed graphs ------------------------------------------------


def run_with_grads(build, leaves):
    """Value of ``build()`` and the gradients of ``leaves`` under a fixed upstream."""
    for t in leaves:
        t.grad[...] = 0.0
    out = build()
    upstream = np.random.default_rng(11).normal(size=out.shape)
    tsum(out * Tensor(upstream)).backward()
    return out.data.copy(), [t.grad.copy() for t in leaves]


def test_cross_attention_shares_one_source_row_across_query_rows():
    params = tiny_params(seed=3)
    src = np.array([[BOS_ID, 4, 5, EOS_ID, PAD_ID, PAD_ID]])
    enc_out, src_mask = encode_source(params, src)
    enc = Tensor(enc_out.data.copy(), requires_grad=True)
    queries = Tensor(np.random.default_rng(3).normal(size=(3, 4, 8)), requires_grad=True)
    prefix = "dec0.cross"
    p = {n: params[f"{prefix}.{n}"] for n in ("wq", "bq", "wk", "wv", "bv", "wo", "bo")}
    leaves = [enc, queries, *p.values()]

    def fused():
        return _attend(params, prefix, queries, *_project_kv(params, prefix, enc), src_mask, None)

    def composed():
        k = matmul(enc, p["wk"])
        v = composed_linear(enc, p["wv"], p["bv"])
        return composed_attention(queries, k, v, p["wq"], p["bq"], p["wo"], p["bo"], src_mask, 2)

    got, got_grads = run_with_grads(fused, leaves)
    want, want_grads = run_with_grads(composed, leaves)
    assert got.shape == (3, 4, 8)
    assert_relative_close(got, want)
    for got_grad, want_grad in zip(got_grads, want_grads):
        assert_relative_close(got_grad, want_grad)
    assert not enc.grad[0, 4:].any()  # PAD source positions get no attention


@pytest.mark.parametrize("tie_embeddings", [False, True])
def test_gold_sums_match_composed_graph_beside_all_pad_rows(tie_embeddings):
    params = tiny_params(seed=5, tie_embeddings=tie_embeddings)
    src = [BOS_ID, 4, 5, 6, EOS_ID]
    rows = [[BOS_ID, 7, 8, EOS_ID], [BOS_ID], [BOS_ID, 9, EOS_ID]]  # row 1 scores no token
    tgt_in, gold = teacher_forcing(rows)
    keep = gold != PAD_ID
    assert not keep[1].any()
    leaves = [t for _, t in params.items()]

    def table():
        return decoder_logprobs(params, DecoderCache.start(params, np.array([src])), tgt_in)[0]

    cases = [
        (lambda: score_rows(params, [src], [rows])[0], lambda: composed_gold_sum(table(), gold, keep, axis=1)),
        (lambda: mle_loss(table(), gold), lambda: composed_gold_sum(table(), gold, keep) * (-1.0 / keep.sum())),
    ]
    for fused, composed in cases:
        got, got_grads = run_with_grads(fused, leaves)
        want, want_grads = run_with_grads(composed, leaves)
        assert_relative_close(got, want)
        scale = max(float(np.abs(g).max()) for g in want_grads)
        for got_grad, want_grad in zip(got_grads, want_grads):
            assert_relative_close(got_grad, want_grad, scale)
    assert score_rows(params, [src], [rows])[0].data[1] == 0.0


# -- checkpoints -----------------------------------------------------------------------


def test_checkpoint_round_trip_values(tmp_path):
    params = tiny_params(seed=9)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path, meta={"config_hash": "abc"})
    loaded, meta = load_checkpoint(path)
    assert meta["config_hash"] == "abc"
    assert loaded.config == params.config
    assert loaded.names() == params.names()
    for name, t in params.items():
        np.testing.assert_array_equal(loaded[name].data, t.data)


def test_checkpoint_file_round_trip_bit_exact(tmp_path):
    params = tiny_params(seed=10)
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    save_checkpoint(params, first, meta={"config_hash": "x"})
    loaded, meta = load_checkpoint(first)
    save_checkpoint(loaded, second, meta=meta)
    assert first.read_bytes() == second.read_bytes()


def test_checkpoint_payload_is_the_tensors_in_spec_order(tmp_path):
    # A round trip alone would pass for any order that save and load share.
    params = tiny_params(seed=11)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    payload = path.read_bytes().split(b"\n", 1)[1]
    assert payload == spec_order(params).astype("<f8").tobytes()
    assert payload != params.flat.astype("<f8").tobytes()


def test_checkpoint_rejects_truncated_payload(tmp_path):
    params = tiny_params()
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    raw = path.read_bytes()
    for cut in (8, 3):
        path.write_bytes(raw[:-cut])
        with pytest.raises(CheckpointError, match="floats"):
            load_checkpoint(path)


def test_checkpoint_rejects_bad_manifest(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(b"not json\n\x00\x00")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)

    save_checkpoint(tiny_params(), path)
    header, payload = path.read_bytes().split(b"\n", 1)
    manifest = json.loads(header)
    unknown_key = {**manifest, "config": {**manifest["config"], "dropout_rate": 0.1}}
    no_count = {**manifest, "params": [{k: v for k, v in e.items() if k != "count"}
                                       for e in manifest["params"]]}
    format_1 = {**manifest, "format_version": 1}
    swapped = {**manifest, "params": [manifest["params"][1], manifest["params"][0], *manifest["params"][2:]]}
    for bad in ([], unknown_key, no_count, format_1, swapped):
        path.write_bytes(json.dumps(bad).encode("utf-8") + b"\n" + payload)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_training_determinism_same_seed_same_losses():
    from briosum.brio import FinetuneConfig, finetune_stage
    from briosum.corpus import TokenizedExample
    from briosum.decode import DecodeConfig

    examples = [
        TokenizedExample("a", [BOS_ID, 4, 5, EOS_ID], [BOS_ID, 4, 5, EOS_ID]),
        TokenizedExample("b", [BOS_ID, 6, 7, EOS_ID], [BOS_ID, 6, 7, EOS_ID]),
        TokenizedExample("c", [BOS_ID, 8, 9, EOS_ID], [BOS_ID, 8, 9, EOS_ID]),
    ]
    config = FinetuneConfig(batch_size=2, epochs=2, learning_rate=1e-3, warmup_steps=0)
    decode_config = DecodeConfig(num_beams=1, num_beam_groups=1, max_decode_len=6)
    histories = []
    for _ in range(2):
        params = tiny_params(seed=11)
        _, history = finetune_stage(params, examples, examples, config, decode_config, seed=3)
        histories.append(history)
    assert histories[0] == histories[1]


def test_causal_mask_is_built_once_per_length_and_read_only():
    mask = causal_mask(6)
    assert causal_mask(6) is mask and not mask.flags.writeable
    assert mask.shape == (1, 1, 6, 6)
    assert np.array_equal(mask[0, 0], np.where(np.triu(np.ones((6, 6), dtype=bool), k=1), -1e9, 0.0))
    with pytest.raises(ValueError):
        mask[..., 2:, :] += 1.0
