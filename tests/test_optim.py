"""Optimizer fixtures: Adam bias correction, Adafactor factoring, warmup."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from briosum.autodiff import Tensor
from briosum.model import ModelConfig, ModelParams, init_params, shape_groups
from briosum.optim import (
    OptimizerError,
    OptimizerState,
    init_optimizer,
    optimizer_step,
    warmup_schedule,
)

from helpers import ACCEPTANCE_MODEL, per_tensor_optimizer_step, per_tensor_slots, tiny_params


def params_with_grads(seed=0, grad_value=None):
    params = tiny_params(seed=seed)
    rng = np.random.default_rng(seed + 100)
    for _, t in params.items():
        t.grad[...] = grad_value if grad_value is not None else rng.normal(size=t.data.shape)
    return params


# -- Adam -------------------------------------------------------------------------


def test_adam_first_step_matches_hand_formula():
    # single-entry check: grad 1.0, lr 0.1 -> change of -0.1 (bias-corrected
    # m_hat = v_hat = 1 on step 1)
    params = params_with_grads(grad_value=0.0)
    name = "tok_emb"
    before = params[name].data.copy()
    params[name].grad[0, 0] = 1.0
    state = init_optimizer("adam", params)
    optimizer_step(params, state, learning_rate=0.1)
    change = params[name].data[0, 0] - before[0, 0]
    assert change == pytest.approx(-0.1, rel=1e-6)
    # everything with zero grad is untouched
    np.testing.assert_array_equal(params[name].data[1:], before[1:])


def test_adam_zero_gradient_is_identity():
    params = params_with_grads(grad_value=0.0)
    state = init_optimizer("adam", params)
    snapshot = {name: t.data.copy() for name, t in params.items()}
    optimizer_step(params, state, learning_rate=0.5)
    assert state.step == 1
    for name, t in params.items():
        np.testing.assert_array_equal(t.data, snapshot[name])


def test_adam_two_steps_track_reference_implementation():
    params = params_with_grads(seed=3)
    grads = {name: t.grad.copy() for name, t in params.items()}
    start = {name: t.data.copy() for name, t in params.items()}
    state = init_optimizer("adam", params)
    lr = 0.01
    optimizer_step(params, state, lr)
    for name, t in params.items():
        t.grad[...] = grads[name] * 0.5
    optimizer_step(params, state, lr)

    for name in grads:
        theta = start[name].copy()
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        for step, g in ((1, grads[name]), (2, grads[name] * 0.5)):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9**step)
            v_hat = v / (1 - 0.999**step)
            theta -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(params[name].data, theta, atol=1e-12)


# -- Adafactor -----------------------------------------------------------------------


def test_adafactor_equal_gradient_matrix_gets_equal_updates():
    params = params_with_grads(grad_value=0.0)
    name = "enc0.attn.wq"
    before = params[name].data.copy()
    params[name].grad[...] = 0.7
    state = init_optimizer("adafactor", params)
    optimizer_step(params, state, learning_rate=1e-3)
    updates = before - params[name].data
    assert np.allclose(updates, updates[0, 0])
    assert updates[0, 0] != 0.0


def test_adafactor_factored_slots_for_matrices_full_for_vectors():
    # One slot per parameter shape, its tensors stacked on a leading axis.
    params = tiny_params()
    state = init_optimizer("adafactor", params)
    groups = shape_groups(params.config)
    assert list(state.slots) == list(groups) == list(params.groups)
    assert groups["13x8"] == ["tok_emb"] and groups["13"] == ["out.b"]
    assert set(state.slots["13x8"]) == {"row", "col"}
    assert state.slots["13x8"]["row"].shape == (1, 13)
    assert state.slots["13x8"]["col"].shape == (1, 8)
    assert set(state.slots["13"]) == {"v"}
    assert state.slots["13"]["v"].shape == (1, 13)
    # the 12 attention projections of one encoder and one decoder layer
    assert len(groups["8x8"]) == 12
    assert {k: a.shape for k, a in state.slots["8x8"].items()} == {"row": (12, 8), "col": (12, 8)}
    # the groups tile the gradient vector, slot after slot; each tensor's
    # gradient is its group's row, and its data lies at the same place in flat
    assert params.names() == [name for names in groups.values() for name in names]
    offset = 0
    for key, names in groups.items():
        group = params.groups[key]
        assert group.shape[0] == len(names) and group.flags.c_contiguous
        assert group.ctypes.data == params.grad.ctypes.data + 8 * offset
        for row, name in zip(group, names):
            tensor = params[name]
            assert np.shares_memory(tensor.grad, row) and tensor.grad.shape == row.shape
            assert tensor.grad.ctypes.data == row.ctypes.data
            assert tensor.data.ctypes.data - params.flat.ctypes.data == row.ctypes.data - params.grad.ctypes.data
        offset += group.size
    assert offset == params.num_params


def test_adafactor_clips_update_rms_to_threshold():
    params = params_with_grads(grad_value=0.0)
    name = "enc0.attn.wq"
    before = params[name].data.copy()
    params[name].grad[...] = np.random.default_rng(0).normal(size=(8, 8)) * 100.0
    state = init_optimizer("adafactor", params)
    lr = 1.0
    optimizer_step(params, state, lr)
    update = (before - params[name].data) / lr
    assert np.sqrt(np.mean(update**2)) <= 1.0 + 1e-9


def test_adafactor_rank_one_structure():
    # the reconstructed second moment is rank-1, so the update must equal
    # grad * rank-1 reconstruction of 1/sqrt(v)
    params = params_with_grads(grad_value=0.0)
    name = "enc0.attn.wq"
    grad = np.abs(np.random.default_rng(1).normal(size=(8, 8))) + 0.1
    params[name].grad[...] = grad
    before = params[name].data.copy()
    state = init_optimizer("adafactor", params)
    optimizer_step(params, state, learning_rate=1.0)
    update = before - params[name].data
    sq = grad * grad + 1e-30
    row = sq.mean(axis=1)
    col = sq.mean(axis=0)
    v = np.outer(row, col) / row.mean()
    expected = grad / np.sqrt(v)
    expected /= max(1.0, np.sqrt(np.mean(expected**2)))
    np.testing.assert_allclose(update, expected, rtol=1e-10)


def adafactor_update_with_np_mean(grad, slot, step):
    """The Adafactor update as written with ``np.mean``."""
    decay = 1.0 - step**-0.8
    sq = grad * grad + 1e-30
    if "row" in slot:
        slot["row"] = decay * slot["row"] + (1.0 - decay) * sq.mean(axis=-1)
        slot["col"] = decay * slot["col"] + (1.0 - decay) * sq.mean(axis=-2)
        row_factor = 1.0 / np.sqrt(slot["row"] / slot["row"].mean(axis=-1, keepdims=True))
        update = grad * row_factor[..., None] * (1.0 / np.sqrt(slot["col"]))[..., None, :]
    else:
        slot["v"] = decay * slot["v"] + (1.0 - decay) * sq
        update = grad / np.sqrt(slot["v"])
    update /= max(1.0, float(np.sqrt(np.mean(update * update))))
    return update


def test_adafactor_updates_equal_np_mean_form():
    # (200, 32) embeddings, (32, 64) / (64, 32) FFN weights, (32,) vectors
    params = init_params(ModelConfig(vocab_size=200, model_dim=32, num_heads=4, ffn_dim=64), seed=3)
    state = init_optimizer("adafactor", params)
    want = {name: t.data.copy() for name, t in params.items()}
    slots = per_tensor_slots("adafactor", params.tensors)
    rng = np.random.default_rng(5)
    for step in range(1, 4):
        for name, t in params.items():
            t.grad[...] = rng.normal(size=t.data.shape) * 10.0 ** rng.integers(-3, 2)
            want[name] -= 0.01 * adafactor_update_with_np_mean(t.grad.copy(), slots[name], step)
        optimizer_step(params, state, 0.01)
        for name, t in params.items():
            assert np.array_equal(t.data, want[name]), (step, name)
        # each shape group's accumulators stack its tensors' own
        for key, names in shape_groups(params.config).items():
            for acc, stacked in state.slots[key].items():
                assert np.array_equal(stacked, np.stack([slots[name][acc] for name in names])), (step, key)


# -- shared behavior --------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["adam", "adafactor"])
def test_step_counter_and_grad_clearing(kind):
    params = params_with_grads(seed=1)
    state = init_optimizer(kind, params)
    optimizer_step(params, state, 1e-3)
    assert state.step == 1
    for _, t in params.items():
        np.testing.assert_array_equal(t.grad, 0.0)


# Untied, the acceptance model gains out.w (32, 65), a shape of its own.
UNTIED_MODEL = dataclasses.replace(ACCEPTANCE_MODEL, tie_embeddings=False)


@pytest.mark.parametrize("kind", ["adam", "adafactor"])
def test_steps_on_the_parameter_vector_equal_the_per_tensor_reference(kind):
    for config, sizes in ((ACCEPTANCE_MODEL, (86, 46_881, 9)), (UNTIED_MODEL, (87, 48_961, 10))):
        params = init_params(config, seed=7)
        assert (len(params.names()), params.num_params, len(shape_groups(params.config))) == sizes
        leaves = {name: Tensor(t.data.copy(), requires_grad=True) for name, t in params.items()}
        state, slots = init_optimizer(kind, params), per_tensor_slots(kind, leaves)
        rng = np.random.default_rng(13)
        for step in range(1, 6):
            for name, t in params.items():
                t.grad[...] = leaves[name].grad[...] = rng.normal(size=t.data.shape) * 10.0 ** rng.integers(-3, 2)
            optimizer_step(params, state, 2e-3)
            per_tensor_optimizer_step(kind, leaves, slots, step, 2e-3)
            for name, leaf in leaves.items():
                assert np.array_equal(params[name].data, leaf.data), (config.tie_embeddings, step, name)
            assert not params.grad.any()


@pytest.mark.parametrize("kind", ["adam", "adafactor"])
def test_no_optimizer_step_allocates_an_array_of_the_models_size(kind):
    params = init_params(ACCEPTANCE_MODEL, seed=7)
    state = init_optimizer(kind, params)
    params.grad[...] = np.random.default_rng(3).normal(size=params.num_params)
    tracemalloc.start()
    try:
        optimizer_step(params, state, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < params.flat.nbytes / 2, (peak, params.flat.nbytes)


def test_uninitialized_state_rejected():
    params = params_with_grads()
    state = OptimizerState(kind="adam")
    with pytest.raises(OptimizerError, match="uninitialized"):
        optimizer_step(params, state, 1e-3)


def test_state_missing_parameter_rejected():
    params = params_with_grads()
    state = init_optimizer("adafactor", params)
    del state.slots["13"]  # the group of out.b, the one (13,) tensor
    state.step = 1
    before = params.flat.copy()
    with pytest.raises(OptimizerError, match="out.b"):
        optimizer_step(params, state, 1e-3)
    assert np.array_equal(params.flat, before)
    # a state built for another model does not cover this parameter vector
    state = init_optimizer("adafactor", tiny_params(vocab_size=14))
    with pytest.raises(OptimizerError, match=f"of {params.num_params} parameters.*tok_emb"):
        optimizer_step(params, state, 1e-3)
    # the work vector must hold the largest group
    state = init_optimizer("adafactor", params)
    state.work = state.work[:-1]
    with pytest.raises(OptimizerError, match=f"of {params.num_params} parameters"):
        optimizer_step(params, state, 1e-3)
    assert np.array_equal(params.flat, before)
    # Adam's moments and work vector must match the parameter vector
    for short in ("m", "v", "work"):
        state = init_optimizer("adam", params)
        if short == "work":
            state.work = np.zeros(params.num_params - 1)
        else:
            state.slots["flat"][short] = np.zeros(params.num_params - 1)
        with pytest.raises(OptimizerError, match=f"{params.num_params} parameters"):
            optimizer_step(params, state, 1e-3)
        assert np.array_equal(params.flat, before), short


def test_bad_learning_rate_rejected():
    params = params_with_grads()
    state = init_optimizer("adam", params)
    with pytest.raises(OptimizerError, match="learning rate"):
        optimizer_step(params, state, 0.0)


def test_unknown_kind_rejected():
    with pytest.raises(OptimizerError, match="unknown"):
        init_optimizer("sgd", tiny_params())


# -- warmup ---------------------------------------------------------------------------


def test_warmup_midpoint():
    assert warmup_schedule(1e-5, 10_000, 20_000) == pytest.approx(5e-6, rel=1e-12)


def test_warmup_plateau():
    assert warmup_schedule(1e-5, 20_000, 20_000) == 1e-5
    assert warmup_schedule(1e-5, 50_000, 20_000) == 1e-5


def test_warmup_disabled():
    for step in (1, 7, 1000):
        assert warmup_schedule(3e-4, step, 0) == 3e-4


def test_warmup_rejects_negative():
    with pytest.raises(ValueError):
        warmup_schedule(1e-5, 1, -1)
