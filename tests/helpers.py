"""Shared fixtures: tiny model factories and the finite-difference checker."""

from __future__ import annotations

import numpy as np

from briosum import autodiff as ad
from briosum.corpus import Vocabulary
from briosum.model import ModelConfig, ModelParams, init_params

GRADCHECK_EPS = 1e-4
# Guarded relative error: |a - f| / max(|a|, |f|, floor). The floor keeps
# near-zero gradients from amplifying finite-difference noise.
GRADCHECK_FLOOR = 1e-4


def tiny_config(vocab_size: int = 13, **overrides) -> ModelConfig:
    base = dict(
        vocab_size=vocab_size,
        model_dim=8,
        num_heads=2,
        ffn_dim=16,
        num_encoder_layers=1,
        num_decoder_layers=1,
        max_source_len=12,
        max_target_len=10,
    )
    base.update(overrides)
    return ModelConfig(**base)


def tiny_params(seed: int = 0, **overrides) -> ModelParams:
    return init_params(tiny_config(**overrides), seed)


def tiny_vocab(size: int = 13) -> Vocabulary:
    tokens = ["<pad>", "<bos>", "<eos>", "<unk>"] + [f"w{i}" for i in range(4, size)]
    return Vocabulary(token_to_id={t: i for i, t in enumerate(tokens)}, id_to_token=tokens)


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), GRADCHECK_FLOOR)


def max_gradcheck_error(params: ModelParams, loss_fn, sample: int | None = None, seed: int = 0) -> float:
    """Max guarded relative error between analytic and central-difference
    gradients of ``loss_fn()`` (which must rebuild the graph from ``params``).

    Checks every parameter entry, or a random ``sample`` of them.
    """
    params.zero_grads()
    loss = loss_fn()
    loss.backward()

    def value() -> float:
        with ad.no_grad():
            return loss_fn().item()

    entries = []
    for name, tensor in params.items():
        for i in range(tensor.data.size):
            entries.append((name, i))
    if sample is not None and sample < len(entries):
        rng = np.random.default_rng(seed)
        picked = rng.choice(len(entries), size=sample, replace=False)
        entries = [entries[i] for i in picked]

    worst = 0.0
    for name, i in entries:
        flat = params[name].data.reshape(-1)
        grad = params[name].grad.reshape(-1)[i]
        orig = flat[i]
        flat[i] = orig + GRADCHECK_EPS
        up = value()
        flat[i] = orig - GRADCHECK_EPS
        down = value()
        flat[i] = orig
        fd = (up - down) / (2.0 * GRADCHECK_EPS)
        worst = max(worst, relative_error(grad, fd))
    return worst


def tensor_gradcheck(build_loss, leaves: dict[str, ad.Tensor], sample: int | None = None) -> float:
    """Same as max_gradcheck_error but over standalone leaf tensors."""
    for leaf in leaves.values():
        leaf.zero_grad()
    build_loss().backward()

    def value() -> float:
        with ad.no_grad():
            return build_loss().item()

    worst = 0.0
    for leaf in leaves.values():
        flat = leaf.data.reshape(-1)
        gflat = leaf.grad.reshape(-1)
        indices = range(flat.size)
        if sample is not None and sample < flat.size:
            indices = np.random.default_rng(0).choice(flat.size, size=sample, replace=False)
        for i in indices:
            orig = flat[i]
            flat[i] = orig + GRADCHECK_EPS
            up = value()
            flat[i] = orig - GRADCHECK_EPS
            down = value()
            flat[i] = orig
            fd = (up - down) / (2.0 * GRADCHECK_EPS)
            worst = max(worst, relative_error(gflat[i], fd))
    return worst
