"""A small trainable encoder-decoder transformer over the autodiff tape.

Pre-layer-norm architecture with learned positional embeddings and a token
embedding table shared by the encoder and decoder inputs. The output
projection is a separate parameter (untied). Everything runs in float64;
checkpoints store float32 on disk.

Shape conventions: source batches are (B, Ts) int arrays, target batches
(B, Tt); hidden activations are (B, T, model_dim); attention works on
(B, heads, T, head_dim).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import BOS_ID, EOS_ID, PAD_ID

_NEG_INF = -1e9
CHECKPOINT_FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """Raised when a checkpoint file cannot be read back consistently."""


@dataclass
class ModelConfig:
    vocab_size: int
    model_dim: int = 64
    num_heads: int = 4
    ffn_dim: int = 128
    num_encoder_layers: int = 2
    num_decoder_layers: int = 2
    max_source_len: int = 256
    max_target_len: int = 64
    dropout_rate: float = 0.0
    # Tie the output projection to the token embedding table (logits =
    # hidden @ tok_emb^T). Off by default; at toy scale tying makes copying
    # generalize from far less data.
    tie_embeddings: bool = False

    def validate(self) -> None:
        for name in (
            "vocab_size",
            "model_dim",
            "num_heads",
            "ffn_dim",
            "num_encoder_layers",
            "num_decoder_layers",
            "max_source_len",
            "max_target_len",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"ModelConfig.{name} must be a positive integer, got {value!r}")
        if self.model_dim % self.num_heads != 0:
            raise ValueError(
                f"ModelConfig.model_dim ({self.model_dim}) must be divisible by "
                f"num_heads ({self.num_heads})"
            )
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError(f"ModelConfig.dropout_rate must be in [0, 1), got {self.dropout_rate}")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.num_heads


class ModelParams:
    """Named parameter tensors with paired gradient buffers."""

    def __init__(self, config: ModelConfig, tensors: dict[str, Tensor]):
        self.config = config
        self.tensors = tensors

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def names(self) -> list[str]:
        return list(self.tensors.keys())

    def items(self):
        return self.tensors.items()

    @property
    def num_params(self) -> int:
        return sum(t.data.size for t in self.tensors.values())

    def zero_grads(self) -> None:
        for t in self.tensors.values():
            t.zero_grad()

    def copy(self) -> "ModelParams":
        fresh = {}
        for name, t in self.tensors.items():
            nt = Tensor(t.data.copy(), requires_grad=True)
            fresh[name] = nt
        return ModelParams(self.config, fresh)

    def all_finite(self) -> bool:
        return all(np.isfinite(t.data).all() for t in self.tensors.values())


def _param_specs(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Canonical (name, shape, kind) list; kind is weight | zero | one."""
    d, f, v = config.model_dim, config.ffn_dim, config.vocab_size
    specs: list[tuple[str, tuple[int, ...], str]] = [
        ("tok_emb", (v, d), "weight"),
        ("pos_emb_src", (config.max_source_len, d), "weight"),
        ("pos_emb_tgt", (config.max_target_len, d), "weight"),
    ]

    def attn(prefix: str) -> list[tuple[str, tuple[int, ...], str]]:
        out = []
        for proj in ("q", "k", "v", "o"):
            out.append((f"{prefix}.w{proj}", (d, d), "weight"))
            out.append((f"{prefix}.b{proj}", (d,), "zero"))
        return out

    def norm(prefix: str) -> list[tuple[str, tuple[int, ...], str]]:
        return [(f"{prefix}.g", (d,), "one"), (f"{prefix}.b", (d,), "zero")]

    def ffn(prefix: str) -> list[tuple[str, tuple[int, ...], str]]:
        return [
            (f"{prefix}.w1", (d, f), "weight"),
            (f"{prefix}.b1", (f,), "zero"),
            (f"{prefix}.w2", (f, d), "weight"),
            (f"{prefix}.b2", (d,), "zero"),
        ]

    for i in range(config.num_encoder_layers):
        specs += norm(f"enc{i}.ln1") + attn(f"enc{i}.attn")
        specs += norm(f"enc{i}.ln2") + ffn(f"enc{i}.ffn")
    specs += norm("enc_ln")
    for i in range(config.num_decoder_layers):
        specs += norm(f"dec{i}.ln1") + attn(f"dec{i}.self")
        specs += norm(f"dec{i}.ln2") + attn(f"dec{i}.cross")
        specs += norm(f"dec{i}.ln3") + ffn(f"dec{i}.ffn")
    specs += norm("dec_ln")
    if not config.tie_embeddings:
        specs.append(("out.w", (d, v), "weight"))
    specs.append(("out.b", (v,), "zero"))
    return specs


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Deterministic initialization: N(0, 1/sqrt(model_dim)) weights,
    unit layer-norm gains, zero biases."""
    config.validate()
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(config.model_dim)
    tensors: dict[str, Tensor] = {}
    for name, shape, kind in _param_specs(config):
        if kind == "weight":
            data = rng.normal(0.0, scale, size=shape)
        elif kind == "one":
            data = np.ones(shape)
        else:
            data = np.zeros(shape)
        tensors[name] = Tensor(data, requires_grad=True)
    return ModelParams(config, tensors)


# -- forward pieces --------------------------------------------------------


def _linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return ad.matmul(x, w) + b


def _split_heads(x: Tensor, num_heads: int) -> Tensor:
    b, t, d = x.shape
    return ad.transpose(ad.reshape(x, (b, t, num_heads, d // num_heads)), (0, 2, 1, 3))


def _merge_heads(x: Tensor) -> Tensor:
    b, h, t, hd = x.shape
    return ad.reshape(ad.transpose(x, (0, 2, 1, 3)), (b, t, h * hd))


def _attention(
    params: ModelParams,
    prefix: str,
    queries: Tensor,
    keys_values: Tensor,
    mask: np.ndarray | None,
) -> Tensor:
    cfg = params.config
    q = _split_heads(_linear(queries, params[f"{prefix}.wq"], params[f"{prefix}.bq"]), cfg.num_heads)
    k = _split_heads(_linear(keys_values, params[f"{prefix}.wk"], params[f"{prefix}.bk"]), cfg.num_heads)
    v = _split_heads(_linear(keys_values, params[f"{prefix}.wv"], params[f"{prefix}.bv"]), cfg.num_heads)
    scores = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(cfg.head_dim))
    if mask is not None:
        scores = scores + Tensor(mask)
    ctx = _merge_heads(ad.matmul(ad.softmax(scores, axis=-1), v))
    return _linear(ctx, params[f"{prefix}.wo"], params[f"{prefix}.bo"])


def _ffn(params: ModelParams, prefix: str, x: Tensor) -> Tensor:
    hidden = ad.gelu(_linear(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"]))
    return _linear(hidden, params[f"{prefix}.w2"], params[f"{prefix}.b2"])


def _norm(params: ModelParams, prefix: str, x: Tensor) -> Tensor:
    return ad.layer_norm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


def source_pad_mask(src: np.ndarray) -> np.ndarray:
    """Additive attention mask (B, 1, 1, Ts): 0 for real tokens, -1e9 for PAD."""
    blocked = (src == PAD_ID)[:, None, None, :]
    return np.where(blocked, _NEG_INF, 0.0)


def causal_mask(length: int) -> np.ndarray:
    """Additive mask (1, 1, T, T) hiding positions after the query position."""
    upper = np.triu(np.ones((length, length), dtype=bool), k=1)
    return np.where(upper, _NEG_INF, 0.0)[None, None, :, :]


def _embed(params: ModelParams, ids: np.ndarray, pos_table: str) -> Tensor:
    positions = ad.embedding(params[pos_table], np.arange(ids.shape[1]))
    return ad.embedding(params["tok_emb"], ids) + positions


def encode_source(
    params: ModelParams,
    src: np.ndarray,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[Tensor, np.ndarray]:
    """Run the encoder stack; returns hidden states and the source pad mask."""
    cfg = params.config
    mask = source_pad_mask(src)
    rate = cfg.dropout_rate
    x = ad.dropout(_embed(params, src, "pos_emb_src"), rate, dropout_rng)
    for i in range(cfg.num_encoder_layers):
        normed = _norm(params, f"enc{i}.ln1", x)
        x = x + ad.dropout(_attention(params, f"enc{i}.attn", normed, normed, mask), rate, dropout_rng)
        x = x + ad.dropout(_ffn(params, f"enc{i}.ffn", _norm(params, f"enc{i}.ln2", x)), rate, dropout_rng)
    return _norm(params, "enc_ln", x), mask


def decoder_logprobs(
    params: ModelParams,
    enc_out: Tensor,
    src_mask: np.ndarray,
    tgt_in: np.ndarray,
    dropout_rng: np.random.Generator | None = None,
) -> Tensor:
    """Decoder stack over ``tgt_in`` prefixes: (B, Tt, vocab) log-probs."""
    cfg = params.config
    rate = cfg.dropout_rate
    self_mask = causal_mask(tgt_in.shape[1])
    cross_mask = src_mask
    x = ad.dropout(_embed(params, tgt_in, "pos_emb_tgt"), rate, dropout_rng)
    for i in range(cfg.num_decoder_layers):
        normed = _norm(params, f"dec{i}.ln1", x)
        x = x + ad.dropout(_attention(params, f"dec{i}.self", normed, normed, self_mask), rate, dropout_rng)
        x = x + ad.dropout(_attention(params, f"dec{i}.cross", _norm(params, f"dec{i}.ln2", x), enc_out, cross_mask), rate, dropout_rng)
        x = x + ad.dropout(_ffn(params, f"dec{i}.ffn", _norm(params, f"dec{i}.ln3", x)), rate, dropout_rng)
    x = _norm(params, "dec_ln", x)
    if cfg.tie_embeddings:
        logits = ad.matmul(x, ad.transpose(params["tok_emb"], (1, 0))) + params["out.b"]
    else:
        logits = _linear(x, params["out.w"], params["out.b"])
    return ad.log_softmax(logits, axis=-1)


def _validate_ids(ids: Sequence[int], limit: int, max_len: int, label: str) -> None:
    if len(ids) > max_len:
        raise ValueError(f"{label} length {len(ids)} exceeds maximum {max_len}")
    for token_id in ids:
        if not (0 <= token_id < limit):
            raise ValueError(f"{label} id {token_id} out of range [0, {limit})")


def forward(
    params: ModelParams,
    source_ids: Sequence[int],
    target_ids: Sequence[int],
) -> Tensor:
    """Per-position next-token log-probability table (len(target), vocab).

    Row t is the log-distribution over the token following ``target_ids[:t+1]``;
    the causal mask guarantees row t ignores target positions beyond t.
    """
    cfg = params.config
    _validate_ids(source_ids, cfg.vocab_size, cfg.max_source_len, "source")
    _validate_ids(target_ids, cfg.vocab_size, cfg.max_target_len, "target")
    if len(source_ids) == 0 or len(target_ids) == 0:
        raise ValueError("source and target must be non-empty")
    enc_out, src_mask = encode_source(params, np.asarray([source_ids], dtype=np.int64))
    table = decoder_logprobs(params, enc_out, src_mask, np.asarray([target_ids], dtype=np.int64))
    return ad.reshape(table, (len(target_ids), cfg.vocab_size))


def pad_ids(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """Stack id rows into a (B, longest row) int64 array, PAD-filled on the right."""
    out = np.full((len(rows), max(len(row) for row in rows)), PAD_ID, dtype=np.int64)
    for i, row in enumerate(rows):
        out[i, : len(row)] = row
    return out


def teacher_forcing(targets: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Decoder inputs and gold next tokens for a batch of target sequences:
    row i holds ``targets[i][:-1]`` and ``targets[i][1:]``, PAD-filled."""
    return pad_ids([t[:-1] for t in targets]), pad_ids([t[1:] for t in targets])


def mle_loss(logprobs: Tensor | np.ndarray, gold_ids: Sequence[int] | np.ndarray) -> Tensor:
    """Mean negative log-likelihood of gold next-tokens, PAD positions excluded.

    ``gold_ids`` has the shape of ``logprobs`` without its vocabulary axis:
    (T,) for one table, (B, T) for a batch (the mean is over all kept tokens).
    """
    table = logprobs if isinstance(logprobs, Tensor) else Tensor(logprobs)
    gold = np.asarray(gold_ids, dtype=np.int64)
    if gold.shape != table.shape[:-1]:
        raise ValueError(
            f"gold shape {gold.shape} does not match log-prob rows {table.shape[:-1]}"
        )
    keep = gold != PAD_ID
    if not keep.any():
        raise ValueError("no non-PAD positions to score")
    picked = ad.gather_last(table, np.where(keep, gold, 0))
    masked = picked * Tensor(keep.astype(np.float64))
    return masked.sum() * (-1.0 / float(keep.sum()))


def _check_candidate_framing(candidate_ids: Sequence[int]) -> None:
    if len(candidate_ids) < 2 or candidate_ids[0] != BOS_ID or candidate_ids[-1] != EOS_ID:
        raise ValueError("candidate must start with BOS and end with EOS")


def score_rows(
    params: ModelParams, source_ids: Sequence[int], rows: Sequence[Sequence[int]]
) -> tuple[Tensor, np.ndarray]:
    """Teacher-forced log-prob sums of BOS/EOS-framed ``rows`` given one source.

    One encoder pass over ``source_ids`` is broadcast over one decoder pass
    on all rows. Returns the (N,) per-row sums of gold next-token log-probs
    (PAD targets excluded) and the (N,) float token counts ``len(row) - 1``.
    """
    enc_out, src_mask = encode_source(params, np.asarray([source_ids], dtype=np.int64))
    tgt_in, gold = teacher_forcing(rows)
    table = decoder_logprobs(params, enc_out, src_mask, tgt_in)
    keep = gold != PAD_ID
    picked = ad.gather_last(table, np.where(keep, gold, 0))
    sums = (picked * Tensor(keep.astype(np.float64))).sum(axis=1)
    return sums, np.array([len(row) - 1 for row in rows], dtype=np.float64)


def candidate_scores(
    params: ModelParams,
    source_ids: Sequence[int],
    candidates: Sequence[Sequence[int]],
    length_penalty: float,
) -> Tensor:
    """Length-penalized sequence log-probs for BOS/EOS-framed candidates.

    Returns a (N,) tensor; gradients flow into the model parameters. One
    encoder pass over ``source_ids`` is shared by all candidates.
    """
    cfg = params.config
    for cand in candidates:
        _check_candidate_framing(cand)
        _validate_ids(cand, cfg.vocab_size, cfg.max_target_len, "candidate")
    sums, lengths = score_rows(params, source_ids, candidates)
    return sums * Tensor(lengths**-length_penalty)


def sequence_log_prob(
    params: ModelParams,
    source_ids: Sequence[int],
    candidate_ids: Sequence[int],
    length_penalty: float = 1.0,
) -> float:
    """Model score f(S): candidate log-prob sum divided by |S|^length_penalty."""
    with ad.no_grad():
        score = candidate_scores(params, source_ids, [list(candidate_ids)], length_penalty)
    return float(score.data[0])


# -- checkpoint format ------------------------------------------------------


def save_checkpoint(params: ModelParams, path: str | Path, meta: dict | None = None) -> None:
    """Write a manifest header line plus raw little-endian float32 payload."""
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": asdict(params.config),
        "params": [
            {"name": name, "shape": list(t.data.shape), "count": int(t.data.size)}
            for name, t in params.items()
        ],
        "meta": meta or {},
    }
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(json.dumps(manifest, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for _, t in params.items():
            fh.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())


def load_checkpoint(path: str | Path) -> tuple[ModelParams, dict]:
    path = Path(path)
    raw = path.read_bytes()
    sep = raw.find(b"\n")
    if sep < 0:
        raise CheckpointError(f"{path}: missing manifest line")
    try:
        manifest = json.loads(raw[:sep].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable manifest ({exc})") from exc
    if manifest.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version {manifest.get('format_version')}"
        )
    config = ModelConfig(**manifest["config"])
    config.validate()
    if (len(raw) - sep - 1) % 4:
        raise CheckpointError(f"{path}: payload of {len(raw) - sep - 1} bytes is not whole floats")
    payload = np.frombuffer(raw[sep + 1 :], dtype="<f4")
    expected = sum(entry["count"] for entry in manifest["params"])
    if payload.size != expected:
        raise CheckpointError(
            f"{path}: payload holds {payload.size} floats, manifest expects {expected}"
        )
    spec_shapes = {name: shape for name, shape, _ in _param_specs(config)}
    tensors: dict[str, Tensor] = {}
    offset = 0
    for entry in manifest["params"]:
        name, shape, count = entry["name"], tuple(entry["shape"]), entry["count"]
        if name not in spec_shapes or spec_shapes[name] != shape:
            raise CheckpointError(f"{path}: parameter '{name}' has shape {shape}, "
                                  f"config implies {spec_shapes.get(name)}")
        block = payload[offset : offset + count].reshape(shape)
        tensors[name] = Tensor(block.astype(np.float64), requires_grad=True)
        offset += count
    if set(tensors) != set(spec_shapes):
        raise CheckpointError(f"{path}: manifest does not cover the full parameter set")
    ordered = {name: tensors[name] for name, _, _ in _param_specs(config)}
    return ModelParams(config, ordered), manifest.get("meta", {})
