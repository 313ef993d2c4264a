"""A small trainable encoder-decoder transformer over the autodiff tape.

Pre-layer-norm architecture with learned positional embeddings and a token
embedding table shared by the encoder and decoder inputs (and, with
``tie_embeddings``, the output projection). Keys have no bias: it would
shift a query row's scores alike, which the softmax cancels. Everything
runs in float64, with all parameters in one vector that the named tensors
view (``ModelParams``); checkpoints store them bit for bit.

Shape conventions: source batches are (B, Ts) int arrays, target batches
(B, Tt); hidden activations, keys and values are (B, T, model_dim). The
layers are the fused ops of ``autodiff`` (``linear``, ``attention``,
``ffn``), one tape node each.

The decoder reads the source only through a ``DecoderCache``: one encoder
pass and each layer's cross-attention K/V. Training and decoding alike call
``decoder_logprobs`` on it, and decoding extends it step by step.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import BOS_ID, EOS_ID, PAD_ID

_NEG_INF = -1e9
CHECKPOINT_FORMAT_VERSION = 2


class CheckpointError(RuntimeError):
    """Raised when a checkpoint file cannot be read back consistently."""


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    model_dim: int = 64
    num_heads: int = 4
    ffn_dim: int = 128
    num_encoder_layers: int = 2
    num_decoder_layers: int = 2
    max_source_len: int = 256
    max_target_len: int = 64
    # Tie the output projection to the token embedding table (logits =
    # hidden @ tok_emb^T). Off by default; at toy scale tying makes copying
    # generalize from far less data.
    tie_embeddings: bool = False

    def __post_init__(self) -> None:
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


class ModelParams:
    """All parameters in one float64 vector, ``flat`` (zeros if not given),
    and their gradients in ``grad``, laid out group after group of
    ``shape_groups``; ``groups`` maps each key to the (k, *shape) view of
    ``grad`` that stacks its k tensors, and ``tensors`` follows the layout.
    Each named tensor's ``data`` and ``grad`` are views into the two, so
    ``backward()`` fills ``grad`` and copying or checking is one array op.
    Initial draws and checkpoints keep ``_param_specs`` order."""

    def __init__(self, config: ModelConfig, flat: np.ndarray | None = None):
        shapes = {name: shape for name, shape, _ in _param_specs(config)}
        size = sum(math.prod(shape) for shape in shapes.values())
        flat = np.zeros(size) if flat is None else flat
        if flat.shape != (size,) or flat.dtype != np.float64:
            raise ValueError(f"expected {size} float64 parameters, got {flat.dtype} {flat.shape}")
        self.config, self.flat, self.grad = config, flat, np.zeros_like(flat)
        self.tensors: dict[str, Tensor] = {}
        self.groups: dict[str, np.ndarray] = {}
        offset = 0
        for key, names in shape_groups(config).items():
            stacked = (len(names), *shapes[names[0]])
            end = offset + math.prod(stacked)
            data, self.groups[key] = (a[offset:end].reshape(stacked) for a in (flat, self.grad))
            for name, values, grad in zip(names, data, self.groups[key]):
                self.tensors[name] = tensor = Tensor(values)
                tensor.requires_grad, tensor.grad = True, grad
            offset = end

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def names(self) -> list[str]:
        return list(self.tensors.keys())

    def items(self):
        return self.tensors.items()

    @property
    def num_params(self) -> int:
        return self.flat.size

    def zero_grads(self) -> None:
        self.grad[...] = 0.0

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, self.flat.copy())

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


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
            if proj != "k":  # no key bias: see the module docstring
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


def shape_groups(config: ModelConfig) -> dict[str, list[str]]:
    """The parameter names of each shape, keyed by the shape written like
    "32x64" or "32", in order of first appearance in ``_param_specs``."""
    groups: dict[str, list[str]] = {}
    for name, shape, _ in _param_specs(config):
        groups.setdefault("x".join(map(str, shape)), []).append(name)
    return groups


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Deterministic initialization: N(0, 1/sqrt(model_dim)) weights,
    unit layer-norm gains, zero biases, drawn in ``_param_specs`` order."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(config.model_dim)
    params = ModelParams(config)
    for name, shape, kind in _param_specs(config):
        if kind == "weight":
            params[name].data[...] = rng.normal(0.0, scale, size=shape)
        elif kind == "one":
            params[name].data[...] = 1.0
    return params


# -- forward pieces --------------------------------------------------------


def _project_kv(params: ModelParams, prefix: str, x: Tensor) -> tuple[Tensor, Tensor]:
    """An attention layer's keys and values over ``x``, (B, T, model_dim) each."""
    return (
        ad.linear(x, params[f"{prefix}.wk"]),
        ad.linear(x, params[f"{prefix}.wv"], params[f"{prefix}.bv"]),
    )


def _attend(
    params: ModelParams,
    prefix: str,
    queries: Tensor,
    k: Tensor,
    v: Tensor,
    mask: np.ndarray | None,
    residual: Tensor | None,
) -> Tensor:
    """``residual`` plus the attention of ``queries`` over the given
    projected keys and values (the attention alone for a None residual)."""
    weights = (params[f"{prefix}.{name}"] for name in ("wq", "bq", "wo", "bo"))
    return ad.attention(queries, k, v, *weights, mask, params.config.num_heads, residual)


def _ffn(params: ModelParams, prefix: str, x: Tensor, residual: Tensor) -> Tensor:
    """``residual`` plus the feed-forward layer over ``x``."""
    weights = (params[f"{prefix}.{name}"] for name in ("w1", "b1", "w2", "b2"))
    return ad.ffn(x, *weights, residual)


def _norm(params: ModelParams, prefix: str, x: Tensor) -> Tensor:
    return ad.layer_norm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


def source_pad_mask(src: np.ndarray) -> np.ndarray | None:
    """Additive attention mask (B, 1, 1, Ts): 0 for real tokens, -1e9 for
    PAD; None when ``src`` holds no PAD, as adding zeros changes no score."""
    blocked = (src == PAD_ID)[:, None, None, :]
    return np.where(blocked, _NEG_INF, 0.0) if blocked.any() else None


@functools.cache
def causal_mask(length: int) -> np.ndarray:
    """Additive mask (1, 1, T, T) hiding positions after the query position;
    built once per length and read-only."""
    upper = np.triu(np.ones((length, length), dtype=bool), k=1)
    mask = np.where(upper, _NEG_INF, 0.0)[None, None, :, :]
    mask.flags.writeable = False
    return mask


def encode_source(params: ModelParams, src: np.ndarray) -> tuple[Tensor, np.ndarray | None]:
    """Run the encoder stack; returns hidden states and the source pad mask."""
    cfg = params.config
    mask = source_pad_mask(src)
    x = ad.embed(params["tok_emb"], params["pos_emb_src"], src)
    for i in range(cfg.num_encoder_layers):
        normed = _norm(params, f"enc{i}.ln1", x)
        x = _attend(params, f"enc{i}.attn", normed, *_project_kv(params, f"enc{i}.attn", normed), mask, x)
        x = _ffn(params, f"enc{i}.ffn", _norm(params, f"enc{i}.ln2", x), x)
    return _norm(params, "enc_ln", x), mask


@dataclass(frozen=True)
class DecoderCache:
    """The decoder's view of the source and of the prefixes decoded so far.

    ``cross[i]`` is decoder layer i's cross-attention (K, V) over the
    encoder output, (Bs, Ts, model_dim) each, and ``mask`` the sources' PAD
    mask, both built once by ``start``. Bs sources serve B = r * Bs rows, r
    consecutive rows each (one source serves any number of rows), except
    that rows given ``docs`` (``reading``) read source ``docs[b]``. ``past[i]`` is its
    self-attention (K, V) over the B prefixes decoded so far, (B, t,
    model_dim) each: empty before the first position. Caches with a past or
    with ``docs`` are decoded only under ``no_grad()``, as they hold no
    gradient.
    """

    cross: tuple[tuple[Tensor, Tensor], ...]
    mask: np.ndarray | None
    past: tuple[tuple[Tensor, Tensor], ...] = ()
    docs: np.ndarray | None = None

    @classmethod
    def start(cls, params: ModelParams, src: np.ndarray) -> "DecoderCache":
        """An empty-prefix cache over the (Bs, Ts) source ids ``src``."""
        enc_out, mask = encode_source(params, src)
        layers = range(params.config.num_decoder_layers)
        return cls(tuple(_project_kv(params, f"dec{i}.cross", enc_out) for i in layers), mask)

    @property
    def length(self) -> int:
        return self.past[0][0].shape[1] if self.past else 0

    def reading(self, docs: Sequence[int]) -> "DecoderCache":
        """This empty-prefix cache for rows that read the sources ``docs``;
        one source is broadcast to them as it is, with no gather."""
        return self if self.cross[0][0].shape[0] == 1 else replace(self, docs=np.asarray(docs))

    def rows(self, index: Sequence[int]) -> "DecoderCache":
        """The cache of the prefixes at ``index``, in that order: itself when
        that is every prefix in its own order."""
        if self.past and list(index) == list(range(self.past[0][0].shape[0])):
            return self
        past = tuple((Tensor(k.data[index]), Tensor(v.data[index])) for k, v in self.past)
        return DecoderCache(self.cross, self.mask, past, None if self.docs is None else self.docs[index])


def decoder_logprobs(
    params: ModelParams, cache: DecoderCache, tgt_in: np.ndarray
) -> tuple[Tensor, DecoderCache]:
    """Decoder stack over the next Tt tokens of the cached prefixes.

    ``tgt_in`` (B, Tt) holds positions t..t+Tt-1 of the B prefixes of a
    ``cache`` of t positions (t = 0 for a fresh one, the teacher-forced
    pass). They attend to the cached keys plus their own and to the cached
    source. Returns the (B, Tt, vocab) log-probs of the new positions and
    the cache extended by them.
    """
    cfg = params.config
    docs = cache.docs
    if (cache.past or docs is not None) and ad.grad_enabled():
        raise ValueError("decoder_logprobs: a cache with a past or docs is for inference only; use no_grad()")
    offset = cache.length
    # One new position may attend to every cached one: its mask is all zeros.
    self_mask = causal_mask(offset + tgt_in.shape[1])[:, :, offset:, :] if tgt_in.shape[1] > 1 else None
    cross_mask = cache.mask if docs is None or cache.mask is None else cache.mask[docs]
    x = ad.embed(params["tok_emb"], params["pos_emb_tgt"], tgt_in, offset)
    past = []
    for i in range(cfg.num_decoder_layers):
        normed = _norm(params, f"dec{i}.ln1", x)
        k, v = _project_kv(params, f"dec{i}.self", normed)
        if cache.past:
            k = Tensor(np.concatenate([cache.past[i][0].data, k.data], axis=1))
            v = Tensor(np.concatenate([cache.past[i][1].data, v.data], axis=1))
        past.append((k, v))
        x = _attend(params, f"dec{i}.self", normed, k, v, self_mask, x)
        cross_k, cross_v = cache.cross[i]
        if docs is not None:  # gathered one layer at a time, so one layer's copy is alive
            cross_k, cross_v = Tensor(cross_k.data[docs]), Tensor(cross_v.data[docs])
        x = _attend(params, f"dec{i}.cross", _norm(params, f"dec{i}.ln2", x), cross_k, cross_v, cross_mask, x)
        x = _ffn(params, f"dec{i}.ffn", _norm(params, f"dec{i}.ln3", x), x)
    x = _norm(params, "dec_ln", x)
    out_w = ad.transpose(params["tok_emb"], (1, 0)) if cfg.tie_embeddings else params["out.w"]
    logprobs = ad.log_softmax(ad.linear(x, out_w, params["out.b"]), axis=-1)
    return logprobs, DecoderCache(cache.cross, cache.mask, tuple(past), docs)


def _validate_ids(ids: Sequence[int], limit: int, max_len: int, label: str) -> None:
    if len(ids) > max_len:
        raise ValueError(f"{label} length {len(ids)} exceeds maximum {max_len}")
    for token_id in ids:
        if not isinstance(token_id, (int, np.integer)) or not (0 <= token_id < limit):
            raise ValueError(f"{label} id {token_id!r} is not an integer or out of range [0, {limit})")


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
    cache = DecoderCache.start(params, np.asarray([source_ids], dtype=np.int64))
    table, _ = decoder_logprobs(params, cache, np.asarray([target_ids], dtype=np.int64))
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
    gold = np.asarray(gold_ids, dtype=np.int64)
    if gold.shape != logprobs.shape[:-1]:
        raise ValueError(
            f"gold shape {gold.shape} does not match log-prob rows {logprobs.shape[:-1]}"
        )
    keep = gold != PAD_ID
    if not keep.any():
        raise ValueError("no non-PAD positions to score")
    return ad.gold_logprob_sum(logprobs, gold, keep) * (-1.0 / float(keep.sum()))


def check_candidates(config: ModelConfig, candidates: Sequence[Sequence[int]]) -> None:
    """Raise ValueError unless every candidate is framed by BOS...EOS, fits
    ``max_target_len`` and holds only ids in ``[0, vocab_size)``."""
    for cand in candidates:
        if len(cand) < 2 or cand[0] != BOS_ID or cand[-1] != EOS_ID:
            raise ValueError("candidate must start with BOS and end with EOS")
        _validate_ids(cand, config.vocab_size, config.max_target_len, "candidate")


def score_rows(
    params: ModelParams, sources: Sequence[Sequence[int]], row_sets: Sequence[Sequence[Sequence[int]]]
) -> tuple[Tensor, np.ndarray]:
    """Teacher-forced log-prob sums of BOS/EOS-framed rows for k documents,
    ``row_sets[j]`` given ``sources[j]``.

    One encoder pass over the k padded sources serves one decoder pass over
    k * R rows, document after document, where R is the largest row count:
    a document with fewer rows is padded with empty rows, which score no
    token. Returns the (k * R,) per-row sums of gold next-token log-probs
    (PAD targets excluded) and the (k, R) float token counts
    ``len(row) - 1``, 0 for an empty row.
    """
    width = max(len(rows) for rows in row_sets)
    lengths = np.zeros((len(row_sets), width))
    for counts, rows in zip(lengths, row_sets):
        counts[: len(rows)] = [len(row) - 1 for row in rows]
    cache = DecoderCache.start(params, pad_ids(sources))
    tgt_in, gold = teacher_forcing([row for rows in row_sets for row in (*rows, *[()] * (width - len(rows)))])
    table, _ = decoder_logprobs(params, cache, tgt_in)
    return ad.gold_logprob_sum(table, gold, gold != PAD_ID, axis=1), lengths


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
    check_candidates(params.config, candidates)
    sums, lengths = score_rows(params, [source_ids], [candidates])
    return sums * Tensor(lengths[0] ** -length_penalty)


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
    """Write a manifest header line, then the parameters as raw
    little-endian float64: the tensors in ``_param_specs`` order."""
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": asdict(params.config),
        "params": [{"name": name, "shape": list(shape), "count": math.prod(shape)}
                   for name, shape, _ in _param_specs(params.config)],
        "meta": meta or {},
    }
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(json.dumps(manifest, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        payload = np.concatenate([params[name].data.ravel() for name, _, _ in _param_specs(params.config)])
        fh.write(np.ascontiguousarray(payload, dtype="<f8"))


def load_checkpoint(path: str | Path) -> tuple[ModelParams, dict]:
    """Read a checkpoint back; any malformed content raises CheckpointError."""
    path = Path(path)
    raw = path.read_bytes()
    sep = raw.find(b"\n")
    if sep < 0:
        raise CheckpointError(f"{path}: missing manifest line")
    try:
        manifest = json.loads(raw[:sep].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable manifest ({exc})") from exc
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    try:
        config = ModelConfig(**manifest["config"])
        entries = [(e["name"], tuple(e["shape"]), int(e["count"])) for e in manifest["params"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed manifest ({exc!r})") from exc
    meta = manifest.get("meta", {})
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: manifest meta is not an object")
    specs = [(name, shape, math.prod(shape)) for name, shape, _ in _param_specs(config)]
    if entries != specs:
        raise CheckpointError(f"{path}: manifest parameters are not the {len(specs)} "
                              "tensors the config implies, in their order")
    if (len(raw) - sep - 1) % 8:
        raise CheckpointError(f"{path}: payload of {len(raw) - sep - 1} bytes is not whole floats")
    payload = np.frombuffer(raw[sep + 1 :], dtype="<f8")
    expected = sum(count for _, _, count in specs)
    if payload.size != expected:
        raise CheckpointError(f"{path}: payload holds {payload.size} floats, manifest expects {expected}")
    params, offset = ModelParams(config), 0
    for name, shape, count in specs:
        params[name].data[...] = payload[offset : offset + count].reshape(shape)
        offset += count
    return params, meta
