"""Shared fixtures: tiny model factories, the initialization in
``_param_specs`` order, the finite-difference checker, a
counter of BRIO training-stage calls, the per-tensor optimizer step that
the steps on the parameter vector and on shape groups replace, the
primitive ops and composed graphs that the fused autodiff ops replace, the
BRIO loss graph before ``embed`` and the residual-taking layers with a
counter of its tape nodes, the backward walk with one map of pending
gradients that ``Tensor.backward`` replaces, the dynamic-programming LCS that the
bit-parallel ROUGE-L kernel replaces, the check that a search of many
documents found what each document's own search finds, and the
teacher-forced rescoring that the search's own candidate scores replace."""

from __future__ import annotations

import numpy as np

from briosum import autodiff as ad
from briosum import brio, model, optim
from briosum.corpus import EOS_ID, PAD_ID, Vocabulary
from briosum.model import ModelConfig, ModelParams, init_params

GRADCHECK_EPS = 1e-4
# Guarded relative error: |a - f| / max(|a|, |f|, floor). The floor keeps
# near-zero gradients from amplifying finite-difference noise.
GRADCHECK_FLOOR = 1e-4


# The optimizer step as one update per named tensor, each with its own
# arrays and accumulators: the reference for ``optim.optimizer_step``,
# which updates Adam's whole parameter vector at once and Adafactor's
# tensors one shape group at a time.


def per_tensor_slots(kind: str, leaves: dict[str, ad.Tensor]) -> dict[str, dict[str, np.ndarray]]:
    slots = {}
    for name, tensor in leaves.items():
        shape = tensor.data.shape
        if kind == "adam":
            slots[name] = {"m": np.zeros(shape), "v": np.zeros(shape)}
        elif len(shape) >= 2:
            slots[name] = {"row": np.zeros(shape[:-1]), "col": np.zeros(shape[:-2] + shape[-1:])}
        else:
            slots[name] = {"v": np.zeros(shape)}
    return slots


def _adam_update(grad: np.ndarray, slot: dict[str, np.ndarray], step: int) -> np.ndarray:
    slot["m"] = optim.ADAM_BETA1 * slot["m"] + (1.0 - optim.ADAM_BETA1) * grad
    slot["v"] = optim.ADAM_BETA2 * slot["v"] + (1.0 - optim.ADAM_BETA2) * grad * grad
    m_hat = slot["m"] / (1.0 - optim.ADAM_BETA1**step)
    v_hat = slot["v"] / (1.0 - optim.ADAM_BETA2**step)
    return m_hat / (np.sqrt(v_hat) + optim.ADAM_EPS)


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt((x * x).sum() / x.size))


def adafactor_update(grad: np.ndarray, slot: dict[str, np.ndarray], step: int) -> np.ndarray:
    """One tensor's Adafactor update; ``slot`` holds its own accumulators."""
    decay = 1.0 - step**optim.ADAFACTOR_DECAY_POWER
    sq = grad * grad + optim.ADAFACTOR_EPS1
    if "row" in slot:
        slot["row"] = decay * slot["row"] + (1.0 - decay) * (sq.sum(axis=-1) / sq.shape[-1])
        slot["col"] = decay * slot["col"] + (1.0 - decay) * (sq.sum(axis=-2) / sq.shape[-2])
        row_mean = slot["row"].sum(axis=-1, keepdims=True) / slot["row"].shape[-1]
        row_factor = 1.0 / np.sqrt(slot["row"] / row_mean)
        col_factor = 1.0 / np.sqrt(slot["col"])
        update = grad * row_factor[..., None] * col_factor[..., None, :]
    else:
        slot["v"] = decay * slot["v"] + (1.0 - decay) * sq
        update = grad / np.sqrt(slot["v"])
    update /= max(1.0, _rms(update) / optim.ADAFACTOR_CLIP)
    return update


def per_tensor_optimizer_step(
    kind: str, leaves: dict[str, ad.Tensor], slots: dict, step: int, learning_rate: float
) -> None:
    for name, tensor in leaves.items():
        if kind == "adam":
            update = _adam_update(tensor.grad, slots[name], step)
        else:
            update = adafactor_update(tensor.grad, slots[name], step)
        tensor.data -= learning_rate * update
        tensor.grad[...] = 0.0


def spec_order_init(config: ModelConfig, seed: int) -> np.ndarray:
    """The draws of ``init_params`` concatenated in ``_param_specs`` order:
    the reference for the values it writes by name into the shape-grouped
    layout."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(config.model_dim)
    draws = []
    for _, shape, kind in model._param_specs(config):
        if kind == "weight":
            draws.append(rng.normal(0.0, scale, size=shape).ravel())
        else:
            draws.append(np.full(shape, 1.0 if kind == "one" else 0.0).ravel())
    return np.concatenate(draws)


# Fused ops against the composed graphs they replace: their vjps sum in
# another order, so values and gradients agree to this relative bound.
RELATIVE_BOUND = 1e-10


# The acceptance run's model: 86 tensors, 46,881 parameters in 9 shapes.
ACCEPTANCE_MODEL = ModelConfig(vocab_size=65, model_dim=32, num_heads=4, ffn_dim=64,
                               max_source_len=48, max_target_len=16, tie_embeddings=True)


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


def count_train_stages(monkeypatch) -> list[int]:
    """Record the seed of every ``brio.brio_train_stage`` call from now on."""
    seeds: list[int] = []
    real = brio.brio_train_stage

    def counting(*args, **kwargs):
        seeds.append(kwargs["seed"])
        return real(*args, **kwargs)

    monkeypatch.setattr(brio, "brio_train_stage", counting)
    return seeds


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
        leaf.grad[...] = 0.0
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


def assert_relative_close(got: np.ndarray, want: np.ndarray, scale: float | None = None) -> None:
    """``|got - want| <= RELATIVE_BOUND * scale`` entrywise, with ``scale``
    the largest ``|want|`` unless given (e.g. over a whole gradient set,
    where some entries are exactly zero in exact arithmetic)."""
    scale = float(np.abs(want).max()) if scale is None else scale
    np.testing.assert_allclose(got, want, rtol=RELATIVE_BOUND, atol=RELATIVE_BOUND * scale)


# -- primitive ops -------------------------------------------------------------
#
# The composed graphs below are the references for the fused ops in
# ``briosum.autodiff`` (``embed``, ``linear``, ``attention``, ``ffn``,
# ``gold_logprob_sum`` and ``brio_objective``, with and without the residual
# stream). ``src/`` no longer uses the primitive ops they are built from, so
# those live here. ``Tensor`` has no ``+``: ``add`` is the sum node.


def add(a, b) -> ad.Tensor:
    a, b = ad._wrap(a), ad._wrap(b)
    out = a.data + b.data

    def vjp(g):
        return ad._unbroadcast(g, a.data.shape), ad._unbroadcast(g, b.data.shape)

    return ad._node(out, (a, b), vjp)


def embedding(table, ids: np.ndarray) -> ad.Tensor:
    """Row lookup: out[..., :] = table[ids[...], :]."""
    table = ad._wrap(table)
    ids = np.asarray(ids, dtype=np.int64)
    out = table.data[ids]

    def vjp(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids.reshape(-1), g.reshape(-1, table.data.shape[-1]))
        return (full,)

    return ad._node(out, (table,), vjp)


def sub(a, b) -> ad.Tensor:
    a, b = ad._wrap(a), ad._wrap(b)
    out = a.data - b.data

    def vjp(g):
        return ad._unbroadcast(g, a.data.shape), ad._unbroadcast(-g, b.data.shape)

    return ad._node(out, (a, b), vjp)


def relu(a) -> ad.Tensor:
    a = ad._wrap(a)
    keep = a.data > 0.0
    out = np.where(keep, a.data, 0.0)

    def vjp(g):
        return (g * keep,)

    return ad._node(out, (a,), vjp)


def getitem(a, key) -> ad.Tensor:
    a = ad._wrap(a)
    out = a.data[key]

    def vjp(g):
        full = np.zeros_like(a.data)
        np.add.at(full, key, g)
        return (full,)

    return ad._node(np.array(out, dtype=np.float64, copy=True), (a,), vjp)


def tsum(a, axis=None, keepdims=False) -> ad.Tensor:
    a = ad._wrap(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, a.data.shape).copy(),)

    return ad._node(out, (a,), vjp)


def matmul(a, b) -> ad.Tensor:
    a, b = ad._wrap(a), ad._wrap(b)
    out = a.data @ b.data

    def vjp(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return ad._unbroadcast(ga, a.data.shape), ad._unbroadcast(gb, b.data.shape)

    return ad._node(out, (a, b), vjp)


def softmax(a, axis: int = -1) -> ad.Tensor:
    a = ad._wrap(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return ad._node(out, (a,), vjp)


GELU_C = np.sqrt(2.0 / np.pi)
GELU_A = 0.044715


def gelu(a) -> ad.Tensor:
    """tanh-approximation GELU; the cube is ``x * x * x`` as in ``ad.ffn``."""
    a = ad._wrap(a)
    x = a.data
    t = np.tanh(GELU_C * (x + GELU_A * (x * x * x)))
    out = 0.5 * x * (1.0 + t)

    def vjp(g):
        dinner = GELU_C * (1.0 + 3.0 * GELU_A * x**2)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner),)

    return ad._node(out, (a,), vjp)


def gather_last(a, idx: np.ndarray) -> ad.Tensor:
    """Pick one entry along the last axis: out[...] = a[..., idx[...]]."""
    a = ad._wrap(a)
    idx = np.asarray(idx, dtype=np.int64)
    out = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]

    def vjp(g):
        full = np.zeros_like(a.data)
        np.put_along_axis(full, idx[..., None], g[..., None], axis=-1)
        return (full,)

    return ad._node(out, (a,), vjp)


# -- composed graphs -------------------------------------------------------------


def composed_linear(x, w, b) -> ad.Tensor:
    return add(matmul(x, w), b)


def composed_attention(queries, k, v, wq, bq, wo, bo, mask, heads) -> ad.Tensor:
    """Head split, scaled and masked scores, softmax, weighted sum, head
    merge and output projection, one primitive op at a time."""

    def split(t):
        b, n, d = t.shape
        return ad.transpose(ad.reshape(t, (b, n, heads, d // heads)), (0, 2, 1, 3))

    q = split(composed_linear(queries, wq, bq))
    scores = matmul(q, ad.transpose(split(k), (0, 1, 3, 2))) * (1.0 / np.sqrt(queries.shape[-1] // heads))
    if mask is not None:
        scores = add(scores, ad.Tensor(mask))
    ctx = matmul(softmax(scores, axis=-1), split(v))
    b, h, n, hd = ctx.shape
    return composed_linear(ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (b, n, h * hd)), wo, bo)


def composed_ffn(x, w1, b1, w2, b2) -> ad.Tensor:
    return composed_linear(gelu(composed_linear(x, w1, b1)), w2, b2)


def composed_gold_sum(logprobs, gold: np.ndarray, keep: np.ndarray, axis=None) -> ad.Tensor:
    picked = gather_last(logprobs, np.where(keep, gold, 0))
    return tsum(picked * ad.Tensor(keep.astype(np.float64)), axis=axis)


def composed_brio_objective(sums, lengths, mle_weight, ctr_weight, margin, length_penalty):
    """The BRIO loss from per-row sums, one primitive op at a time: row 0's
    MLE term, plus the pairwise ranking hinge when candidate rows are given.
    Returns the loss and, as ``brio_objective`` does for one document, a
    list of the one (loss, MLE, ranking) value triple."""
    mle = getitem(sums, 0) * (-1.0 / lengths[0])
    total = mle * mle_weight
    if sums.shape[0] == 1:
        return total, [(total.item(), mle.item(), 0.0)]
    scores = getitem(sums, slice(1, None)) * ad.Tensor(lengths[1:] ** -length_penalty)
    n = scores.shape[0]
    idx = np.arange(n, dtype=np.float64)
    margins = ad.Tensor(margin * (idx[None, :] - idx[:, None]))
    diffs = add(sub(ad.reshape(scores, (1, n)), ad.reshape(scores, (n, 1))), margins)
    ctr = tsum(relu(diffs) * ad.Tensor(np.triu(np.ones((n, n)), k=1)))
    total = add(total, ctr * ctr_weight)
    return total, [(total.item(), mle.item(), ctr.item())]


def _in_graph(t: ad.Tensor) -> bool:
    return t.requires_grad or t._vjp is not None


def reference_backward(root: ad.Tensor) -> None:
    """``Tensor.backward`` as one map of pending gradients keyed by ``id()``:
    the reference for the walk that writes a leaf fed by one edge straight
    into its ``grad``. Every tensor in the graph, leaves included, joins its
    contributions as ``held + contrib`` in the order of the reverse walk and
    takes the sum when the walk reaches it."""
    if root.data.size != 1:
        raise ValueError("backward() requires a scalar tensor")
    if not _in_graph(root):
        raise RuntimeError("backward() on a tensor with no graph attached")
    topo: list[ad.Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[ad.Tensor, bool]] = [(root, False)]
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
            if id(parent) not in seen and _in_graph(parent):
                stack.append((parent, False))
    flow: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    for node in reversed(topo):
        out_grad = flow.pop(id(node), None)
        if out_grad is None:
            continue
        if node.requires_grad:
            node.grad += out_grad
        if node._vjp is None:
            continue
        for parent, contrib in zip(node._parents, node._vjp(out_grad)):
            if contrib is None or not _in_graph(parent):
                continue
            held = flow.get(id(parent))
            flow[id(parent)] = contrib if held is None else held + contrib


def count_tape_nodes(loss: ad.Tensor) -> int:
    """Recorded ops in the graph behind ``loss`` (nodes carrying a vjp)."""
    seen: dict[int, ad.Tensor] = {}
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return sum(1 for node in seen.values() if node._vjp is not None)


def unfused_brio_loss(params: ModelParams, ranked: brio.RankedCandidateSet, config: brio.BrioConfig) -> ad.Tensor:
    """``brio.brio_loss`` with the ranking term on, as the graph that
    ``embed`` and the residual-taking ``attention`` and ``ffn`` replace: an
    ``embedding`` node per table and their ``add``, and an ``add`` node per
    residual connection."""
    p = params

    def embed(ids, table):
        return add(embedding(p["tok_emb"], ids), embedding(p[table], np.arange(ids.shape[1])))

    def attend(prefix, normed, k, v, mask):
        return ad.attention(normed, k, v, *(p[f"{prefix}.{n}"] for n in ("wq", "bq", "wo", "bo")), mask,
                            p.config.num_heads)

    def ffn(prefix, x):
        return ad.ffn(x, *(p[f"{prefix}.{n}"] for n in ("w1", "b1", "w2", "b2")))

    src = np.asarray([ranked.source_ids], dtype=np.int64)
    mask = model.source_pad_mask(src)
    x = embed(src, "pos_emb_src")
    for i in range(p.config.num_encoder_layers):
        normed = model._norm(p, f"enc{i}.ln1", x)
        x = add(x, attend(f"enc{i}.attn", normed, *model._project_kv(p, f"enc{i}.attn", normed), mask))
        x = add(x, ffn(f"enc{i}.ffn", model._norm(p, f"enc{i}.ln2", x)))
    enc_out = model._norm(p, "enc_ln", x)

    rows = [ranked.reference_ids] + [list(c.token_ids) for c in ranked.candidates]
    tgt_in, gold = model.teacher_forcing(rows)
    self_mask = model.causal_mask(tgt_in.shape[1])
    x = embed(tgt_in, "pos_emb_tgt")
    for i in range(p.config.num_decoder_layers):
        normed = model._norm(p, f"dec{i}.ln1", x)
        x = add(x, attend(f"dec{i}.self", normed, *model._project_kv(p, f"dec{i}.self", normed), self_mask))
        cross = model._project_kv(p, f"dec{i}.cross", enc_out)
        x = add(x, attend(f"dec{i}.cross", model._norm(p, f"dec{i}.ln2", x), *cross, mask))
        x = add(x, ffn(f"dec{i}.ffn", model._norm(p, f"dec{i}.ln3", x)))
    x = model._norm(p, "dec_ln", x)
    out_w = ad.transpose(p["tok_emb"], (1, 0)) if p.config.tie_embeddings else p["out.w"]
    table = ad.log_softmax(ad.linear(x, out_w, p["out.b"]), axis=-1)
    sums = ad.gold_logprob_sum(table, gold, gold != PAD_ID, axis=1)
    lengths = np.array([len(row) - 1 for row in rows], dtype=np.float64)
    return ad.brio_objective(sums, lengths, config.mle_weight, config.ctr_weight, config.margin,
                             config.length_penalty)[0]


def dp_lcs_length(a, b) -> int:
    """Longest common subsequence by the O(|a| * |b|) dynamic program."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            if x == y:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def assert_same_searches(got, want) -> None:
    """Each document's hypotheses have equal tokens and ``finished`` flags
    and log-probs and model log-probs within 1e-9 relative: a padded
    source's scores can move in the last bits when its keys are blocked
    differently."""
    assert [[(h.tokens, h.finished) for h in hyps] for hyps in got] == [
        [(h.tokens, h.finished) for h in hyps] for hyps in want
    ]
    for hyps_got, hyps_want in zip(got, want):
        for h, w in zip(hyps_got, hyps_want):
            assert abs(h.log_prob - w.log_prob) <= 1e-9 * abs(w.log_prob), (h, w)
            assert abs(h.model_log_prob - w.model_log_prob) <= 1e-9 * abs(w.model_log_prob), (h, w)


def closed_tokens(hyp) -> tuple[int, ...]:
    """The candidate a hypothesis stands for: its tokens, closed by EOS when capped."""
    return hyp.tokens if hyp.finished else hyp.tokens + (EOS_ID,)


def rescoring_gap(params: ModelParams, source, rows, scores, length_penalty: float) -> float:
    """The largest relative gap between ``scores`` and ``model.candidate_scores``
    of the token ``rows``: the teacher-forced pass that candidate generation
    ran before the search scored its own candidates."""
    with ad.no_grad():
        want = model.candidate_scores(params, source, rows, length_penalty).data
    return float(np.max(np.abs(np.asarray(scores) - want) / np.abs(want)))


def search_score_gap(params: ModelParams, sources, searches, length_penalty: float) -> float:
    """``rescoring_gap`` of every hypothesis of each document's search: its
    ``model_log_prob`` length-penalized as candidate generation does, against
    the rescored closed tokens."""
    worst = 0.0
    for source, hyps in zip(sources, searches):
        rows = [closed_tokens(h) for h in hyps]
        lengths = np.array([len(row) - 1 for row in rows], dtype=np.float64)
        scores = np.array([h.model_log_prob for h in hyps]) * lengths**-length_penalty
        worst = max(worst, rescoring_gap(params, source, rows, scores, length_penalty))
    return worst


def candidate_set_score_gap(params: ModelParams, ranked_sets, length_penalty: float) -> float:
    """``rescoring_gap`` of the ``model_score`` of every candidate of every set."""
    return max(rescoring_gap(params, rs.source_ids, [c.token_ids for c in rs.candidates],
                             [c.model_score for c in rs.candidates], length_penalty) for rs in ranked_sets)
