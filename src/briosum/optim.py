"""Adam and Adafactor updates plus the linear warmup schedule.

Adam: bias-corrected first/second moments,
    m = b1*m + (1-b1)*g ; v = b2*v + (1-b2)*g^2
    theta -= lr * m_hat / (sqrt(v_hat) + eps)
Adafactor: factored second moments for matrices (row/column accumulators,
rank-1 reconstruction), full accumulator for vectors, decay 1 - t^-0.8,
and RMS update clipping at threshold 1.0. No momentum, explicit lr.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

ADAFACTOR_EPS1 = 1e-30
ADAFACTOR_CLIP = 1.0
ADAFACTOR_DECAY_POWER = -0.8


class OptimizerError(RuntimeError):
    """Raised when an optimizer is stepped without valid state."""


@dataclass
class OptimizerState:
    kind: str  # "adam" | "adafactor"
    step: int = 0
    # Adam: one slot, "flat", whose moments m and v match ModelParams.flat.
    # Adafactor: one slot per parameter shape, named like "32x64", whose
    # accumulators stack the k tensors of that shape on a leading axis:
    # "row" (k, r) and "col" (k, c) for matrices, "v" (k, n) for vectors.
    slots: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)
    # Adafactor: the positions in ModelParams.flat of the slots' tensors,
    # slot after slot, each tensor's entries in order; and a work vector of
    # that length, reused every step so that no step allocates an array of
    # the model's size.
    index: np.ndarray | None = None
    work: np.ndarray | None = None


def shape_groups(params: ModelParams) -> dict[str, list[str]]:
    """The parameter names of each shape, keyed by the shape written like
    "32x64" or "32", in order of first appearance."""
    groups: dict[str, list[str]] = {}
    for name, tensor in params.items():
        groups.setdefault("x".join(map(str, tensor.data.shape)), []).append(name)
    return groups


def init_optimizer(kind: str, params: ModelParams) -> OptimizerState:
    """Allocate zero accumulators for every parameter."""
    if kind not in ("adam", "adafactor"):
        raise OptimizerError(f"unknown optimizer kind '{kind}'")
    if kind == "adam":
        moments = {"m": np.zeros_like(params.flat), "v": np.zeros_like(params.flat)}
        return OptimizerState(kind=kind, slots={"flat": moments})
    # Over the vector 0, 1, 2, ..., each named tensor holds its own positions.
    positions = ModelParams(params.config, np.arange(params.num_params, dtype=np.float64))
    groups = shape_groups(params)
    slots: dict[str, dict[str, np.ndarray]] = {}
    for key, names in groups.items():
        k, shape = len(names), params[names[0]].data.shape
        if len(shape) == 2:
            slots[key] = {"row": np.zeros((k, shape[0])), "col": np.zeros((k, shape[1]))}
        else:
            slots[key] = {"v": np.zeros((k, *shape))}
    index = np.concatenate([positions[name].data.ravel() for names in groups.values() for name in names])
    index = index.astype(np.intp)
    return OptimizerState(kind=kind, slots=slots, index=index, work=np.empty(index.size))


# Means are written ``x.sum(axis) / n``: np.mean does the same reduction and
# division, and its wrapper costs more than the arithmetic at these sizes.


def _adafactor_step(params: ModelParams, state: OptimizerState, learning_rate: float) -> None:
    """One Adafactor update, a shape group at a time. The gradients are
    gathered from ``params.grad`` through ``state.index``, and each group
    is viewed as one (k, r, c) or (k, n) array; the updates are scattered
    back through the same index. Every reduction runs per tensor, so each
    tensor's update equals the one it would get alone."""
    spans = []
    for slot in state.slots.values():
        shape = (*slot["row"].shape, slot["col"].shape[-1]) if "row" in slot else slot["v"].shape
        spans.append((slot, shape, math.prod(shape)))
    covered = sum(size for _, _, size in spans)
    if state.index is None or state.index.size != params.num_params or covered != params.num_params:
        missing = [f"{key} ({', '.join(names)})" for key, names in shape_groups(params).items()
                   if key not in state.slots]
        raise OptimizerError(
            f"Adafactor state covers {covered} of {params.num_params} parameters"
            + (f"; no slot for shape {'; '.join(missing)}" if missing else "")
        )
    decay = 1.0 - state.step**ADAFACTOR_DECAY_POWER
    update = state.work
    np.take(params.grad, state.index, out=update)
    # Each group's gradient turns into its update in place. Once gathered,
    # params.grad is spare: its first entries hold each group's squares,
    # and the updates go back through it in the order of params.flat.
    start = 0
    for slot, shape, size in spans:
        u = update[start : start + size].reshape(shape)
        sq = params.grad[:size].reshape(shape)
        start += size
        np.multiply(u, u, out=sq)
        sq += ADAFACTOR_EPS1
        if "row" in slot:
            row, col = slot["row"], slot["col"]
            row *= decay
            row += (1.0 - decay) * (sq.sum(axis=-1) / shape[-1])
            col *= decay
            col += (1.0 - decay) * (sq.sum(axis=-2) / shape[-2])
            row_factor = 1.0 / np.sqrt(row / (row.sum(axis=-1, keepdims=True) / shape[-2]))
            u *= row_factor[..., None]
            u *= (1.0 / np.sqrt(col))[..., None, :]
        else:
            v = slot["v"]
            v *= decay
            v += (1.0 - decay) * sq
            np.sqrt(v, out=sq)
            u /= sq
        # RMS clipping per tensor; fmax keeps max()'s 1.0 for a NaN RMS.
        per_tensor, squares = u.reshape(shape[0], -1), sq.reshape(shape[0], -1)
        np.multiply(per_tensor, per_tensor, out=squares)
        rms = np.sqrt(squares.sum(axis=-1) / squares.shape[-1])
        per_tensor /= np.fmax(1.0, rms / ADAFACTOR_CLIP)[:, None]
    update *= learning_rate
    params.grad[state.index] = update
    params.flat -= params.grad


def optimizer_step(params: ModelParams, state: OptimizerState, learning_rate: float) -> None:
    """Apply one update in place, bump the step counter, clear gradients."""
    if learning_rate <= 0.0:
        raise OptimizerError(f"learning rate must be positive, got {learning_rate}")
    if state.step == 0 and not state.slots:
        raise OptimizerError("optimizer state is uninitialized; call init_optimizer first")
    state.step += 1
    if state.kind == "adam":
        slot = state.slots.get("flat")
        if slot is None or any(slot[k].shape != params.flat.shape for k in ("m", "v")):
            raise OptimizerError(f"Adam state does not hold moments for {params.num_params} parameters")
        # The moments update in place: fewer temporaries of arena size per step.
        grad, m, v = params.grad, slot["m"], slot["v"]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m / (1.0 - ADAM_BETA1**state.step)
        v_hat = v / (1.0 - ADAM_BETA2**state.step)
        params.flat -= learning_rate * (m_hat / (np.sqrt(v_hat) + ADAM_EPS))
    else:
        _adafactor_step(params, state, learning_rate)
    params.zero_grads()


def warmup_schedule(base_lr: float, step: int, warmup_steps: int) -> float:
    """Linear ramp to base_lr over warmup_steps, constant afterwards."""
    if warmup_steps < 0:
        raise ValueError(f"warmup_steps must be >= 0, got {warmup_steps}")
    if warmup_steps == 0 or step >= warmup_steps:
        return base_lr
    return base_lr * step / warmup_steps
