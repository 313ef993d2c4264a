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

from .model import ModelParams, shape_groups

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
    # Adafactor: one slot per ModelParams.groups entry, under its key, whose
    # accumulators stack the k tensors of that shape on a leading axis:
    # "row" (k, r) and "col" (k, c) for matrices, "v" (k, n) for vectors.
    slots: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)
    # A work vector reused every step, so that no step allocates an array of
    # the model's size: of the model's size for Adam, of the largest group's
    # for Adafactor.
    work: np.ndarray | None = None


def init_optimizer(kind: str, params: ModelParams) -> OptimizerState:
    """Allocate zero accumulators for every parameter."""
    if kind not in ("adam", "adafactor"):
        raise OptimizerError(f"unknown optimizer kind '{kind}'")
    if kind == "adam":
        moments = {"m": np.zeros_like(params.flat), "v": np.zeros_like(params.flat)}
        return OptimizerState(kind=kind, slots={"flat": moments}, work=np.empty_like(params.flat))
    slots: dict[str, dict[str, np.ndarray]] = {}
    for key, group in params.groups.items():
        if group.ndim == 3:
            slots[key] = {"row": np.zeros(group.shape[:2]), "col": np.zeros(group.shape[::2])}
        else:
            slots[key] = {"v": np.zeros(group.shape)}
    work = np.empty(max(group.size for group in params.groups.values()))
    return OptimizerState(kind=kind, slots=slots, work=work)


# Means are written ``x.sum(axis) / n``: np.mean does the same reduction and
# division, and its wrapper costs more than the arithmetic at these sizes.


def _adafactor_step(params: ModelParams, state: OptimizerState, learning_rate: float) -> None:
    """One Adafactor update, a shape group at a time. Each group of
    ``params.groups``, a (k, r, c) or (k, n) view of ``params.grad``, turns
    into its update in place, with its squares in ``state.work``. Every
    reduction runs per tensor, so each tensor's update equals the one it
    would get alone."""
    slot_shapes = {key: (*slot["row"].shape, slot["col"].shape[-1]) if "row" in slot else slot["v"].shape
                   for key, slot in state.slots.items()}
    if slot_shapes != {key: group.shape for key, group in params.groups.items()} or (
            getattr(state.work, "size", 0) < max(group.size for group in params.groups.values())):
        covered = sum(math.prod(shape) for shape in slot_shapes.values())
        missing = [f"{key} ({', '.join(names)})" for key, names in shape_groups(params.config).items()
                   if key not in state.slots]
        raise OptimizerError(
            f"Adafactor state covers {covered} of {params.num_params} parameters"
            + (f"; no slot for shape {'; '.join(missing)}" if missing else "")
        )
    decay = 1.0 - state.step**ADAFACTOR_DECAY_POWER
    for key, u in params.groups.items():
        slot, shape = state.slots[key], u.shape
        sq = state.work[: u.size].reshape(shape)
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
    params.grad *= learning_rate
    params.flat -= params.grad


def _adam_step(params: ModelParams, state: OptimizerState, learning_rate: float) -> None:
    """One Adam update in place, in the formulas' operand order: ``state.work``
    holds each term in turn, and the spent gradient the denominator."""
    grad, slot, work = params.grad, state.slots.get("flat"), state.work
    if slot is None or any(getattr(a, "shape", None) != grad.shape for a in (slot["m"], slot["v"], work)):
        raise OptimizerError(f"Adam state does not hold moments for {params.num_params} parameters")
    m, v = slot["m"], slot["v"]
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, grad, out=work)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(1.0 - ADAM_BETA2, grad, out=work), grad, out=work)
    denominator = np.sqrt(np.divide(v, 1.0 - ADAM_BETA2**state.step, out=grad), out=grad)
    denominator += ADAM_EPS
    m_hat = np.divide(m, 1.0 - ADAM_BETA1**state.step, out=work)
    params.flat -= np.multiply(learning_rate, np.divide(m_hat, denominator, out=work), out=work)


def optimizer_step(params: ModelParams, state: OptimizerState, learning_rate: float) -> None:
    """Apply one update in place, bump the step counter, clear gradients."""
    if learning_rate <= 0.0:
        raise OptimizerError(f"learning rate must be positive, got {learning_rate}")
    if state.step == 0 and not state.slots:
        raise OptimizerError("optimizer state is uninitialized; call init_optimizer first")
    state.step += 1
    (_adam_step if state.kind == "adam" else _adafactor_step)(params, state, learning_rate)
    params.zero_grads()


def warmup_schedule(base_lr: float, step: int, warmup_steps: int) -> float:
    """Linear ramp to base_lr over warmup_steps, constant afterwards."""
    if warmup_steps < 0:
        raise ValueError(f"warmup_steps must be >= 0, got {warmup_steps}")
    if warmup_steps == 0 or step >= warmup_steps:
        return base_lr
    return base_lr * step / warmup_steps
