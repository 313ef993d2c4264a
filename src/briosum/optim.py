"""Adam and Adafactor updates plus the linear warmup schedule.

Adam: bias-corrected first/second moments,
    m = b1*m + (1-b1)*g ; v = b2*v + (1-b2)*g^2
    theta -= lr * m_hat / (sqrt(v_hat) + eps)
Adafactor: factored second moments for matrices (row/column accumulators,
rank-1 reconstruction), full accumulator for vectors, decay 1 - t^-0.8,
and RMS update clipping at threshold 1.0. No momentum, explicit lr.
"""

from __future__ import annotations

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
    # Adafactor: one slot per named tensor.
    slots: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)


def init_optimizer(kind: str, params: ModelParams) -> OptimizerState:
    """Allocate zero accumulators for every parameter."""
    if kind not in ("adam", "adafactor"):
        raise OptimizerError(f"unknown optimizer kind '{kind}'")
    if kind == "adam":
        moments = {"m": np.zeros_like(params.flat), "v": np.zeros_like(params.flat)}
        return OptimizerState(kind=kind, slots={"flat": moments})
    slots: dict[str, dict[str, np.ndarray]] = {}
    for name, tensor in params.items():
        shape = tensor.data.shape
        if len(shape) >= 2:
            slots[name] = {"row": np.zeros(shape[:-1]), "col": np.zeros(shape[:-2] + shape[-1:])}
        else:
            slots[name] = {"v": np.zeros(shape)}
    return OptimizerState(kind=kind, slots=slots)


# Means are written ``x.sum(axis) / n``: np.mean does the same reduction and
# division, and its wrapper costs more than the arithmetic at these sizes.


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt((x * x).sum() / x.size))


def _adafactor_update(grad: np.ndarray, slot: dict[str, np.ndarray], step: int) -> np.ndarray:
    decay = 1.0 - step**ADAFACTOR_DECAY_POWER
    sq = grad * grad + ADAFACTOR_EPS1
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
    update /= max(1.0, _rms(update) / ADAFACTOR_CLIP)
    return update


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
        for name, tensor in params.items():
            slot = state.slots.get(name)
            if slot is None:
                raise OptimizerError(f"optimizer state missing slot for parameter '{name}'")
            tensor.data -= learning_rate * _adafactor_update(tensor.grad, slot, state.step)
    params.zero_grads()


def warmup_schedule(base_lr: float, step: int, warmup_steps: int) -> float:
    """Linear ramp to base_lr over warmup_steps, constant afterwards."""
    if warmup_steps < 0:
        raise ValueError(f"warmup_steps must be >= 0, got {warmup_steps}")
    if warmup_steps == 0 or step >= warmup_steps:
        return base_lr
    return base_lr * step / warmup_steps
