"""Model state, bias-corrected Adam, and deterministic checkpoint files.

Checkpoints are a single JSON document with base64-encoded little-endian
float64 tensor payloads. The format is deliberately timestamp-free so two
runs from the same seed write byte-identical files.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field

import numpy as np

from ..errors import MalformedDocumentError, ShapeMismatchError
from ..ingest import _field, _read_document
from .autodiff import Tensor

CHECKPOINT_FORMAT = "sketchattn-checkpoint"
CHECKPOINT_VERSION = 1

# the Adam constants of Kingma and Ba; only the learning rate is configured
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class ModelState:
    """Learnable parameters plus Adam moment buffers and the step counter."""

    params: dict[str, Tensor]
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    seed: int = 0
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, p in self.params.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
            if name not in self.v:
                self.v[name] = np.zeros_like(p.data)

    def num_params(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.grad = None

    def grads(self) -> dict[str, np.ndarray]:
        """Current gradients; parameters untouched by the tape give zeros."""
        return {
            name: (p.grad if p.grad is not None else np.zeros_like(p.data))
            for name, p in self.params.items()
        }


def adam_step(state: ModelState, gradients: dict[str, np.ndarray], lr: float) -> ModelState:
    """Standard bias-corrected Adam update; increments the step counter."""
    t = state.step + 1
    for name, p in state.params.items():
        g = np.asarray(gradients[name], dtype=np.float64)
        if g.shape != p.data.shape:
            raise ShapeMismatchError(f"gradient shape {g.shape} != parameter {name} shape {p.data.shape}")
        state.m[name] = BETA1 * state.m[name] + (1.0 - BETA1) * g
        state.v[name] = BETA2 * state.v[name] + (1.0 - BETA2) * g * g
        m_hat = state.m[name] / (1.0 - BETA1**t)
        v_hat = state.v[name] / (1.0 - BETA2**t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + EPS)
    state.step = t
    return state


def _encode(arr: np.ndarray) -> dict:
    a = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(a.shape), "dtype": "<f8", "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode(rec, where: str) -> np.ndarray:
    try:
        raw = base64.b64decode(rec["data"])
        a = np.frombuffer(raw, dtype=rec["dtype"]).reshape(rec["shape"]).astype(np.float64)
    except (KeyError, TypeError, ValueError) as exc:  # not an object, or data that does not fit its shape
        raise MalformedDocumentError(f"{where} is not a tensor record of its shape: {exc}") from exc
    if not np.isfinite(a).all():
        raise MalformedDocumentError(f"{where} holds a NaN or infinite value")
    return a


def save_checkpoint(state: ModelState, path) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "seed": state.seed,
        "step": state.step,
        "config": state.config,
        "params": {name: _encode(p.data) for name, p in state.params.items()},
        "adam_m": {name: _encode(a) for name, a in state.m.items()},
        "adam_v": {name: _encode(a) for name, a in state.v.items()},
    }
    with open(path, "w") as f:
        json.dump(payload, f, sort_keys=True)


def load_checkpoint(path) -> ModelState:
    """A checkpoint; a malformed field or tensor record raises a typed error naming it.
    The Adam moments stay as read (no zero fill) for pipeline.load_model to check."""
    payload = _read_document(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION)
    where = str(path)
    params, m, v = (
        {name: _decode(rec, f"{where}: {key} {name!r}") for name, rec in _field(payload, key, dict, where).items()}
        for key in ("params", "adam_m", "adam_v")
    )
    params = {name: Tensor(a, requires_grad=True) for name, a in params.items()}
    step, seed = (_field(payload, key, int, where) for key in ("step", "seed"))
    state = ModelState(params=params, step=step, seed=seed, config=payload.get("config", {}))
    state.m, state.v = m, v
    return state
