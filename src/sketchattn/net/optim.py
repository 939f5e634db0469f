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

from ..errors import MalformedDocumentError
from ..ingest import _categories, _field, _read_document
from .autodiff import Tensor

CHECKPOINT_FORMAT = "sketchattn-checkpoint"
CHECKPOINT_VERSION = 2

# the Adam constants of Kingma and Ba; only the learning rate is configured
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class ModelState:
    """A model as training leaves it: learnable parameters, Adam's moment
    buffers and step counter, the experiment config document, and the
    categories its logits index."""

    params: dict[str, Tensor]
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    config: dict = field(default_factory=dict)
    categories: list[str] = field(default_factory=list)

    def num_params(self) -> int:
        return sum(p.data.size for p in self.params.values())


def adam_step(state: ModelState, lr: float) -> ModelState:
    """Standard bias-corrected Adam update on the gradients the tape left
    in each parameter (zeros where none reached it), which it then clears;
    increments the step counter."""
    t = state.step + 1
    for name, p in state.params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        p.grad = None
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
        "step": state.step,
        "config": state.config,
        "categories": state.categories,
        "params": {name: _encode(p.data) for name, p in state.params.items()},
        "adam_m": {name: _encode(a) for name, a in state.m.items()},
        "adam_v": {name: _encode(a) for name, a in state.v.items()},
    }
    with open(path, "w") as f:
        json.dump(payload, f, sort_keys=True)


def load_checkpoint(path) -> ModelState:
    """A checkpoint; a malformed field or tensor record raises a typed error
    naming it. pipeline.load_model checks the categories and tensors against
    the config."""
    payload = _read_document(path, CHECKPOINT_FORMAT, CHECKPOINT_VERSION)
    where = str(path)
    params, m, v = (
        {name: _decode(rec, f"{where}: {key} {name!r}") for name, rec in _field(payload, key, dict, where).items()}
        for key in ("params", "adam_m", "adam_v")
    )
    return ModelState(
        params={name: Tensor(a, requires_grad=True) for name, a in params.items()},
        m=m,
        v=v,
        step=_field(payload, "step", int, where),
        config=payload.get("config", {}),
        categories=_categories(payload, where),
    )
