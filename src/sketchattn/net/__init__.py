"""Minimal neural toolkit: tape autodiff, LSTM attention, CNN, Adam."""

from .autodiff import Tape, Tensor, backward, constant, parameter
from .gradcheck import GradCheckEntry, GradCheckReport, grad_check
from .model import (
    CnnConfig,
    RnnConfig,
    cnn_forward_batch,
    init_cnn_params,
    init_rnn_params,
    rnn_attention_batch,
)
from .optim import ModelState, adam_step, load_checkpoint, save_checkpoint

__all__ = [
    "Tape",
    "Tensor",
    "backward",
    "constant",
    "parameter",
    "GradCheckEntry",
    "GradCheckReport",
    "grad_check",
    "CnnConfig",
    "RnnConfig",
    "cnn_forward_batch",
    "init_cnn_params",
    "init_rnn_params",
    "rnn_attention_batch",
    "ModelState",
    "adam_step",
    "load_checkpoint",
    "save_checkpoint",
]
