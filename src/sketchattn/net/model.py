"""Network building blocks: a stacked LSTM that reads each layer in both
directions, a sigmoid attention head, and a small convolutional classifier
that reads the painted pixels of its one-channel input as values on a
support, and whose activations are channels-last, (B, H, W, C).

Parameter naming scheme (used by the optimizer and checkpoints):
    rnn.l{layer}.{fw|bw}.wx   (in_dim, 4*hidden)   gate order i, f, g, o
    rnn.l{layer}.{fw|bw}.wh   (hidden, 4*hidden)
    rnn.l{layer}.{fw|bw}.b    (4*hidden,)          forget-gate bias starts at 1
    head.w (feat, 1), head.b (1,)
    cnn.conv{s}.w (out_ch, in_ch, KERNEL, KERNEL), cnn.conv{s}.b (out_ch,)
    cnn.fc.w (feat, classes), cnn.fc.b (classes,)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidConfigError, LengthMismatchError, ShapeMismatchError
from . import autodiff as ad
from .autodiff import Tape, Tensor

# per point (dx, dy, s): the offset encoding built in pipeline._batch_inputs
INPUT_SIZE = 3
# every profile's network: NUM_LAYERS bidirectional LSTM layers, then CNN
# stages of a KERNEL x KERNEL conv and a POOL x POOL maxpool_relu each
NUM_LAYERS = 2
KERNEL = 3
POOL = 2


@dataclass(frozen=True)
class RnnConfig:
    hidden_size: int = 512
    dropout_prob: float = 0.5

    def __post_init__(self):
        if self.hidden_size < 1:
            raise InvalidConfigError("hidden_size must be >= 1")
        if not (0.0 <= self.dropout_prob < 1.0):
            raise InvalidConfigError("dropout_prob must lie in [0, 1)")

    @property
    def feature_size(self) -> int:
        return 2 * self.hidden_size


@dataclass(frozen=True)
class CnnConfig:
    stages: tuple[int, ...] = (16, 32, 64)  # each stage's output channels
    num_classes: int = 6

    def __post_init__(self):
        # JSON documents carry the stages as a list
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages or min(self.stages) < 1:
            raise InvalidConfigError(f"'stages' must hold at least one channel count, each >= 1, got {self.stages}")
        if self.num_classes < 2:
            raise InvalidConfigError("need at least two classes")


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def init_rnn_params(rng: np.random.Generator, cfg: RnnConfig) -> dict[str, Tensor]:
    params: dict[str, Tensor] = {}
    H = cfg.hidden_size
    for layer in range(NUM_LAYERS):
        in_dim = INPUT_SIZE if layer == 0 else cfg.feature_size
        bound = 1.0 / np.sqrt(in_dim)
        for d in ("fw", "bw"):
            wx = rng.uniform(-bound, bound, size=(in_dim, 4 * H))
            wh = np.concatenate([_orthogonal(rng, H) for _ in range(4)], axis=1)
            b = np.zeros(4 * H)
            b[H : 2 * H] = 1.0
            params[f"rnn.l{layer}.{d}.wx"] = ad.parameter(wx)
            params[f"rnn.l{layer}.{d}.wh"] = ad.parameter(wh)
            params[f"rnn.l{layer}.{d}.b"] = ad.parameter(b)
    feat = cfg.feature_size
    params["head.w"] = ad.parameter(rng.uniform(-1.0 / np.sqrt(feat), 1.0 / np.sqrt(feat), size=(feat, 1)))
    params["head.b"] = ad.parameter(np.zeros(1))
    return params


def init_cnn_params(rng: np.random.Generator, cfg: CnnConfig) -> dict[str, Tensor]:
    params: dict[str, Tensor] = {}
    ch_in = 1  # the one attention-painted image channel
    for s, ch in enumerate(cfg.stages):
        fan_in = ch_in * KERNEL * KERNEL
        bound = np.sqrt(6.0 / fan_in)
        params[f"cnn.conv{s}.w"] = ad.parameter(rng.uniform(-bound, bound, size=(ch, ch_in, KERNEL, KERNEL)))
        params[f"cnn.conv{s}.b"] = ad.parameter(np.zeros(ch))
        ch_in = ch
    bound = 1.0 / np.sqrt(ch_in)
    params["cnn.fc.w"] = ad.parameter(rng.uniform(-bound, bound, size=(ch_in, cfg.num_classes)))
    params["cnn.fc.b"] = ad.parameter(np.zeros(cfg.num_classes))
    return params


def rnn_attention_batch(
    tape: Tape | None,
    inputs: np.ndarray,
    lengths: np.ndarray,
    params: dict[str, Tensor],
    cfg: RnnConfig,
    dropout_rng: np.random.Generator | None = None,
) -> Tensor:
    """Batched attention head over padded (B, T, INPUT_SIZE) sequences.

    Returns a (B, T) tensor of attentions in (0, 1); entries past each
    item's length are forced to zero. lengths must be a (B,) integer array
    with every entry in [1, T], else LengthMismatchError. Given an rng
    (training), dropout runs between LSTM layers.
    """
    B, T, D = inputs.shape
    if D != INPUT_SIZE:
        raise ShapeMismatchError(f"input feature dim {D} != {INPUT_SIZE}")
    lengths = np.asarray(lengths)
    if lengths.shape != (B,) or lengths.dtype.kind not in "iu" or np.any(lengths < 1) or np.any(lengths > T):
        raise LengthMismatchError(
            f"lengths must be a ({B},) integer array with entries in [1, {T}], "
            f"got {lengths.dtype} {lengths.shape} {lengths.tolist()}"
        )
    lengths = lengths.astype(np.int64)
    mask = (np.arange(T)[None, :] < lengths[:, None]).astype(np.float64)

    x = ad.constant(inputs)
    for layer in range(NUM_LAYERS):
        fw, bw = (tuple(params[f"rnn.l{layer}.{d}.{w}"] for w in ("wx", "wh", "b")) for d in ("fw", "bw"))
        x = ad.lstm(tape, x, lengths, fw, bw)
        if layer < NUM_LAYERS - 1 and dropout_rng is not None and cfg.dropout_prob > 0.0:
            x = ad.dropout(tape, x, cfg.dropout_prob, dropout_rng)

    flat = ad.reshape(tape, x, (B * T, cfg.feature_size))
    z = ad.linear(tape, flat, params["head.w"], params["head.b"])
    attn = ad.reshape(tape, ad.sigmoid(tape, z), (B, T))
    return ad.mul_const(tape, attn, mask)


def cnn_forward_batch(
    tape: Tape | None,
    values: Tensor,
    support: np.ndarray,
    shape: tuple[int, int, int],
    params: dict[str, Tensor],
    cfg: CnnConfig,
) -> Tensor:
    """One-channel images -> (B, num_classes) logits.

    The images are zero off a support: values (nnz,) holds them at
    support, the strictly increasing flat indices of those pixels in the
    (B, H, W) grid of shape. Conv 0 reads only the support
    (conv2d_support); its output and every later activation are
    channels-last, (B, H, W, C). Each stage is a conv and maxpool_relu
    by POOL, the max pool that applies the relu: relu commutes with the
    max, in values and in the cell each window's gradient reaches."""
    for s in range(len(cfg.stages)):
        w, b = params[f"cnn.conv{s}.w"], params[f"cnn.conv{s}.b"]
        x = ad.conv2d_support(tape, values, support, shape, w, b) if s == 0 else ad.conv2d(tape, x, w, b)
        x = ad.maxpool_relu(tape, x, POOL)
    x = ad.global_avg_pool(tape, x)
    return ad.linear(tape, x, params["cnn.fc.w"], params["cnn.fc.b"])
