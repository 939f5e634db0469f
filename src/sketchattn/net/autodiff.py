"""Minimal reverse-mode autodiff: a flat tape of backward closures.

Every operation computes its numpy result eagerly and, when any operand
requires gradients, records one closure on the tape. backward() replays
the closures in exact reverse recording order, which is a valid reverse
topological order because tensors are created before they are consumed.

The op set covers exactly what the sketch pipeline needs (a fused LSTM
layer with a hand-written BPTT backward, a small CNN, softmax cross
entropy); it is not a general-purpose autodiff.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import LabelOutOfRangeError, ShapeMismatchError, TapeConsumedError


class Tensor:
    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad

    def ensure_grad(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Recorded computation of one forward pass."""

    __slots__ = ("_ops", "_consumed")

    def __init__(self):
        self._ops = []
        self._consumed = False

    def record(self, backward_fn) -> None:
        self._ops.append(backward_fn)

    def __len__(self) -> int:
        return len(self._ops)


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate gradients of a scalar loss into every recorded operand."""
    if tape._consumed:
        raise TapeConsumedError("backward already ran on this tape")
    tape._consumed = True
    if loss.data.size != 1:
        raise ShapeMismatchError("backward expects a scalar loss")
    loss.ensure_grad()
    loss.grad += np.ones_like(loss.data)
    for fn in reversed(tape._ops):
        fn()


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def add(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data, a.requires_grad or b.requires_grad)
    if out.requires_grad:

        def bwd():
            if out.grad is None:
                return
            if a.requires_grad:
                a.ensure_grad()
                a.grad += _unbroadcast(out.grad, a.data.shape)
            if b.requires_grad:
                b.ensure_grad()
                b.grad += _unbroadcast(out.grad, b.data.shape)

        tape.record(bwd)
    return out


def mul(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data, a.requires_grad or b.requires_grad)
    if out.requires_grad:

        def bwd():
            if out.grad is None:
                return
            if a.requires_grad:
                a.ensure_grad()
                a.grad += _unbroadcast(out.grad * b.data, a.data.shape)
            if b.requires_grad:
                b.ensure_grad()
                b.grad += _unbroadcast(out.grad * a.data, b.data.shape)

        tape.record(bwd)
    return out


def mul_const(tape: Tape, a: Tensor, c) -> Tensor:
    c = np.asarray(c, dtype=np.float64)
    out = Tensor(a.data * c, a.requires_grad)
    if out.requires_grad:

        def bwd():
            if out.grad is None:
                return
            a.ensure_grad()
            a.grad += _unbroadcast(out.grad * c, a.data.shape)

        tape.record(bwd)
    return out


def matmul(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data @ b.data, a.requires_grad or b.requires_grad)
    if out.requires_grad:

        def bwd():
            if out.grad is None:
                return
            if a.requires_grad:
                a.ensure_grad()
                a.grad += out.grad @ b.data.T
            if b.requires_grad:
                b.ensure_grad()
                b.grad += a.data.T @ out.grad

        tape.record(bwd)
    return out


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # exp overflow at x < -709 saturates to inf and the quotient to the
    # exact limit 0.0, so the result stays correct; only the warning is
    # suppressed
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid(tape: Tape, a: Tensor) -> Tensor:
    s = _stable_sigmoid(a.data)
    out = Tensor(s, a.requires_grad)
    if out.requires_grad:

        def bwd():
            if out.grad is None:
                return
            a.ensure_grad()
            a.grad += out.grad * s * (1.0 - s)

        tape.record(bwd)
    return out


def tanh(tape: Tape, a: Tensor) -> Tensor:
    t = np.tanh(a.data)
    out = Tensor(t, a.requires_grad)
    if out.requires_grad:

        def bwd():
            if out.grad is None:
                return
            a.ensure_grad()
            a.grad += out.grad * (1.0 - t * t)

        tape.record(bwd)
    return out


def relu(tape: Tape, a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0), a.requires_grad)
    if out.requires_grad:
        mask = a.data > 0

        def bwd():
            if out.grad is None:
                return
            a.ensure_grad()
            a.grad += out.grad * mask

        tape.record(bwd)
    return out


def concat(tape: Tape, tensors: list[Tensor], axis: int) -> Tensor:
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), any(t.requires_grad for t in tensors))
    if out.requires_grad:
        sizes = [t.data.shape[axis] for t in tensors]

        def bwd():
            if out.grad is None:
                return
            offset = 0
            for t, size in zip(tensors, sizes):
                if t.requires_grad:
                    t.ensure_grad()
                    sl = [slice(None)] * out.data.ndim
                    sl[axis] = slice(offset, offset + size)
                    t.grad += out.grad[tuple(sl)]
                offset += size

        tape.record(bwd)
    return out


def reshape(tape: Tape, a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape), a.requires_grad)
    if out.requires_grad:

        def bwd():
            if out.grad is None:
                return
            a.ensure_grad()
            a.grad += out.grad.reshape(a.data.shape)

        tape.record(bwd)
    return out


def take_time(tape: Tape, a: Tensor, idx: np.ndarray) -> Tensor:
    """Reorder (B, T, D) along time with a per-item index map (B, T)."""
    out = Tensor(np.take_along_axis(a.data, idx[:, :, None], axis=1), a.requires_grad)
    if out.requires_grad:
        bidx = np.arange(a.data.shape[0])[:, None]

        def bwd():
            if out.grad is None:
                return
            a.ensure_grad()
            np.add.at(a.grad, (bidx, idx), out.grad)

        tape.record(bwd)
    return out


def lstm(tape: Tape, x: Tensor, wx: Tensor, wh: Tensor, b: Tensor) -> Tensor:
    """One LSTM layer from zero state: x (B, T, D) -> hidden states (B, T, H).

    Gate order i, f, g, o; step t computes z = (x_t wx + h_{t-1} wh) + b.
    The input projection of all T steps is one GEMM and the recurrence
    runs on plain arrays, so the layer records a single closure. Its
    backward is hand-written BPTT over the stored gates into dZ, then one
    GEMM per gradient over all B*T rows.
    """
    B, T, D = x.data.shape
    H = wh.data.shape[0]
    xw = (x.data.reshape(B * T, D) @ wx.data).reshape(B, T, 4 * H)
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    acts, cs, tcs, hs = [], [], [], []
    for t in range(T):
        z = (xw[:, t] + h @ wh.data) + b.data
        a = _stable_sigmoid(z)
        a[:, 2 * H : 3 * H] = np.tanh(z[:, 2 * H : 3 * H])
        c = a[:, H : 2 * H] * c + a[:, :H] * a[:, 2 * H : 3 * H]
        tc = np.tanh(c)
        h = a[:, 3 * H :] * tc
        acts.append(a)
        cs.append(c)
        tcs.append(tc)
        hs.append(h)
    out = Tensor(np.stack(hs, axis=1), any(t.requires_grad for t in (x, wx, wh, b)))
    if out.requires_grad:

        def bwd():
            if out.grad is None:
                return
            a4 = np.stack(acts).reshape(T, B, 4, H)
            i, f, g, o = a4[:, :, 0], a4[:, :, 1], a4[:, :, 2], a4[:, :, 3]
            tc = np.stack(tcs)
            c_prev = np.stack([np.zeros((B, H))] + cs[:-1])
            # dZ_t = k_t * (dc_t for gates i, f, g; dh_t for gate o)
            k = np.stack([g * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - g * g), tc * o * (1.0 - o)], axis=2)
            dc_dh = o * (1.0 - tc * tc)
            dz = np.empty((B, T, 4, H))
            dh_next = np.zeros((B, H))
            dc_next = np.zeros((B, H))
            for t in range(T - 1, -1, -1):
                dh = out.grad[:, t] + dh_next
                dc = dh * dc_dh[t] + dc_next
                dz_t = dz[:, t]
                dz_t[:, :3] = k[t, :, :3] * dc[:, None, :]
                dz_t[:, 3] = k[t, :, 3] * dh
                dh_next = dz_t.reshape(B, 4 * H) @ wh.data.T
                dc_next = dc * f[t]
            dz = dz.reshape(B * T, 4 * H)
            if x.requires_grad:
                x.ensure_grad()
                x.grad += (dz @ wx.data.T).reshape(B, T, D)
            if wx.requires_grad:
                wx.ensure_grad()
                wx.grad += x.data.reshape(B * T, D).T @ dz
            if wh.requires_grad:
                h_prev = np.concatenate([np.zeros((B, 1, H)), out.data[:, :-1]], axis=1)
                wh.ensure_grad()
                wh.grad += h_prev.reshape(B * T, H).T @ dz
            if b.requires_grad:
                b.ensure_grad()
                b.grad += dz.sum(axis=0)

        tape.record(bwd)
    return out


def dropout(tape: Tape, a: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scales kept activations by 1/(1-p) at train time."""
    mask = (rng.random(a.data.shape) >= p) / (1.0 - p)
    return mul_const(tape, a, mask)


def conv2d(tape: Tape, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Stride-1 same-padding 2D convolution for odd kernels.

    x: (B, C, H, W), w: (O, C, k, k), b: (O,). Implemented as an im2col
    matrix product; the column matrix is kept for the backward pass so
    both directions are single BLAS calls plus a k*k col2im scatter.
    """
    B, C, H, W = x.data.shape
    O = w.data.shape[0]
    k = w.data.shape[2]
    pad = k // 2
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, (k, k), axis=(2, 3))  # (B, C, H, W, k, k)
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(B * H * W, C * k * k)
    w_mat = w.data.reshape(O, C * k * k).T
    out_data = (cols @ w_mat).reshape(B, H, W, O).transpose(0, 3, 1, 2) + b.data[None, :, None, None]
    out = Tensor(out_data, x.requires_grad or w.requires_grad or b.requires_grad)
    if out.requires_grad:

        def bwd():
            if out.grad is None:
                return
            g = out.grad
            if b.requires_grad:
                b.ensure_grad()
                b.grad += g.sum(axis=(0, 2, 3))
            g_mat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(B * H * W, O)
            if w.requires_grad:
                w.ensure_grad()
                w.grad += (cols.T @ g_mat).T.reshape(O, C, k, k)
            if x.requires_grad:
                x.ensure_grad()
                dcols = (g_mat @ w_mat.T).reshape(B, H, W, C, k, k)
                dxp = np.zeros((B, C, H + 2 * pad, W + 2 * pad))
                for u in range(k):
                    for v in range(k):
                        dxp[:, :, u : u + H, v : v + W] += dcols[:, :, :, :, u, v].transpose(0, 3, 1, 2)
                x.grad += dxp[:, :, pad : pad + H, pad : pad + W]

        tape.record(bwd)
    return out


def maxpool2d(tape: Tape, x: Tensor, factor: int) -> Tensor:
    """Non-overlapping max pooling; trailing rows/cols that do not fill a
    window are dropped. Ties go to the first element (row-major in the
    window), which keeps the backward pass deterministic."""
    B, C, H, W = x.data.shape
    f = factor
    Hc, Wc = (H // f) * f, (W // f) * f
    xc = x.data[:, :, :Hc, :Wc]
    win = xc.reshape(B, C, Hc // f, f, Wc // f, f).transpose(0, 1, 2, 4, 3, 5).reshape(
        B, C, Hc // f, Wc // f, f * f
    )
    idx = win.argmax(axis=-1)
    out_data = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    out = Tensor(out_data, x.requires_grad)
    if out.requires_grad:

        def bwd():
            if out.grad is None:
                return
            x.ensure_grad()
            dwin = np.zeros_like(win)
            np.put_along_axis(dwin, idx[..., None], out.grad[..., None], axis=-1)
            dxc = dwin.reshape(B, C, Hc // f, Wc // f, f, f).transpose(0, 1, 2, 4, 3, 5).reshape(
                B, C, Hc, Wc
            )
            x.grad[:, :, :Hc, :Wc] += dxc

        tape.record(bwd)
    return out


def global_avg_pool(tape: Tape, x: Tensor) -> Tensor:
    """(B, C, H, W) -> (B, C) spatial mean."""
    B, C, H, W = x.data.shape
    out = Tensor(x.data.mean(axis=(2, 3)), x.requires_grad)
    if out.requires_grad:

        def bwd():
            if out.grad is None:
                return
            x.ensure_grad()
            x.grad += out.grad[:, :, None, None] / (H * W)

        tape.record(bwd)
    return out


def sum_all(tape: Tape, a: Tensor) -> Tensor:
    out = Tensor(a.data.sum(), a.requires_grad)
    if out.requires_grad:

        def bwd():
            if out.grad is None:
                return
            a.ensure_grad()
            a.grad += out.grad

        tape.record(bwd)
    return out


def cross_entropy_logits(tape: Tape, logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross entropy over a batch; logits (B, C), labels (B,)."""
    labels = np.asarray(labels, dtype=np.int64)
    B, C = logits.data.shape
    if labels.min() < 0 or labels.max() >= C:
        raise LabelOutOfRangeError(f"labels must lie in [0, {C})")
    m = logits.data.max(axis=1, keepdims=True)
    z = logits.data - m
    ez = np.exp(z)
    sez = ez.sum(axis=1, keepdims=True)
    softmax = ez / sez
    nll = np.log(sez)[:, 0] - z[np.arange(B), labels]
    out = Tensor(nll.mean(), logits.requires_grad)
    if out.requires_grad:

        def bwd():
            if out.grad is None:
                return
            logits.ensure_grad()
            d = softmax.copy()
            d[np.arange(B), labels] -= 1.0
            logits.grad += d * (float(out.grad) / B)

        tape.record(bwd)
    return out
