"""Minimal reverse-mode autodiff: a flat tape of backward closures.

Every operation computes its numpy result eagerly and states its backward
as one vjp per operand. op() wraps the result and, given a tape (inference
passes None) and an operand that requires gradients, records one closure
that passes the output's gradient through each vjp into its operand; it is
the one place a closure is recorded, the fused bidirectional LSTM layer
included, whose seven vjps share one BPTT pass over both directions.
That layer's recurrence allocates nothing per step: it writes each step's
gates, c, tanh(c) and h through ``out=`` into step-indexed buffers, which
BPTT then reads in place; a call that records nothing keeps only the
running state and the h rows its output is read from.
backward() replays the closures in exact reverse recording order, which
is a valid reverse topological order because tensors are created before
they are consumed, and releases each closure once it has run, so an op's
captured operands and its output's gradient die as the pass moves on.

A vjp returns either a new array that nothing else keeps or a view of its
argument g. An operand's first gradient is taken as it comes when it is a
new array laid out like the operand's data; any other first result, and
every later one, is added into a zero buffer. Either way the gradient
holds the same values, up to the sign of a zero.

An op keeps what its vjps need and no more: conv2d streams its im2col
columns through about 1 MiB of buffer per call and keeps only the padded
input, from which dw rebuilds them chunk by chunk. conv2d_support, the
first conv, reads a one-channel image as its values on a support of
pixels, computes only the output rows that support reaches and keeps
only their columns; its dx lives on the support alone.

A tape may carry a Workspace: training builds one per epoch and gives it
to every step's tape, and the ops that make a step's large arrays (conv2d,
conv2d_support, maxpool_relu, lstm) take them from it through _buffer,
so each step reuses the memory of the last instead of faulting in fresh
pages. Without a workspace (inference passes no tape at all) they are
plain np.empty/np.zeros arrays. Only memory placement changes, never
arithmetic, so the bits are the same either way. The one lifetime rule is
Python's reference count: a range is reused once no array views it (see
Workspace), so a step's array comes back when the last closure, tensor or
local that reads it is released, and an operand may take a workspace
array that a vjp returned as its gradient, as it takes a new array.
Nothing that outlives the step is a workspace array, so every range is
back before the next step: every dw and db that reaches adam_step, the
logits, the attention and the loss are new arrays.

The op set covers exactly what the sketch pipeline runs (a fused
bidirectional LSTM layer, a linear head, a small channels-last CNN on
(B, H, W, C) activations whose first conv reads a sparse image and whose
max pools apply the relu, softmax cross entropy); it is not a
general-purpose autodiff.
"""

from __future__ import annotations

import bisect
import math
import weakref
from itertools import repeat

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import LabelOutOfRangeError, ShapeMismatchError, TapeConsumedError


class Tensor:
    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


# a Workspace's arrays start on multiples of _ALIGN bytes within segments
# of at least _SEGMENT bytes (4 MiB)
_ALIGN = 64
_SEGMENT = 1 << 22


class Workspace:
    """The step buffers of one training run, reused from step to step.

    The ops a tape records take their large arrays from its workspace
    (through _buffer), and a range is reused once no array views it. take
    hands out a reshape of a one-dimensional block whose base is a
    memoryview of its segment, not an ndarray, so every reshape, transpose
    or slice of it has the block as its base and keeps it alive. A weak
    reference to the block returns its range when the block dies; its
    callback holds only _live and _returned, not the workspace, so a
    dropped workspace frees its segments at once, without the cyclic
    collector. take merges the returned ranges into the free list first.

    The arrays are views of byte segments, each placed at the smallest
    free range that holds it; a returned range merges with its free
    neighbours. A request that finds no room adds a segment of _SEGMENT
    bytes, or of its own size if larger, so capacity only grows. Once the
    first steps have sized it, a step allocates nothing, and the segments
    hold little more than what a step has live at once.
    """

    __slots__ = ("_segments", "_free", "_live", "_returned", "__weakref__")

    def __init__(self):
        self._segments: list[np.ndarray] = []
        self._free: list[tuple[int, int, int]] = []  # (segment, start, stop): byte ranges no live array uses, in order
        self._live: dict[int, weakref.ref] = {}  # id(block) -> weak reference to each live block handed out
        self._returned: list[tuple[int, int, int]] = []  # ranges of the blocks that died since the last take

    def take(self, shape, dtype=np.float64) -> np.ndarray:
        """An uninitialised array that no other live array shares memory
        with; its range is reused once no array views it."""
        while self._returned:
            self._free_range(*self._returned.pop())
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        size = max(-(-nbytes // _ALIGN) * _ALIGN, _ALIGN)
        fits = [i for i, (_k, lo, hi) in enumerate(self._free) if hi - lo >= size]
        if not fits:
            self._segments.append(np.empty(max(size, _SEGMENT), np.uint8))
            self._free.append((len(self._segments) - 1, 0, self._segments[-1].nbytes))
            fits = [len(self._free) - 1]
        i = min(fits, key=lambda i: self._free[i][2] - self._free[i][1])
        k, lo, hi = self._free[i]
        if hi - lo == size:
            del self._free[i]
        else:
            self._free[i] = (k, lo + size, hi)
        block = np.frombuffer(memoryview(self._segments[k])[lo : lo + nbytes], dtype)
        live, returned, key = self._live, self._returned, id(block)

        def died(_ref, span=(k, lo, lo + size)):
            del live[key]
            returned.append(span)

        live[key] = weakref.ref(block, died)
        return block.reshape(shape)

    def _free_range(self, k: int, lo: int, hi: int) -> None:
        """Put a range back in the free list, merged with its free neighbours."""
        i = bisect.bisect(self._free, (k, lo, hi))
        if i < len(self._free) and self._free[i][:2] == (k, hi):
            hi = self._free.pop(i)[2]
        if i > 0 and (self._free[i - 1][0], self._free[i - 1][2]) == (k, lo):
            i -= 1
            lo = self._free.pop(i)[1]
        self._free.insert(i, (k, lo, hi))

    def holds(self, a) -> bool:
        """Whether a views the whole of an array that take handed out."""
        return isinstance(a.base, np.ndarray) and id(a.base) in self._live and a.nbytes == a.base.nbytes


class Tape:
    """Recorded computation of one forward pass, and the workspace (or
    None) its ops take their step buffers from."""

    __slots__ = ("_ops", "_consumed", "workspace")

    def __init__(self, workspace: Workspace | None = None):
        self._ops = []
        self._consumed = False
        self.workspace = workspace

    def record(self, backward_fn) -> None:
        self._ops.append(backward_fn)

    def __len__(self) -> int:
        return len(self._ops)


def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate gradients of a scalar loss into every recorded operand.

    Each closure leaves its slot on the tape as it runs (the slot stays, so
    len(tape) still counts the recorded ops), which frees what it captured:
    the op's operands and output, and with them the output's gradient once
    no later closure holds that tensor.
    """
    if tape._consumed:
        raise TapeConsumedError("backward already ran on this tape")
    tape._consumed = True
    if loss.data.size != 1:
        raise ShapeMismatchError("backward expects a scalar loss")
    if loss.grad is None:
        loss.grad = np.zeros_like(loss.data)
    loss.grad += 1.0
    ops = tape._ops
    for i in range(len(ops) - 1, -1, -1):
        fn, ops[i] = ops[i], None
        fn()


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def op(tape: Tape | None, data, *edges) -> Tensor:
    """Wrap a forward result as a tensor and record its backward closure.

    Each edge is an (operand, vjp) pair: vjp maps the output's gradient g
    to the operand's (any shape that broadcasts onto it), as a new array
    that the op keeps no reference to, or as a view of g. The one closure,
    recorded only on a tape and when some operand requires a gradient
    (else the output requires none), skips an output the loss never
    reached and runs only the vjps of operands that require one.

    An operand with no gradient yet takes the vjp's result as its gradient
    when that result owns its memory (or is the whole of an array the
    tape's workspace handed out), shares none with g and has the operand's
    dtype, shape and strides; otherwise, and for every later contribution,
    the result is added into the operand's gradient, which starts as zeros.
    A handed-over result may hold -0.0 where the sum 0.0 + -0.0 held 0.0.
    """
    out = Tensor(data, tape is not None and any(t.requires_grad for t, _ in edges))
    if out.requires_grad:
        ws = tape.workspace

        def bwd():
            g = out.grad
            if g is None:
                return
            for t, vjp in edges:
                if t.requires_grad:
                    d = vjp(g)
                    if t.grad is not None:
                        t.grad += d
                    elif _owned_like(d, t.data, ws) and not np.may_share_memory(d, g):
                        t.grad = d
                    else:
                        t.grad = np.zeros_like(t.data)
                        t.grad += d

        tape.record(bwd)
    return out


def _owned_like(d, data: np.ndarray, ws: Workspace | None) -> bool:
    """Whether d is an array that owns its memory, or the whole of one that
    ws handed out, laid out like data."""
    return (
        isinstance(d, np.ndarray)
        and (d.base is None or (ws is not None and ws.holds(d)))
        and d.dtype == data.dtype
        and d.shape == data.shape
        and d.strides == data.strides
    )


def _buffer(tape: Tape | None, shape, dtype=np.float64, *, zero: bool = False) -> np.ndarray:
    """A step array: from the tape's workspace when it has one, else
    np.empty (np.zeros if zero)."""
    ws = tape.workspace if tape is not None else None
    if ws is None:
        return np.zeros(shape, dtype) if zero else np.empty(shape, dtype)
    a = ws.take(shape, dtype)
    if zero:
        a.fill(0)
    return a


def mul_const(tape: Tape | None, a: Tensor, c) -> Tensor:
    """a * c for a constant c that broadcasts to a's shape."""
    c = np.asarray(c, dtype=np.float64)
    return op(tape, a.data * c, (a, lambda g: g * c))


def linear(tape: Tape | None, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x (N, D) @ w (D, K) + b (K,)."""
    return op(
        tape,
        x.data @ w.data + b.data,
        (x, lambda g: g @ w.data.T),
        (w, lambda g: x.data.T @ g),
        (b, lambda g: g.sum(axis=0)),
    )


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # exp overflow at x < -709 saturates to inf and the quotient to the
    # exact limit 0.0, so the result stays correct; only the warning is
    # suppressed
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid(tape: Tape | None, a: Tensor) -> Tensor:
    s = _stable_sigmoid(a.data)
    return op(tape, s, (a, lambda g: g * s * (1.0 - s)))


def reshape(tape: Tape | None, a: Tensor, shape) -> Tensor:
    return op(tape, a.data.reshape(shape), (a, lambda g: g.reshape(a.data.shape)))


def lstm(tape: Tape | None, x: Tensor, lengths, fw, bw) -> Tensor:
    """One bidirectional LSTM layer from zero state: x (B, T, D) -> (B, T, 2H).

    fw and bw are (wx, wh, b) triples. Gate order i, f, g, o; step t of a
    direction computes z = (x_t wx + h_{t-1} wh) + b. The forward direction
    reads x in order; the backward one reads each item's real prefix (of
    ``lengths`` (B,)) reversed, then its padding in place. That map is its
    own inverse, so one gather serves x, the states, their gradient and dx.
    The result is [forward | backward] states in x's time order.

    Both directions advance as one stack on a leading axis of 2: the input
    projection is one (2, B*T, D) @ (2, D, 4H) GEMM, and each step one
    (2, B, H) @ (2, H, 4H) GEMM plus the gate arithmetic on (2, B, 4H).
    A step allocates nothing: it writes z into one reused (2, B, 4H)
    buffer, and the gates, c, tanh(c) and h through ``out=`` into
    step-indexed buffers: hs (T+1, 2, B, H), whose row 0 is the zero state,
    and, when the layer is recorded, acts (T, 2, B, 4H), cs (T+1, 2, B, H)
    and tcs (T, 2, B, H). An unrecorded call (no tape, or no operand that
    requires a gradient) keeps no step history: one row each of acts and
    tcs, and one c updated in place; hs, which the output is read from, is
    all it holds past the running state.

    The layer is a single tape op whose seven vjps share one hand-written
    BPTT pass over that stack into dZ, run by whichever vjp is called
    first. BPTT reads acts, cs and tcs in place: it builds the per-gate
    factors k straight into dZ's (2, B, T, 4, H) buffer, turns tcs into
    dc/dh = o (1 - tanh(c)^2), scales each step's k in place and
    propagates dh and dc through four reused (2, B, H) buffers. Once dZ
    is built it releases acts, cs and tcs; hs stays for dwh. Each weight
    gradient is one GEMM of its direction over the B*T rows in
    batch-major order, the order of the one-direction layer.
    """
    B, T, D = x.data.shape
    H = fw[1].data.shape[0]
    n, steps = np.asarray(lengths)[:, None], np.arange(T)
    idx = np.where(steps < n, n - 1 - steps, steps)[:, :, None]

    def reverse(a):
        return np.take_along_axis(a, idx, axis=1)

    wx, wh, b = (np.stack([fw[k].data, bw[k].data]) for k in range(3))
    xs = _buffer(tape, (2, B, T, D))
    xs[0] = x.data
    xs[1] = reverse(x.data)
    xs = xs.reshape(2, B * T, D)
    xw_buf = _buffer(tape, (2, B * T, 4 * H))
    xw = np.matmul(xs, wx, out=xw_buf).reshape(2, B, T, 4 * H)
    b = b[:, None, :]
    keep = tape is not None and any(t.requires_grad for t in (x, *fw, *bw))
    rows = T if keep else 1
    acts = _buffer(tape, (rows, 2, B, 4 * H))
    cs = _buffer(tape, (T + 1 if keep else 1, 2, B, H))
    cs[0] = 0.0  # the zero state
    tcs = _buffer(tape, (rows, 2, B, H))
    hs = _buffer(tape, (T + 1, 2, B, H))
    hs[0] = 0.0
    z = _buffer(tape, (2, B, 4 * H))
    ig = _buffer(tape, (2, B, H))
    gates = tuple(acts[..., k * H : (k + 1) * H] for k in range(4))  # i, f, g, o
    if keep:
        step_rows = zip(acts, *gates, cs[:-1], cs[1:], tcs)
    else:  # one row, and c updated in place
        step_rows = repeat((acts[0], *(gate[0] for gate in gates), cs[0], cs[0], tcs[0]), T)
    z_g = z[..., 2 * H : 3 * H]
    # exp overflow at z < -709 saturates to inf and the sigmoid to the exact
    # limit 0.0, so the result stays correct; only the warning is suppressed
    with np.errstate(over="ignore"):
        for xw_t, h_prev, h, (a, i, f, g, o, c_prev, c, tc) in zip(xw.transpose(2, 0, 1, 3), hs[:-1], hs[1:], step_rows):
            np.matmul(h_prev, wh, out=z)
            z += xw_t
            z += b
            np.negative(z, out=a)
            np.exp(a, out=a)
            a += 1.0
            np.divide(1.0, a, out=a)
            np.tanh(z_g, out=g)
            np.multiply(f, c_prev, out=c)
            np.multiply(i, g, out=ig)
            c += ig
            np.tanh(c, out=tc)
            np.multiply(o, tc, out=h)
    out = _buffer(tape, (B, T, 2 * H))
    out[..., :H] = hs[1:, 0].transpose(1, 0, 2)
    out[..., H:] = reverse(hs[1:, 1].transpose(1, 0, 2))
    saved = [acts, cs, tcs] if keep else []  # what only BPTT reads
    del acts, cs, tcs
    dz_run = []  # dZ (2, B*T, 4H), filled by whichever vjp runs first

    def dz(grad):
        if dz_run:
            return dz_run[0]
        acts, cs, tcs = saved
        del saved[:]  # released once dZ is built
        a4 = acts.reshape(T, 2, B, 4, H)
        i, f, g, o = a4[..., 0, :], a4[..., 1, :], a4[..., 2, :], a4[..., 3, :]
        # dZ_t = k_t * (dc_t for gates i, f, g; dh_t for gate o); k is
        # built time-major through a view of dZ's batch-major buffer
        d = _buffer(tape, (2, B, T, 4, H))
        k = d.transpose(2, 0, 1, 3, 4)
        tmp = cs[:-1]  # c_{t-1}, spent once k's f factor holds it
        np.multiply(tmp, f, out=k[..., 1, :])
        np.subtract(1.0, f, out=tmp)
        k[..., 1, :] *= tmp
        np.multiply(g, i, out=k[..., 0, :])
        np.subtract(1.0, i, out=tmp)
        k[..., 0, :] *= tmp
        np.multiply(g, g, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        np.multiply(i, tmp, out=k[..., 2, :])
        np.multiply(tcs, o, out=k[..., 3, :])
        np.subtract(1.0, o, out=tmp)
        k[..., 3, :] *= tmp
        dc_dh = tcs  # o * (1 - tanh(c)^2), in place
        np.multiply(tcs, tcs, out=dc_dh)
        np.subtract(1.0, dc_dh, out=dc_dh)
        np.multiply(o, dc_dh, out=dc_dh)
        douts = _buffer(tape, (2, B, T, H))
        douts[0] = grad[..., :H]
        douts[1] = reverse(grad[..., H:])
        dout = douts.transpose(2, 0, 1, 3)
        whT = wh.transpose(0, 2, 1)
        dh, dc = _buffer(tape, (2, B, H)), _buffer(tape, (2, B, H))
        dh_next, dc_next = _buffer(tape, (2, B, H), zero=True), _buffer(tape, (2, B, H), zero=True)
        dc_gates = dc[:, :, None, :]
        d_steps = d.reshape(2, B, T, 4 * H).transpose(2, 0, 1, 3)
        steps = (dout, dc_dh, f, k[..., :3, :], k[..., 3, :], d_steps)
        for dout_t, dc_dh_t, f_t, k_ifg, k_o, d_t in zip(*(a[::-1] for a in steps)):
            np.add(dout_t, dh_next, out=dh)
            np.multiply(dh, dc_dh_t, out=dc)
            dc += dc_next
            k_ifg *= dc_gates
            k_o *= dh
            np.matmul(d_t, whT, out=dh_next)
            np.multiply(dc, f_t, out=dc_next)
        dz_run.append(d.reshape(2, B * T, 4 * H))
        return dz_run[0]

    def dx(grad):
        dxs = np.matmul(dz(grad), wx.transpose(0, 2, 1), out=_buffer(tape, (2, B * T, D))).reshape(2, B, T, D)
        return dxs[0] + reverse(dxs[1])

    def direction(r, p):
        wx_t, wh_t, b_t = p

        def dwh(grad):
            h_prev = _buffer(tape, (B, T, H))
            np.copyto(h_prev, hs[:-1, r].transpose(1, 0, 2))
            return h_prev.reshape(B * T, H).T @ dz(grad)[r]

        return (
            (wx_t, lambda g: xs[r].T @ dz(g)[r]),
            (wh_t, dwh),
            (b_t, lambda g: dz(g)[r].sum(axis=0)),
        )

    return op(tape, out, (x, dx), *direction(0, fw), *direction(1, bw))


def dropout(tape: Tape | None, a: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scales kept activations by 1/(1-p) at train time."""
    mask = (rng.random(a.data.shape) >= p) / (1.0 - p)
    return mul_const(tape, a, mask)


def _shift(n: int, d: int) -> tuple[slice, slice]:
    """(target, source) slices of an axis of length n that move index i to
    i + d, clipped to [0, n)."""
    return slice(max(d, 0), max(min(n, n + d), 0)), slice(max(-d, 0), max(min(n, n - d), 0))


# float64 entries (1 MiB) of one conv2d call's im2col buffer; a chunk is
# as many whole images as fit, and at least one
_COL_BUDGET = 1 << 17
# float64 entries of conv2d's dx slab, the per-tap product of a chunk of
# whole images (at least one), sized to stay in cache between its k*k
# shifted adds
_DX_BUDGET = 1 << 14


def _images_per_chunk(budget: int, per_image: int, B: int) -> int:
    return min(B, max(1, budget // per_image))


def _im2col_chunks(win: np.ndarray, work: np.ndarray):
    """Yield (rows, cols): each chunk of whole images as a row slice of the
    (B*H*W, k*k*C) im2col matrix and its columns, copied from the window
    view win (B, H, W, k, k, C) into work (n, H, W, k, k, C), reused
    across chunks of n images."""
    B, H, W, k, _, C = win.shape
    n = work.shape[0]
    for lo in range(0, B, n):
        hi = min(lo + n, B)
        cols = work[: hi - lo]
        np.copyto(cols, win[lo:hi])
        yield slice(lo * H * W, hi * H * W), cols.reshape((hi - lo) * H * W, k * k * C)


def _padded(tape: Tape | None, x: np.ndarray, pad: int) -> np.ndarray:
    """x (B, H, W, C) zero-padded by pad on both spatial axes."""
    B, H, W, C = x.shape
    xp = _buffer(tape, (B, H + 2 * pad, W + 2 * pad, C))
    xp[:, :pad] = 0.0
    xp[:, H + pad :] = 0.0
    xp[:, pad : H + pad, :pad] = 0.0
    xp[:, pad : H + pad, W + pad :] = 0.0
    xp[:, pad : H + pad, pad : W + pad] = x
    return xp


def conv2d(tape: Tape | None, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Stride-1 same-padding 2D convolution for odd kernels, channels-last.

    x: (B, H, W, C), w: (O, C, k, k), b: (O,) -> (B, H, W, O). im2col in
    (k, k, C) column order, the order of the padded NHWC window view, with
    w reshaped to match: the columns of each chunk of whole images are
    copied into a buffer of about _COL_BUDGET entries and multiplied into
    their rows of the output. The tape keeps the padded input, not the
    columns; dw rebuilds them chunk by chunk into its own buffer and sums
    the chunks' GEMMs in chunk order. dx runs per chunk of whole images
    of about _DX_BUDGET slab entries: one (n*H*W, O) @ (O, C) GEMM per
    kernel tap, in tap order, into one reused slab, adding the part of
    each slab that lands inside the image at the tap's shift; what fell on
    the padding is never stored. Each pixel's sum runs in tap order, as
    unchunked. dx is a contiguous (B, H, W, C) array that owns its memory.
    db is one GEMV, ones(B*H*W) @ g.
    """
    B, H, W, C = x.data.shape
    O = w.data.shape[0]
    k = w.data.shape[2]
    pad = k // 2
    xp = _padded(tape, x.data, pad)
    win = sliding_window_view(xp, (k, k), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)  # (B, H, W, k, k, C)
    w_mat = np.ascontiguousarray(w.data.transpose(2, 3, 1, 0)).reshape(k * k * C, O)
    n_cols = _images_per_chunk(_COL_BUDGET, H * W * k * k * C, B)
    out_mat = _buffer(tape, (B * H * W, O))
    work = _buffer(tape, (n_cols, H, W, k, k, C))
    for rows, cols in _im2col_chunks(win, work):
        np.matmul(cols, w_mat, out=out_mat[rows])
    out_data = out_mat.reshape(B, H, W, O)
    out_data += b.data

    def dw(g):
        g_mat = g.reshape(B * H * W, O)
        work = _buffer(tape, (n_cols, H, W, k, k, C))
        d = sum(cols.T @ g_mat[rows] for rows, cols in _im2col_chunks(win, work))
        return np.ascontiguousarray(d.reshape(k, k, C, O).transpose(3, 2, 0, 1))

    def dx(g):
        g_mat = g.reshape(B * H * W, O)
        w_taps = w.data.transpose(2, 3, 0, 1).reshape(k * k, O, C)
        n = _images_per_chunk(_DX_BUDGET, H * W * C, B)
        slab = _buffer(tape, (n * H * W, C))
        d = _buffer(tape, (B, H, W, C), zero=True)
        for lo in range(0, B, n):
            hi = min(lo + n, B)
            g_chunk, part = g_mat[lo * H * W : hi * H * W], slab[: (hi - lo) * H * W]
            tap, d_chunk = part.reshape(hi - lo, H, W, C), d[lo:hi]
            for u in range(k):
                row_to, row_from = _shift(H, u - pad)
                for v in range(k):
                    col_to, col_from = _shift(W, v - pad)
                    np.matmul(g_chunk, w_taps[u * k + v], out=part)
                    d_chunk[:, row_to, col_to] += tap[:, row_from, col_from]
        return d

    return op(tape, out_data, (b, _bias_vjp(O)), (w, dw), (x, dx))


def _bias_vjp(O: int):
    """The bias gradient of a conv with O output channels: one GEMV,
    ones(N) @ g, over the N = B*H*W rows of its output gradient."""
    return lambda g: np.ones(g.size // O) @ g.reshape(-1, O)


def conv2d_support(tape: Tape | None, x: Tensor, support: np.ndarray, shape, w: Tensor, b: Tensor) -> Tensor:
    """conv2d of a one-channel image that is zero off a support, computed
    only where the support reaches.

    x (nnz,) holds the image's values at support, the strictly increasing
    flat indices of those pixels in the (B, H, W) grid of shape; w is
    (O, 1, k, k) and b (O,); the result is (B, H, W, O), as conv2d gives
    on the dense (B, H, W, 1) image.

    Indices live in the zero-padded grid (B, H + 2p, W + 2p), p = k // 2,
    where tap (u, v) of the output pixel at flat index q reads q +
    (u - p)(W + 2p) + (v - p): no tap wraps across a row or into the next
    item. The rows D of output pixels whose window meets the support take
    their (k, k) im2col columns from a padded flat copy of the image and
    one (|D|, k*k) @ (k*k, O) GEMM plus the bias; every other row is the
    bias. The tape keeps those columns: dw is cols.T @ g[D]. dx exists
    only on the support: pixel s gets the sum, in tap order, of g[s - tap
    offset] @ w over the taps, read from one (|D|, O) @ (O, k*k) GEMM
    whose rows are looked up through a padded index map, and 0 where
    s - offset is padding. db is one GEMV, as in conv2d.
    """
    B, H, W = shape
    O, k = w.data.shape[0], w.data.shape[2]
    p = k // 2
    Hp, Wp = H + 2 * p, W + 2 * p
    taps = ((np.arange(k) - p)[:, None] * Wp + (np.arange(k) - p)).reshape(-1)  # (u, v) order

    def padded(i):
        row, col = np.divmod(i, W)  # row = b*H + y
        return (row + p * (2 * (row // H) + 1)) * Wp + (col + p)

    sp = padded(support)
    grid = _buffer(tape, (B * Hp * Wp,), bool, zero=True)
    grid[(sp[:, None] - taps).reshape(-1)] = True
    rows = np.flatnonzero(grid.reshape(B, Hp, Wp)[:, p : p + H, p : p + W])
    rows_p = padded(rows)
    flat = _buffer(tape, grid.shape, zero=True)
    flat[sp] = x.data
    # every index is in range; "clip" lets take write into out unbuffered
    cols = np.take(flat, rows_p[:, None] + taps, out=_buffer(tape, (len(rows), k * k)), mode="clip")
    del grid, flat  # their ranges come back for out_mat
    w_mat = np.ascontiguousarray(w.data.reshape(O, k * k).T)
    out_mat = _buffer(tape, (B * H * W, O))
    out_mat[...] = b.data
    hit = cols @ w_mat
    hit += b.data
    out_mat[rows] = hit
    g_rows = []  # g[D], taken by whichever of dw and dx runs first

    def g_hit(g):
        if not g_rows:
            g_rows.append(g.reshape(B * H * W, O)[rows])
        return g_rows[0]

    def dw(g):
        return np.ascontiguousarray((cols.T @ g_hit(g)).reshape(k, k, 1, O).transpose(3, 2, 0, 1))

    def dx(g):
        at = np.full(B * Hp * Wp, len(rows), dtype=np.intp)  # len(rows): padding, the zero row
        at[rows_p] = np.arange(len(rows))
        per_tap = np.empty((len(rows) + 1, k * k))
        np.matmul(g_hit(g), w_mat.T, out=per_tap[:-1])
        per_tap[-1] = 0.0
        reads = per_tap[at[sp[:, None] - taps], np.arange(k * k)]
        d = np.zeros(len(sp))
        for t in range(k * k):
            d += reads[:, t]
        return d

    return op(tape, out_mat.reshape(B, H, W, O), (b, _bias_vjp(O)), (w, dw), (x, dx))


def maxpool_relu(tape: Tape | None, x: Tensor, factor: int) -> Tensor:
    """relu of non-overlapping max pooling over (B, H, W, C); trailing
    rows/cols that do not fill a window are dropped. relu commutes with
    the max, so it runs in place on the pooled output. A window whose max
    is positive sends its gradient to its first maximal element (row-major
    in the window), which keeps the backward pass deterministic; every
    other window sends none, as relu's > 0 mask would. The vjp copies the
    gradient onto that element rather than multiplying by a mask, so an
    inf gradient leaves the others +0.0."""
    f = factor
    B, H, W, C = x.data.shape
    Ho, Wo = H // f, W // f
    cells = [np.s_[:, i : Ho * f : f, j : Wo * f : f] for i in range(f) for j in range(f)]
    out_data = _buffer(tape, (B, Ho, Wo, C))
    np.copyto(out_data, x.data[cells[0]])
    for cell in cells[1:]:
        np.maximum(out_data, x.data[cell], out=out_data)
    np.maximum(out_data, 0.0, out=out_data)

    def vjp(g):
        dx = _buffer(tape, x.data.shape, zero=True)
        free = np.greater(out_data, 0.0, out=_buffer(tape, out_data.shape, bool))
        first = _buffer(tape, out_data.shape, bool)
        for cell in cells:
            np.equal(x.data[cell], out_data, out=first)
            first &= free
            np.copyto(dx[cell], g, where=first)
            free ^= first
        return dx

    return op(tape, out_data, (x, vjp))


def global_avg_pool(tape: Tape | None, x: Tensor) -> Tensor:
    """(B, H, W, C) -> (B, C) spatial mean, summed in (B, C, H, W) order."""
    B, H, W, C = x.data.shape
    mean = np.ascontiguousarray(x.data.transpose(0, 3, 1, 2)).mean(axis=(2, 3))
    return op(tape, mean, (x, lambda g: g[:, None, None, :] / (H * W)))


def sum_all(tape: Tape | None, a: Tensor) -> Tensor:
    return op(tape, a.data.sum(), (a, lambda g: g))


def cross_entropy_logits(tape: Tape | None, logits: Tensor, labels: np.ndarray) -> Tensor:
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
    def vjp(g):
        d = softmax.copy()
        d[np.arange(B), labels] -= 1.0
        return d * (float(g) / B)

    return op(tape, nll.mean(), (logits, vjp))
