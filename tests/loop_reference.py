"""Per-point loop implementations of the sketch constructor and the
segment table, kept from before both were vectorised (the segment table
has since lost its switch for point discs, which are always drawn), the
per-stroke stack RDP with its re-run-per-round epsilon escalation, kept
from before simplification became one significance pass per sketch, and
the per-segment raster loop, kept from before coverage became one
candidate pass per sketch, and the one-direction fused LSTM op, kept
from before both directions of a layer advanced as one stacked recurrence
(``bidirectional_lstm`` runs it as the layer did then: a forward op, a
backward op over reversed prefixes, and a concat), and the channels-first
CNN ops and forward pass, kept from before activations became (B, H, W, C)
(im2col through a transposed copy, a k*k col2im scatter, an argmax max
pool, and relu as an op of its own, run before the pool). Three more are
kept from before the backward pass freed memory as it went: ``accumulating_op``, the tape op that adds
every vjp result into a zero buffer; ``conv2d_dx_tap_stack``, the NHWC
conv dx that stacked all k*k tap products before adding them into a padded
buffer; and the random walk that drew and clipped one step per point.

tests/test_loop_reference.py checks the numpy versions in the package
against these loops and ops. The raster oracle cannot catch a segment
table change on its own, because it builds its entities with
``segment_table`` too; the raster loop is fast enough to compare at 224²,
where the oracle is not.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from sketchattn import geometry
from sketchattn.errors import EmptySketchError, NonFiniteCoordinateError
from sketchattn.geometry import VectorSketch, segment_projection
from sketchattn.net import autodiff as ad
from sketchattn.net.autodiff import Tape, Tensor, _stable_sigmoid, op
from sketchattn.net.model import CnnConfig
from sketchattn.raster import AttentionMap, RasterConfig, SegmentTable, _check_inputs
from sketchattn.simplify import _RESCALE_ABOVE, MAX_ESCALATIONS


def validate_and_normalize(raw_points) -> VectorSketch:
    rows = [(p[0], p[1], p[2]) for p in raw_points]
    if not rows:
        raise EmptySketchError("no points provided")
    arr = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(arr[:, :2])):
        raise NonFiniteCoordinateError("sketch contains NaN or infinite coordinates")
    s_raw = arr[:, 2]
    if not np.all((s_raw == 0) | (s_raw == 1)):
        raise ValueError("stroke states must be 0 or 1")

    kept_xy: list[tuple[float, float]] = []
    kept_s: list[int] = []
    for (x, y), st in zip(arr[:, :2], s_raw.astype(np.int8)):
        if kept_xy and kept_s[-1] == 0 and kept_xy[-1] == (x, y):
            kept_s[-1] = int(st)  # duplicate within a stroke: merge, keep later state
            continue
        kept_xy.append((x, y))
        kept_s.append(int(st))
    kept_s[-1] = 1
    return VectorSketch(np.asarray(kept_xy, dtype=np.float64), np.asarray(kept_s, dtype=np.int8))


def stroke_slices(sketch: VectorSketch) -> list[tuple[int, int]]:
    ends = np.flatnonzero(sketch.s == 1)
    out = []
    start = 0
    for e in ends:
        out.append((start, int(e) + 1))
        start = int(e) + 1
    return out


def segment_table(sketch: VectorSketch) -> SegmentTable:
    starts: list[int] = []
    ends: list[int] = []
    single = {a for a, b in stroke_slices(sketch) if b - a == 1}
    for i in range(sketch.n):
        if sketch.s[i] == 0:
            starts.append(i)
            ends.append(i + 1)
        elif i in single:
            starts.append(i)
            ends.append(i)
    return SegmentTable(np.asarray(starts, dtype=np.int32), np.asarray(ends, dtype=np.int32))


def rasterize_forward(sketch: VectorSketch, attention, config: RasterConfig) -> AttentionMap:
    a = _check_inputs(sketch, attention)
    H, W = config.height, config.width
    eps_sq = config.epsilon * config.epsilon

    table = segment_table(sketch)
    owner = np.full((H, W), -1, dtype=np.int32)
    alpha = np.zeros((H, W), dtype=np.float64)

    xy = sketch.xy
    slack = config.epsilon + 1.0
    for e in range(len(table)):
        i = int(table.start[e])
        j = int(table.end[e])
        x0, y0 = xy[i, 0], xy[i, 1]
        x1, y1 = xy[j, 0], xy[j, 1]
        c0 = max(int(np.floor(min(x0, x1) - slack)), 0)
        c1 = min(int(np.ceil(max(x0, x1) + slack)), W - 1)
        r0 = max(int(np.floor(min(y0, y1) - slack)), 0)
        r1 = min(int(np.ceil(max(y0, y1) + slack)), H - 1)
        if c0 > c1 or r0 > r1:
            continue
        cx = np.arange(c0, c1 + 1, dtype=np.float64) + 0.5
        cy = np.arange(r0, r1 + 1, dtype=np.float64) + 0.5
        al, d2 = segment_projection(cx[None, :] - x0, cy[:, None] - y0, x1 - x0, y1 - y0)
        hit = d2 < eps_sq
        if not hit.any():
            continue
        sub_owner = owner[r0 : r1 + 1, c0 : c1 + 1]
        sub_alpha = alpha[r0 : r1 + 1, c0 : c1 + 1]
        sub_owner[hit] = e
        sub_alpha[hit] = al[hit]

    intensities = np.zeros((H, W), dtype=np.float64)
    mask = owner >= 0
    if mask.any():
        ow = owner[mask]
        alm = alpha[mask]
        ai = a[table.start[ow]]
        aj = a[table.end[ow]]
        intensities[mask] = (1.0 - alm) * ai + alm * aj
    return AttentionMap(intensities, owner, alpha, table)


def rdp_stroke(points, epsilon: float) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("rdp_stroke expects an (n, 2) point array")
    n = pts.shape[0]
    if n <= 2:
        return pts.copy()

    work, eps = pts, float(epsilon)
    peak = float(np.abs(pts).max())
    if peak > _RESCALE_ABOVE:
        shift = -math.frexp(peak)[1]
        work, eps = np.ldexp(pts, shift), math.ldexp(eps, shift)
    eps_sq = eps * eps
    keep = np.zeros(n, dtype=bool)
    keep[0] = keep[-1] = True
    stack = [(0, n - 1)]
    while stack:
        first, last = stack.pop()
        if last - first < 2:
            continue
        rel = work[first + 1 : last] - work[first]
        v = work[last] - work[first]
        _, d2 = segment_projection(rel[:, 0], rel[:, 1], v[0], v[1])
        k = int(np.argmax(d2))  # argmax returns the first maximum
        if d2[k] > eps_sq:
            split = first + 1 + k
            keep[split] = True
            stack.append((first, split))
            stack.append((split, last))
    return pts[keep].copy()


def simplify_sketch(sketch: VectorSketch, config) -> VectorSketch:
    strokes = [sketch.xy[a:b] for a, b in geometry.stroke_slices(sketch)]
    eps = config.epsilon
    simplified = [rdp_stroke(st, eps) for st in strokes]
    rounds = 0
    while sum(len(st) for st in simplified) > config.max_points and rounds < MAX_ESCALATIONS:
        eps *= config.escalation_factor
        simplified = [rdp_stroke(st, eps) for st in strokes]
        rounds += 1

    xy = np.concatenate(simplified)
    s = np.zeros(len(xy))
    s[np.cumsum([len(st) for st in simplified]) - 1] = 1.0
    return geometry.validate_and_normalize(np.column_stack([xy, s])[: config.max_points])


def lstm(tape: Tape, x: Tensor, wx: Tensor, wh: Tensor, b: Tensor, lengths=None) -> Tensor:
    """One LSTM layer from zero state: x (B, T, D) -> hidden states (B, T, H).

    Gate order i, f, g, o; step t computes z = (x_t wx + h_{t-1} wh) + b.
    The input projection of all T steps is one GEMM and the recurrence
    runs on plain arrays, so the layer is a single tape op. Its four vjps
    share one hand-written BPTT pass over the stored gates into dZ, run by
    whichever vjp is called first; each is then one GEMM over all B*T rows.

    Given per-item lengths (B,), the layer runs backwards: it reads each
    real prefix reversed, then the padding in place, and returns its states
    in x's time order. That map is its own inverse, so one gather serves
    x, the output, the output's gradient and dx.
    """
    B, T, D = x.data.shape
    H = wh.data.shape[0]
    idx = None
    if lengths is not None:
        n, steps = np.asarray(lengths)[:, None], np.arange(T)
        idx = np.where(steps < n, n - 1 - steps, steps)[:, :, None]

    def run_order(a):
        return a if idx is None else np.take_along_axis(a, idx, axis=1)

    xs = run_order(x.data)
    xw = (xs.reshape(B * T, D) @ wx.data).reshape(B, T, 4 * H)
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
    h_run = np.stack(hs, axis=1)  # in the order the recurrence ran
    dz_run = []  # dZ (B*T, 4H), filled by whichever vjp runs first

    def dz(grad):
        if dz_run:
            return dz_run[0]
        a4 = np.stack(acts).reshape(T, B, 4, H)
        i, f, g, o = a4[:, :, 0], a4[:, :, 1], a4[:, :, 2], a4[:, :, 3]
        tc = np.stack(tcs)
        c_prev = np.stack([np.zeros((B, H))] + cs[:-1])
        # dZ_t = k_t * (dc_t for gates i, f, g; dh_t for gate o)
        k = np.stack([g * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - g * g), tc * o * (1.0 - o)], axis=2)
        dc_dh = o * (1.0 - tc * tc)
        d = np.empty((B, T, 4, H))
        dh_next = np.zeros((B, H))
        dc_next = np.zeros((B, H))
        dout = run_order(grad)
        for t in range(T - 1, -1, -1):
            dh = dout[:, t] + dh_next
            dc = dh * dc_dh[t] + dc_next
            d_t = d[:, t]
            d_t[:, :3] = k[t, :, :3] * dc[:, None, :]
            d_t[:, 3] = k[t, :, 3] * dh
            dh_next = d_t.reshape(B, 4 * H) @ wh.data.T
            dc_next = dc * f[t]
        dz_run.append(d.reshape(B * T, 4 * H))
        del acts[:], cs[:], tcs[:]  # spent: dZ is all the vjps need of them
        return dz_run[0]

    def dwh(grad):
        h_prev = np.concatenate([np.zeros((B, 1, H)), h_run[:, :-1]], axis=1).reshape(B * T, H)
        return h_prev.T @ dz(grad)

    return op(
        tape,
        run_order(h_run),
        (x, lambda g: run_order((dz(g) @ wx.data.T).reshape(B, T, D))),
        (wx, lambda g: xs.reshape(B * T, D).T @ dz(g)),
        (wh, dwh),
        (b, lambda g: dz(g).sum(axis=0)),
    )


def bidirectional_lstm(tape: Tape, x: Tensor, lengths, fw, bw) -> Tensor:
    """A layer as three tape ops: fw op, bw op over reversed prefixes, concat."""
    h_fw = lstm(tape, x, *fw)
    h_bw = lstm(tape, x, *bw, lengths)
    H = h_fw.data.shape[2]
    return op(
        tape,
        np.concatenate([h_fw.data, h_bw.data], axis=2),
        (h_fw, lambda g: g[..., :H]),
        (h_bw, lambda g: g[..., H:]),
    )


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

    def g_mat(g):
        return np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(B * H * W, O)

    def dx(g):
        dcols = (g_mat(g) @ w_mat.T).reshape(B, H, W, C, k, k)
        dxp = np.zeros((B, C, H + 2 * pad, W + 2 * pad))
        for u in range(k):
            for v in range(k):
                dxp[:, :, u : u + H, v : v + W] += dcols[:, :, :, :, u, v].transpose(0, 3, 1, 2)
        return dxp[:, :, pad : pad + H, pad : pad + W]

    return op(
        tape,
        out_data,
        (b, lambda g: g.sum(axis=(0, 2, 3))),
        (w, lambda g: (cols.T @ g_mat(g)).T.reshape(O, C, k, k)),
        (x, dx),
    )


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

    def vjp(g):
        dwin = np.zeros_like(win)
        np.put_along_axis(dwin, idx[..., None], g[..., None], axis=-1)
        dxc = dwin.reshape(B, C, Hc // f, Wc // f, f, f).transpose(0, 1, 2, 4, 3, 5).reshape(B, C, Hc, Wc)
        return dxc if (Hc, Wc) == (H, W) else np.pad(dxc, ((0, 0), (0, 0), (0, H - Hc), (0, W - Wc)))

    return op(tape, out_data, (x, vjp))


def relu(tape: Tape, a: Tensor) -> Tensor:
    """Elementwise max(a, 0); its vjp multiplies g by the a > 0 mask."""
    return op(tape, np.maximum(a.data, 0.0), (a, lambda g: np.multiply(g, a.data > 0)))


def global_avg_pool(tape: Tape, x: Tensor) -> Tensor:
    """(B, C, H, W) -> (B, C) spatial mean."""
    B, C, H, W = x.data.shape
    return op(tape, x.data.mean(axis=(2, 3)), (x, lambda g: g[:, :, None, None] / (H * W)))


def cnn_forward_batch(tape: Tape, images: Tensor, params: dict[str, Tensor], cfg: CnnConfig) -> Tensor:
    """(B, 1, H, W) images -> (B, num_classes) logits: per stage a conv
    (3x3 through the weights' shape), relu and a 2x2 max pool."""
    x = images
    for s in range(len(cfg.stages)):
        x = relu(tape, conv2d(tape, x, params[f"cnn.conv{s}.w"], params[f"cnn.conv{s}.b"]))
        x = maxpool2d(tape, x, 2)
    x = global_avg_pool(tape, x)
    return ad.linear(tape, x, params["cnn.fc.w"], params["cnn.fc.b"])


def accumulating_op(tape: Tape | None, data, *edges) -> Tensor:
    """autodiff.op adding every vjp result, the first included, into a
    gradient that starts as zeros."""
    out = Tensor(data, tape is not None and any(t.requires_grad for t, _ in edges))
    if out.requires_grad:

        def bwd():
            if out.grad is None:
                return
            for t, vjp in edges:
                if t.requires_grad:
                    if t.grad is None:
                        t.grad = np.zeros_like(t.data)
                    t.grad += vjp(out.grad)

        tape.record(bwd)
    return out


def conv2d_dx_tap_stack(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Channels-last conv2d dx of a (B, H, W, O) output gradient: one batched
    GEMM, (B*H*W, O) @ (k*k, O, C), whose k*k slabs are added into a padded
    buffer at their shifts; the interior is returned."""
    B, H, W, O = g.shape
    C, k = w.shape[1], w.shape[2]
    pad = k // 2
    taps = g.reshape(1, B * H * W, O) @ w.transpose(2, 3, 0, 1).reshape(k * k, O, C)
    dxp = np.zeros((B, H + 2 * pad, W + 2 * pad, C))
    for u in range(k):
        for v in range(k):
            dxp[:, u : u + H, v : v + W] += taps[u * k + v].reshape(B, H, W, C)
    return dxp[:, pad : pad + H, pad : pad + W]


def random_sketch(rng, n_points, width=64.0, height=64.0, stroke_break_prob=0.15) -> VectorSketch:
    """ingest.random_sketch drawing and clipping one step per point."""
    xy = np.empty((n_points, 2))
    xy[0] = rng.uniform([2.0, 2.0], [width - 3.0, height - 3.0])
    for i in range(1, n_points):
        step = rng.normal(0.0, max(width, height) / 12.0, size=2)
        xy[i] = np.clip(xy[i - 1] + step, 0.0, [width - 1.0, height - 1.0])
    s = (rng.random(n_points) < stroke_break_prob).astype(np.float64)
    s[-1] = 1.0
    return geometry.validate_and_normalize(np.column_stack([xy, s]))
