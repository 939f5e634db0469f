"""The vectorised sketch constructor, stroke slices, segment table, RDP
simplification and raster coverage, the stacked bidirectional LSTM layer,
the max pool that applies the relu (up to the sign of a zero gradient
that the reference's relu mask writes), the average pool and the one-draw
random walk agree bit for bit with the loops and the channels-first ops
in loop_reference.py, and conv2d's per-tap dx with the stacked-tap one.
The channels-last conv2d, the support-only conv2d_support on the dense
image rebuilt from its support, and the CNN agree with the channels-first
ones to within 1e-12: conv2d's chunked (k, k, C) im2col, conv2d_support's
rows of the support's reach and both ops' one-GEMV bias gradient sum each
dot product in another order, and two calls on one input give the same
bits.

Rows come from a small coordinate grid (signed zero included), so
consecutive duplicates, duplicate runs across stroke ends, one-point
strokes and tied chord distances are common.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loop_reference as ref
from image_support import densify, full_support
from rdp_support import rdp_stroke
from sketchattn import raster
from sketchattn.geometry import normalize_to_canvas, stroke_slices, validate_and_normalize
from sketchattn.ingest import random_sketch, synth_dataset
from sketchattn.net import autodiff as ad
from sketchattn.net.model import CnnConfig, cnn_forward_batch, init_cnn_params
from sketchattn.pipeline import _rasterize_batch, desk_config, prepare_sketch
from sketchattn.raster import RasterConfig, rasterize_forward, segment_table
from sketchattn.simplify import SimplifyConfig, simplify_sketch

_grid = st.sampled_from([0.0, -0.0, 1.0, 2.5])
_rows = st.lists(st.tuples(_grid, _grid, st.integers(0, 1)), min_size=1, max_size=30)


def _same_sketch(a, b):
    assert a.xy.dtype == b.xy.dtype and a.s.dtype == b.s.dtype
    assert a.xy.tobytes() == b.xy.tobytes()  # bitwise: keeps the sign of zero
    assert a.s.tobytes() == b.s.tobytes()


@settings(max_examples=300, deadline=None)
@given(rows=_rows)
def test_constructor_matches_loop(rows):
    expected = ref.validate_and_normalize(rows)
    _same_sketch(validate_and_normalize(rows), expected)
    _same_sketch(validate_and_normalize(np.array(rows, dtype=np.float64)), expected)


@settings(max_examples=300, deadline=None)
@given(rows=_rows)
def test_segment_table_and_slices_match_loop(rows):
    sk = ref.validate_and_normalize(rows)
    assert stroke_slices(sk) == ref.stroke_slices(sk)
    got, expected = segment_table(sk), ref.segment_table(sk)
    assert got.start.dtype == expected.start.dtype == np.int32
    assert got.end.dtype == expected.end.dtype == np.int32
    assert got.start.tolist() == expected.start.tolist()
    assert got.end.tolist() == expected.end.tolist()


_configs = st.builds(
    SimplifyConfig,
    epsilon=st.sampled_from([0.3, 0.5, 1.0, 2.0]),
    max_points=st.integers(2, 60),
    escalation_factor=st.sampled_from([1.1, 1.5, 3.0]),
)
_small = st.integers(0, 3).map(float)
# strokes of one to eight points; each is scaled on its own, so a sketch
# mixes strokes that take the rescale path above 2^500 with ones that do not
_scales = st.sampled_from([1.0, 1.0, 1e-300, 1e150, 1e200, 1e300])
_strokes = st.lists(
    st.tuples(st.lists(st.tuples(_small, _small), min_size=1, max_size=8), _scales), min_size=1, max_size=8
)


def _sketch_rows(strokes):
    return [
        (x * scale, y * scale, int(i == len(pts) - 1)) for pts, scale in strokes for i, (x, y) in enumerate(pts)
    ]


@settings(max_examples=300, deadline=None)
@given(rows=_rows, config=_configs)
def test_simplify_matches_loop_on_tied_grids(rows, config):
    sk = validate_and_normalize(rows)
    _same_sketch(simplify_sketch(sk, config), ref.simplify_sketch(sk, config))


@settings(max_examples=300, deadline=None)
@given(strokes=_strokes, config=_configs, eps_scale=st.sampled_from([1.0, 1e150, 1e300]))
def test_simplify_matches_loop_on_scaled_multi_stroke_sketches(strokes, config, eps_scale):
    sk = validate_and_normalize(_sketch_rows(strokes))
    config = SimplifyConfig(config.epsilon * eps_scale, config.max_points, config.escalation_factor)
    _same_sketch(simplify_sketch(sk, config), ref.simplify_sketch(sk, config))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(20, 200),
    seed=st.integers(0, 2**16),
    max_points=st.integers(2, 20),
    factor=st.sampled_from([1.1, 1.5, 3.0]),
)
def test_simplify_matches_loop_when_escalating_and_truncating(n, seed, max_points, factor):
    # a dense random walk over few strokes: the cap forces every escalation
    # round and often the final cut
    rng = np.random.default_rng(seed)
    rows = np.column_stack([np.cumsum(rng.normal(size=(n, 2)), axis=0), rng.random(n) < 0.05])
    sk = validate_and_normalize(rows)
    config = SimplifyConfig(epsilon=0.2, max_points=max_points, escalation_factor=factor)
    _same_sketch(simplify_sketch(sk, config), ref.simplify_sketch(sk, config))


@settings(max_examples=300, deadline=None)
@given(
    pts=st.lists(st.tuples(_small, _small), min_size=0, max_size=30),
    scale=_scales,
    eps=st.sampled_from([0.3, 1.0, 2.0]),
)
def test_rdp_stroke_matches_loop(pts, scale, eps):
    arr = np.array(pts, dtype=np.float64).reshape(-1, 2) * scale
    got, expected = rdp_stroke(arr, eps), ref.rdp_stroke(arr, eps)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def _same_raster(sk, cfg, seed=0):
    a = np.random.default_rng(seed).uniform(-0.5, 1.5, sk.n)
    got, expected = rasterize_forward(sk, a, cfg), ref.rasterize_forward(sk, a, cfg)
    for field in ("owner", "alpha", "intensities"):
        assert getattr(got, field).tobytes() == getattr(expected, field).tobytes(), field
    return got


def _walk(seed, n, width, height):
    """A random walk of n points started on the canvas, free to leave it."""
    rng = np.random.default_rng(seed)
    steps = rng.normal(0.0, max(width, height) / 12.0, size=(n, 2))
    xy = rng.uniform(0.0, [width, height]) + np.cumsum(steps, axis=0)
    return validate_and_normalize(np.column_stack([xy, rng.random(n) < 0.15]))


_canvases = st.sampled_from([(224, 224), (224, 96), (80, 224)]) | st.tuples(
    st.integers(1, 224), st.integers(1, 224)
)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 448),
    size=_canvases,
    eps=st.floats(0.3, 3.0),
    fit=st.booleans(),
)
def test_raster_matches_loop_on_walks(seed, n, size, eps, fit):
    # a fitted walk is dense like a prepared sketch; an unfitted one strays
    # off the canvas
    sk = _walk(seed, n, *size)
    if fit and min(size) > 8:
        sk = normalize_to_canvas(sk, *size)
    _same_raster(sk, RasterConfig(size[0], size[1], eps), seed)


_FLAT = 22.5 * raster._FLAT_SLOPE  # |vy| at which a segment of length ~22.5 turns sloped
_TARGETED = {
    "horizontal": [(3.2, 10.5, 0), (25.7, 10.5, 1)],
    "vertical": [(10.5, 3.2, 0), (10.5, 25.7, 1)],
    "vy_1e-12": [(3.2, 10.4, 0), (25.7, 10.4 + 1e-12, 1)],
    "vy_-1e-9": [(3.2, 10.4, 0), (25.7, 10.4 - 1e-9, 1)],
    "vy_1e-6": [(3.2, 10.4, 0), (25.7, 10.4 + 1e-6, 1)],
    "vy_below_flat": [(3.5, 10.4, 0), (26.0, 10.4 + _FLAT * 0.999, 1)],
    "vy_above_flat": [(3.5, 10.4, 0), (26.0, 10.4 + _FLAT * 1.001, 1)],
    "steep": [(12.4, 2.0, 0), (12.4 + 1e-9, 28.6, 0), (4.3, 28.6 - 1e-12, 1)],
    # a subnormal vy: eps·L/|vy| overflows if such an entity counts as sloped
    "vy_subnormal": [(3.2, 0.0, 0), (25.7, 5e-324, 1), (4.5, 4.5, 0), (20.5, 12.5, 1)],
    # lines across the canvas from far off it: spans at 1e6; at 1e17, where
    # rounding moves a span edge by many pixels (and the hits with it),
    # whole box rows
    "large_crossing": [(-1e6, -1e6 + 16.0, 0), (1e6, 1e6 + 16.0, 1)],
    "huge_crossing": [(-1e17, -1e17, 0), (1e17, 1e17 + 32.0, 1)],
    "pixel_centres": [(4.5, 4.5, 0), (20.5, 12.5, 0), (8.5, 27.5, 1)],
    # centres at distance exactly 1 and 2 from the line: |4 dy - 3 dx| = 5 or 10
    "distance_exactly_eps": [(5.5, 5.5, 0), (21.5, 17.5, 1)],
    "discs": [(10.5, 10.5, 1), (12.3, 11.7, 1), (0.2, 31.9, 1), (31.5, -0.5, 1)],
    "redrawn": [(5.0, 5.0, 0), (25.0, 20.0, 1), (25.0, 20.0, 0), (5.0, 5.0, 1), (5.0, 5.0, 0), (25.0, 20.0, 1)],
    "redrawn_crossing": [(2.0, 2.0, 0), (29.0, 29.0, 0), (2.0, 29.0, 0), (29.0, 2.0, 0), (2.0, 2.0, 1)],
}


@pytest.mark.parametrize("eps", [0.3, 1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("rows", _TARGETED.values(), ids=_TARGETED.keys())
def test_raster_matches_loop_on_targeted_geometry(rows, eps):
    amap = _same_raster(validate_and_normalize(rows), RasterConfig(32, 32, eps))
    assert amap.owned_pixel_count > 0


def _edge_sketch(seed, eps, n=60, size=64):
    """n two-point strokes, each at distance eps, up to rounding, from a
    pixel centre that projects inside it."""
    rng = np.random.default_rng(seed)
    centre = rng.integers(4, size - 4, size=(n, 1, 2)) + 0.5
    angle = rng.uniform(0.0, np.pi, size=(n, 1, 1))
    along = np.concatenate([np.cos(angle), np.sin(angle)], axis=2)
    normal = np.concatenate([-np.sin(angle), np.cos(angle)], axis=2)
    t = rng.uniform(1.0, 6.0, size=(n, 2, 1)) * np.array([[-1.0], [1.0]])
    xy = (centre + eps * normal + t * along).reshape(-1, 2)
    return validate_and_normalize(np.column_stack([xy, np.tile([0, 1], n)]))


@pytest.mark.parametrize("eps", [0.7, 1.3, 2.9])
def test_raster_matches_loop_with_centres_on_stripe_edges(eps):
    # rounding decides both whether such a centre is a hit and on which
    # side of the span's exact edge it falls; the span's one-pixel margin
    # keeps every hit among the candidates
    for seed in range(20):
        _same_raster(_edge_sketch(seed, eps), RasterConfig(64, 64, eps), seed)


@pytest.mark.parametrize("budget", [1, 7])
def test_raster_matches_loop_across_chunk_boundaries(monkeypatch, budget):
    # a budget below one entity's pairs makes every entity a chunk of its
    # own, so painter's order must carry across chunks
    monkeypatch.setattr(raster, "_PAIR_BUDGET", budget)
    for seed, n, size in [(1, 60, (64, 64)), (2, 30, (48, 20)), (3, 150, (224, 224))]:
        _same_raster(_walk(seed, n, *size), RasterConfig(size[0], size[1], 1.5), seed)
    _same_raster(validate_and_normalize(_TARGETED["redrawn"]), RasterConfig(32, 32, 2.0))


def test_raster_matches_loop_beside_entities_far_off_the_canvas():
    # what `rasterize --no-normalize` hands the rasterizer: entities at
    # +-1e300 are dropped by their clipped boxes before any arithmetic, as
    # the loop's continue drops them; a cast to int before clipping breaks
    far = 1e300
    rows = [
        (far, far, 0), (-far, far, 1),  # x spans the canvas, y above it
        (5.5, 5.5, 0), (20.2, 17.9, 0), (9.0, 27.0, 1),
        (-far, -far, 0), (far, -far, 1),  # x spans the canvas, y below it
        (-far, 3.0, 0), (-far, 30.0, 1),  # y spans the canvas, x left of it
        (far, 16.0, 1),  # a disc right of the canvas
        (25.0, 4.0, 1),
    ]
    sk = validate_and_normalize(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        amap = _same_raster(sk, RasterConfig(32, 32, 1.0))
    assert set(np.unique(amap.owner).tolist()) == {-1, 1, 2, 6}


def _layer_bits(layer, x, lengths, weights, upstream):
    """Output and the gradients of x and the six weights, of sum(out * upstream)."""
    tensors = [ad.parameter(a.copy()) for a in [x, *weights]]
    tape = ad.Tape()
    out = layer(tape, tensors[0], lengths, tuple(tensors[1:4]), tuple(tensors[4:]))
    ad.backward(tape, ad.sum_all(tape, ad.mul_const(tape, out, upstream)))
    return [out.data] + [t.grad for t in tensors]


@pytest.mark.parametrize(
    "B, T, D, H, lengths",
    [
        (1, 1, 3, 4, [1]),
        (1, 9, 3, 32, [9]),
        (3, 1, 5, 4, [1, 1, 1]),
        (4, 12, 3, 32, [12, 1, 7, 12]),
        (16, 35, 64, 32, list(range(35, 3, -2))),
        (2, 20, 64, 512, [20, 1]),
    ],
)
def test_bidirectional_lstm_matches_three_op_layer(B, T, D, H, lengths):
    rng = np.random.default_rng(B * 1000 + T)
    lengths = np.array(lengths)
    x = rng.normal(size=(B, T, D))
    for bi, n in enumerate(lengths):
        x[bi, n:] = 0.0  # padding, as the pipeline pads
    weights = [
        a
        for _ in ("fw", "bw")
        for a in (rng.normal(scale=0.5, size=(D, 4 * H)), rng.normal(scale=0.3, size=(H, 4 * H)), rng.normal(size=4 * H))
    ]
    upstream = rng.normal(size=(B, T, 2 * H))
    got = _layer_bits(ad.lstm, x, lengths, weights, upstream)
    expected = _layer_bits(ref.bidirectional_lstm, x, lengths, weights, upstream)
    for name, g, e in zip(["out", "x", "fw.wx", "fw.wh", "fw.b", "bw.wx", "bw.wh", "bw.b"], got, expected):
        assert g.tobytes() == e.tobytes(), name


def _ragged_layer(rng, B, T, D, H, lengths, scale=1.0):
    """Padded input x and the six (fw, bw) weights of one layer."""
    x = rng.normal(size=(B, T, D))
    for bi, n in enumerate(lengths):
        x[bi, n:] = 0.0
    weights = [
        a
        for _ in ("fw", "bw")
        for a in (rng.normal(scale=0.5 * scale, size=(D, 4 * H)), rng.normal(scale=0.3, size=(H, 4 * H)), rng.normal(size=4 * H))
    ]
    return x, weights


@pytest.mark.parametrize("requires_grad", [False, True], ids=["constants", "parameters"])
def test_unrecorded_lstm_matches_recorded_and_three_op_layer(requires_grad):
    # an unrecorded call (no tape, or a tape and nothing that requires a
    # gradient) keeps no step history, and gives the same bits
    B, T, D, H = 4, 12, 3, 8
    lengths = np.array([12, 1, 7, 12])
    x, weights = _ragged_layer(np.random.default_rng(31), B, T, D, H, lengths)
    recorded = _layer_bits(ad.lstm, x, lengths, weights, np.ones((B, T, 2 * H)))[0]
    expected = _layer_bits(ref.bidirectional_lstm, x, lengths, weights, np.ones((B, T, 2 * H)))[0]
    tensors = [ad.Tensor(a.copy(), requires_grad) for a in [x, *weights]]
    untaped = ad.lstm(None, tensors[0], lengths, tuple(tensors[1:4]), tuple(tensors[4:]))
    consts = [ad.constant(a.copy()) for a in [x, *weights]]
    tape = ad.Tape()
    inert = ad.lstm(tape, consts[0], lengths, tuple(consts[1:4]), tuple(consts[4:]))
    assert len(tape) == 0 and not untaped.requires_grad and not inert.requires_grad
    for out in (untaped, inert):
        assert out.data.tobytes() == recorded.tobytes() == expected.tobytes()


def test_saturating_lstm_bit_exact_without_warnings():
    # input weights scaled so that gate pre-activations pass +-709: exp(-z)
    # overflows to inf and the sigmoid saturates to exactly 0.0, silently
    B, T, D, H = 3, 9, 3, 4
    lengths = np.array([9, 4, 6])
    rng = np.random.default_rng(32)
    x, weights = _ragged_layer(rng, B, T, D, H, lengths, scale=2000.0)
    z0 = np.stack([x @ weights[0] + weights[2], x @ weights[3] + weights[5]])
    assert z0.min() < -709.0 and z0.max() > 709.0
    upstream = rng.normal(size=(B, T, 2 * H))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _layer_bits(ad.lstm, x, lengths, weights, upstream)
        consts = [ad.constant(a) for a in [x, *weights]]
        untaped = ad.lstm(None, consts[0], lengths, tuple(consts[1:4]), tuple(consts[4:]))
        expected = _layer_bits(ref.bidirectional_lstm, x, lengths, weights, upstream)
    assert untaped.data.tobytes() == got[0].tobytes()
    for name, g, e in zip(["out", "x", "fw.wx", "fw.wh", "fw.b", "bw.wx", "bw.wh", "bw.b"], got, expected):
        assert np.all(np.isfinite(g)), name
        assert g.tobytes() == e.tobytes(), name


def _nchw(a):
    return np.ascontiguousarray(a.transpose(0, 3, 1, 2))


def _nhwc(a):
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


def _close(got, expected, name):
    """Equal to within 1e-12 of the largest entry of the expected array."""
    assert got.shape == expected.shape, name
    assert np.abs(got - expected).max(initial=0.0) <= 1e-12 * np.abs(expected).max(initial=0.0), name


def _op_bits(op, channels_first, x, *operands, upstream):
    """Output and the gradients of x and the operands, of sum(out * upstream).

    x, upstream and the output are channels-last here; with channels_first
    the op sees them as (B, C, H, W).
    """
    to, back = (_nchw, _nhwc) if channels_first else (np.ascontiguousarray, np.ascontiguousarray)
    tensors = [ad.parameter(to(x))] + [ad.parameter(a.copy()) for a in operands]
    tape = ad.Tape()
    out = op(tape, *tensors)
    ad.backward(tape, ad.sum_all(tape, ad.mul_const(tape, out, to(upstream) if upstream.ndim == 4 else upstream)))
    grads = [back(tensors[0].grad)] + [t.grad for t in tensors[1:]]
    return (back(out.data) if out.data.ndim == 4 else out.data), grads


def _same_conv(x, w, b, upstream):
    """conv2d against the NCHW reference (out, dx, dw and db to within
    1e-12) and against a second call of itself, bit for bit."""
    out, grads = _op_bits(ad.conv2d, False, x, w, b, upstream=upstream)
    ref_out, ref_grads = _op_bits(ref.conv2d, True, x, w, b, upstream=upstream)
    again, again_grads = _op_bits(ad.conv2d, False, x, w, b, upstream=upstream)
    names = ["out", "x", "w", "b"]
    for name, got, expected, repeat in zip(names, [out, *grads], [ref_out, *ref_grads], [again, *again_grads]):
        assert got.tobytes() == repeat.tobytes(), name
        # (k, k, C) columns and chunked GEMMs reorder the forward and dw
        # dot products; dx's per-tap product is a GEMV at C=1, and db one
        # GEMV over the output gradient's rows
        _close(got, expected, name)


@settings(max_examples=100, deadline=None)
@given(
    k=st.sampled_from([1, 3, 5]),
    C=st.integers(1, 8),
    O=st.integers(1, 8),
    B=st.integers(1, 3),
    H=st.integers(1, 9),
    W=st.integers(1, 9),
    seed=st.integers(0, 2**16),
    per_chunk=st.integers(0, 3),
    spare=st.floats(0.0, 0.99),
)
def test_conv2d_matches_channels_first(k, C, O, B, H, W, seed, per_chunk, spare):
    # the im2col budget fits per_chunk whole images and a drawn part of
    # another, so chunk boundaries fall between images, the last chunk may
    # be short, and a budget below one image still takes one per chunk
    rng = np.random.default_rng(seed)
    x, w, b = rng.normal(size=(B, H, W, C)), rng.normal(size=(O, C, k, k)), rng.normal(size=O)
    upstream = rng.normal(size=(B, H, W, O))
    image = H * W * k * k * C
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "_COL_BUDGET", int((per_chunk + spare) * image))
        _same_conv(x, w, b, upstream)


@pytest.mark.parametrize("C", [1, 8])
def test_conv2d_matches_channels_first_across_chunks_at_desk_size(C):
    # five 64x64 images under the default budget: chunks of three and two
    # at C=1, one image each at C=8
    B, H, W, O, k = 5, 64, 64, 8, 3
    assert ad._COL_BUDGET // (H * W * k * k * C) < B
    rng = np.random.default_rng(C)
    x, w, b = rng.normal(size=(B, H, W, C)), rng.normal(size=(O, C, k, k)), rng.normal(size=O)
    _same_conv(x, w, b, rng.normal(size=(B, H, W, O)))


@settings(max_examples=100, deadline=None)
@given(
    k=st.sampled_from([1, 3, 5, 7]),
    C=st.integers(1, 8),
    O=st.integers(1, 8),
    B=st.integers(1, 3),
    H=st.integers(1, 9),
    W=st.integers(1, 9),
    seed=st.integers(0, 2**16),
)
def test_conv2d_dx_matches_tap_stack(k, C, O, B, H, W, seed):
    # per-tap GEMMs added at clipped shifts give the stacked taps' bits,
    # kernels wider than the image included
    rng = np.random.default_rng(seed)
    x, w, b = rng.normal(size=(B, H, W, C)), rng.normal(size=(O, C, k, k)), rng.normal(size=O)
    upstream = rng.normal(size=(B, H, W, O))
    _, grads = _op_bits(ad.conv2d, False, x, w, b, upstream=upstream)
    assert grads[0].tobytes() == ref.conv2d_dx_tap_stack(upstream, w).tobytes()


@pytest.mark.parametrize("B, H, C, O", [(16, 32, 8, 16), (16, 16, 16, 32), (5, 9, 3, 4)])
def test_conv2d_dx_same_bits_for_every_chunk_of_images(B, H, C, O):
    # each image's taps are summed in tap order whatever the chunk, so
    # every dx budget gives the whole-batch tap stack's bits
    rng = np.random.default_rng(B * H + C)
    x, w, b = rng.normal(size=(B, H, H, C)), rng.normal(size=(O, C, 3, 3)), rng.normal(size=O)
    upstream = rng.normal(size=(B, H, H, O))
    expected = ref.conv2d_dx_tap_stack(upstream, w).tobytes()
    for images in (1, 2, 3, 4, B):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ad, "_DX_BUDGET", images * H * H * C)
            _, grads = _op_bits(ad.conv2d, False, x, w, b, upstream=upstream)
        assert grads[0].tobytes() == expected, images


def _support_conv_bits(values, support, shape, w, b, upstream):
    """conv2d_support's output and the gradients of values, w and b, of sum(out * upstream)."""
    x, wt, bt = ad.parameter(values.copy()), ad.parameter(w.copy()), ad.parameter(b.copy())
    tape = ad.Tape()
    out = ad.conv2d_support(tape, x, support, shape, wt, bt)
    ad.backward(tape, ad.sum_all(tape, ad.mul_const(tape, out, upstream)))
    return out.data, x.grad, wt.grad, bt.grad


def _same_support_conv(support, shape, O, k, seed):
    """conv2d_support on a support against the NCHW reference on the dense
    image rebuilt from it: the output everywhere, dw, db and dx on the
    support to within 1e-12 of the largest reference entry (the bound
    was set before the op was first measured), and against a second call
    of itself bit for bit."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=len(support))
    w, b = rng.normal(size=(O, 1, k, k)), rng.normal(size=O)
    upstream = rng.normal(size=(*shape, O))
    got = _support_conv_bits(values, support, shape, w, b, upstream)
    again = _support_conv_bits(values, support, shape, w, b, upstream)
    assert all(a.tobytes() == c.tobytes() for a, c in zip(got, again))
    dense = densify(values, support, shape)[..., None]
    ref_out, (ref_dx, ref_dw, ref_db) = _op_bits(ref.conv2d, True, dense, w, b, upstream=upstream)
    out, dx, dw, db = got
    _close(out, ref_out, "out")
    _close(dw, ref_dw, "w")
    _close(db, ref_db, "b")
    _close(dx, ref_dx.reshape(-1)[support], "x")


def _border_support(B, H, W):
    """The first and last rows and columns of every item: windows there
    reach the padding, across a row end and across an item boundary."""
    mask = np.zeros((B, H, W), dtype=bool)
    mask[:, [0, -1], :] = True
    mask[:, :, [0, -1]] = True
    return np.flatnonzero(mask)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("kind", ["empty", "full", "borders"])
def test_conv2d_support_matches_channels_first(kind, B, k):
    H, W = 7, 6
    support = {
        "empty": np.zeros(0, dtype=np.intp),
        "full": np.arange(B * H * W),
        "borders": _border_support(B, H, W),
    }[kind]
    _same_support_conv(support, (B, H, W), 5, k, B * 10 + k)


@settings(max_examples=100, deadline=None)
@given(
    k=st.sampled_from([1, 3, 5]),
    O=st.integers(1, 8),
    B=st.sampled_from([1, 3]),
    H=st.integers(1, 9),
    W=st.integers(1, 9),
    density=st.sampled_from([0.0, 0.1, 0.4, 1.0]),
    borders=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_conv2d_support_matches_channels_first_on_drawn_supports(k, O, B, H, W, density, borders, seed):
    # canvases narrower than the kernel included
    mask = np.random.default_rng(seed).random(B * H * W) < density
    if borders:
        mask[_border_support(B, H, W)] = True
    _same_support_conv(np.flatnonzero(mask), (B, H, W), O, k, seed)


def test_conv2d_support_matches_channels_first_on_desk_rasters():
    cfg = desk_config(6)
    ds = synth_dataset(3, 0)
    sketches = [prepare_sketch(it.sketch, cfg) for it in ds.items[:16]]
    attn = np.random.default_rng(2).uniform(0.1, 1.0, size=(16, max(sk.n for sk in sketches)))
    _, support, _ = _rasterize_batch(None, ad.constant(attn), sketches, cfg.raster)
    assert 0 < len(support) < 0.2 * 16 * 64 * 64
    _same_support_conv(support, (16, 64, 64), 8, 3, 0)


def _pool_relu_bits(x, f, upstream, reference=False):
    """maxpool_relu's output and dx, or the channels-first reference's
    relu then argmax pool. Where a window's max is <= 0, the reference's
    relu mask writes g*0 into its first maximum: -0.0 for a negative g
    (hence the + 0.0 that compares) and NaN for an infinite one, where
    maxpool_relu leaves +0.0."""
    if reference:
        out, (dx,) = _op_bits(lambda t, a: ref.maxpool2d(t, ref.relu(t, a), f), True, x, upstream=upstream)
    else:
        out, (dx,) = _op_bits(lambda t, a: ad.maxpool_relu(t, a, f), False, x, upstream=upstream)
    return out, dx


@settings(max_examples=200, deadline=None)
@given(
    f=st.integers(1, 3),
    C=st.integers(1, 8),
    B=st.integers(1, 3),
    H=st.integers(1, 10),
    W=st.integers(1, 10),
    seed=st.integers(0, 2**16),
)
def test_maxpool2d_and_global_avg_pool_match_channels_first(f, C, B, H, W, seed):
    # values from a grid of four make tied windows common; cropped tails
    # and canvases smaller than a window are drawn too
    rng = np.random.default_rng(seed)
    x = rng.choice([-1.0, 0.0, 0.5, 1.0], size=(B, H, W, C))
    upstream = rng.normal(size=(B, H // f, W // f, C))
    out, dx = _pool_relu_bits(x, f, upstream)
    ref_out, ref_dx = _pool_relu_bits(x, f, upstream, reference=True)
    assert out.tobytes() == ref_out.tobytes()
    assert dx.tobytes() == (ref_dx + 0.0).tobytes()
    g = rng.normal(size=(B, C))
    mean, (dx,) = _op_bits(ad.global_avg_pool, False, x, upstream=g)
    ref_mean, (ref_dx,) = _op_bits(ref.global_avg_pool, True, x, upstream=g)
    assert mean.tobytes() == ref_mean.tobytes()
    assert dx.tobytes() == ref_dx.tobytes()


def test_maxpool_tied_window_sends_gradient_to_first_cell():
    x = np.ones((1, 4, 6, 2))
    x[0, 2:, :2] = [[[-1.0, 3.0], [3.0, 3.0]], [[3.0, -1.0], [3.0, 3.0]]]  # ties within one window
    upstream = np.arange(1.0, 13.0).reshape(1, 2, 3, 2)
    _, dx = _pool_relu_bits(x, 2, upstream)
    _, ref_dx = _pool_relu_bits(x, 2, upstream, reference=True)
    assert dx.tobytes() == ref_dx.tobytes()
    expected = np.zeros_like(x)
    expected[0, ::2, ::2] = upstream[0]
    expected[0, 2, 0, 0], expected[0, 2, 1, 0] = 0.0, upstream[0, 1, 0, 0]  # the first 3 of channel 0
    assert dx.tobytes() == expected.tobytes()


def test_maxpool_inf_gradient_leaves_other_cells_at_zero():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 5, 5, 3))
    upstream = rng.normal(size=(2, 2, 2, 3))
    upstream[0, 1, 0, 2], upstream[1, 0, 1, 0] = np.inf, -np.inf
    with np.errstate(invalid="ignore"):  # the reference's inf * 0
        out, dx = _pool_relu_bits(x, 2, upstream)
        _, ref_dx = _pool_relu_bits(x, 2, upstream, reference=True)
    # the -inf falls on a window whose max is negative: the reference's
    # relu mask makes it NaN there, maxpool_relu sends nothing
    assert out[1, 0, 1, 0] == 0.0 and np.isnan(ref_dx).sum() == 1
    assert dx.tobytes() == np.where(np.isnan(ref_dx), 0.0, ref_dx + 0.0).tobytes()
    assert not np.isnan(dx).any()
    assert np.count_nonzero(dx) == np.count_nonzero(out) > 0
    assert np.isinf(dx).sum() == 1


def _cnn_bits(forward, images, params, cfg, upstream):
    """Logits and the gradients of every parameter and the images, of sum(logits * upstream)."""
    tensors = {name: ad.parameter(p.data.copy()) for name, p in params.items()}
    image = ad.parameter(images.copy())
    tape = ad.Tape()
    logits = forward(tape, image, tensors, cfg)
    ad.backward(tape, ad.sum_all(tape, ad.mul_const(tape, logits, upstream)))
    return logits.data, {name: t.grad for name, t in tensors.items()}, image.grad


def _same_cnn(images, cfg, seed):
    """The CNN on (B, H, W, 1) images, passed with every pixel in the
    support, against the NCHW one on the same bytes: logits and every
    gradient to within 1e-12."""
    rng = np.random.default_rng(seed)
    params = init_cnn_params(rng, cfg)
    upstream = rng.normal(size=(images.shape[0], cfg.num_classes))
    values, support, shape = full_support(images)

    def forward(tape, x, tensors, cfg):
        return cnn_forward_batch(tape, x, support, shape, tensors, cfg)

    logits, grads, dimage = _cnn_bits(forward, values, params, cfg, upstream)
    B, H, W, _ = images.shape
    ref_logits, ref_grads, ref_dimage = _cnn_bits(ref.cnn_forward_batch, images.reshape(B, 1, H, W), params, cfg, upstream)
    _close(logits, ref_logits, "logits")
    for name in ref_grads:
        _close(grads[name], ref_grads[name], name)
    _close(dimage.reshape(B, H, W, 1), ref_dimage.reshape(B, H, W, 1), "images")


def test_cnn_matches_channels_first_on_desk_rasters():
    cfg = desk_config(6)
    ds = synth_dataset(3, 0)
    sketches = [prepare_sketch(it.sketch, cfg) for it in ds.items[:16]]
    attn = np.random.default_rng(1).uniform(0.1, 1.0, size=(16, max(sk.n for sk in sketches)))
    values, support, _ = _rasterize_batch(ad.Tape(), ad.constant(attn), sketches, cfg.raster)
    images = densify(values.data, support, (16, 64, 64))[..., None]
    assert images.shape == (16, 64, 64, 1)
    _same_cnn(images, cfg.cnn, 0)
    _same_cnn(images[3:4], cfg.cnn, 1)


_cnn_stages = st.lists(st.integers(1, 8), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(
    stages=_cnn_stages,
    extra=st.tuples(st.integers(0, 6), st.integers(0, 6)),
    B=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_cnn_matches_channels_first_on_drawn_shapes(stages, extra, B, seed):
    # the canvas is the least one every stage can pool plus a drawn
    # margin, so pooling crops tails; sparse images leave tied windows of
    # background
    need = 2 ** len(stages)
    H, W = need + extra[0], need + extra[1]
    rng = np.random.default_rng(seed)
    images = rng.uniform(0.0, 1.0, size=(B, H, W, 1)) * (rng.random((B, H, W, 1)) < 0.4)
    _same_cnn(images, CnnConfig(stages=tuple(stages), num_classes=3), seed)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    lengths=st.lists(st.integers(1, 900), min_size=1, max_size=3),
    size=st.sampled_from([(64.0, 64.0), (224.0, 224.0), (32, 48), (6, 6)]),
    p=st.sampled_from([0.0, 0.15, 1.0]),
)
def test_random_walk_matches_loop(seed, lengths, size, p):
    # walks share one rng, so each must leave it where the loop did
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in lengths:
        _same_sketch(random_sketch(rng, n, *size, p), ref.random_sketch(ref_rng, n, *size, p))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
