"""The vectorised sketch constructor, stroke slices, segment table and
RDP simplification agree bit for bit with the loops in loop_reference.py.

Rows come from a small coordinate grid (signed zero included), so
consecutive duplicates, duplicate runs across stroke ends, one-point
strokes and tied chord distances are common.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import loop_reference as ref
from sketchattn.geometry import stroke_slices, validate_and_normalize
from sketchattn.raster import segment_table
from sketchattn.simplify import SimplifyConfig, rdp_stroke, simplify_sketch

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
