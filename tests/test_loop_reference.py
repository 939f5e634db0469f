"""The vectorised sketch constructor, stroke slices and segment table
agree bit for bit with the per-point loops in loop_reference.py.

Rows come from a small coordinate grid (signed zero included), so
consecutive duplicates, duplicate runs across stroke ends and one-point
strokes are common.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import loop_reference as ref
from sketchattn.geometry import stroke_slices, validate_and_normalize
from sketchattn.raster import segment_table

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
@given(rows=_rows, discs=st.booleans())
def test_segment_table_and_slices_match_loop(rows, discs):
    sk = ref.validate_and_normalize(rows)
    assert stroke_slices(sk) == ref.stroke_slices(sk)
    got, expected = segment_table(sk, discs), ref.segment_table(sk, discs)
    assert got.start.dtype == expected.start.dtype == np.int32
    assert got.end.dtype == expected.end.dtype == np.int32
    assert got.start.tolist() == expected.start.tolist()
    assert got.end.tolist() == expected.end.tolist()
