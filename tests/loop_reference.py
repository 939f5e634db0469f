"""Per-point loop implementations of the sketch constructor and the
segment table, kept from before both were vectorised (the segment table
has since lost its switch for point discs, which are always drawn).

tests/test_loop_reference.py checks the numpy versions in the package
against these loops. The raster oracle cannot catch a segment table change
on its own, because it builds its entities with ``segment_table`` too.
"""

import numpy as np

from sketchattn.errors import EmptySketchError, NonFiniteCoordinateError
from sketchattn.geometry import VectorSketch
from sketchattn.raster import SegmentTable


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
