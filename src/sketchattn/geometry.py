"""The vector sketch type, its one validating constructor, and the canvas
transform.

A sketch is an ordered sequence of points (x, y, s). The binary state s
marks stroke structure: s=0 means a line segment connects the point to its
successor, s=1 means the point ends its stroke. Every producer builds its
sketch through :func:`validate_and_normalize` from an (n, 3) array; a
sketch is immutable after construction and every operation is a pure
function.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    EmptySketchError,
    InvalidCanvasError,
    InvalidStrokeStateError,
    MalformedPointsError,
    NonFiniteCoordinateError,
)


class VectorSketch:
    """Ordered point sequence grouped into strokes by end-of-stroke states.

    Invariants (enforced by :func:`validate_and_normalize`):
    the final point has s=1, all coordinates are finite, and no two
    consecutive points within a stroke share identical (x, y).
    """

    __slots__ = ("xy", "s")

    def __init__(self, xy: np.ndarray, s: np.ndarray):
        xy = np.ascontiguousarray(xy, dtype=np.float64)
        s = np.ascontiguousarray(s, dtype=np.int8)
        if xy.ndim != 2 or xy.shape[1] != 2 or s.shape != (xy.shape[0],):
            raise ValueError("VectorSketch needs xy of shape (n, 2) and s of shape (n,)")
        if xy.shape[0] == 0:
            raise EmptySketchError("a sketch needs at least one point")
        xy.flags.writeable = False
        s.flags.writeable = False
        self.xy = xy
        self.s = s

    def __len__(self) -> int:
        return self.xy.shape[0]

    @property
    def n(self) -> int:
        return self.xy.shape[0]

    def __repr__(self) -> str:
        return f"VectorSketch(n={self.n}, strokes={len(stroke_slices(self))})"


def _point_array(points) -> np.ndarray:
    """An (n, 3) array of numbers as float64; anything else is a typed error."""
    try:
        arr = np.asarray(points)
        if arr.dtype == object and all(type(v) in (int, float) for v in arr.flat):
            arr = arr.astype(np.float64)  # JSON integers beyond int64 arrive as Python ints
    except (ValueError, OverflowError) as exc:  # ragged rows, or an integer beyond the float range
        raise MalformedPointsError(f"points are not an (n, 3) array of numbers: {exc}") from exc
    if arr.ndim >= 1 and arr.shape[0] == 0:
        raise EmptySketchError("no points provided")
    if arr.ndim != 2 or arr.shape[1] != 3 or arr.dtype.kind not in "iuf":
        raise MalformedPointsError(f"points must be an (n, 3) array of numbers, got {arr.dtype} {arr.shape}")
    return arr.astype(np.float64, copy=False)


def validate_and_normalize(points) -> VectorSketch:
    """Build a VectorSketch from an (n, 3) array-like of (x, y, s) rows.

    JSON rows and ndarrays alike. A point that repeats its predecessor's
    (x, y) within a stroke (predecessor state 0) is merged into it, and
    the kept point takes the state of the last point of its run, so a
    duplicate that ends a stroke still ends it. The final state is forced
    to 1.
    """
    arr = _point_array(points)
    xy, s = arr[:, :2], arr[:, 2]
    if not np.all(np.isfinite(xy)):
        raise NonFiniteCoordinateError("sketch contains NaN or infinite coordinates")
    if not np.all((s == 0) | (s == 1)):
        raise InvalidStrokeStateError("stroke states must be 0 or 1")
    keep = np.ones(len(arr), dtype=bool)
    keep[1:] = (s[:-1] != 0) | np.any(xy[1:] != xy[:-1], axis=1)
    ends_run = np.append(keep[1:], True)
    kept_s = s[ends_run].astype(np.int8)
    kept_s[-1] = 1
    return VectorSketch(xy[keep], kept_s)


def normalize_to_canvas(sketch: VectorSketch, width: int, height: int, pad: float = 4.0) -> VectorSketch:
    """Uniformly scale and center a sketch into [pad, dim-1-pad] per axis.

    Aspect ratio is preserved. An axis whose extent is zero, or under
    2^-1000 of its target (the scale would overflow), sets no scale; when
    neither axis sets one, every point maps to the canvas center.
    Idempotent.
    """
    if width <= 2 * pad or height <= 2 * pad:
        raise InvalidCanvasError(f"canvas {width}x{height} too small for pad {pad}")
    lo = sketch.xy.min(axis=0)
    hi = sketch.xy.max(axis=0)
    half_extent = hi / 2.0 - lo / 2.0  # hi - lo overflows near the float limit
    center_canvas = np.array([(width - 1) / 2.0, (height - 1) / 2.0])
    half_target = np.array([(width - 1) - 2.0 * pad, (height - 1) - 2.0 * pad]) / 2.0

    scales = [
        half_target[k] / half_extent[k] for k in range(2) if half_extent[k] > half_target[k] * 2.0**-1000
    ]
    if not scales:
        xy = np.tile(center_canvas, (sketch.n, 1))
    else:
        scale = min(scales)
        center_box = lo / 2.0 + hi / 2.0  # (lo + hi) / 2 overflows near the float limit
        xy = (sketch.xy - center_box) * scale + center_canvas
    return VectorSketch(xy, sketch.s.copy())


def stroke_slices(sketch: VectorSketch) -> list[tuple[int, int]]:
    """Half-open [start, end) point index ranges, one per stroke."""
    ends = np.flatnonzero(sketch.s == 1) + 1
    starts = np.concatenate(([0], ends[:-1]))
    return list(zip(starts.tolist(), ends.tolist()))
