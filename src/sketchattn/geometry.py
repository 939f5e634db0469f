"""The vector sketch type, the canvas transform, and point-to-segment distance.

A sketch is an ordered sequence of points (x, y, s). The binary state s
marks stroke structure: s=0 means a line segment connects the point to its
successor, s=1 means the point ends its stroke. :class:`VectorSketch`'s
constructor is the one way to build a sketch, and it enforces the
invariants every consumer relies on: at least one point, finite
coordinates, states in {0, 1}, no point that repeats its in-stroke
predecessor, and a final state of 1. :func:`validate_and_normalize` reads
JSON rows or an (n, 3) array into it. A sketch is immutable after
construction and every operation is a pure function.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import (
    EmptySketchError,
    InvalidCanvasError,
    InvalidStrokeStateError,
    MalformedPointsError,
    NonFiniteCoordinateError,
)

CANVAS_MARGIN = 4.0  # pixels kept clear on every side of a canvas


class VectorSketch:
    """Ordered point sequence grouped into strokes by end-of-stroke states.

    Built from xy (n, 2) and s (n,), copied and frozen. A shape other than
    that raises MalformedPointsError, no points EmptySketchError, a NaN or
    infinite coordinate NonFiniteCoordinateError, and a state other than 0
    or 1 InvalidStrokeStateError. A point that repeats its predecessor's
    (x, y) within a stroke (predecessor state 0) is merged into it, and the
    kept point takes the state of the last point of its run, so a duplicate
    that ends a stroke still ends it. The final state is forced to 1.
    """

    __slots__ = ("xy", "s")

    def __init__(self, xy: np.ndarray, s: np.ndarray):
        xy = np.array(xy, dtype=np.float64, order="C")  # own copy, frozen below
        s = np.asarray(s)
        if xy.ndim != 2 or xy.shape[1] != 2 or s.shape != (xy.shape[0],):
            raise MalformedPointsError(
                f"a sketch needs xy of shape (n, 2) and s of shape (n,), got {xy.shape} and {s.shape}"
            )
        if xy.shape[0] == 0:
            raise EmptySketchError("a sketch needs at least one point")
        if not np.isfinite(xy).all():
            raise NonFiniteCoordinateError("sketch contains NaN or infinite coordinates")
        if not ((s == 0) | (s == 1)).all():
            raise InvalidStrokeStateError("stroke states must be 0 or 1")
        s = s.astype(np.int8)  # a copy
        repeats = (s[:-1] == 0) & (xy[1:] == xy[:-1]).all(axis=1)
        if repeats.any():
            s = s[np.append(~repeats, True)]  # each run keeps its last state...
            xy = xy[np.insert(~repeats, 0, True)]  # ...at its first point
        s[-1] = 1
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


def ragged_points(sketches: list[VectorSketch]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ragged layout of several sketches: xy (N, 2) and s (N,), their
    points concatenated in order, and offsets (len(sketches) + 1,), so
    sketch k holds points offsets[k]:offsets[k + 1]. Every sketch ends
    with s == 1, so no stroke spans two sketches. At least one sketch."""
    offsets = np.array([0, *itertools.accumulate(sk.n for sk in sketches)], dtype=np.intp)
    if len(sketches) == 1:  # one sketch is laid out already; its arrays are read-only
        return sketches[0].xy, sketches[0].s, offsets
    return np.concatenate([sk.xy for sk in sketches]), np.concatenate([sk.s for sk in sketches]), offsets


def _point_array(points) -> np.ndarray:
    """An (n, 3) array of numbers as float64; anything else is a typed error.
    Nested rows (JSON) are checked value by value: numpy reads a boolean
    among numbers as 0 or 1."""
    try:
        arr = points
        if not isinstance(points, np.ndarray):
            arr = np.array(points, dtype=object)
            numbers = (int, float, np.integer, np.floating)
            if all(isinstance(v, numbers) and not isinstance(v, bool) for v in arr.flat):
                arr = arr.astype(np.float64)
    except (ValueError, OverflowError) as exc:  # ragged rows, or an integer beyond the float range
        raise MalformedPointsError(f"points are not an (n, 3) array of numbers: {exc}") from exc
    if arr.ndim >= 1 and arr.shape[0] == 0:
        raise EmptySketchError("no points provided")
    if arr.ndim != 2 or arr.shape[1] != 3 or arr.dtype.kind not in "iuf":
        raise MalformedPointsError(f"points must be an (n, 3) array of numbers, got {arr.dtype} {arr.shape}")
    return arr.astype(np.float64, copy=False)


def validate_and_normalize(points) -> VectorSketch:
    """Build a VectorSketch from an (n, 3) array-like of (x, y, s) rows,
    JSON rows and ndarrays alike."""
    arr = _point_array(points)
    return VectorSketch(arr[:, :2], arr[:, 2])


def normalize_to_canvas(sketch: VectorSketch, width: int, height: int, pad: float = CANVAS_MARGIN) -> VectorSketch:
    """Uniformly scale and center a sketch into [pad, dim-1-pad] per axis.

    Aspect ratio is preserved. An axis whose extent is zero, or under
    2^-1000 of its target (the scale would overflow), sets no scale; when
    neither axis sets one, every point maps to the canvas center. In-stroke
    neighbours that land on one point merge, as in every VectorSketch.
    Idempotent. pad must be finite and non-negative.
    """
    if not (np.isfinite(pad) and pad >= 0):
        raise InvalidCanvasError(f"pad must be finite and non-negative, got {pad}")
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
    return VectorSketch(xy, sketch.s)


def stroke_slices(sketch: VectorSketch) -> list[tuple[int, int]]:
    """Half-open [start, end) point index ranges, one per stroke."""
    ends = np.flatnonzero(sketch.s == 1) + 1
    starts = np.concatenate(([0], ends[:-1]))
    return list(zip(starts.tolist(), ends.tolist()))


def segment_projection(relx, rely, vx, vy):
    """Clamped projection of points onto closed segments: (t, d2).

    relx, rely: point minus segment start; vx, vy: segment end minus start;
    any broadcastable shapes. t in [0, 1] is the projection parameter of
    the nearest segment point, d2 the squared distance to it. A degenerate
    segment (vx² + vy² == 0) projects to t = 0, its start.
    """
    L2 = vx * vx + vy * vy
    num = relx * vx + rely * vy
    t = np.divide(num, L2, out=np.zeros_like(num), where=L2 > 0.0)
    t = np.minimum(np.maximum(t, 0.0), 1.0)
    dx = relx - t * vx
    dy = rely - t * vy
    return t, dx * dx + dy * dy
