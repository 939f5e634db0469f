"""Vector sketch domain types and the coordinate transforms built on them.

A sketch is an ordered sequence of points (x, y, s). The binary state s
marks stroke structure: s=0 means a line segment connects the point to its
successor, s=1 means the point ends its stroke. All types here are
immutable after construction and every operation is a pure function.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import EmptySketchError, InvalidCanvasError, NonFiniteCoordinateError

RawPoint = tuple[float, float, int]


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


class OffsetSketch:
    """Per-point (dx, dy) relative to the previous point, plus stroke states."""

    __slots__ = ("d", "s")

    def __init__(self, d: np.ndarray, s: np.ndarray):
        d = np.ascontiguousarray(d, dtype=np.float64)
        s = np.ascontiguousarray(s, dtype=np.int8)
        if d.ndim != 2 or d.shape[1] != 2 or s.shape != (d.shape[0],):
            raise ValueError("OffsetSketch needs d of shape (n, 2) and s of shape (n,)")
        d.flags.writeable = False
        s.flags.writeable = False
        self.d = d
        self.s = s

    def __len__(self) -> int:
        return self.d.shape[0]

    def as_array(self) -> np.ndarray:
        """(n, 3) float array [dx, dy, s], the RNN input encoding."""
        return np.column_stack([self.d, self.s.astype(np.float64)])


def validate_and_normalize(raw_points: Iterable[RawPoint | Sequence[float]]) -> VectorSketch:
    """Build a VectorSketch from raw (x, y, s) triples.

    Drops consecutive duplicate points within a stroke (keeping the later
    stroke state, so a duplicate that ends a stroke still ends it) and
    forces the final point's state to 1.
    """
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


def to_offsets(sketch: VectorSketch) -> OffsetSketch:
    """Absolute coordinates to per-point offsets; the first offset is (0, 0)."""
    d = np.zeros_like(sketch.xy)
    d[1:] = sketch.xy[1:] - sketch.xy[:-1]
    return OffsetSketch(d, sketch.s.copy())


def from_offsets(offsets: OffsetSketch, origin: tuple[float, float]) -> VectorSketch:
    """Inverse of :func:`to_offsets` given the absolute first point."""
    xy = np.cumsum(offsets.d, axis=0)
    xy += np.asarray(origin, dtype=np.float64)
    s = offsets.s.copy()
    s[-1] = 1
    return VectorSketch(xy, s)


def scale_offsets(offsets: OffsetSketch, factor: float) -> OffsetSketch:
    """Scale dx, dy by a constant; stroke states are untouched.

    Used to normalize offsets by the canvas width before they enter the RNN.
    """
    return OffsetSketch(offsets.d * factor, offsets.s.copy())


def normalize_to_canvas(sketch: VectorSketch, width: int, height: int, pad: float = 4.0) -> VectorSketch:
    """Uniformly scale and center a sketch into [pad, dim-1-pad] per axis.

    Aspect ratio is preserved. A degenerate bounding box (no extent on
    either axis) maps every point to the canvas center. Idempotent.
    """
    if width <= 2 * pad or height <= 2 * pad:
        raise InvalidCanvasError(f"canvas {width}x{height} too small for pad {pad}")
    lo = sketch.xy.min(axis=0)
    hi = sketch.xy.max(axis=0)
    extent = hi - lo
    center_canvas = np.array([(width - 1) / 2.0, (height - 1) / 2.0])
    target = np.array([(width - 1) - 2.0 * pad, (height - 1) - 2.0 * pad])

    scales = [target[k] / extent[k] for k in range(2) if extent[k] > 0.0]
    if not scales:
        xy = np.tile(center_canvas, (sketch.n, 1))
    else:
        scale = min(scales)
        center_box = lo / 2.0 + hi / 2.0  # (lo + hi) / 2 overflows near the float limit
        xy = (sketch.xy - center_box) * scale + center_canvas
    return VectorSketch(xy, sketch.s.copy())


def stroke_slices(sketch: VectorSketch) -> list[tuple[int, int]]:
    """Half-open [start, end) point index ranges, one per stroke."""
    ends = np.flatnonzero(sketch.s == 1)
    out = []
    start = 0
    for e in ends:
        out.append((start, int(e) + 1))
        start = int(e) + 1
    return out
