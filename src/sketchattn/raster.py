"""Differentiable line rasterization of vector sketches with per-point attention.

Forward: every pixel whose center lies within epsilon of a segment gets an
intensity linearly interpolated between the attention values of the
segment's endpoints; the interpolation weight is the clamped projection
parameter of the pixel center onto the segment. Overlaps resolve by
painter's order: the temporally latest covering segment owns the pixel.

Backward: intensity is linear in attention with coefficients (1 - alpha,
alpha) that depend only on geometry, so the exact adjoint is a scatter of
the incoming pixel gradients onto the two endpoint attentions.

Single-point strokes rasterize as epsilon-discs owned by a degenerate
segment whose gradient flows entirely to its one point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, LengthMismatchError, NonFiniteAttentionError, ShapeMismatchError
from .geometry import VectorSketch


@dataclass(frozen=True)
class RasterConfig:
    width: int = 224
    height: int = 224
    epsilon: float = 1.0
    render_point_discs: bool = True

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise InvalidConfigError("canvas dimensions must be >= 1")
        if not (self.epsilon > 0):
            raise InvalidConfigError("epsilon must be > 0")


@dataclass(frozen=True)
class SegmentTable:
    """Point indices of each rasterized entity, in temporal order.

    Real segments have end == start + 1; a single-point stroke appears as
    a degenerate entry with end == start (rendered as an epsilon-disc).
    """

    start: np.ndarray  # (E,) int32
    end: np.ndarray  # (E,) int32

    def __len__(self) -> int:
        return self.start.shape[0]


@dataclass(frozen=True)
class AttentionMap:
    """Rasterized intensities plus the per-pixel provenance for the adjoint."""

    intensities: np.ndarray  # (H, W) float64
    owner: np.ndarray  # (H, W) int32, -1 where unowned
    alpha: np.ndarray  # (H, W) float64, meaningful only where owned
    table: SegmentTable
    config: RasterConfig

    @property
    def owned_pixel_count(self) -> int:
        return int(np.count_nonzero(self.owner >= 0))


def segment_table(sketch: VectorSketch, include_point_discs: bool = True) -> SegmentTable:
    """Build the rasterization entity list in drawing order.

    Point i starts the segment (i, i + 1) when s[i] == 0; with point discs,
    a point that both starts and ends its stroke adds the degenerate entry
    (i, i).
    """
    joined = sketch.s == 0
    entity = joined
    if include_point_discs:
        entity = joined | np.concatenate(([True], sketch.s[:-1] == 1))  # joined or a stroke's first point
    start = np.flatnonzero(entity).astype(np.int32)
    return SegmentTable(start, start + joined[start].astype(np.int32))


def _check_inputs(sketch: VectorSketch, attention: np.ndarray, config: RasterConfig) -> np.ndarray:
    a = np.asarray(attention, dtype=np.float64).reshape(-1)
    if a.shape[0] != sketch.n:
        raise LengthMismatchError(f"attention length {a.shape[0]} != sketch length {sketch.n}")
    if not np.isfinite(a).all():
        raise NonFiniteAttentionError("attention contains NaN or infinite values")
    return a


def rasterize_forward(sketch: VectorSketch, attention, config: RasterConfig) -> AttentionMap:
    """Rasterize a canvas-space sketch with per-point attention values.

    The attention values may be any finite reals; the sigmoid range [0, 1]
    is a property of the attention head, not of this kernel.
    """
    a = _check_inputs(sketch, attention, config)
    H, W = config.height, config.width
    eps_sq = config.epsilon * config.epsilon

    table = segment_table(sketch, config.render_point_discs)
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
        vx = x1 - x0
        vy = y1 - y0
        L2 = vx * vx + vy * vy
        relx = cx[None, :] - x0
        rely = cy[:, None] - y0
        if L2 > 0.0:
            t = (relx * vx + rely * vy) / L2
            al = np.minimum(np.maximum(t, 0.0), 1.0)
        else:
            al = np.zeros((r1 - r0 + 1, c1 - c0 + 1), dtype=np.float64)
        dx = relx - al * vx
        dy = rely - al * vy
        d2 = dx * dx + dy * dy
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
    return AttentionMap(intensities, owner, alpha, table, config)


def rasterize_backward(amap: AttentionMap, delta: np.ndarray, n_points: int) -> np.ndarray:
    """Adjoint of rasterize_forward w.r.t. the attention values.

    Each owned pixel scatters delta * (1 - alpha) to its segment's start
    point and delta * alpha to its end point; accumulation runs in fixed
    row-major pixel order.
    """
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != amap.owner.shape:
        raise ShapeMismatchError(f"delta shape {delta.shape} != raster shape {amap.owner.shape}")
    if len(amap.table) and n_points <= int(amap.table.end.max()):
        raise ShapeMismatchError("n_points too small for the provenance table")
    grad = np.zeros(n_points, dtype=np.float64)
    mask = amap.owner >= 0
    if mask.any():
        ow = amap.owner[mask]
        al = amap.alpha[mask]
        d = delta[mask]
        np.add.at(grad, amap.table.start[ow], d * (1.0 - al))
        np.add.at(grad, amap.table.end[ow], d * al)
    return grad


def order_ramp(n: int) -> np.ndarray:
    """Attention ramp 1 at the first point down to 0 at the last."""
    if n == 1:
        return np.ones(1, dtype=np.float64)
    return 1.0 - np.arange(n, dtype=np.float64) / (n - 1)


def write_pgm(grid: np.ndarray, path) -> None:
    """8-bit grayscale PGM; intensities scaled by 255 and rounded half-up."""
    g = np.asarray(grid, dtype=np.float64)
    levels = np.floor(g * 255.0 + 0.5)
    levels = np.clip(levels, 0, 255).astype(np.uint8)
    h, w = levels.shape
    header = f"P5\n# sketchattn-attention-map v1\n{w} {h}\n255\n".encode("ascii")
    with open(path, "wb") as f:
        f.write(header)
        f.write(levels.tobytes())


def write_grid_json(grid: np.ndarray, path) -> None:
    """Exact-valued JSON export of an intensity grid."""
    g = np.asarray(grid, dtype=np.float64)
    payload = {
        "format": "sketchattn-grid",
        "version": 1,
        "height": int(g.shape[0]),
        "width": int(g.shape[1]),
        "values": [[float(v) for v in row] for row in g],
    }
    with open(path, "w") as f:
        json.dump(payload, f)


def write_provenance_json(amap: AttentionMap, path) -> None:
    """Debug export of per-pixel ownership and interpolation weights."""
    payload = {
        "format": "sketchattn-provenance",
        "version": 1,
        "height": int(amap.owner.shape[0]),
        "width": int(amap.owner.shape[1]),
        "segments": {
            "start": [int(v) for v in amap.table.start],
            "end": [int(v) for v in amap.table.end],
        },
        "owner": [[int(v) for v in row] for row in amap.owner],
        "alpha": [[float(v) for v in row] for row in amap.alpha],
    }
    with open(path, "w") as f:
        json.dump(payload, f)
