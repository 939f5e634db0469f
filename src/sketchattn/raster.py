"""Differentiable line rasterization of vector sketches with per-point attention.

Forward: every pixel whose center lies within epsilon of a segment gets an
intensity linearly interpolated between the attention values of the
segment's endpoints; the interpolation weight is the clamped projection
parameter of the pixel center onto the segment. Overlaps resolve by
painter's order: the temporally latest covering segment owns the pixel.
Ownership and weights depend on geometry alone; :func:`coverage` finds
them in one vectorised pass per sketch that hit-tests (entity, pixel)
candidates, the span of the stripe around each sloped entity's line in
each row of its box, in chunks of whole entities of about _PAIR_BUDGET
pairs.

Backward: intensity is linear in attention with coefficients (1 - alpha,
alpha) that depend only on geometry, so the exact adjoint is a scatter of
the incoming pixel gradients onto the two endpoint attentions.

Single-point strokes rasterize as epsilon-discs owned by a degenerate
segment whose gradient flows entirely to its one point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InvalidConfigError,
    LengthMismatchError,
    NonFiniteAttentionError,
    ShapeMismatchError,
    require_finite,
)
from .geometry import VectorSketch, segment_projection

# coverage hit-tests its (entity, pixel) candidates in chunks of whole
# entities holding about this many pairs, which bounds its transient memory
_PAIR_BUDGET = 2**14
# where coverage's span candidates are proven to hold every hit: |vy|/L
# above _FLAT_SLOPE, coordinates, canvas and eps within _SPAN_LIMIT
_FLAT_SLOPE = 2.0**-10
_SPAN_LIMIT = 2.0**24


@dataclass(frozen=True)
class RasterConfig:
    width: int = 224
    height: int = 224
    epsilon: float = 1.0

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise InvalidConfigError("canvas dimensions must be >= 1")
        require_finite(epsilon=self.epsilon)
        if self.epsilon <= 0:
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

    @cached_property
    def owned(self) -> np.ndarray:
        """Row-major flat indices of the owned pixels, computed once."""
        return np.flatnonzero(self.owner >= 0)

    @property
    def owned_pixel_count(self) -> int:
        return len(self.owned)


def segment_table(sketch: VectorSketch) -> SegmentTable:
    """Build the rasterization entity list in drawing order.

    Point i starts the segment (i, i + 1) when s[i] == 0; a point that both
    starts and ends its stroke adds the degenerate entry (i, i).
    """
    joined = sketch.s == 0
    entity = joined | np.concatenate(([True], sketch.s[:-1] == 1))  # joined or a stroke's first point
    start = np.flatnonzero(entity).astype(np.int32)
    return SegmentTable(start, start + joined[start].astype(np.int32))


def _check_inputs(sketch: VectorSketch, attention: np.ndarray) -> np.ndarray:
    a = np.asarray(attention, dtype=np.float64).reshape(-1)
    if a.shape[0] != sketch.n:
        raise LengthMismatchError(f"attention length {a.shape[0]} != sketch length {sketch.n}")
    if not np.isfinite(a).all():
        raise NonFiniteAttentionError("attention contains NaN or infinite values")
    return a


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., counts[k] - 1 for each k in turn, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def coverage(sketch: VectorSketch, config: RasterConfig) -> tuple[SegmentTable, np.ndarray, np.ndarray]:
    """Which entity owns each pixel, and its interpolation weight there.

    Returns (table, owner, alpha): owner is (H, W) int32, -1 where no
    entity covers the pixel; alpha is the clamped projection parameter of
    the pixel centre onto its owner, 0 where unowned. Both depend on
    geometry alone.

    An entity's box spans its end points widened by eps + 1 and clipped to
    the canvas; an entity whose box misses the canvas is dropped unmeasured.
    Each box row contributes a span of candidate pixels (below), every
    candidate is hit-tested with ``segment_projection`` and ``d2 < eps²``,
    and the highest entity index among a pixel's hits owns it. Candidates
    run through that test in chunks of whole entities of about
    ``_PAIR_BUDGET`` (entity, pixel) pairs, in entity order, so a later
    chunk's owners overwrite an earlier one's.

    A box row of a sloped entity offers only its crossing with the stripe
    within eps of the entity's infinite line (a segment is no nearer than
    its line), widened by one pixel on each side. A pixel centre outside
    that span lies at least |vy|/L > _FLAT_SLOPE beyond eps from the line,
    while rounding moves the span edges and the tested distance by under
    2^-14 px as long as coordinates, canvas and eps stay within
    ``_SPAN_LIMIT``. So the span holds every hit. Entities that are
    near-horizontal, degenerate (discs) or past that limit take whole box
    rows.
    """
    H, W, eps = config.height, config.width, config.epsilon
    eps_sq = eps * eps
    table = segment_table(sketch)
    owner = np.full(H * W, -1, dtype=np.int32)
    alpha = np.zeros(H * W, dtype=np.float64)

    p0, p1 = sketch.xy[table.start], sketch.xy[table.end]
    slack = eps + 1.0
    lo = np.maximum(np.floor(np.minimum(p0, p1) - slack), 0.0)  # clipped as floats: no cast overflows
    hi = np.minimum(np.ceil(np.maximum(p0, p1) + slack), [W - 1.0, H - 1.0])
    ent = np.flatnonzero(np.all(lo <= hi, axis=1))
    lo, hi, p0, p1 = lo[ent].astype(np.intp), hi[ent].astype(np.intp), p0[ent], p1[ent]
    x0, y0 = p0[:, 0], p0[:, 1]
    vx, vy = p1[:, 0] - x0, p1[:, 1] - y0

    length = np.sqrt(vx * vx + vy * vy)
    sloped = np.abs(vy) > length * _FLAT_SLOPE
    sloped &= np.maximum(np.abs(p0), np.abs(p1)).max(axis=1) <= _SPAN_LIMIT
    sloped &= max(W, H, eps) <= _SPAN_LIMIT
    half = np.zeros(len(ent))  # half the span's width along a row, one pixel of margin included
    half[sloped] = eps * length[sloped] / np.abs(vy[sloped]) + 1.0
    rows = hi[:, 1] - lo[:, 1] + 1
    width = hi[:, 0] - lo[:, 0] + 1
    cost = rows * np.where(sloped, np.minimum(width, 2.0 * half + 1.0), width)  # bounds the entity's pairs

    done = np.cumsum(cost)
    first = 0
    while first < len(ent):
        last = max(int(np.searchsorted(done, done[first] - cost[first] + _PAIR_BUDGET, "right")), first + 1)
        e = np.repeat(np.arange(first, last), rows[first:last])  # one (entity, row) each
        r = lo[e, 1] + _ranks(rows[first:last])
        c0, c1 = lo[e, 0], hi[e, 0]
        s = np.flatnonzero(sloped[e])
        es = e[s]
        x_line = x0[es] + vx[es] * ((r[s] + 0.5) - y0[es]) / vy[es]
        c0[s] = np.maximum(np.ceil(x_line - half[es] - 0.5), c0[s])
        c1[s] = np.minimum(np.floor(x_line + half[es] - 0.5), c1[s])
        n = np.maximum(c1 - c0 + 1, 0)
        e, r, c = np.repeat(e, n), np.repeat(r, n), np.repeat(c0, n) + _ranks(n)  # one (entity, pixel) each
        t, d2 = segment_projection((c + 0.5) - x0[e], (r + 0.5) - y0[e], vx[e], vy[e])
        hit = np.flatnonzero(d2 < eps_sq)
        pix, who = r[hit] * W + c[hit], ent[e[hit]].astype(np.int32)
        np.maximum.at(owner, pix, who)  # painter's order
        won = owner[pix] == who
        alpha[pix[won]] = t[hit[won]]
        first = last
    return table, owner.reshape(H, W), alpha.reshape(H, W)


def rasterize_forward(sketch: VectorSketch, attention, config: RasterConfig) -> AttentionMap:
    """Rasterize a canvas-space sketch with per-point attention values.

    The attention values may be any finite reals; the sigmoid range [0, 1]
    is a property of the attention head, not of this kernel.
    """
    a = _check_inputs(sketch, attention)
    table, owner, alpha = coverage(sketch, config)
    amap = AttentionMap(np.zeros(owner.shape, dtype=np.float64), owner, alpha, table)
    o = amap.owned
    ow = owner.reshape(-1)[o]
    alm = alpha.reshape(-1)[o]
    amap.intensities.reshape(-1)[o] = (1.0 - alm) * a[table.start[ow]] + alm * a[table.end[ow]]
    return amap


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
    o = amap.owned
    ow = amap.owner.reshape(-1)[o]
    al = amap.alpha.reshape(-1)[o]
    d = delta.reshape(-1)[o]
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
