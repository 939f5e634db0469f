"""Ramer-Douglas-Peucker stroke simplification with a sequence-length cap.

RDP here measures distance to the closed chord segment (clamped
projection). That makes the output bound exact: every discarded point
lies within epsilon of the edge that replaced it, hence within epsilon of
the simplified polyline. The infinite-line variant lacks that guarantee
for points projecting past a chord endpoint. A degenerate chord (closed
stroke, identical anchors) degrades to point distance to the anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError
from .geometry import VectorSketch, stroke_slices, validate_and_normalize

MAX_ESCALATIONS = 10
# chord arithmetic squares coordinate differences, which overflows once
# coordinates pass ~1e154; strokes beyond this bound are measured after an
# exact power-of-two rescale
_RESCALE_ABOVE = 2.0**500


@dataclass(frozen=True)
class SimplifyConfig:
    epsilon: float = 2.0
    max_points: int = 448
    escalation_factor: float = 1.5

    def __post_init__(self):
        if self.epsilon <= 0:
            raise InvalidConfigError("epsilon must be > 0")
        if self.max_points < 2:
            raise InvalidConfigError("max_points must be >= 2")
        if self.escalation_factor <= 1:
            raise InvalidConfigError("escalation_factor must be > 1")


def _chord_dist_sq(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distance of each point to the closed segment a-b.

    Degenerate chord (a == b): squared distance to a.
    """
    v = b - a
    L2 = float(v[0] * v[0] + v[1] * v[1])
    rel = pts - a
    if L2 == 0.0:
        return rel[:, 0] ** 2 + rel[:, 1] ** 2
    t = np.clip((rel[:, 0] * v[0] + rel[:, 1] * v[1]) / L2, 0.0, 1.0)
    dx = rel[:, 0] - t * v[0]
    dy = rel[:, 1] - t * v[1]
    return dx * dx + dy * dy


def rdp_stroke(points, epsilon: float) -> np.ndarray:
    """Simplify one polyline; returns the kept points as an (k, 2) array.

    The first and last points are always retained. Ties in the maximum
    deviation go to the earliest point, which makes the algorithm
    idempotent.
    """
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
        interior = work[first + 1 : last]
        d2 = _chord_dist_sq(interior, work[first], work[last])
        k = int(np.argmax(d2))  # argmax returns the first maximum
        if d2[k] > eps_sq:
            split = first + 1 + k
            keep[split] = True
            stack.append((first, split))
            stack.append((split, last))
    return pts[keep].copy()


def simplify_sketch(sketch: VectorSketch, config: SimplifyConfig) -> VectorSketch:
    """RDP per stroke, escalating epsilon until the point cap is met.

    Epsilon is multiplied by the escalation factor up to MAX_ESCALATIONS
    times; if the cap is still exceeded the point sequence is truncated at
    max_points (whole trailing strokes drop first, then trailing points of
    the stroke at the cut).
    """
    strokes = [sketch.xy[a:b] for a, b in stroke_slices(sketch)]
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
    return validate_and_normalize(np.column_stack([xy, s])[: config.max_points])
