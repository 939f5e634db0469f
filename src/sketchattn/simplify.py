"""Ramer-Douglas-Peucker stroke simplification with a sequence-length cap.

RDP here measures distance to the closed chord segment (clamped
projection). That makes the output bound exact: every discarded point
lies within epsilon of the edge that replaced it, hence within epsilon of
the simplified polyline. The infinite-line variant lacks that guarantee
for points projecting past a chord endpoint. A degenerate chord (closed
stroke, identical anchors) degrades to point distance to the anchor.

A whole split is simplified at once: :func:`simplify_split` lays its
sketches out ragged (``geometry.ragged_points``) and runs one RDP pass
over every stroke of a chunk of whole sketches, then escalates epsilon
per sketch by thresholding what that pass recorded.
:func:`simplify_sketch` is its one-item case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, require_finite
from .geometry import VectorSketch, ragged_points, segment_projection

MAX_ESCALATIONS = 10
# one RDP pass takes whole sketches of about this many points (at least
# one sketch), which bounds its transient arrays on a large split
_POINT_BUDGET = 2**16
# chord arithmetic squares coordinate differences, which overflows once
# coordinates pass ~1e154; strokes beyond this bound are measured after an
# exact power-of-two rescale
_RESCALE_ABOVE = 2.0**500
# so every finite chord d² stays below 2^1006; a threshold capped at
# (2^510)² rejects all of them just as a larger or infinite eps² would
_EPS_CAP = 2.0**510


@dataclass(frozen=True)
class SimplifyConfig:
    epsilon: float = 2.0
    max_points: int = 448
    escalation_factor: float = 1.5

    def __post_init__(self):
        require_finite(epsilon=self.epsilon, escalation_factor=self.escalation_factor)
        if self.epsilon <= 0:
            raise InvalidConfigError("epsilon must be > 0")
        if self.max_points < 2:
            raise InvalidConfigError("max_points must be >= 2")
        if self.escalation_factor <= 1:
            raise InvalidConfigError("escalation_factor must be > 1")


def _significance(xy: np.ndarray, ends: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """RDP of every stroke at once, recorded as one significance per point.

    The strokes are the half-open ranges of ``xy`` ending at ``ends``.
    Their intervals split level by level, all strokes together. An
    interval splits at the first maximum of the chord distance, which does
    not depend on epsilon, so one pass at the base epsilon serves every
    larger one. A point's significance is +inf at a stroke end, -inf if the
    base epsilon never keeps it, else min(its split d², its parent's
    significance). A stroke whose coordinates pass _RESCALE_ABOVE is
    measured after the exact power-of-two rescale ``shift``; see
    :func:`_threshold`.
    """
    starts = np.concatenate(([0], ends))[:-1]
    sizes = ends - starts
    peak = np.maximum.reduceat(np.maximum(np.abs(xy[:, 0]), np.abs(xy[:, 1])), starts)
    shift = np.repeat(np.where(peak > _RESCALE_ABOVE, -np.frexp(peak)[1], 0), sizes)
    work = np.ldexp(xy, shift[:, None])
    eps_sq = _threshold(epsilon, shift)

    interior = np.ones(len(xy), dtype=bool)
    interior[starts] = interior[ends - 1] = False
    sig = np.where(interior, -np.inf, np.inf)
    live = interior.nonzero()[0]  # interior points of the intervals still splitting
    lo = np.repeat(starts, sizes)[live]  # and the anchors of their interval
    hi = np.repeat(ends - 1, sizes)[live]
    cap = np.full(len(live), np.inf)  # significance of the point that made the interval
    pos = np.arange(len(xy))
    while len(live):
        a = work[lo]
        rel = work[live] - a
        v = work[hi] - a
        _, d2 = segment_projection(rel[:, 0], rel[:, 1], v[:, 0], v[:, 1])
        m = len(live)
        head = np.ones(m, dtype=bool)  # intervals are contiguous runs of one lo
        np.not_equal(lo[1:], lo[:-1], out=head[1:])
        group = np.add.accumulate(head) - 1
        head = head.nonzero()[0]
        peak_d2 = np.maximum.reduceat(d2, head)
        # first maximum of each interval; an interval holding NaN never splits
        at = live[np.minimum.reduceat(np.where(d2 == peak_d2[group], pos[:m], m - 1), head)]
        splits = peak_d2 > eps_sq[lo[head]]
        sig[at[splits]] = np.minimum(peak_d2, cap[head])[splits]
        at = at[group]
        stay = (splits[group] & (live != at)).nonzero()[0]
        live, lo, hi, at = live[stay], lo[stay], hi[stay], at[stay]
        cap = sig[at]
        left = live < at
        lo = np.where(left, lo, at)
        hi = np.where(left, at, hi)
    return sig, shift


def _threshold(epsilon, shift: np.ndarray) -> np.ndarray:
    """ldexp(epsilon, shift)² per point, with ldexp(epsilon, shift)
    capped at _EPS_CAP, which keeps the square finite and moves no
    comparison with a significance."""
    return np.square(np.minimum(np.ldexp(epsilon, shift), _EPS_CAP))


def _kept(sig: np.ndarray, shift: np.ndarray, epsilon) -> np.ndarray:
    """Points RDP keeps at ``epsilon`` (one, or one per point): those whose
    significance passes the threshold, so every stroke end (+inf)."""
    return sig > _threshold(epsilon, shift)


def simplify_split(sketches: list[VectorSketch], config: SimplifyConfig) -> list[VectorSketch]:
    """RDP per stroke, escalating epsilon per sketch until its point cap is met.

    A sketch's epsilon is multiplied by the escalation factor up to
    MAX_ESCALATIONS times; if the cap is still exceeded its point sequence
    is truncated at max_points (whole trailing strokes drop first, then
    trailing points of the stroke at the cut). RDP runs once per chunk of
    whole sketches of about _POINT_BUDGET points: each round is a
    threshold on the significance it recorded, counted per sketch.
    Returns one sketch per input, in order.
    """
    out = []
    first = 0
    while first < len(sketches):
        last, points = first + 1, sketches[first].n
        while last < len(sketches) and points + sketches[last].n <= _POINT_BUDGET:
            points += sketches[last].n
            last += 1
        out.extend(_simplify_chunk(sketches[first:last], config))
        first = last
    return out


def _simplify_chunk(sketches: list[VectorSketch], config: SimplifyConfig) -> list[VectorSketch]:
    xy, s, offsets = ragged_points(sketches)
    starts = offsets[:-1]
    sig, shift = _significance(xy, np.flatnonzero(s == 1) + 1, config.epsilon)
    eps = config.epsilon
    keep = _kept(sig, shift, eps)
    counts = np.add.reduceat(keep, starts)
    for _ in range(MAX_ESCALATIONS):
        over = counts > config.max_points
        n_over = np.count_nonzero(over)
        if not n_over:
            break
        eps *= config.escalation_factor
        kept = _kept(sig, shift, eps)
        # a sketch over the cap takes this round's points, one under it keeps its own
        keep = kept if n_over == len(over) else np.where(np.repeat(over, np.diff(offsets)), kept, keep)
        counts = np.add.reduceat(keep, starts)
    xy, s = xy[keep], s[keep]
    out, a = [], 0
    for n in counts.tolist():
        b = a + min(n, config.max_points)
        out.append(VectorSketch(xy[a:b], s[a:b]))
        a += n
    return out


def simplify_sketch(sketch: VectorSketch, config: SimplifyConfig) -> VectorSketch:
    """Simplify one sketch: :func:`simplify_split`'s one-item case."""
    return simplify_split([sketch], config)[0]
