"""Brute-force reference rasterizer for the bitwise-equivalence tests."""

from __future__ import annotations

import numpy as np

from sketchattn.geometry import VectorSketch
from sketchattn.raster import AttentionMap, RasterConfig, _check_inputs, segment_table


def oracle_rasterize(sketch: VectorSketch, attention, config: RasterConfig) -> AttentionMap:
    """Reference rasterizer: a plain loop over every (pixel, segment) pair.

    No spatial acceleration; per-pixel math matches rasterize_forward
    operation for operation so the two agree bitwise. Test-only.
    """
    a = _check_inputs(sketch, attention)
    H, W = config.height, config.width
    eps_sq = config.epsilon * config.epsilon

    table = segment_table(sketch)
    xy = sketch.xy
    E = len(table)
    x0s = [float(xy[int(table.start[e]), 0]) for e in range(E)]
    y0s = [float(xy[int(table.start[e]), 1]) for e in range(E)]
    vxs = [float(xy[int(table.end[e]), 0]) - x0s[e] for e in range(E)]
    vys = [float(xy[int(table.end[e]), 1]) - y0s[e] for e in range(E)]
    L2s = [vxs[e] * vxs[e] + vys[e] * vys[e] for e in range(E)]

    owner = np.full((H, W), -1, dtype=np.int32)
    alpha = np.zeros((H, W), dtype=np.float64)
    intensities = np.zeros((H, W), dtype=np.float64)
    a_list = [float(v) for v in a]
    starts = [int(v) for v in table.start]
    ends = [int(v) for v in table.end]

    for r in range(H):
        cyv = r + 0.5
        for c in range(W):
            cxv = c + 0.5
            own = -1
            own_alpha = 0.0
            for e in range(E):
                relx = cxv - x0s[e]
                rely = cyv - y0s[e]
                L2 = L2s[e]
                if L2 > 0.0:
                    t = (relx * vxs[e] + rely * vys[e]) / L2
                    al = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
                else:
                    al = 0.0
                dx = relx - al * vxs[e]
                dy = rely - al * vys[e]
                if dx * dx + dy * dy < eps_sq:
                    own = e
                    own_alpha = al
            if own >= 0:
                owner[r, c] = own
                alpha[r, c] = own_alpha
                intensities[r, c] = (1.0 - own_alpha) * a_list[starts[own]] + own_alpha * a_list[ends[own]]
    return AttentionMap(intensities, owner, alpha, table)
