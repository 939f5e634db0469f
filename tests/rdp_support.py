"""RDP of one polyline through the package's split-level pass.

``rdp_stroke`` runs ``simplify._significance`` over a single stroke and
keeps what ``simplify._kept`` keeps at epsilon: the one-stroke case of
``simplify_split``, with no escalation or cap, for tests of RDP itself.
It checks no argument: in the package, ``VectorSketch`` rejects
non-finite coordinates and ``SimplifyConfig`` an epsilon that is not
finite and positive before a pass runs.
"""

import numpy as np

from sketchattn.simplify import _kept, _significance


def rdp_stroke(points, epsilon: float) -> np.ndarray:
    """The kept points of an (n, 2) polyline, as a (k, 2) array.

    The first and last points are always kept. Ties in the maximum
    deviation go to the earliest point, which makes RDP idempotent.
    """
    pts = np.asarray(points, dtype=np.float64)
    ends = np.array([len(pts)] if len(pts) else [], dtype=np.intp)  # one stroke, none in an empty array
    sig, shift = _significance(pts, ends, float(epsilon))
    return pts[_kept(sig, shift, float(epsilon))]
