"""Hypothesis strategies for splits of raw sketches and for simplify
configs: the inputs on which preparing a whole split must give the same
bytes as preparing its items one by one, which assert_same_bytes checks.

Not a test module: pytest does not collect it.
"""

import numpy as np
from hypothesis import strategies as st

from sketchattn.geometry import VectorSketch
from sketchattn.simplify import SimplifyConfig

# (offset, scale) of a sketch's coordinates: ordinary pixels; every point
# in one place (zero extent); a subnormal extent, which the canvas step
# maps onto its center; a tiny extent far from the origin; coordinates
# past 2**500, which RDP measures after an exact power-of-two rescale
PLACEMENTS = [(0.0, 40.0), (7.0, 0.0), (0.0, 1e-320), (1e6, 1e-9), (0.0, 2.0**600), (-(2.0**900), 2.0**880)]
# y steps relative to x steps: alike, none (zero y extent), or so small
# that points sharing an x coincide once the canvas step rounds them
Y_SCALES = [1.0, 0.0, 1e-12]


@st.composite
def raw_sketches(draw) -> VectorSketch:
    """A random-walk sketch of 1-5 strokes of 1-80 points each; a stroke of
    one point is a single-point stroke."""
    offset, scale = draw(st.sampled_from(PLACEMENTS))
    y_scale = draw(st.sampled_from(Y_SCALES))
    stroke_sizes = draw(st.lists(st.integers(1, 80), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(stroke_sizes)
    steps = rng.normal(size=(n, 2)) * [1.0, y_scale]
    steps[:, 0] *= rng.random(n) < 0.7  # some steps keep x
    xy = offset + scale * np.cumsum(steps, axis=0)
    s = np.zeros(n)
    s[np.cumsum(stroke_sizes) - 1] = 1
    return VectorSketch(xy, s)


def splits(max_size: int = 8):
    return st.lists(raw_sketches(), min_size=1, max_size=max_size)


def assert_same_bytes(got: list[VectorSketch], expected: list[VectorSketch]) -> None:
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.xy.tobytes() == b.xy.tobytes()
        assert a.s.tobytes() == b.s.tobytes()


simplify_configs = st.builds(
    SimplifyConfig,
    epsilon=st.sampled_from([0.05, 0.5, 2.0, 1e-300, 1e200]),  # 1e200: eps² past the float range
    max_points=st.integers(2, 120),  # small caps escalate, and a cap under the stroke-end count exhausts it
    escalation_factor=st.sampled_from([1.01, 1.5, 3.0]),
)
