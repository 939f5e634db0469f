import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from sketchattn.errors import (
    EmptySketchError,
    InvalidCanvasError,
    InvalidStrokeStateError,
    MalformedPointsError,
    NonFiniteCoordinateError,
)
from sketchattn.geometry import (
    VectorSketch,
    normalize_to_canvas,
    ragged_points,
    segment_projection,
    stroke_slices,
    validate_and_normalize,
)
from sketchattn.pipeline import AugmentConfig, _batch_inputs, augment, randomize_stroke_order
from sketchattn.raster import segment_table
from sketchattn.simplify import SimplifyConfig, simplify_sketch


def make(points):
    return validate_and_normalize(points)


class TestValidateAndNormalize:
    def test_already_valid_unchanged(self):
        sk = make([(0, 0, 0), (1, 0, 1)])
        assert sk.xy.tolist() == [[0, 0], [1, 0]]
        assert sk.s.tolist() == [0, 1]

    def test_duplicate_dropped_and_state_forced(self):
        sk = make([(0, 0, 0), (0, 0, 0), (1, 0, 0)])
        assert sk.xy.tolist() == [[0, 0], [1, 0]]
        assert sk.s.tolist() == [0, 1]

    def test_empty_raises(self):
        with pytest.raises(EmptySketchError):
            make([])

    def test_nan_raises(self):
        with pytest.raises(NonFiniteCoordinateError):
            make([(0, 0, 0), (np.nan, 1, 1)])
        with pytest.raises(NonFiniteCoordinateError):
            make([(np.inf, 0, 1)])

    def test_duplicate_across_stroke_boundary_kept(self):
        # same coords but the first point ends its stroke: two strokes touch
        sk = make([(0, 0, 1), (0, 0, 1)])
        assert sk.n == 2

    def test_duplicate_ending_stroke_keeps_end_state(self):
        sk = make([(0, 0, 0), (1, 0, 0), (1, 0, 1), (2, 2, 1)])
        assert sk.xy.tolist() == [[0, 0], [1, 0], [2, 2]]
        assert sk.s.tolist() == [0, 1, 1]

    def test_accepts_point_objects(self):
        # any indexable (x, y, s) row works: lists and numpy rows alike
        sk = make([[1, 2, 0], [3, 4, 1]])
        assert sk.n == 2
        rows = make(np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 1.0]]))
        assert rows.xy.tolist() == sk.xy.tolist() and rows.s.tolist() == sk.s.tolist()

    def test_bad_state_rejected(self):
        with pytest.raises(InvalidStrokeStateError):
            make([(0, 0, 2)])
        with pytest.raises(InvalidStrokeStateError):
            make([(0, 0, 0.7)])

    @pytest.mark.parametrize(
        "points",
        [
            [[1, 2]],  # a row without a state
            [[1, 2, 0, 5]],  # a row with a fourth value
            [[1, 2, 0], [1, 2]],  # ragged rows
            "abc",
            [["x", 1, 0]],  # a string coordinate
            [[None, 1, 0]],
            [[10**400, 1, 0]],  # an integer beyond the float range
            [[True, False, True]],
            5,
        ],
        ids=["two_columns", "four_columns", "ragged", "string", "string_coordinate", "null",
             "huge_integer", "booleans", "scalar"],
    )
    def test_malformed_points_rejected(self, points):
        with pytest.raises(MalformedPointsError):
            make(points)

    @pytest.mark.parametrize("points", [[[True, 0, 1]], [[0, 0, 0], [2.5, False, 1]]], ids=["int_row", "float_row"])
    def test_boolean_among_numbers_rejected(self, points):
        # numpy reads a boolean among numbers as 0 or 1; parse_quickdraw_line
        # rejects a boolean coordinate, and so does the constructor
        with pytest.raises(MalformedPointsError):
            make(points)

    def test_integer_beyond_int64_accepted(self):
        sk = make([[2**70, 0, 0], [0, 0, 1]])
        assert sk.xy[0, 0] == float(2**70)

    def test_caller_array_untouched(self):
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        before = pts.copy()
        make(pts)
        assert pts.flags.writeable and np.array_equal(pts, before)

    def test_constructor_copies_contiguous_caller_arrays(self):
        # contiguous float64/int8 arrays used to be frozen in place; the
        # points are distinct, or the constructor would merge them
        xy = np.array([[0.0, 0.0], [1.0, 0.0]])
        s = np.array([0, 1], dtype=np.int8)
        sk = VectorSketch(xy, s)
        assert xy.flags.writeable and s.flags.writeable
        xy[0, 0] = 5.0
        s[0] = 1
        assert sk.xy[0, 0] == 0.0 and sk.s[0] == 0

    def test_immutable(self):
        sk = make([(0, 0, 0), (1, 0, 1)])
        with pytest.raises(ValueError):
            sk.xy[0, 0] = 5.0


def assert_invariant(sketch):
    """No point repeats its in-stroke predecessor, and the last state is 1."""
    repeats = (sketch.s[:-1] == 0) & np.all(sketch.xy[1:] == sketch.xy[:-1], axis=1)
    assert not repeats.any() and sketch.s[-1] == 1


@st.composite
def extreme_sketches(draw):
    """Small integer grids scaled to zero, subnormal, ordinary and huge
    extents around a few origins: canvas maps that collapse points."""
    n = draw(st.integers(1, 10))
    grid = np.array(draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=n, max_size=n)))
    scale = draw(st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1.0, 1e150, 1e300]))
    origin = draw(st.sampled_from([0.0, 7.0, -1e307]))
    s = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return VectorSketch(origin + scale * grid, s)


class TestTransformsKeepTheInvariant:
    # normalize_to_canvas once mapped a subnormal extent onto two coincident
    # points of one stroke, which only augment merged again
    @given(sketch=extreme_sketches(), seed=st.integers(0, 2**16))
    @example(sketch=make([(0, 0, 0), (1e-320, 0, 1)]), seed=0)
    def test_no_repeated_neighbour_and_final_end(self, sketch, seed):
        rng = np.random.default_rng(seed)
        canvas = normalize_to_canvas(sketch, 64, 64)
        reflect = AugmentConfig(reflect_prob=1.0, removal_prob=1.0, jitter_sigma=0.0)
        outputs = [
            canvas,
            simplify_sketch(sketch, SimplifyConfig(epsilon=1.0, max_points=3)),
            simplify_sketch(canvas, SimplifyConfig(epsilon=1e-3, max_points=448)),
            augment(sketch, rng, reflect, 64),
            augment(canvas, rng, reflect, 64),
            randomize_stroke_order(sketch, rng),
            randomize_stroke_order(canvas, rng),
        ]
        for out in outputs:
            assert_invariant(out)


def offsets(sketch, width=1.0):
    """One sketch's RNN input rows [dx/w, dy/w, s]."""
    inputs, lengths = _batch_inputs([sketch], width)
    assert lengths.tolist() == [sketch.n]
    return inputs[0]


def from_offsets(rows, origin, width=1.0):
    """Absolute coordinates back from RNN input rows and the first point."""
    return np.cumsum(rows[:, :2] * width, axis=0) + np.asarray(origin, dtype=np.float64)


class TestOffsets:
    # the RNN input encoding lives in pipeline._batch_inputs; its inverse is
    # a cumulative sum from the first point

    def test_single_point(self):
        assert offsets(make([(5, 7, 1)])).tolist() == [[0, 0, 1]]

    def test_origin_start(self):
        assert offsets(make([(0, 0, 0), (3, 4, 1)]))[:, :2].tolist() == [[0, 0], [3, 4]]

    def test_hand_computed(self):
        rows = offsets(make([(2, 2, 0), (5, 6, 0), (5, 1, 1)]))
        assert rows.tolist() == [[0, 0, 0], [3, 4, 0], [0, -5, 1]]
        np.testing.assert_allclose(from_offsets(rows, (2.0, 2.0)), [[2, 2], [5, 6], [5, 1]], atol=1e-9)

    def test_from_offsets_trivial(self):
        assert from_offsets(np.array([[0.0, 0.0, 1.0]]), (5.0, 7.0)).tolist() == [[5, 7]]

    def test_round_trip_1000_random_sketches(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            xy = rng.uniform(-100, 400, size=(n, 2))
            s = (rng.random(n) < 0.2).astype(int)
            sk = make(np.column_stack([xy, s]))
            rows = offsets(sk, 64.0)
            np.testing.assert_allclose(from_offsets(rows, sk.xy[0], 64.0), sk.xy, atol=1e-9)
            assert rows[:, 2].tolist() == sk.s.tolist()

    @given(
        st.lists(
            st.tuples(
                st.floats(-1e3, 1e3, allow_nan=False),
                st.floats(-1e3, 1e3, allow_nan=False),
                st.integers(0, 1),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_round_trip_property(self, pts):
        sk = make(pts)
        np.testing.assert_allclose(from_offsets(offsets(sk), sk.xy[0]), sk.xy, atol=1e-9)

    def test_scale_offsets(self):
        sk = make([(0, 0, 0), (64, 32, 1)])
        assert offsets(sk, 64).tolist() == [[0, 0, 0], [1.0, 0.5, 1]]

    def test_batch_rows_zero_padded(self):
        short, long = make([(0, 0, 0), (2, 0, 1)]), make([(0, 0, 0), (1, 1, 0), (3, 1, 1)])
        inputs, lengths = _batch_inputs([short, long], 2)
        assert lengths.tolist() == [2, 3]
        assert inputs[0].tolist() == [[0, 0, 0], [1, 0, 1], [0, 0, 0]]
        assert inputs[1].tolist() == offsets(long, 2).tolist()


class TestSegmentProjection:
    def test_hand_computed(self):
        rel = np.array([[-1.0, 1.0], [1.0, 1.0], [3.0, -2.0]])
        t, d2 = segment_projection(rel[:, 0], rel[:, 1], 2.0, 0.0)
        np.testing.assert_array_equal(t, [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(d2, [2.0, 1.0, 5.0])

    def test_degenerate_segment_projects_to_its_start(self):
        t, d2 = segment_projection(np.array([3.0, 0.0]), np.array([4.0, 0.0]), 0.0, 0.0)
        assert t.tolist() == [0.0, 0.0] and not np.signbit(t).any()
        np.testing.assert_array_equal(d2, [25.0, 0.0])

    def test_broadcast_segments_match_one_at_a_time(self):
        # a grid of points against a column of segments, one of them degenerate
        rng = np.random.default_rng(0)
        px, py = rng.normal(size=(1, 7)), rng.normal(size=(1, 7))
        ax, ay, vx, vy = (rng.normal(size=(4, 1)) for _ in range(4))
        vx[2] = vy[2] = 0.0
        t, d2 = segment_projection(px - ax, py - ay, vx, vy)
        assert t.shape == d2.shape == (4, 7)
        for k in range(4):
            tk, d2k = segment_projection(px[0] - ax[k, 0], py[0] - ay[k, 0], vx[k, 0], vy[k, 0])
            np.testing.assert_array_equal(t[k], tk)
            np.testing.assert_array_equal(d2[k], d2k)


class TestNormalizeToCanvas:
    def test_unit_square_fills_target_box(self):
        sk = make([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 1)])
        out = normalize_to_canvas(sk, 224, 224, pad=4)
        assert out.xy.min() == pytest.approx(4.0, abs=1e-9)
        assert out.xy.max() == pytest.approx(219.0, abs=1e-9)

    def test_single_point_maps_to_center(self):
        out = normalize_to_canvas(make([(42, 17, 1)]), 224, 224, pad=4)
        np.testing.assert_allclose(out.xy, [[111.5, 111.5]])

    def test_coordinates_near_float_limit_stay_finite(self):
        # the box center used to overflow to inf and turn every point into NaN
        out = normalize_to_canvas(make([(1e308, 0, 0), (1.7e308, 1, 0), (1.5e308, 0, 1)]), 64, 64, pad=4)
        assert np.isfinite(out.xy).all()
        assert out.xy[:, 0].min() == pytest.approx(4.0) and out.xy[:, 0].max() == pytest.approx(59.0)

    def test_extent_beyond_float_limit(self):
        # hi - lo overflowed to inf, which collapsed every point to the center
        out = normalize_to_canvas(make([(-1.7e308, 0, 0), (1.7e308, 1, 1)]), 64, 64, pad=4)
        assert out.xy[:, 0].tolist() == [4.0, 59.0]

    @pytest.mark.parametrize("tiny", [5e-324, 1e-310])
    def test_subnormal_extent_is_degenerate(self, tiny):
        # target / extent overflowed to inf; such an axis cannot set the scale,
        # and the two points, both at the center, merge into one
        out = normalize_to_canvas(make([(0, 0, 0), (tiny, tiny, 1)]), 64, 64, pad=4)
        assert out.xy.tolist() == [[31.5, 31.5]] and out.s.tolist() == [1]
        out = normalize_to_canvas(make([(0, 0, 0), (1, tiny, 1)]), 64, 64, pad=4)
        assert out.xy[:, 0].tolist() == [4.0, 59.0]

    def test_fixed_point(self):
        sk = make([(4, 4, 0), (219, 219, 1)])
        out = normalize_to_canvas(sk, 224, 224, pad=4)
        np.testing.assert_allclose(out.xy, sk.xy, atol=1e-9)

    def test_all_coordinates_inside_padded_box(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            pts = [(float(x), float(y), 0) for x, y in rng.uniform(-50, 500, size=(n, 2))]
            sk = make(pts)
            out = normalize_to_canvas(sk, 64, 64, pad=4)
            assert out.xy.min() >= 4 - 1e-9
            assert out.xy.max() <= 59 + 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        pts = [(float(x), float(y), 0) for x, y in rng.uniform(0, 255, size=(12, 2))]
        sk = make(pts)
        once = normalize_to_canvas(sk, 64, 64, pad=4)
        twice = normalize_to_canvas(once, 64, 64, pad=4)
        np.testing.assert_allclose(twice.xy, once.xy, atol=1e-9)

    def test_horizontal_line_centered_vertically(self):
        out = normalize_to_canvas(make([(0, 5, 0), (10, 5, 1)]), 64, 64, pad=4)
        np.testing.assert_allclose(out.xy[:, 1], [31.5, 31.5])
        np.testing.assert_allclose(sorted(out.xy[:, 0]), [4.0, 59.0])

    def test_invalid_canvas(self):
        with pytest.raises(InvalidCanvasError):
            normalize_to_canvas(make([(0, 0, 1)]), 8, 64, pad=4)

    @pytest.mark.parametrize("pad", [float("nan"), float("inf"), -float("inf"), -40.0, -1e-9])
    def test_non_finite_or_negative_pad_rejected(self, pad):
        # a NaN pad passed the size check and collapsed the sketch to NaN
        # coordinates; a negative one scaled it past the canvas edges
        with pytest.raises(InvalidCanvasError, match="pad"):
            normalize_to_canvas(make([(0, 0, 0), (10, 5, 1)]), 64, 64, pad=pad)

    def test_zero_pad_fills_the_canvas(self):
        out = normalize_to_canvas(make([(0, 0, 0), (10, 10, 1)]), 64, 64, pad=0)
        np.testing.assert_array_equal(out.xy, [[0.0, 0.0], [63.0, 63.0]])


class TestSegments:
    # the rasterizer's segment table is the one segment extraction; its
    # real segments (end > start, so no point discs) are exactly the
    # (i, i + 1) pairs with s[i] == 0

    @staticmethod
    def pairs(sk):
        t = segment_table(sk)
        return [(i, j) for i, j in zip(t.start.tolist(), t.end.tolist()) if j > i]

    def test_states_0101(self):
        assert self.pairs(make([(0, 0, 0), (1, 0, 1), (2, 0, 0), (3, 0, 1)])) == [(0, 1), (2, 3)]

    def test_two_isolated_points(self):
        assert self.pairs(make([(0, 0, 1), (1, 1, 1)])) == []

    def test_single_stroke_three_points(self):
        assert self.pairs(make([(0, 0, 0), (1, 0, 0), (2, 0, 1)])) == [(0, 1), (1, 2)]

    def test_cardinality_matches_zero_states(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            pts = [(float(x), float(y), int(st)) for (x, y), st in
                   zip(rng.uniform(0, 100, size=(n, 2)), rng.random(n) < 0.3)]
            sk = make(pts)
            assert len(self.pairs(sk)) == int(np.sum(sk.s == 0))

    def test_endpoint_coordinates(self):
        sk = make([(1, 2, 0), (3, 4, 1)])
        (i, j), = self.pairs(sk)
        assert tuple(sk.xy[i]) == (1.0, 2.0)
        assert tuple(sk.xy[j]) == (3.0, 4.0)

    def test_stroke_slices(self):
        sk = make([(0, 0, 0), (1, 0, 1), (2, 0, 1), (3, 0, 0), (4, 0, 1)])
        assert stroke_slices(sk) == [(0, 2), (2, 3), (3, 5)]


def test_ragged_points_concatenates_whole_sketches():
    a = validate_and_normalize([(0, 0, 0), (1, 0, 1)])
    b = validate_and_normalize([(5, 5, 1)])
    xy, s, offsets = ragged_points([a, b, a])
    assert offsets.tolist() == [0, 2, 3, 5]
    assert xy.tolist() == [[0, 0], [1, 0], [5, 5], [0, 0], [1, 0]]
    assert s.tolist() == [0, 1, 1, 0, 1]
    for k, sk in enumerate([a, b, a]):
        assert xy[offsets[k] : offsets[k + 1]].tolist() == sk.xy.tolist()
