import numpy as np
import pytest
from hypothesis import given, strategies as st

from sketchattn.errors import (
    EmptySketchError,
    InvalidCanvasError,
    InvalidStrokeStateError,
    MalformedPointsError,
    NonFiniteCoordinateError,
)
from sketchattn.geometry import normalize_to_canvas, stroke_slices, validate_and_normalize
from sketchattn.pipeline import _batch_inputs
from sketchattn.raster import segment_table


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

    def test_integer_beyond_int64_accepted(self):
        sk = make([[2**70, 0, 0], [0, 0, 1]])
        assert sk.xy[0, 0] == float(2**70)

    def test_caller_array_untouched(self):
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        before = pts.copy()
        make(pts)
        assert pts.flags.writeable and np.array_equal(pts, before)

    def test_immutable(self):
        sk = make([(0, 0, 0), (1, 0, 1)])
        with pytest.raises(ValueError):
            sk.xy[0, 0] = 5.0


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
        # target / extent overflowed to inf; such an axis cannot set the scale
        out = normalize_to_canvas(make([(0, 0, 0), (tiny, tiny, 1)]), 64, 64, pad=4)
        assert out.xy.tolist() == [[31.5, 31.5], [31.5, 31.5]]
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


class TestSegments:
    # the rasterizer's segment table is the one segment extraction; without
    # point discs it holds exactly the (i, i + 1) pairs with s[i] == 0

    @staticmethod
    def pairs(sk):
        t = segment_table(sk, include_point_discs=False)
        return list(zip(t.start.tolist(), t.end.tolist()))

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
