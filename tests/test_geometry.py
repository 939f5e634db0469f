import numpy as np
import pytest
from hypothesis import given, strategies as st

from sketchattn.errors import EmptySketchError, InvalidCanvasError, NonFiniteCoordinateError
from sketchattn.geometry import (
    OffsetSketch,
    from_offsets,
    normalize_to_canvas,
    scale_offsets,
    stroke_slices,
    to_offsets,
    validate_and_normalize,
)
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
        with pytest.raises(ValueError):
            make([(0, 0, 2)])

    def test_immutable(self):
        sk = make([(0, 0, 0), (1, 0, 1)])
        with pytest.raises(ValueError):
            sk.xy[0, 0] = 5.0


class TestOffsets:
    def test_single_point(self):
        off = to_offsets(make([(5, 7, 1)]))
        assert off.d.tolist() == [[0, 0]]
        assert off.s.tolist() == [1]

    def test_origin_start(self):
        off = to_offsets(make([(0, 0, 0), (3, 4, 1)]))
        assert off.d.tolist() == [[0, 0], [3, 4]]

    def test_hand_computed(self):
        off = to_offsets(make([(2, 2, 0), (5, 6, 0), (5, 1, 1)]))
        assert off.d.tolist() == [[0, 0], [3, 4], [0, -5]]
        back = from_offsets(off, (2.0, 2.0))
        np.testing.assert_allclose(back.xy, [[2, 2], [5, 6], [5, 1]], atol=1e-9)

    def test_from_offsets_trivial(self):
        sk = from_offsets(OffsetSketch(np.array([[0.0, 0.0]]), np.array([1])), (5.0, 7.0))
        assert sk.xy.tolist() == [[5, 7]]

    def test_round_trip_1000_random_sketches(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            xy = rng.uniform(-100, 400, size=(n, 2))
            s = (rng.random(n) < 0.2).astype(int)
            sk = make([(x, y, st) for (x, y), st in zip(xy, s)])
            back = from_offsets(to_offsets(sk), (float(sk.xy[0, 0]), float(sk.xy[0, 1])))
            np.testing.assert_allclose(back.xy, sk.xy, atol=1e-9)
            assert back.s.tolist() == sk.s.tolist()

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
        back = from_offsets(to_offsets(sk), (float(sk.xy[0, 0]), float(sk.xy[0, 1])))
        np.testing.assert_allclose(back.xy, sk.xy, atol=1e-9)

    def test_scale_offsets(self):
        off = to_offsets(make([(0, 0, 0), (64, 32, 1)]))
        scaled = scale_offsets(off, 1 / 64.0)
        assert scaled.d.tolist() == [[0, 0], [1.0, 0.5]]
        assert scaled.s.tolist() == off.s.tolist()


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
