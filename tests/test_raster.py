import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sketchattn.errors import (
    InvalidConfigError,
    LengthMismatchError,
    NonFiniteAttentionError,
    NonFiniteCoordinateError,
    ShapeMismatchError,
)
from sketchattn.geometry import VectorSketch, segment_projection, validate_and_normalize
from sketchattn.ingest import random_sketch
from sketchattn.net.model import CnnConfig
from sketchattn import raster
from sketchattn.pipeline import desk_config, forward_classify, init_model_state
from sketchattn.raster import (
    RasterConfig,
    order_ramp,
    rasterize_backward,
    rasterize_forward,
    segment_table,
    write_grid_json,
    write_pgm,
    write_provenance_json,
)

from raster_oracle import oracle_rasterize

CFG64 = RasterConfig(width=64, height=64, epsilon=1.0)


def make(points):
    return validate_and_normalize(points)


def baseline_map(variant, sk, raster=CFG64):
    """The attention map a baseline variant's forward_classify rasterizes."""
    cfg = desk_config(2, variant=variant, raster=raster, cnn=CnnConfig(stages=(4,), num_classes=2))
    _, attention, amap = forward_classify(init_model_state(cfg), cfg, sk)
    return attention, amap


class TestForward:
    def test_horizontal_segment_uniform_attention(self):
        sk = make([(10, 10, 0), (20, 10, 1)])
        cfg = RasterConfig(32, 32, 1.0)
        amap = rasterize_forward(sk, [1.0, 1.0], cfg)
        oracle = oracle_rasterize(sk, [1.0, 1.0], cfg)
        assert np.array_equal(amap.owner, oracle.owner)
        owned = amap.owner >= 0
        assert owned.any()
        assert np.all(amap.intensities[owned] == 1.0)
        assert np.all(amap.intensities[~owned] == 0.0)

    def test_zero_attention_zero_image_provenance_kept(self):
        rng = np.random.default_rng(1)
        sk = random_sketch(rng, 12, 64, 64)
        amap = rasterize_forward(sk, np.zeros(sk.n), CFG64)
        ref = rasterize_forward(sk, np.ones(sk.n), CFG64)
        assert np.all(amap.intensities == 0.0)
        assert np.array_equal(amap.owner, ref.owner)
        assert np.array_equal(amap.alpha, ref.alpha)

    def test_alpha_zero_pixel_gets_start_attention(self):
        # segment start at a pixel center: that pixel projects onto p_i
        sk = make([(8.5, 8.5, 0), (20.5, 8.5, 1)])
        amap = rasterize_forward(sk, [0.7, 0.2], RasterConfig(32, 32, 1.0))
        assert amap.alpha[8, 8] == 0.0
        assert amap.intensities[8, 8] == 0.7

    def test_default_config_is_224_eps_1(self):
        cfg = RasterConfig()
        assert (cfg.width, cfg.height, cfg.epsilon) == (224, 224, 1.0)

    def test_half_width_low_res_profile_constructible(self):
        # the 56x56 feature-map-injection resolution with half stroke width
        cfg = RasterConfig(width=56, height=56, epsilon=0.5)
        rng = np.random.default_rng(0)
        sk = random_sketch(rng, 10, 56, 56)
        amap = rasterize_forward(sk, np.ones(sk.n), cfg)
        assert amap.intensities.shape == (56, 56)
        assert amap.owned_pixel_count > 0

    def test_length_mismatch(self):
        sk = make([(0, 0, 0), (1, 0, 1)])
        with pytest.raises(LengthMismatchError):
            rasterize_forward(sk, [1.0], CFG64)

    def test_invalid_config(self):
        with pytest.raises(InvalidConfigError):
            RasterConfig(width=0, height=10, epsilon=1.0)
        with pytest.raises(InvalidConfigError):
            RasterConfig(width=10, height=10, epsilon=0.0)

    def test_point_stroke_renders_disc(self):
        sk = make([(16.5, 16.5, 1)])
        amap = rasterize_forward(sk, [0.8], RasterConfig(32, 32, 1.5))
        owned = amap.owner >= 0
        assert owned.any()
        assert np.all(amap.intensities[owned] == 0.8)
        # disc pixels carry alpha 0 on a degenerate segment
        table = amap.table
        assert len(table) == 1 and table.start[0] == table.end[0] == 0

    def test_attention_outside_unit_interval_accepted(self):
        sk = make([(5, 5, 0), (20, 5, 1)])
        amap = rasterize_forward(sk, [-1.0, 3.0], CFG64)
        owned = amap.owner >= 0
        assert owned.any()
        assert np.isfinite(amap.intensities[owned]).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_attention_rejected(self, bad):
        sk = make([(5, 5, 0), (20, 5, 1)])
        with pytest.raises(NonFiniteAttentionError):
            rasterize_forward(sk, [0.5, bad], CFG64)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        # a VectorSketch built directly once skipped the coordinate check; the
        # per-segment loop died with a bare ValueError on a NaN box, and a
        # box test on NaN would drop the entity silently. The constructor
        # now rejects it, so no such sketch reaches the rasterizer.
        with pytest.raises(NonFiniteCoordinateError):
            VectorSketch(np.array([[bad, 5.0], [10.0, 10.0], [20.0, 12.0]]), np.array([0, 0, 1]))

    def test_painters_order_latest_segment_owns(self):
        # two crossing strokes: the second drawn owns the crossing pixel
        sk = make([(2.5, 16.5, 0), (30.5, 16.5, 1), (16.5, 2.5, 0), (16.5, 30.5, 1)])
        amap = rasterize_forward(sk, np.ones(4), RasterConfig(32, 32, 1.0))
        assert amap.owner[16, 16] == 1  # second entity (the vertical stroke)

    def test_boundary_at_exact_epsilon_excluded(self):
        # strict inequality: pixel centers exactly epsilon away stay off
        sk = make([(10.0, 10.5, 0), (20.0, 10.5, 1)])
        amap = rasterize_forward(sk, [1.0, 1.0], RasterConfig(32, 32, 1.0))
        assert amap.owner[10, 15] == 0  # distance 0
        assert amap.owner[9, 15] == -1  # distance exactly 1.0
        assert amap.owner[11, 15] == -1

    def test_owned_pixels_are_the_row_major_owned_indices_computed_once(self):
        sk = make([(3.5, 3.5, 0), (12.5, 9.5, 0), (4.5, 12.5, 1), (10.5, 2.5, 1)])
        amap = rasterize_forward(sk, [0.2, 0.9, 0.4, 0.7], RasterConfig(16, 16, 1.0))
        assert amap.owned.tolist() == np.flatnonzero(amap.owner >= 0).tolist()
        assert amap.owned is amap.owned
        assert amap.owned_pixel_count == len(amap.owned) > 0

    def test_provenance_at(self):
        sk = make([(5.5, 5.5, 0), (12.5, 5.5, 1)])
        amap = rasterize_forward(sk, [1.0, 0.0], RasterConfig(32, 32, 1.0))
        assert amap.owner[5, 8] == 0
        assert 0.0 <= amap.alpha[5, 8] <= 1.0
        assert amap.owner[31, 31] == -1


class TestOracleEquivalence:
    def test_bitwise_on_100_random_sketches(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            sk = random_sketch(rng, int(rng.integers(2, 25)), 32, 32)
            a = rng.uniform(-0.5, 1.5, sk.n)
            cfg = RasterConfig(32, 32, float(rng.uniform(0.5, 2.0)))
            fast = rasterize_forward(sk, a, cfg)
            ref = oracle_rasterize(sk, a, cfg)
            assert np.array_equal(fast.owner, ref.owner)
            assert np.array_equal(fast.alpha, ref.alpha)
            assert np.array_equal(fast.intensities, ref.intensities)

    def test_single_pixel_canvas(self):
        sk = make([(0.2, 0.5, 0), (0.9, 0.5, 1)])
        ref = oracle_rasterize(sk, [1.0, 1.0], RasterConfig(1, 1, 1.0))
        assert ref.owner[0, 0] == 0
        assert ref.intensities[0, 0] == 1.0


class TestOracleDifferential:
    # the walks above stay inside square 32x32 canvases; these sketches sit
    # on non-square canvases of any size from 1 px, partly or wholly off
    # the canvas (a shift beyond +-1 canvas moves every point off it)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.tuples(st.integers(1, 48), st.integers(1, 48)),
        shift=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
        eps=st.floats(0.3, 3.0),
    )
    def test_bitwise_equal_to_oracle(self, seed, size, shift, eps):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 16))
        xy = (rng.uniform(0.0, 1.0, size=(n, 2)) + shift) * size
        sk = validate_and_normalize(np.column_stack([xy, rng.random(n) < 0.3]))
        a = rng.uniform(-0.5, 1.5, sk.n)
        cfg = RasterConfig(size[0], size[1], eps)
        fast = rasterize_forward(sk, a, cfg)
        ref = oracle_rasterize(sk, a, cfg)
        assert np.array_equal(fast.owner, ref.owner)
        assert np.array_equal(fast.alpha, ref.alpha)
        assert np.array_equal(fast.intensities, ref.intensities)


class TestCoverageStructure:
    def test_one_projection_call_per_chunk(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return segment_projection(*args)

        monkeypatch.setattr(raster, "segment_projection", counted)
        x = np.linspace(4.0, 60.0, 51)
        y = np.where(np.arange(51) % 2 == 0, 10.0, 50.0)
        sk = make(np.column_stack([x, y, np.zeros(51)]))
        assert len(segment_table(sk)) == 50
        rasterize_forward(sk, np.ones(sk.n), CFG64)
        assert 1 <= len(calls) <= 2

    def test_peak_memory_bounded_by_pair_budget(self):
        # a zigzag of 39 canvas-long diagonals at 1024², eps 20: each box
        # holds ~1.1M pixels, while its stripe holds under 1100 rows of 64
        # candidates. A chunk holds at most the larger of the budget and one
        # such entity. The bound: the (H, W) owner, alpha, intensities and
        # mask, six float64s per owned pixel for the gather, and 256 bytes
        # (32 float64s) per pair of one chunk
        n, H, W = 40, 1024, 1024
        ends = np.where(np.arange(n) % 2 == 0, 10.0, 1010.0)
        xy = np.column_stack([ends, ends]) + np.random.default_rng(0).uniform(-3.0, 3.0, (n, 2))
        sk = make(np.column_stack([xy, np.zeros(n)]))
        tracemalloc.start()
        try:
            amap = rasterize_forward(sk, np.ones(sk.n), RasterConfig(W, H, 20.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        owned = amap.owned_pixel_count
        assert 0 < owned < H * W // 8
        chunk_pairs = max(raster._PAIR_BUDGET, 1100 * 64)
        assert peak < H * W * (4 + 8 + 8 + 1) + owned * 6 * 8 + chunk_pairs * 256


class TestBackward:
    def test_zero_delta_zero_gradient(self):
        rng = np.random.default_rng(2)
        sk = random_sketch(rng, 15, 64, 64)
        amap = rasterize_forward(sk, rng.uniform(0, 1, sk.n), CFG64)
        g = rasterize_backward(amap, np.zeros((64, 64)), sk.n)
        assert np.all(g == 0.0)

    def test_unit_delta_single_segment_sums_to_pixel_count(self):
        sk = make([(10, 10, 0), (50, 40, 1)])
        amap = rasterize_forward(sk, [0.3, 0.9], CFG64)
        g = rasterize_backward(amap, np.ones((64, 64)), sk.n)
        assert g.sum() == pytest.approx(amap.owned_pixel_count, abs=1e-9)

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            sk = random_sketch(rng, int(rng.integers(5, 30)), 64, 64)
            a = rng.uniform(0, 1, sk.n)
            delta = rng.normal(size=(64, 64))
            amap = rasterize_forward(sk, a, CFG64)
            g = rasterize_backward(amap, delta, sk.n)
            h = 1e-4
            for i in range(sk.n):
                ap, am = a.copy(), a.copy()
                ap[i] += h
                am[i] -= h
                num = (
                    (delta * rasterize_forward(sk, ap, CFG64).intensities).sum()
                    - (delta * rasterize_forward(sk, am, CFG64).intensities).sum()
                ) / (2 * h)
                assert abs(num - g[i]) <= 1e-6 * max(abs(num), abs(g[i]), 1.0)

    def test_gradient_conservation_random(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            sk = random_sketch(rng, int(rng.integers(2, 40)), 64, 64)
            amap = rasterize_forward(sk, rng.uniform(0, 1, sk.n), CFG64)
            g = rasterize_backward(amap, np.ones((64, 64)), sk.n)
            assert abs(g.sum() - amap.owned_pixel_count) <= 1e-9

    def test_point_stroke_gradient_flows_to_single_point(self):
        sk = make([(16.5, 16.5, 1)])
        amap = rasterize_forward(sk, [0.5], RasterConfig(32, 32, 1.5))
        g = rasterize_backward(amap, np.ones((32, 32)), 1)
        assert g[0] == pytest.approx(amap.owned_pixel_count, abs=1e-12)

    def test_shape_mismatch(self):
        sk = make([(0, 0, 0), (5, 5, 1)])
        amap = rasterize_forward(sk, [1, 1], CFG64)
        with pytest.raises(ShapeMismatchError):
            rasterize_backward(amap, np.zeros((32, 32)), 2)
        with pytest.raises(ShapeMismatchError):
            rasterize_backward(amap, np.zeros((64, 64)), 1)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 60), size=st.sampled_from([(16, 16), (64, 64), (48, 32)]))
    def test_owned_values_equal_the_image(self, seed, n, size):
        # the bridge hands over only the image's values at amap.owned
        rng = np.random.default_rng(seed)
        cfg = RasterConfig(*size, 1.0)
        sk = random_sketch(rng, n, *size)
        amap = rasterize_forward(sk, rng.uniform(0, 1, sk.n), cfg)
        delta = rng.normal(size=amap.owner.shape)
        on_support = delta.reshape(-1)[amap.owned]
        assert rasterize_backward(amap, on_support, sk.n).tobytes() == rasterize_backward(amap, delta, sk.n).tobytes()
        for wrong in (amap.owned_pixel_count + 1, amap.owned_pixel_count - 1):
            if wrong >= 0:
                with pytest.raises(ShapeMismatchError, match="owned pixels"):
                    rasterize_backward(amap, np.zeros(wrong), sk.n)

    def test_zero_gradient_for_points_with_no_owned_pixels(self):
        # second stroke fully overdrawn by a later identical stroke
        sk = make([(5, 5, 0), (25, 5, 1), (5, 5, 0), (25, 5, 1)])
        amap = rasterize_forward(sk, np.ones(4), RasterConfig(32, 32, 1.0))
        g = rasterize_backward(amap, np.ones((32, 32)), 4)
        assert g[0] == 0.0 and g[1] == 0.0
        assert g[2] > 0 and g[3] > 0


class TestLinearity:
    def test_linearity_in_attention(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            sk = random_sketch(rng, int(rng.integers(3, 30)), 64, 64)
            u = rng.normal(size=sk.n)
            v = rng.normal(size=sk.n)
            lam, mu = rng.normal(), rng.normal()
            lhs = rasterize_forward(sk, lam * u + mu * v, CFG64).intensities
            rhs = lam * rasterize_forward(sk, u, CFG64).intensities + mu * rasterize_forward(
                sk, v, CFG64
            ).intensities
            assert np.abs(lhs - rhs).max() <= 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=25)
    def test_ownership_independent_of_attention(self, seed):
        rng = np.random.default_rng(seed)
        sk = random_sketch(rng, int(rng.integers(2, 20)), 32, 32)
        cfg = RasterConfig(32, 32, 1.0)
        m1 = rasterize_forward(sk, rng.normal(size=sk.n), cfg)
        m2 = rasterize_forward(sk, rng.normal(size=sk.n), cfg)
        assert np.array_equal(m1.owner, m2.owner)
        assert np.array_equal(m1.alpha, m2.alpha)


class TestEncodings:
    def test_order_ramp_endpoints(self):
        r = order_ramp(5)
        assert r[0] == 1.0 and r[-1] == 0.0
        assert order_ramp(1).tolist() == [1.0]

    def test_order_ramp_middle_point(self):
        assert order_ramp(3)[1] == 0.5

    # the baselines are the NLR path with fixed attention: their maps come
    # from forward_classify, the surviving path of the old wrappers

    def test_order_encode_matches_explicit_ramp(self):
        rng = np.random.default_rng(6)
        sk = random_sketch(rng, 14, 64, 64)
        attention, amap = baseline_map("order_encoded_cnn", sk)
        assert np.array_equal(attention, 1.0 - np.arange(sk.n) / (sk.n - 1))
        assert np.array_equal(amap.intensities, rasterize_forward(sk, order_ramp(sk.n), CFG64).intensities)

    def test_order_encode_two_point_sketch(self):
        sk = make([(8.5, 16.5, 0), (56.5, 16.5, 1)])
        _, amap = baseline_map("order_encoded_cnn", sk)
        enc = amap.intensities
        assert enc[16, 8] == 1.0
        assert enc[16, 56] == 0.0
        assert enc[16, 32] == pytest.approx(0.5, abs=0.03)

    def test_binary_values_exactly_zero_or_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            sk = random_sketch(rng, int(rng.integers(2, 30)), 64, 64)
            attention, amap = baseline_map("cnn_only_binary", sk)
            assert attention is None
            assert set(np.unique(amap.intensities)) <= {0.0, 1.0}

    def test_binary_matches_forward_with_ones(self):
        rng = np.random.default_rng(8)
        sk = random_sketch(rng, 17, 64, 64)
        _, amap = baseline_map("cnn_only_binary", sk)
        assert np.array_equal(amap.intensities, rasterize_forward(sk, np.ones(sk.n), CFG64).intensities)

    def test_binary_pixel_count_matches_oracle(self):
        rng = np.random.default_rng(9)
        sk = random_sketch(rng, 13, 32, 32)
        cfg = RasterConfig(32, 32, 1.0)
        _, amap = baseline_map("cnn_only_binary", sk, cfg)
        ref = oracle_rasterize(sk, np.ones(sk.n), cfg)
        assert int(amap.intensities.sum()) == int((ref.owner >= 0).sum()) == amap.owned_pixel_count


class TestDeterminismAndExports:
    def test_forward_deterministic(self):
        rng = np.random.default_rng(10)
        sk = random_sketch(rng, 20, 64, 64)
        a = rng.uniform(0, 1, sk.n)
        m1 = rasterize_forward(sk, a, CFG64)
        m2 = rasterize_forward(sk, a, CFG64)
        assert np.array_equal(m1.intensities, m2.intensities)
        assert np.array_equal(m1.owner, m2.owner)

    def test_pgm_export_round_half_up(self, tmp_path):
        grid = np.array([[0.0, 0.5, 1.0], [0.001, 0.999, 0.25]])
        path = tmp_path / "map.pgm"
        write_pgm(grid, path)
        raw = path.read_bytes()
        header, _, rest = raw.partition(b"255\n")
        assert raw.startswith(b"P5\n")
        assert b"3 2" in header
        # 0.5*255 = 127.5 rounds half-up to 128
        assert list(rest) == [0, 128, 255, 0, 255, 64]

    def test_grid_json_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        sk = random_sketch(rng, 8, 32, 32)
        amap = rasterize_forward(sk, rng.uniform(0, 1, sk.n), RasterConfig(32, 32, 1.0))
        path = tmp_path / "grid.json"
        write_grid_json(amap.intensities, path)
        payload = json.loads(path.read_text())
        assert payload["format"] == "sketchattn-grid"
        assert np.array_equal(np.array(payload["values"]), amap.intensities)

    def test_provenance_json(self, tmp_path):
        sk = make([(4, 4, 0), (20, 4, 1)])
        amap = rasterize_forward(sk, [1.0, 0.0], RasterConfig(32, 32, 1.0))
        path = tmp_path / "prov.json"
        write_provenance_json(amap, path)
        payload = json.loads(path.read_text())
        assert payload["segments"]["start"] == [0]
        assert payload["segments"]["end"] == [1]
        assert np.array_equal(np.array(payload["owner"]), amap.owner)


class TestProvenanceInvariant:
    def test_intensities_reconstruct_from_provenance(self):
        # owned pixels satisfy I = (1-alpha)*a_start + alpha*a_end exactly;
        # unowned pixels are zero
        rng = np.random.default_rng(30)
        for _ in range(20):
            sk = random_sketch(rng, int(rng.integers(2, 25)), 64, 64)
            a = rng.uniform(0, 1, sk.n)
            amap = rasterize_forward(sk, a, CFG64)
            owned = amap.owner >= 0
            ow = amap.owner[owned]
            al = amap.alpha[owned]
            expect = (1.0 - al) * a[amap.table.start[ow]] + al * a[amap.table.end[ow]]
            assert np.array_equal(amap.intensities[owned], expect)
            assert np.all(amap.intensities[~owned] == 0.0)
            assert np.all((al >= 0.0) & (al <= 1.0))


class TestSegmentTable:
    def test_interleaved_discs_and_segments(self):
        sk = make([(0, 0, 0), (5, 0, 1), (9, 9, 1), (12, 0, 0), (20, 0, 1)])
        t = segment_table(sk)
        assert t.start.tolist() == [0, 2, 3]
        assert t.end.tolist() == [1, 2, 4]
