from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sketchattn import simplify
from sketchattn.errors import InvalidConfigError, MalformedPointsError, NonFiniteCoordinateError
from sketchattn.geometry import VectorSketch, validate_and_normalize
from sketchattn.simplify import SimplifyConfig, simplify_sketch, simplify_split

import loop_reference as ref
from rdp_support import rdp_stroke
from sketch_strategies import assert_same_bytes, simplify_configs, splits


def dist_point_to_polyline(p, poly):
    """Brute-force distance from a point to a polyline (clamped segments)."""
    best = np.inf
    if len(poly) == 1:
        return float(np.hypot(*(p - poly[0])))
    for a, b in zip(poly[:-1], poly[1:]):
        v = b - a
        L2 = float(v @ v)
        t = 0.0 if L2 == 0 else float(np.clip((p - a) @ v / L2, 0.0, 1.0))
        q = a + t * v
        best = min(best, float(np.hypot(*(p - q))))
    return best


def noisy_stroke(rng, n):
    """Monotone-ish noisy path, the shape RDP preprocessing sees."""
    t = np.linspace(0, 1, n)
    base = np.column_stack([t * 200.0, 100.0 + 40.0 * np.sin(3 * t * np.pi)])
    return base + rng.normal(0, 2.0, size=base.shape)


class TestRdpStroke:
    def test_collinear_interior_removed(self):
        out = rdp_stroke([(0, 0), (1, 0), (2, 0)], 0.5)
        assert out.tolist() == [[0, 0], [2, 0]]

    def test_deviating_point_kept(self):
        # the distance of (1,1) to the chord (0,0)-(2,0) is exactly 1 > 0.5
        out = rdp_stroke([(0, 0), (1, 1), (2, 0)], 0.5)
        assert out.tolist() == [[0, 0], [1, 1], [2, 0]]

    def test_single_point(self):
        assert rdp_stroke([(3, 3)], 1.0).tolist() == [[3, 3]]

    def test_two_points(self):
        assert rdp_stroke([(0, 0), (5, 5)], 1.0).tolist() == [[0, 0], [5, 5]]

    def test_closed_stroke_degenerate_chord(self):
        # first == last: falls back to point distance, keeps the far point
        out = rdp_stroke([(0, 0), (10, 0), (0, 0)], 1.0)
        assert [0.0, 0.0] == out[0].tolist() == out[-1].tolist()
        assert [10.0, 0.0] in out.tolist()

    def test_subsequence_and_endpoints(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            pts = noisy_stroke(rng, int(rng.integers(3, 120)))
            out = rdp_stroke(pts, 2.0)
            assert out[0].tolist() == pts[0].tolist()
            assert out[-1].tolist() == pts[-1].tolist()
            # subsequence check: each output row appears in order
            i = 0
            for row in out:
                while i < len(pts) and pts[i].tolist() != row.tolist():
                    i += 1
                assert i < len(pts)
                i += 1

    def test_hausdorff_bound_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            pts = noisy_stroke(rng, int(rng.integers(3, 100)))
            eps = float(rng.uniform(0.5, 6.0))
            out = rdp_stroke(pts, eps)
            worst = max(dist_point_to_polyline(p, out) for p in pts)
            assert worst <= eps + 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            pts = noisy_stroke(rng, 80)
            once = rdp_stroke(pts, 2.0)
            twice = rdp_stroke(once, 2.0)
            assert once.tolist() == twice.tolist()

    @pytest.mark.parametrize("scale", [1e160, 1.5e307, -1e200])
    def test_huge_coordinates_keep_their_corners(self, scale):
        # chord arithmetic used to overflow past ~1e154: every distance came
        # out NaN and the zigzag collapsed to its two endpoints
        zigzag = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0], [4.0, 0.0]])
        out = rdp_stroke(zigzag * scale, 2.0)
        assert out.tolist() == (zigzag * scale).tolist()

    def test_huge_collinear_interior_removed(self):
        out = rdp_stroke(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]) * 1e160, 2.0)
        assert out.tolist() == [[0.0, 0.0], [2e160, 0.0]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_raise(self, bad):
        # a NaN made its interval's maximum NaN, so the interval never split
        # and (1, 7), 7 from the chord, vanished along with the NaN point;
        # no sketch can hold one, so none reaches the RDP pass
        with pytest.raises(NonFiniteCoordinateError):
            VectorSketch(np.array([[0.0, 0.0], [bad, 5.0], [1.0, 7.0], [2.0, 0.0]]), np.array([0, 0, 0, 1]))
        with pytest.raises(MalformedPointsError):
            VectorSketch(np.array([[0.0, bad, 1.0]]), np.array([1]))

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -1.0, 0.0])
    def test_bad_epsilon_raises(self, eps):
        # NaN and inf used to keep only the endpoints, -1 acted as 1 and 0
        # kept every point that deviates at all; the config that carries
        # epsilon to the RDP pass rejects them
        with pytest.raises(InvalidConfigError, match="epsilon"):
            SimplifyConfig(epsilon=eps)

    @given(st.integers(3, 60), st.floats(0.2, 8.0))
    def test_property_subsequence_bound(self, n, eps):
        rng = np.random.default_rng(n * 1000 + int(eps * 10))
        pts = noisy_stroke(rng, n)
        out = rdp_stroke(pts, eps)
        assert len(out) <= len(pts)
        worst = max(dist_point_to_polyline(p, out) for p in pts)
        assert worst <= eps + 1e-9


def dense_noisy_sketch(rng, n_points, n_strokes=3):
    pts = []
    per = n_points // n_strokes
    for k in range(n_strokes):
        stroke = noisy_stroke(rng, per) + np.array([0.0, 30.0 * k])
        for i, (x, y) in enumerate(stroke):
            pts.append((float(x), float(y), 1 if i == per - 1 else 0))
    return validate_and_normalize(pts)


class TestSimplifySketch:
    def test_straight_strokes_reduced_to_endpoints(self):
        sk = validate_and_normalize(
            [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 1), (0, 5, 0), (1, 5, 0), (2, 5, 1)]
        )
        out = simplify_sketch(sk, SimplifyConfig(epsilon=0.5, max_points=448))
        assert out.n == 4
        assert out.s.tolist() == [0, 1, 0, 1]

    def test_cap_448(self):
        rng = np.random.default_rng(21)
        sk = dense_noisy_sketch(rng, 999)
        out = simplify_sketch(sk, SimplifyConfig(epsilon=0.05, max_points=448))
        assert out.n <= 448

    def test_cap_321(self):
        rng = np.random.default_rng(22)
        sk = dense_noisy_sketch(rng, 999)
        out = simplify_sketch(sk, SimplifyConfig(epsilon=0.05, max_points=321))
        assert out.n <= 321

    def test_point_subset_of_input(self):
        rng = np.random.default_rng(23)
        sk = dense_noisy_sketch(rng, 300)
        out = simplify_sketch(sk, SimplifyConfig(epsilon=2.0, max_points=448))
        input_rows = {tuple(r) for r in sk.xy.tolist()}
        for row in out.xy.tolist():
            assert tuple(row) in input_rows

    def test_idempotent(self):
        rng = np.random.default_rng(24)
        cfg = SimplifyConfig(epsilon=2.0, max_points=448)
        for _ in range(20):
            sk = dense_noisy_sketch(rng, int(rng.integers(30, 400)))
            once = simplify_sketch(sk, cfg)
            twice = simplify_sketch(once, cfg)
            assert once.xy.tolist() == twice.xy.tolist()
            assert once.s.tolist() == twice.s.tolist()

    def test_truncation_after_escalation(self):
        # 300 isolated single-point strokes cannot be simplified below the
        # cap by escalation, so the tail is cut at max_points
        rng = np.random.default_rng(25)
        pts = [(float(x), float(y), 1) for x, y in rng.uniform(0, 255, size=(300, 2))]
        sk = validate_and_normalize(pts)
        out = simplify_sketch(sk, SimplifyConfig(epsilon=2.0, max_points=100))
        assert out.n == 100
        assert out.xy.tolist() == sk.xy[:100].tolist()

    def test_invalid_config(self):
        with pytest.raises(InvalidConfigError):
            SimplifyConfig(epsilon=0.0)
        with pytest.raises(InvalidConfigError):
            SimplifyConfig(max_points=1)
        with pytest.raises(InvalidConfigError):
            SimplifyConfig(escalation_factor=1.0)


def test_escalation_does_not_rerun_rdp(monkeypatch):
    # each escalation round used to re-run RDP over every stroke; now every
    # round thresholds the significance of one pass
    calls = {"pass": 0, "projection": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(simplify, "_significance", counted("pass", simplify._significance))
    monkeypatch.setattr(simplify, "segment_projection", counted("projection", simplify.segment_projection))
    sk = dense_noisy_sketch(np.random.default_rng(26), 999)
    seen = {}
    # no cap below the point count needs no escalation; 3 strokes keep 6
    # ends, so a cap of 2 runs all MAX_ESCALATIONS rounds
    for cap in (sk.n, 2):
        calls.update({"pass": 0, "projection": 0})
        simplify_sketch(sk, SimplifyConfig(epsilon=2.0, max_points=cap))
        seen[cap] = dict(calls)
    assert seen[2] == seen[sk.n]
    assert seen[2]["pass"] == 1


def case_split():
    """One sketch per case: a zigzag whose every point survives all
    escalation rounds (cut mid-stroke), a walk that escalates until it fits,
    40 single-point strokes, zero, subnormal and past-2**500 extents."""
    rng = np.random.default_rng(3)
    zigzag = np.column_stack([np.arange(300.0), 1000.0 * (np.arange(300) % 2)])
    walk = np.cumsum(rng.normal(size=(500, 2)), axis=0) * 5.0
    singles = rng.uniform(0.0, 255.0, size=(40, 2))
    return [
        VectorSketch(zigzag, np.zeros(300)),
        VectorSketch(walk, np.zeros(500)),
        VectorSketch(singles, np.ones(40)),
        VectorSketch(np.full((5, 2), 3.0), [0, 1, 0, 0, 1]),
        VectorSketch([[0.0, 0.0], [1e-320, 0.0], [0.0, 2e-320]], [0, 0, 1]),
        VectorSketch(2.0**600 * walk[:200], np.zeros(200)),
    ]


class TestSimplifySplit:
    def test_cases_match_per_item(self):
        config = SimplifyConfig(epsilon=0.5, max_points=100)
        sketches = case_split()
        out = simplify_split(sketches, config)
        assert_same_bytes(out, [ref.simplify_sketch(sk, config) for sk in sketches])
        assert out[0].xy.tolist() == sketches[0].xy[:100].tolist()  # exhausted, then cut mid-stroke
        assert simplify_sketch(sketches[1], SimplifyConfig(epsilon=0.5, max_points=500)).n > 100
        assert out[1].n <= 100  # escalated until it fit
        assert out[2].n == 40 and out[3].n == 2

    def test_many_chunks(self):
        config = SimplifyConfig(epsilon=0.5, max_points=100)
        sketches = case_split() * 3
        expected = [ref.simplify_sketch(sk, config) for sk in sketches]
        for budget in (1, 250, 700):  # one sketch per chunk; sketches above the budget; several per chunk
            with mock.patch.object(simplify, "_POINT_BUDGET", budget):
                assert_same_bytes(simplify_split(sketches, config), expected)

    def test_one_pass_per_chunk(self, monkeypatch):
        calls = []
        significance = simplify._significance
        monkeypatch.setattr(simplify, "_significance", lambda *a: calls.append(len(a[0])) or significance(*a))
        sketches = case_split()
        simplify_split(sketches, SimplifyConfig(epsilon=0.5, max_points=100))
        assert calls == [sum(sk.n for sk in sketches)]

    def test_empty_split(self):
        assert simplify_split([], SimplifyConfig()) == []

    @given(splits(), simplify_configs, st.sampled_from([None, 1, 60, 300]))
    def test_property_equals_per_item(self, sketches, config, budget):
        expected = [ref.simplify_sketch(sk, config) for sk in sketches]
        assert_same_bytes([simplify_sketch(sk, config) for sk in sketches], expected)
        with mock.patch.object(simplify, "_POINT_BUDGET", budget or simplify._POINT_BUDGET):
            assert_same_bytes(simplify_split(sketches, config), expected)
