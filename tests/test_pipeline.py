import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sketchattn.errors import (
    CategoryMismatchError,
    EmptyDatasetError,
    InvalidCanvasError,
    InvalidConfigError,
    LabelOutOfRangeError,
    LengthMismatchError,
    MalformedDocumentError,
    ShapeMismatchError,
    VersionMismatchError,
)
from sketchattn.geometry import CANVAS_MARGIN, normalize_to_canvas, validate_and_normalize
from sketchattn.ingest import Dataset, LabeledSketch, random_sketch, synth_dataset, synth_generate
from sketchattn.net import autodiff as ad
from sketchattn.net.autodiff import Tape
from sketchattn.net.model import CnnConfig, RnnConfig
from sketchattn import pipeline
from sketchattn.net.optim import save_checkpoint
from sketchattn.pipeline import (
    AugmentConfig,
    ExperimentConfig,
    Metrics,
    augment,
    desk_config,
    evaluate,
    forward_classify,
    init_model_state,
    load_model,
    paper_scale_config,
    prepare_sketch,
    prepare_split,
    randomize_stroke_order,
    train,
)
from sketchattn.raster import RasterConfig, rasterize_forward
from sketchattn.simplify import SimplifyConfig

from image_support import densify
from sketch_strategies import assert_same_bytes, simplify_configs, splits

TINY = dict(
    rnn=RnnConfig(hidden_size=8, dropout_prob=0.0),
    cnn=CnnConfig(stages=(4, 8), num_classes=2),
    raster=RasterConfig(width=16, height=16, epsilon=1.0),
)


def tiny_config(variant="sketch_r2cnn", seed=0, **kw):
    return desk_config(2, variant=variant, seed=seed, **{**TINY, **kw})


def multi_stroke_sketch():
    return validate_and_normalize(
        [(5, 5, 0), (20, 5, 1), (5, 20, 0), (20, 20, 1), (30, 30, 0), (40, 40, 1)]
    )


class TestForwardClassify:
    def test_zero_head_map_is_half_binary(self):
        cfg = tiny_config()
        state = init_model_state(cfg)
        state.params["head.w"].data[:] = 0.0
        state.params["head.b"].data[:] = 0.0
        sk = prepare_sketch(synth_generate("circle", 3).sketch, cfg)
        logits, attention, amap = forward_classify(state, cfg, sk)
        binary = rasterize_forward(sk, np.ones(sk.n), cfg.raster).intensities
        np.testing.assert_array_equal(amap.intensities, 0.5 * binary)
        np.testing.assert_array_equal(attention, np.full(sk.n, 0.5))
        assert logits.shape == (2,)

    def test_cnn_only_returns_no_attention(self):
        cfg = tiny_config("cnn_only_binary")
        state = init_model_state(cfg)
        sk = prepare_sketch(synth_generate("line", 1).sketch, cfg)
        logits, attention, amap = forward_classify(state, cfg, sk)
        assert attention is None
        assert set(np.unique(amap.intensities)) <= {0.0, 1.0}

    def test_order_encoded_returns_ramp(self):
        cfg = tiny_config("order_encoded_cnn")
        state = init_model_state(cfg)
        sk = prepare_sketch(synth_generate("zigzag", 1).sketch, cfg)
        _, attention, amap = forward_classify(state, cfg, sk)
        assert attention[0] == 1.0 and attention[-1] == 0.0

    def test_gradient_reaches_rnn_parameters(self):
        cfg = tiny_config()
        state = init_model_state(cfg)
        sk = prepare_sketch(synth_generate("square_cw", 5).sketch, cfg)
        from sketchattn.net.autodiff import backward, cross_entropy_logits
        from sketchattn.pipeline import _forward_batch

        tape = Tape()
        logits, _, _ = _forward_batch(state, cfg, [sk], tape, np.random.default_rng(0))
        loss = cross_entropy_logits(tape, logits, np.array([0]))
        backward(tape, loss)
        rnn_grads = [p.grad for n, p in state.params.items() if n.startswith(("rnn.", "head."))]
        assert any(g is not None and np.abs(g).max() > 0 for g in rnn_grads)


def _refuse_record(tape, backward_fn):
    raise AssertionError("a pass that runs no backward recorded a tape op")


class TestInferenceRecordsNoTape:
    @pytest.mark.parametrize("variant", pipeline.VARIANTS)
    def test_evaluate_and_forward_classify(self, monkeypatch, variant):
        cfg = tiny_config(variant)
        state = init_model_state(cfg)
        ds = synth_dataset(2, 0, "test", ("line", "circle"))
        sk = prepare_sketch(ds.items[0].sketch, cfg)
        taped, _, _ = pipeline._forward_batch(state, cfg, [sk], Tape())
        monkeypatch.setattr(Tape, "record", _refuse_record)
        assert 0.0 <= evaluate(state, cfg, ds) <= 1.0
        logits, _, _ = forward_classify(state, cfg, sk)
        assert logits.tobytes() == taped.data[0].tobytes()

    @pytest.mark.parametrize("profile", ["nlr", "full"])
    def test_grad_check_probes(self, monkeypatch, profile):
        # the analytic pass records; every central-difference probe after it must not
        from sketchattn import cli
        from sketchattn.net import gradcheck

        analytic_backward = gradcheck.backward

        def backward_then_refuse(tape, loss):
            analytic_backward(tape, loss)
            monkeypatch.setattr(Tape, "record", _refuse_record)

        monkeypatch.setattr(gradcheck, "backward", backward_then_refuse)
        fn, params = cli._PROFILES[profile](0)
        report = gradcheck.grad_check(
            fn, params, step=cli.GRADCHECK_STEPS[profile], tolerance=cli.GRADCHECK_TOLERANCES[profile],
            max_entries_per_param=2, rng=np.random.default_rng(0),
        )
        assert report.passed


class TestRasterizeBatch:
    def test_one_bridge_tapes_only_learned_attention(self):
        from sketchattn.net.autodiff import backward
        from sketchattn.pipeline import _rasterize_batch

        sketches = [multi_stroke_sketch(), validate_and_normalize([(1, 1, 0), (9, 9, 1)])]
        cfg = RasterConfig(48, 48, 1.0)
        rows = np.random.default_rng(0).uniform(0.1, 0.9, size=(2, 6))
        rows[1, 2:] = 0.0

        tape = Tape()
        values, support, maps = _rasterize_batch(tape, ad.constant(rows), sketches, cfg)
        assert len(tape) == 0
        assert values.data.shape == support.shape == (len(support),)
        images = densify(values.data, support, (2, 48, 48))
        for b, sk in enumerate(sketches):
            expect = rasterize_forward(sk, rows[b, : sk.n], cfg)
            np.testing.assert_array_equal(images[b], expect.intensities)
            np.testing.assert_array_equal(maps[b].owner, expect.owner)

        tape = Tape()
        attn = ad.parameter(rows)
        values, support, maps = _rasterize_batch(tape, attn, sketches, cfg)
        assert len(tape) == 1
        backward(tape, ad.sum_all(tape, values))
        assert np.all(attn.grad[1, 2:] == 0.0)
        for b, sk in enumerate(sketches):
            assert attn.grad[b, : sk.n].sum() == pytest.approx(maps[b].owned_pixel_count, abs=1e-9)

    @given(st.integers(1, 4), st.integers(0, 2**16), st.sampled_from([(16, 16), (24, 40), (64, 64)]))
    def test_values_support_and_vjp_match_per_item_rasterization(self, B, seed, size):
        from sketchattn.net.autodiff import backward
        from sketchattn.pipeline import _rasterize_batch
        from sketchattn.raster import rasterize_backward

        rng = np.random.default_rng(seed)
        H, W = size
        cfg = RasterConfig(width=W, height=H, epsilon=1.0)
        sketches = [
            normalize_to_canvas(random_sketch(rng, int(rng.integers(1, 30)), 64.0, 64.0), W, H, CANVAS_MARGIN)
            for _ in range(B)
        ]
        rows = rng.uniform(0.1, 0.9, size=(B, max(sk.n for sk in sketches)))
        tape = Tape()
        attn = ad.parameter(rows)
        values, support, maps = _rasterize_batch(tape, attn, sketches, cfg)
        assert support.dtype.kind == "i" and np.all(np.diff(support) > 0)
        upstream = rng.normal(size=values.data.shape)
        backward(tape, ad.sum_all(tape, ad.mul_const(tape, values, upstream)))
        for b, sk in enumerate(sketches):
            mine = (support >= b * H * W) & (support < (b + 1) * H * W)
            expect = rasterize_forward(sk, rows[b, : sk.n], cfg)
            owned = expect.owner >= 0
            # the item's owned pixels, row-major, bit for bit
            assert support[mine].tolist() == (np.flatnonzero(owned) + b * H * W).tolist()
            assert values.data[mine].tobytes() == expect.intensities[owned].tobytes()
            delta = np.zeros((H, W))
            delta[owned] = upstream[mine]
            assert attn.grad[b, : sk.n].tobytes() == rasterize_backward(expect, delta, sk.n).tobytes()
            assert np.all(attn.grad[b, sk.n :] == 0.0)


class TestPrepareSplit:
    @given(splits(), simplify_configs, st.sampled_from([16, 64, 224]), st.sampled_from([16, 64, 224]))
    def test_equals_per_item_prepare(self, sketches, simplify_config, width, height):
        cfg = tiny_config(simplify=simplify_config, raster=RasterConfig(width=width, height=height, epsilon=1.0))
        assert_same_bytes(prepare_split(sketches, cfg), [prepare_sketch(sk, cfg) for sk in sketches])

    def test_train_and_evaluate_prepare_whole_splits(self, monkeypatch):
        # each split used to go through prepare_sketch item by item
        cfg = tiny_config(epochs=1, simplify=SimplifyConfig(max_points=20))
        rng = np.random.default_rng(4)
        shapes = synth_dataset(3, seed=6, split="train", categories=("square_cw", "square_ccw"))
        walks = [LabeledSketch(random_sketch(rng, 60, 64.0, 64.0), k % 2, shapes.categories[k % 2]) for k in range(4)]
        ds = Dataset(shapes.categories, shapes.items + walks, "train")
        per_item = [prepare_sketch(it.sketch, cfg) for it in ds.items]

        def refuse(*args):
            raise AssertionError("a split was prepared item by item")

        calls = []
        simplify_split = pipeline.simplify_split
        monkeypatch.setattr(pipeline, "prepare_sketch", refuse)
        monkeypatch.setattr(pipeline, "simplify_sketch", refuse)
        monkeypatch.setattr(pipeline, "simplify_split", lambda sks, c: calls.append(len(sks)) or simplify_split(sks, c))
        state, _ = train(cfg, ds, valid_ds=ds, test_ds=ds)
        assert calls == [len(ds)] * 3
        acc = evaluate(state, cfg, ds)
        assert calls == [len(ds)] * 4
        assert acc == evaluate(state, cfg, ds, per_item)


class TestAugment:
    OFF = dict(reflect_prob=0.0, removal_prob=0.0, jitter_sigma=0.0)

    def test_all_switches_off_identity(self):
        # every amount 0 turns every step off
        sk = multi_stroke_sketch()
        out = augment(sk, np.random.default_rng(0), AugmentConfig(**self.OFF), 64)
        np.testing.assert_array_equal(out.xy, sk.xy)
        np.testing.assert_array_equal(out.s, sk.s)

    def test_all_amounts_zero_leave_rng_untouched(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        augment(multi_stroke_sketch(), rng, AugmentConfig(**self.OFF), 64)
        assert rng.bit_generator.state == before

    def test_double_reflection_is_identity(self):
        sk = multi_stroke_sketch()
        cfg = AugmentConfig(**{**self.OFF, "reflect_prob": 1.0})
        once = augment(sk, np.random.default_rng(0), cfg, 64)
        twice = augment(once, np.random.default_rng(0), cfg, 64)
        np.testing.assert_allclose(twice.xy, sk.xy, atol=1e-9)

    def test_reflection_maps_x(self):
        sk = validate_and_normalize([(0, 0, 0), (10, 5, 1)])
        cfg = AugmentConfig(**{**self.OFF, "reflect_prob": 1.0})
        out = augment(sk, np.random.default_rng(0), cfg, 64)
        np.testing.assert_allclose(out.xy[:, 0], [63.0, 53.0])
        np.testing.assert_allclose(out.xy[:, 1], sk.xy[:, 1])

    def test_single_stroke_never_removed(self):
        sk = validate_and_normalize([(0, 0, 0), (10, 10, 1)])
        cfg = AugmentConfig(**{**self.OFF, "removal_prob": 1.0})
        out = augment(sk, np.random.default_rng(0), cfg, 64)
        assert out.n == sk.n

    def test_stroke_removal_drops_one_stroke(self):
        sk = multi_stroke_sketch()
        cfg = AugmentConfig(**{**self.OFF, "removal_prob": 1.0})
        out = augment(sk, np.random.default_rng(1), cfg, 64)
        assert out.n == sk.n - 2
        assert out.s[-1] == 1

    def test_jitter_moves_points(self):
        sk = multi_stroke_sketch()
        cfg = AugmentConfig(**{**self.OFF, "jitter_sigma": 1.0})
        out = augment(sk, np.random.default_rng(2), cfg, 64)
        assert out.n == sk.n
        assert np.abs(out.xy - sk.xy).max() > 0

    def test_deterministic_given_rng_seed(self):
        sk = multi_stroke_sketch()
        cfg = AugmentConfig()
        a = augment(sk, np.random.default_rng(33), cfg, 64)
        b = augment(sk, np.random.default_rng(33), cfg, 64)
        np.testing.assert_array_equal(a.xy, b.xy)


class TestRandomizeStrokeOrder:
    def test_single_stroke_unchanged(self):
        sk = validate_and_normalize([(0, 0, 0), (5, 5, 1)])
        out = randomize_stroke_order(sk, np.random.default_rng(0))
        assert out is sk

    def test_binary_raster_preserved(self):
        cfg = RasterConfig(32, 32, 1.0)
        sk = multi_stroke_sketch()
        ones = np.ones(sk.n)
        base = rasterize_forward(sk, ones, cfg).intensities
        for seed in range(10):
            out = randomize_stroke_order(sk, np.random.default_rng(seed))
            np.testing.assert_array_equal(rasterize_forward(out, ones, cfg).intensities, base)

    def test_point_multiset_unchanged(self):
        sk = multi_stroke_sketch()
        out = randomize_stroke_order(sk, np.random.default_rng(3))
        assert sorted(map(tuple, out.xy.tolist())) == sorted(map(tuple, sk.xy.tolist()))

    def test_states_remain_valid(self):
        sk = multi_stroke_sketch()
        for seed in range(10):
            out = randomize_stroke_order(sk, np.random.default_rng(seed))
            assert out.s[-1] == 1
            assert out.s.sum() == sk.s.sum()

    def test_all_six_permutations_of_three_strokes(self):
        sk = multi_stroke_sketch()
        rng = np.random.default_rng(4)
        counts = {}
        for _ in range(1000):
            out = randomize_stroke_order(sk, rng)
            key = tuple(map(tuple, out.xy[::2].tolist()))  # stroke start points
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        expected = 1000 / 6
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 20.515  # chi-square 5 dof upper tail at p = 0.001


class TestTrainEvaluate:
    def test_lr_zero_leaves_parameters(self, monkeypatch):
        # a config's lr must be > 0, so the optimizer is stepped at 0 directly
        step = pipeline.adam_step
        monkeypatch.setattr(pipeline, "adam_step", lambda state, lr: step(state, 0.0))
        cfg = tiny_config(epochs=2)
        ds = synth_dataset(4, seed=1, split="train", categories=("square_cw", "square_ccw"))
        ref = init_model_state(cfg)
        state, metrics = train(cfg, ds)
        for k, p in state.params.items():
            np.testing.assert_array_equal(p.data, ref.params[k].data)
        accs = {r.train_acc for r in metrics.records}
        assert len(accs) == 1  # flat accuracy

    def test_seed_determinism(self, tmp_path):
        cfg = tiny_config(epochs=2)
        ds = synth_dataset(4, seed=2, split="train", categories=("square_cw", "square_ccw"))
        vs = synth_dataset(2, seed=2, split="valid", categories=("square_cw", "square_ccw"))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        s1, m1 = train(cfg, ds, vs, out_dir=str(out1))
        s2, m2 = train(cfg, ds, vs, out_dir=str(out2))
        assert (out1 / "metrics.jsonl").read_bytes() == (out2 / "metrics.jsonl").read_bytes()
        assert (out1 / "best.ckpt.json").read_bytes() == (out2 / "best.ckpt.json").read_bytes()
        for k in s1.params:
            np.testing.assert_array_equal(s1.params[k].data, s2.params[k].data)

    def test_constant_logit_model_scores_chance(self):
        cfg = tiny_config("cnn_only_binary")
        state = init_model_state(cfg)
        for name, p in state.params.items():
            p.data[:] = 0.0
        ds = synth_dataset(10, seed=3, split="test", categories=("square_cw", "square_ccw"))
        acc = evaluate(state, cfg, ds)
        assert acc == pytest.approx(0.5, abs=1e-12)

    def test_accuracy_invariant_to_item_order(self):
        cfg = tiny_config(epochs=1)
        ds = synth_dataset(6, seed=4, split="train", categories=("square_cw", "square_ccw"))
        state, _ = train(cfg, ds)
        test = synth_dataset(8, seed=4, split="test", categories=("square_cw", "square_ccw"))
        acc1 = evaluate(state, cfg, test)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(test.items))
        shuffled = type(test)(test.categories, [test.items[i] for i in perm], test.split)
        acc2 = evaluate(state, cfg, shuffled)
        assert acc1 == pytest.approx(acc2, abs=1e-12)

    def test_labels_beyond_model_classes_rejected(self):
        cfg = tiny_config()
        ds = synth_dataset(1, 0, "test", ("line", "circle", "zigzag"))
        with pytest.raises(LabelOutOfRangeError):
            evaluate(init_model_state(cfg), cfg, ds)

    def test_categories_must_match_classes(self, tmp_path):
        # the checkpoint would name fewer categories than the model has logits
        ds = synth_dataset(1, seed=5, split="train", categories=("square_cw", "square_ccw"))
        with pytest.raises(InvalidConfigError, match="2 classes.*1 categories"):
            train(tiny_config(), Dataset(["square_cw"], ds.items[:1], "train"), out_dir=str(tmp_path / "run"))
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("split", ["valid", "test"])
    def test_reordered_valid_or_test_categories_raise_before_writing(self, tmp_path, split):
        # used to score valid_acc/test_acc against labels that mean other
        # categories, and to pick best.ckpt.json by that score
        ds = synth_dataset(2, seed=5, split="train", categories=("square_cw", "square_ccw"))
        other = synth_dataset(2, seed=6, split=split, categories=("square_ccw", "square_cw"))
        with pytest.raises(CategoryMismatchError, match=rf"{split} split categories \['square_ccw', 'square_cw'\]"):
            train(tiny_config(), ds, **{f"{split}_ds": other}, out_dir=str(tmp_path / "run"))
        assert not (tmp_path / "run").exists()

    def test_empty_train_split_raises_before_writing(self, tmp_path):
        empty = Dataset(["square_cw", "square_ccw"], [], "train")
        with pytest.raises(EmptyDatasetError, match="train split"):
            train(tiny_config(), empty, out_dir=str(tmp_path / "run"))
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("split", ["valid", "test"])
    def test_empty_valid_or_test_split_raises(self, split):
        ds = synth_dataset(1, seed=5, split="train", categories=("square_cw", "square_ccw"))
        empty = Dataset(ds.categories, [], split)
        with pytest.raises(EmptyDatasetError, match=f"{split} split"):
            train(tiny_config(), ds, **{f"{split}_ds": empty})

    def test_evaluate_on_empty_split_raises(self):
        cfg = tiny_config()
        with pytest.raises(EmptyDatasetError, match="test split"):
            evaluate(init_model_state(cfg), cfg, Dataset(["square_cw", "square_ccw"], [], "test"))

    def test_checkpoints_and_metrics_written(self, tmp_path):
        cfg = tiny_config(epochs=2)
        ds = synth_dataset(3, seed=5, split="train", categories=("square_cw", "square_ccw"))
        train(cfg, ds, out_dir=str(tmp_path))
        assert (tmp_path / "epoch_000.ckpt.json").exists()
        assert (tmp_path / "epoch_001.ckpt.json").exists()
        assert (tmp_path / "best.ckpt.json").exists()
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {"format": "sketchattn-metrics", "version": 1}
        assert len(lines) == 3
        rec = json.loads(lines[1])
        assert set(rec) == {"epoch", "train_loss", "train_acc", "valid_acc", "test_acc"}

    def test_test_accuracy_whenever_a_test_set_is_given(self):
        cfg = tiny_config(epochs=1)
        cats = ("square_cw", "square_ccw")
        train_ds = synth_dataset(3, seed=5, split="train", categories=cats)
        test_ds = synth_dataset(2, seed=5, split="test", categories=cats)
        state, metrics = train(cfg, train_ds, test_ds=test_ds)
        assert metrics.final.test_acc == evaluate(state, cfg, test_ds)
        _, metrics = train(cfg, train_ds)
        assert metrics.final.test_acc is None

    def test_early_stopping(self):
        cfg = tiny_config(epochs=50, early_stop_train_acc=0.0)
        ds = synth_dataset(3, seed=6, split="train", categories=("square_cw", "square_ccw"))
        _, metrics = train(cfg, ds)
        assert len(metrics.records) == 1

    def test_valid_threshold_alone_stops(self):
        # set alone, early_stop_valid_acc was ignored: all 3 epochs ran
        cfg = tiny_config(epochs=3, early_stop_valid_acc=0.0)
        ds = synth_dataset(3, seed=6, split="train", categories=("square_cw", "square_ccw"))
        _, metrics = train(cfg, ds, ds)
        assert len(metrics.records) == 1

    def test_every_set_threshold_must_be_met(self):
        cfg = tiny_config(epochs=2, early_stop_train_acc=0.0, early_stop_valid_acc=1.0)
        ds = synth_dataset(3, seed=6, split="train", categories=("square_cw", "square_ccw"))
        _, metrics = train(cfg, ds, ds)
        assert len(metrics.records) == 2 and metrics.records[0].valid_acc < 1.0

    def test_valid_threshold_without_valid_split_rejected(self):
        # a valid threshold without a valid split used to never stop, silently
        cfg = tiny_config(epochs=3, early_stop_valid_acc=0.0)
        ds = synth_dataset(3, seed=6, split="train", categories=("square_cw", "square_ccw"))
        with pytest.raises(InvalidConfigError, match="early_stop_valid_acc"):
            train(cfg, ds, test_ds=ds)

    def test_training_and_evaluate_see_one_prepared_sketch(self, monkeypatch):
        # a subnormal extent prepared to two coincident points: augment merged
        # them, so training saw 1 point while evaluate saw 2
        sketch = validate_and_normalize([(0, 0, 0), (1e-320, 0, 1)])
        cfg = tiny_config(epochs=1)
        assert prepare_sketch(sketch, cfg).n == 1
        ds = Dataset(["square_cw", "square_ccw"], [LabeledSketch(sketch, 0, "square_cw")], "train")
        seen = []
        rasterize = pipeline.rasterize_forward

        def recording(sk, attention, config):
            seen.append(sk.n)
            return rasterize(sk, attention, config)

        monkeypatch.setattr(pipeline, "rasterize_forward", recording)
        state, _ = train(cfg, ds)
        evaluate(state, cfg, ds)
        assert seen == [1, 1]

    @pytest.mark.parametrize("count, items, batch_size", [(5, 6, 48), (7, 6, 48), (17, 16, 16)])
    def test_evaluate_rejects_prepared_of_another_length(self, count, items, batch_size):
        # 5 or 7 raised an untyped broadcast error; 17 for 16 at batch 16
        # returned a count out of 17
        cfg = tiny_config(batch_size=batch_size)
        ds = synth_dataset(items // 2, seed=8, split="test", categories=("square_cw", "square_ccw"))
        prepared = [prepare_sketch(ds.items[k % items].sketch, cfg) for k in range(count)]
        with pytest.raises(LengthMismatchError, match=f"{count} prepared sketches for {items} items"):
            evaluate(init_model_state(cfg), cfg, ds, prepared)

    def test_random_stroke_order_variant_trains(self):
        cfg = tiny_config("random_stroke_order_r2cnn", epochs=1)
        ds = synth_dataset(3, seed=7, split="train", categories=("square_cw", "square_ccw"))
        state, metrics = train(cfg, ds)
        assert len(metrics.records) == 1

    @staticmethod
    def _with_and_without_stroke_shuffle(tmp_path, ds):
        """(metrics.jsonl bytes, parameters) of sketch_r2cnn, then of
        random_stroke_order_r2cnn, each trained on ds with a valid split."""
        runs = []
        for variant in ("sketch_r2cnn", "random_stroke_order_r2cnn"):
            out = tmp_path / variant
            state, _ = train(tiny_config(variant, epochs=2), ds, ds, out_dir=str(out))
            runs.append(((out / "metrics.jsonl").read_bytes(), state.params))
        return runs

    def test_stroke_shuffle_leaves_single_stroke_training_unchanged(self, tmp_path):
        # every synthetic shape is one stroke, which has one order
        ds = synth_dataset(3, seed=9, split="train", categories=("square_cw", "square_ccw"))
        (metrics, params), (shuffled_metrics, shuffled_params) = self._with_and_without_stroke_shuffle(tmp_path, ds)
        assert shuffled_metrics == metrics
        for name, p in params.items():
            np.testing.assert_array_equal(shuffled_params[name].data, p.data)

    def test_stroke_shuffle_changes_multi_stroke_training(self, tmp_path):
        rng = np.random.default_rng(9)
        cats = ["square_cw", "square_ccw"]
        items = [
            LabeledSketch(random_sketch(rng, 24, 64.0, 64.0, stroke_break_prob=0.3), k % 2, cats[k % 2])
            for k in range(6)
        ]
        ds = Dataset(cats, items, "train")
        (metrics, params), (shuffled_metrics, shuffled_params) = self._with_and_without_stroke_shuffle(tmp_path, ds)
        assert shuffled_metrics != metrics
        assert any(not np.array_equal(shuffled_params[name].data, p.data) for name, p in params.items())

    def test_nonfinite_loss_aborts_with_dump(self, tmp_path, monkeypatch):
        from sketchattn import pipeline as pl
        from sketchattn.errors import NonFiniteLossError

        cfg = tiny_config(epochs=1)
        ds = synth_dataset(2, seed=8, split="train", categories=("square_cw", "square_ccw"))
        real_init = pl.init_model_state

        def poisoned(config):
            state = real_init(config)
            state.params["cnn.fc.w"].data[0, 0] = np.nan
            return state

        monkeypatch.setattr(pl, "init_model_state", poisoned)
        with pytest.raises(NonFiniteLossError):
            train(cfg, ds, out_dir=str(tmp_path))
        assert (tmp_path / "nonfinite_dump.json").exists()

    def test_nonfinite_attention_aborts_with_dump(self, tmp_path, monkeypatch):
        # a diverged RNN stops in the rasterizer, before the loss check
        from sketchattn import pipeline as pl
        from sketchattn.errors import NonFiniteAttentionError

        cfg = tiny_config(epochs=1)
        ds = synth_dataset(2, seed=8, split="train", categories=("square_cw", "square_ccw"))
        real_init = pl.init_model_state

        def poisoned(config):
            state = real_init(config)
            state.params["rnn.l0.fw.wx"].data[0, 0] = np.nan
            return state

        monkeypatch.setattr(pl, "init_model_state", poisoned)
        with pytest.raises(NonFiniteAttentionError) as err:
            train(cfg, ds, out_dir=str(tmp_path))
        dump = json.loads((tmp_path / "nonfinite_dump.json").read_text())
        assert dump == {"epoch": 0, "step": 0, "tensor": "attention"}
        assert json.loads(str(err.value)) == dump


def _saved(state, path, categories=("square_cw", "square_ccw")):
    """Save state as training would: with the categories it classifies into."""
    state.categories = list(categories)
    save_checkpoint(state, path)
    return path


class TestLoadModel:
    @staticmethod
    def _checkpoint(tmp_path, edit=None):
        state = init_model_state(tiny_config())
        if edit is not None:
            edit(state.params)
        return _saved(state, tmp_path / "model.ckpt.json")

    def test_round_trip(self, tmp_path):
        state, cfg = load_model(self._checkpoint(tmp_path))
        assert cfg == tiny_config()
        assert state.params.keys() == init_model_state(cfg).params.keys()
        assert state.categories == ["square_cw", "square_ccw"]

    @pytest.mark.parametrize(
        "categories, named",
        [
            (5, "not a list"),
            (["square_cw", 7], "not a list of strings"),
            (["square_cw", "square_cw"], "'square_cw' more than once"),
            (["square_cw"], "names 1 categories, its config classifies into 2"),
            (["a", "b", "c"], "names 3 categories"),
        ],
        ids=["number", "non_string", "repeated", "too_few", "too_many"],
    )
    def test_categories_checked(self, tmp_path, categories, named):
        path = self._checkpoint(tmp_path)
        payload = json.loads(path.read_text())
        payload["categories"] = categories
        path.write_text(json.dumps(payload))
        with pytest.raises(MalformedDocumentError, match=f"'categories'.*{named}"):
            load_model(path)

    def test_missing_parameter_named(self, tmp_path):
        path = self._checkpoint(tmp_path, lambda params: params.pop("cnn.fc.b"))
        with pytest.raises(ShapeMismatchError, match=r"cnn\.fc\.b"):
            load_model(path)

    def test_reshaped_parameter_named(self, tmp_path):
        def reshape(params):
            params["cnn.fc.b"] = ad.parameter(params["cnn.fc.b"].data.reshape(1, 2))

        with pytest.raises(ShapeMismatchError, match=r"cnn\.fc\.b.*\(1, 2\)"):
            load_model(self._checkpoint(tmp_path, reshape))

    @pytest.mark.parametrize(
        "group, edit, named",
        [
            ("adam_m", lambda m: m.pop("head.b"), "head.b has shape none"),
            ("adam_v", lambda v: v.update({"cnn.fc.b": np.zeros((1, 2))}), r"cnn.fc.b has shape \(1, 2\)"),
            ("adam_v", lambda v: v.update({"extra": np.zeros(1)}), "extra has shape"),
        ],
        ids=["missing", "reshaped", "unknown"],
    )
    def test_moments_match_parameters(self, tmp_path, group, edit, named):
        # adam_step would fail on a missing moment and broadcast a reshaped
        # one, so the file's moments are checked as read
        state = init_model_state(tiny_config())
        edit(state.m if group == "adam_m" else state.v)
        path = _saved(state, tmp_path / "model.ckpt.json")
        with pytest.raises(ShapeMismatchError, match=f"{group} {named}"):
            load_model(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("group", ["params", "adam_m", "adam_v"])
    def test_non_finite_tensor_named(self, tmp_path, group, value):
        # a NaN parameter used to load and give a label and an accuracy
        state = init_model_state(tiny_config("cnn_only_binary"))
        tensors = {"params": state.params["cnn.fc.b"].data, "adam_m": state.m["cnn.fc.b"], "adam_v": state.v["cnn.fc.b"]}
        tensors[group][0] = value
        path = _saved(state, tmp_path / "model.ckpt.json")
        with pytest.raises(MalformedDocumentError, match=f"{group} 'cnn.fc.b'"):
            load_model(path)


class TestExperimentConfig:
    def test_json_round_trip(self):
        cfg = desk_config(6, seed=11, epochs=7)
        d = json.loads(json.dumps(cfg.to_json_dict()))
        back = ExperimentConfig.from_json_dict(d)
        assert back == cfg

    def test_paper_scale_round_trip(self):
        cfg = paper_scale_config(6, seed=4, lr=5e-5)
        d = json.loads(json.dumps(cfg.to_json_dict()))
        assert d["version"] == 4
        assert d["cnn"]["stages"] == [16, 32, 64]
        assert ExperimentConfig.from_json_dict(d) == cfg

    def test_settable_value_count(self):
        # every settable leaf field: a knob added or removed changes this
        # list, and with it this test and CHANGES.md
        sections = pipeline._SECTIONS

        def leaves(cls, prefix=""):
            return [
                name
                for f in dataclasses.fields(cls)
                for name in (leaves(sections[f.name], f"{f.name}.") if f.name in sections else [prefix + f.name])
            ]

        assert leaves(ExperimentConfig) == [
            "variant",
            "rnn.hidden_size", "rnn.dropout_prob",
            "cnn.stages", "cnn.num_classes",
            "raster.width", "raster.height", "raster.epsilon",
            "simplify.epsilon", "simplify.max_points", "simplify.escalation_factor",
            "augment.reflect_prob", "augment.removal_prob", "augment.jitter_sigma",
            "batch_size", "epochs", "lr", "seed", "early_stop_train_acc", "early_stop_valid_acc",
        ]  # 20 entries

    def test_stage_triples_named(self):
        d = desk_config(2).to_json_dict()
        d["cnn"]["stages"] = [[3, 8, 2], [3, 16, 2], [3, 32, 2]]
        with pytest.raises(InvalidConfigError, match="'cnn'.*'stages' must be a list of integer channel counts"):
            ExperimentConfig.from_json_dict(d)

    def test_num_layers_named(self):
        d = desk_config(2).to_json_dict()
        d["rnn"]["num_layers"] = 2
        with pytest.raises(InvalidConfigError, match="'rnn'.*'num_layers'"):
            ExperimentConfig.from_json_dict(d)

    @pytest.mark.parametrize("key", ["reflect", "stroke_removal", "jitter"])
    def test_removed_augment_switch_named(self, key):
        # v2 stored a switch beside each amount; v3 keeps only the amounts
        d = desk_config(2).to_json_dict()
        d["augment"][key] = True
        with pytest.raises(InvalidConfigError, match=f"'augment'.*'{key}'"):
            ExperimentConfig.from_json_dict(d)

    @pytest.mark.parametrize("version", [1, 2, 3, 99, None])
    def test_other_versions_rejected(self, version):
        d = desk_config(2).to_json_dict()
        if version is None:
            del d["version"]
        else:
            d["version"] = version
        with pytest.raises(VersionMismatchError, match=f"version {version}"):
            ExperimentConfig.from_json_dict(d)

    @pytest.mark.parametrize("fmt", [None, "sketchattn-dataset", 3])
    def test_missing_or_foreign_format_rejected(self, fmt):
        # a missing format was accepted and a foreign one was an InvalidConfigError
        d = desk_config(2).to_json_dict()
        if fmt is None:
            del d["format"]
        else:
            d["format"] = fmt
        with pytest.raises(VersionMismatchError, match="not a sketchattn-config document"):
            ExperimentConfig.from_json_dict(d)

    # categories belong to the checkpoint since it reached v2, not to its config
    @pytest.mark.parametrize("key", ["beta_one", "beta1", "canvas_pad", "eval_test_each_epoch", "categories"])
    def test_unknown_top_level_key_named(self, key):
        d = desk_config(2).to_json_dict()
        d[key] = 0.5
        with pytest.raises(InvalidConfigError, match=f"'{key}'"):
            ExperimentConfig.from_json_dict(d)

    @pytest.mark.parametrize("section", ["rnn", "cnn", "raster", "simplify", "augment"])
    def test_unknown_nested_key_named(self, section):
        d = desk_config(2).to_json_dict()
        d[section]["extra_field"] = 1
        with pytest.raises(InvalidConfigError, match=f"'{section}'.*'extra_field'"):
            ExperimentConfig.from_json_dict(d)

    @pytest.mark.parametrize("section", ["rnn", "cnn", "raster", "simplify", "augment"])
    def test_nested_section_must_be_an_object(self, section):
        d = desk_config(2).to_json_dict()
        d[section] = [1, 2]
        with pytest.raises(InvalidConfigError, match=f"'{section}'"):
            ExperimentConfig.from_json_dict(d)

    def test_ill_typed_values_rejected(self):
        # an empty stage list used to be accepted, then train raised UnboundLocalError
        for section, key, value in [("rnn", "hidden_size", "wide"), ("cnn", "stages", 5), ("cnn", "stages", []),
                                    ("cnn", "stages", [8, 0])]:
            d = desk_config(2).to_json_dict()
            d[section][key] = value
            with pytest.raises(InvalidConfigError, match=f"'{section}'.*'{key}'"):
                ExperimentConfig.from_json_dict(d)
        d = desk_config(2).to_json_dict()
        d["batch_size"] = "many"
        with pytest.raises(InvalidConfigError):
            ExperimentConfig.from_json_dict(d)

    def test_missing_nested_keys_take_defaults(self):
        d = desk_config(2).to_json_dict()
        del d["rnn"]["dropout_prob"], d["cnn"]["stages"]
        back = ExperimentConfig.from_json_dict(d)
        assert back.rnn.dropout_prob == RnnConfig().dropout_prob
        assert back.cnn.stages == CnnConfig().stages
        assert back.rnn.hidden_size == 32

    def test_bad_variant_rejected(self):
        with pytest.raises(InvalidConfigError):
            desk_config(2, variant="two_branch_late_fusion")

    def test_desk_defaults(self):
        cfg = desk_config(6)
        assert cfg.raster.width == cfg.raster.height == 64
        assert cfg.raster.epsilon == 1.0
        assert cfg.rnn.hidden_size == 32
        assert cfg.batch_size == 16

    def test_full_scale_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.batch_size == 48
        assert cfg.lr == 1e-4
        assert cfg.rnn.hidden_size == 512
        assert cfg.rnn.feature_size == 1024 and cfg.rnn.dropout_prob == 0.5
        assert cfg.raster.width == cfg.raster.height == 224
        assert cfg.cnn.stages == (16, 32, 64)

    def test_metrics_final(self):
        m = Metrics()
        from sketchattn.pipeline import EpochRecord

        m.records.append(EpochRecord(0, 1.0, 0.5, None, None))
        m.records.append(EpochRecord(1, 0.5, 0.8, None, None))
        assert m.final.epoch == 1


NAN, INF = float("nan"), float("inf")


class TestRealConfigValues:
    # each of these used to be accepted: a NaN epsilon collapsed every
    # stroke to its ends, an infinite raster epsilon died in an
    # OverflowError inside rasterize_forward
    @pytest.mark.parametrize(
        "cls, field, value",
        [
            (SimplifyConfig, "epsilon", NAN),
            (SimplifyConfig, "epsilon", INF),
            (SimplifyConfig, "escalation_factor", NAN),
            (SimplifyConfig, "escalation_factor", INF),
            (RasterConfig, "epsilon", INF),
            (RasterConfig, "epsilon", NAN),
            (ExperimentConfig, "lr", -0.001),
            (ExperimentConfig, "lr", 0.0),
            (ExperimentConfig, "lr", NAN),
            (ExperimentConfig, "lr", INF),
            pytest.param(ExperimentConfig, "lr", 10**400, id="ExperimentConfig-lr-int_past_float_range"),
            (ExperimentConfig, "early_stop_train_acc", NAN),
            (ExperimentConfig, "early_stop_valid_acc", 2.5),
            (AugmentConfig, "reflect_prob", 2.0),
            (AugmentConfig, "reflect_prob", -0.1),
            (AugmentConfig, "removal_prob", NAN),
            (AugmentConfig, "jitter_sigma", -1.0),
            (AugmentConfig, "jitter_sigma", INF),
            # a negative seed used to be accepted here and fail later, in
            # numpy, with an untyped ValueError
            (ExperimentConfig, "seed", -1),
        ],
    )
    def test_rejected_by_name(self, cls, field, value):
        with pytest.raises(InvalidConfigError, match=f"'{field}'"):
            cls(**{field: value})

    @pytest.mark.parametrize(
        "section, field, value",
        [
            (None, "lr", -0.001),
            (None, "lr", NAN),
            (None, "seed", -1),
            ("simplify", "epsilon", NAN),
            ("augment", "removal_prob", 1.5),
        ],
    )
    def test_config_document_rejected_by_name(self, section, field, value):
        d = tiny_config().to_json_dict()
        (d if section is None else d[section])[field] = value
        with pytest.raises(InvalidConfigError, match=f"'{field}'"):
            ExperimentConfig.from_json_dict(json.loads(json.dumps(d)))

    def test_range_ends_accepted(self):
        AugmentConfig(reflect_prob=0.0, removal_prob=1.0, jitter_sigma=0.0)
        SimplifyConfig(epsilon=1e-300, escalation_factor=1.0000001)
        RasterConfig(epsilon=1e-300)
        tiny_config(lr=1e-300, early_stop_train_acc=0.0, early_stop_valid_acc=1.0)


class TestPoolingFitsTheCanvas:
    # five halvings of a 16x16 canvas leave nothing for the fifth stage to
    # pool: these configs used to be accepted, then gave NaN logits, an
    # evaluate() accuracy read off them and a NonFiniteLossError in train()
    EMPTIED = dict(raster=RasterConfig(16, 16, 1.0), cnn=CnnConfig(stages=(4,) * 5, num_classes=6))

    def test_constructor_names_first_emptied_stage(self):
        with pytest.raises(InvalidConfigError, match=r"cnn stage 4 pools by 2 but its input is 1x1"):
            desk_config(6, **self.EMPTIED)

    @pytest.mark.parametrize(
        "width, height, stages, first_bad",
        [
            (64, 2, (8, 8), 1),  # one axis runs out first
            (9, 64, (8, 8, 8, 8), 3),  # 9 -> 4 -> 2 -> 1: cropped halving
            (1, 1, (2,), 0),
        ],
    )
    def test_any_axis_and_pool_factor(self, width, height, stages, first_bad):
        with pytest.raises(InvalidConfigError, match=f"cnn stage {first_bad} pools"):
            desk_config(2, raster=RasterConfig(width, height, 1.0), cnn=CnnConfig(stages=stages, num_classes=2))

    def test_from_json_dict_rejects(self):
        d = desk_config(6).to_json_dict()
        d["raster"].update(width=16, height=16)
        d["cnn"]["stages"] = [4] * 5
        with pytest.raises(InvalidConfigError, match="cnn stage 4"):
            ExperimentConfig.from_json_dict(json.loads(json.dumps(d)))

    def test_pooling_down_to_one_pixel_accepted(self):
        cfg = desk_config(6, raster=RasterConfig(16, 16, 1.0), cnn=CnnConfig(stages=(4,) * 4, num_classes=6))
        logits, _, _ = forward_classify(init_model_state(cfg), cfg, prepare_sketch(synth_generate("line", 0).sketch, cfg))
        assert np.isfinite(logits).all()
        desk_config(2, raster=RasterConfig(9, 9, 1.0), cnn=CnnConfig(stages=(2, 2, 2), num_classes=2))


class TestCanvasMargin:
    # a canvas of 2 * CANVAS_MARGIN px or less on a side used to be
    # accepted; then every prepare_sketch raised InvalidCanvasError
    @pytest.mark.parametrize("width, height", [(8, 8), (64, 8), (8, 64), (9, 9), (9, 64), (64, 9)])
    def test_config_accepts_exactly_what_the_canvas_step_accepts(self, width, height):
        sketch = synth_generate("line", 0).sketch
        raster, cnn = RasterConfig(width, height, 1.0), CnnConfig(stages=(2,), num_classes=2)
        try:
            normalize_to_canvas(sketch, width, height, CANVAS_MARGIN)
        except InvalidCanvasError:
            with pytest.raises(InvalidConfigError, match=rf"raster {width}x{height} \(width x height\): 'width' and 'height'"):
                desk_config(2, raster=raster, cnn=cnn)
        else:
            assert width > 2 * CANVAS_MARGIN and height > 2 * CANVAS_MARGIN
            cfg = desk_config(2, raster=raster, cnn=cnn)
            forward_classify(init_model_state(cfg), cfg, prepare_sketch(sketch, cfg))

    def test_from_json_dict_rejects(self):
        d = desk_config(6).to_json_dict()
        d["raster"].update(width=8, height=8)
        with pytest.raises(InvalidConfigError, match="'width' and 'height' must exceed 8"):
            ExperimentConfig.from_json_dict(json.loads(json.dumps(d)))
