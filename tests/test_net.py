import numpy as np
import pytest

from sketchattn.errors import (
    InvalidConfigError,
    LabelOutOfRangeError,
    ShapeMismatchError,
    TapeConsumedError,
)
from sketchattn.ingest import random_sketch
from sketchattn.net import autodiff as ad
from sketchattn.net.autodiff import Tape, Tensor, backward, cross_entropy_logits
from sketchattn.net.gradcheck import grad_check
from sketchattn.net.model import (
    CnnConfig,
    RnnConfig,
    cnn_forward_batch,
    init_cnn_params,
    init_rnn_params,
    rnn_attention_batch,
)
from sketchattn.net.optim import ModelState, adam_step, load_checkpoint, save_checkpoint
from sketchattn.pipeline import _batch_inputs


def small_rnn(seed=0, hidden=8):
    rng = np.random.default_rng(seed)
    cfg = RnnConfig(hidden_size=hidden, num_layers=2, bidirectional=True, dropout_prob=0.0)
    return cfg, init_rnn_params(rng, cfg)


def offsets_for(sketch, width=64.0):
    """(n, 3) RNN input rows [dx/w, dy/w, s] of one sketch."""
    return _batch_inputs([sketch], width)[0][0]


def attention_for(sketch, cfg, params, mode="eval", tape=None, rng=None):
    """(1, n) attention of one sketch through the batch path with B=1."""
    inputs = offsets_for(sketch)[None]
    tape = tape if tape is not None else Tape()
    return rnn_attention_batch(tape, inputs, np.array([sketch.n]), params, cfg, mode, rng)


def cnn_logits(image, cfg, params):
    """(H, W) image -> (num_classes,) logits through the B=1 batch path."""
    return cnn_forward_batch(Tape(), ad.constant(image[None, None]), params, cfg).data[0]


def ce_loss_and_grad(logits, label):
    """cross_entropy_logits on one (C,) row: (loss, gradient w.r.t. the row)."""
    t = Tensor(np.asarray(logits, dtype=np.float64)[None], requires_grad=True)
    tape = Tape()
    loss = cross_entropy_logits(tape, t, np.array([label]))
    backward(tape, loss)
    return float(loss.data), t.grad[0]


class TestAutodiffCore:
    def test_quadratic_gradcheck_machine_precision(self):
        theta = ad.parameter(np.array([1.5, -2.0, 0.25]))

        def fn(tape):
            return ad.sum_all(tape, ad.mul(tape, theta, theta))

        rep = grad_check(fn, {"theta": theta}, step=1e-4, tolerance=1e-9)
        assert rep.passed
        assert rep.worst.max_rel_err < 1e-10

    def test_tape_consumed(self):
        x = ad.parameter(np.array(2.0))
        tape = Tape()
        y = ad.mul(tape, x, x)
        backward(tape, y)
        with pytest.raises(TapeConsumedError):
            backward(tape, y)

    def test_loss_scaling_scales_gradients(self):
        x = ad.parameter(np.array([1.0, 2.0, 3.0]))
        grads = {}
        for c in (1.0, 3.5):
            tape = Tape()
            loss = ad.mul_const(tape, ad.sum_all(tape, ad.mul(tape, x, x)), c)
            backward(tape, loss)
            grads[c] = x.grad.copy()
            x.grad = None
        np.testing.assert_allclose(grads[3.5], 3.5 * grads[1.0], rtol=1e-15)

    def test_gradients_finite_on_1000_random_inputs(self):
        rng = np.random.default_rng(0)
        w = ad.parameter(rng.normal(size=(3, 4)))
        for _ in range(1000):
            x = ad.constant(rng.normal(size=(2, 3)) * 10.0)
            tape = Tape()
            out = ad.sum_all(tape, ad.tanh(tape, ad.matmul(tape, x, w)))
            backward(tape, out)
            assert np.isfinite(w.grad).all()
            w.grad = None

    def test_backward_requires_scalar(self):
        x = ad.parameter(np.ones(3))
        tape = Tape()
        y = ad.mul(tape, x, x)
        with pytest.raises(ShapeMismatchError):
            backward(tape, y)

    def test_dropout_inverted_scaling(self):
        x = ad.constant(np.ones((4, 1000)))
        x.requires_grad = True
        tape = Tape()
        out = ad.dropout(tape, x, 0.5, np.random.default_rng(0))
        values = set(np.unique(out.data))
        assert values <= {0.0, 2.0}
        assert abs(out.data.mean() - 1.0) < 0.1

    def test_sigmoid_strictly_inside_unit_interval(self):
        # for moderate finite pre-activations (float64 saturates ~|x|>36)
        x = ad.constant(np.linspace(-30, 30, 1001))
        out = ad.sigmoid(Tape(), x)
        assert np.all(out.data > 0.0)
        assert np.all(out.data < 1.0)


def _away_from_zero(rng, shape):
    # relu and max-pool probes stay off their kinks and ties
    return rng.choice([-1.0, 1.0], size=shape) * rng.uniform(0.2, 1.0, size=shape)


# every op routed through ad.op: (operand arrays, forward on those tensors)
OP_CASES = {
    "add_broadcast_row": (lambda r: [r.normal(size=(3, 4)), r.normal(size=4)], lambda t, a, b: ad.add(t, a, b)),
    "add_broadcast_both": (lambda r: [r.normal(size=(3, 1)), r.normal(size=(1, 4))], lambda t, a, b: ad.add(t, a, b)),
    "mul_broadcast": (lambda r: [r.normal(size=(2, 3, 4)), r.normal(size=(3, 1))], lambda t, a, b: ad.mul(t, a, b)),
    "mul_const": (lambda r: [r.normal(size=(2, 3))], lambda t, a: ad.mul_const(t, a, np.array([0.5, -2.0, 3.0]))),
    "matmul": (lambda r: [r.normal(size=(3, 4)), r.normal(size=(4, 2))], lambda t, a, b: ad.matmul(t, a, b)),
    "sigmoid": (lambda r: [r.normal(size=(2, 5))], lambda t, a: ad.sigmoid(t, a)),
    "tanh": (lambda r: [r.normal(size=(2, 5))], lambda t, a: ad.tanh(t, a)),
    "relu": (lambda r: [_away_from_zero(r, (3, 4))], lambda t, a: ad.relu(t, a)),
    "concat_axis1": (
        lambda r: [r.normal(size=(2, k, 3)) for k in (1, 2, 3)],
        lambda t, *xs: ad.concat(t, list(xs), axis=1),
    ),
    "concat_last_axis": (
        lambda r: [r.normal(size=(2, 3, 2)), r.normal(size=(2, 3, 4))],
        lambda t, *xs: ad.concat(t, list(xs), axis=-1),
    ),
    "reshape": (lambda r: [r.normal(size=(2, 6))], lambda t, a: ad.reshape(t, a, (3, 4))),
    "take_time_repeated": (
        lambda r: [r.normal(size=(2, 3, 2))],
        lambda t, a: ad.take_time(t, a, np.array([[0, 0, 2], [1, 1, 1]])),
    ),
    "conv2d": (
        lambda r: [r.normal(size=(2, 2, 5, 4)), r.normal(size=(3, 2, 3, 3)), r.normal(size=3)],
        lambda t, x, w, b: ad.conv2d(t, x, w, b),
    ),
    "maxpool2d_cropped": (lambda r: [_away_from_zero(r, (2, 2, 5, 7))], lambda t, a: ad.maxpool2d(t, a, 2)),
    "maxpool2d_factor3": (lambda r: [_away_from_zero(r, (1, 2, 7, 6))], lambda t, a: ad.maxpool2d(t, a, 3)),
    "global_avg_pool": (lambda r: [r.normal(size=(2, 3, 4, 5))], lambda t, a: ad.global_avg_pool(t, a)),
    "sum_all": (lambda r: [r.normal(size=(3, 4))], lambda t, a: ad.sum_all(t, a)),
    "cross_entropy_logits": (
        lambda r: [r.normal(size=(4, 3))],
        lambda t, a: cross_entropy_logits(t, a, np.array([0, 2, 1, 2])),
    ),
}


class TestOpHelper:
    @pytest.mark.parametrize("name", sorted(OP_CASES))
    def test_op_matches_finite_differences(self, name):
        make_inputs, forward = OP_CASES[name]
        rng = np.random.default_rng(sorted(OP_CASES).index(name))
        params = {f"x{i}": ad.parameter(a) for i, a in enumerate(make_inputs(rng))}
        tensors = list(params.values())
        tape = Tape()
        upstream = rng.normal(size=forward(tape, *tensors).shape)
        assert len(tape) == 1  # one closure per op
        const_tape = Tape()
        forward(const_tape, *[ad.constant(p.data) for p in tensors])
        assert len(const_tape) == 0  # nothing requires a gradient, nothing recorded

        def fn(tape):
            return ad.sum_all(tape, ad.mul_const(tape, forward(tape, *tensors), upstream))

        rep = grad_check(fn, params, step=1e-5, tolerance=1e-6)
        assert rep.passed, rep.format()

    def test_maxpool_cropped_tail_gets_zero_gradient(self):
        x = ad.parameter(_away_from_zero(np.random.default_rng(0), (1, 1, 5, 7)))
        tape = Tape()
        backward(tape, ad.sum_all(tape, ad.maxpool2d(tape, x, 2)))
        assert x.grad.shape == (1, 1, 5, 7)
        assert np.all(x.grad[:, :, 4, :] == 0.0) and np.all(x.grad[:, :, :, 6] == 0.0)
        assert x.grad[:, :, :4, :6].sum() == 6.0

    def test_unreached_and_constant_operands_keep_no_gradient(self):
        x = ad.parameter(np.array([0.3, -0.7]))
        y = ad.parameter(np.array([1.5, 2.0]))
        c = ad.constant(np.array([2.0, 3.0]))
        tape = Tape()
        ad.tanh(tape, x)  # recorded, but the loss never reaches it
        loss = ad.sum_all(tape, ad.mul(tape, y, c))
        backward(tape, loss)
        assert x.grad is None
        assert c.grad is None
        np.testing.assert_array_equal(y.grad, c.data)

    def test_every_closure_goes_through_tape_record(self, monkeypatch):
        # the benchmark's tracer counts ops by patching Tape.record
        from sketchattn.ingest import synth_dataset
        from sketchattn.pipeline import _forward_batch, desk_config, init_model_state, prepare_sketch

        calls = []
        original = Tape.record

        def counting_record(tape, fn):
            calls.append(fn)
            original(tape, fn)

        monkeypatch.setattr(Tape, "record", counting_record)
        ds = synth_dataset(1, 0)
        cfg = desk_config(len(ds.categories))
        sketches = [prepare_sketch(it.sketch, cfg) for it in ds.items]
        tape = Tape()
        logits, _, _ = _forward_batch(init_model_state(cfg), cfg, sketches, "train", tape, np.random.default_rng(0))
        cross_entropy_logits(tape, logits, np.array([it.label for it in ds.items]))
        assert len(calls) == len(tape) > 0


class TestRnnAttention:
    def test_zero_head_gives_half(self):
        cfg, params = small_rnn()
        params["head.w"] = ad.parameter(np.zeros_like(params["head.w"].data))
        params["head.b"] = ad.parameter(np.zeros(1))
        sk = random_sketch(np.random.default_rng(1), 7, 64, 64)
        attn = attention_for(sk, cfg, params)
        np.testing.assert_array_equal(attn.data, np.full((1, sk.n), 0.5))

    def test_eval_deterministic(self):
        cfg, params = small_rnn()
        sk = random_sketch(np.random.default_rng(2), 9, 64, 64)
        a1 = attention_for(sk, cfg, params)
        a2 = attention_for(sk, cfg, params)
        np.testing.assert_array_equal(a1.data, a2.data)

    def test_outputs_in_open_unit_interval(self):
        cfg, params = small_rnn(3)
        sk = random_sketch(np.random.default_rng(3), 20, 64, 64)
        attn = attention_for(sk, cfg, params)
        assert np.all(attn.data > 0) and np.all(attn.data < 1)

    def test_every_parameter_matches_finite_differences(self):
        cfg, params = small_rnn(4)
        sk = random_sketch(np.random.default_rng(4), 5, 64, 64)
        w = np.random.default_rng(5).normal(size=(1, sk.n))

        def fn(tape):
            attn = attention_for(sk, cfg, params, tape=tape)
            return ad.sum_all(tape, ad.mul_const(tape, attn, w))

        rep = grad_check(fn, params, step=1e-4, tolerance=1e-5)
        assert rep.passed, rep.format()

    def test_batched_attention_independent_of_padding(self):
        # items in one padded batch must score exactly as they do alone
        cfg, params = small_rnn(6)
        rng = np.random.default_rng(6)
        sk_short = random_sketch(rng, 5, 64, 64)
        sk_long = random_sketch(rng, 17, 64, 64)
        a_short = attention_for(sk_short, cfg, params).data[0]
        a_long = attention_for(sk_long, cfg, params).data[0]

        T = sk_long.n
        inputs = np.zeros((2, T, 3))
        inputs[0, : sk_short.n] = offsets_for(sk_short)
        inputs[1, : sk_long.n] = offsets_for(sk_long)
        batch = rnn_attention_batch(
            Tape(), inputs, np.array([sk_short.n, sk_long.n]), params, cfg, "eval"
        )
        np.testing.assert_allclose(batch.data[0, : sk_short.n], a_short, atol=1e-12)
        np.testing.assert_allclose(batch.data[1], a_long, atol=1e-12)
        assert np.all(batch.data[0, sk_short.n :] == 0.0)

    def test_train_mode_requires_rng_for_dropout(self):
        rng = np.random.default_rng(7)
        cfg = RnnConfig(hidden_size=4, num_layers=2, bidirectional=True, dropout_prob=0.5)
        params = init_rnn_params(rng, cfg)
        sk = random_sketch(rng, 4, 64, 64)
        with pytest.raises(ValueError):
            attention_for(sk, cfg, params, "train")
        out = attention_for(sk, cfg, params, "train", rng=rng)
        assert out.data.shape == (1, sk.n)

    def test_unidirectional_supported(self):
        rng = np.random.default_rng(8)
        cfg = RnnConfig(hidden_size=6, num_layers=1, bidirectional=False, dropout_prob=0.0)
        params = init_rnn_params(rng, cfg)
        sk = random_sketch(rng, 6, 64, 64)
        attn = attention_for(sk, cfg, params)
        assert attn.data.shape == (1, sk.n)

    def test_config_validation(self):
        with pytest.raises(InvalidConfigError):
            RnnConfig(hidden_size=0)
        with pytest.raises(InvalidConfigError):
            RnnConfig(dropout_prob=1.0)


def reference_lstm_grads(x, wx, wh, b, upstream):
    """Step-by-step LSTM built from primitive tape ops, one tensor per step
    and per gate. Returns the (B, T, H) output and the gradients of
    sum(output * upstream) w.r.t. x, wx, wh and b."""
    B, T, _ = x.shape
    H = wh.shape[0]
    gate = [slice(k * H, (k + 1) * H) for k in range(4)]
    wxs = [ad.parameter(wx[:, s]) for s in gate]
    whs = [ad.parameter(wh[:, s]) for s in gate]
    bs = [ad.parameter(b[s]) for s in gate]
    xs = [ad.parameter(x[:, t]) for t in range(T)]
    tape = Tape()
    h = ad.constant(np.zeros((B, H)))
    c = ad.constant(np.zeros((B, H)))
    hs, loss = [], None
    for t in range(T):
        z = [ad.add(tape, ad.add(tape, ad.matmul(tape, xs[t], wxs[k]), ad.matmul(tape, h, whs[k])), bs[k])
             for k in range(4)]
        i, f, o = ad.sigmoid(tape, z[0]), ad.sigmoid(tape, z[1]), ad.sigmoid(tape, z[3])
        g = ad.tanh(tape, z[2])
        c = ad.add(tape, ad.mul(tape, f, c), ad.mul(tape, i, g))
        h = ad.mul(tape, o, ad.tanh(tape, c))
        hs.append(h.data)
        step = ad.sum_all(tape, ad.mul(tape, h, ad.constant(upstream[:, t])))
        loss = step if loss is None else ad.add(tape, loss, step)
    backward(tape, loss)
    return (
        np.stack(hs, axis=1),
        np.stack([xt.grad for xt in xs], axis=1),
        np.concatenate([w.grad for w in wxs], axis=1),
        np.concatenate([w.grad for w in whs], axis=1),
        np.concatenate([v.grad for v in bs]),
    )


class TestFusedLstm:
    def test_matches_step_by_step_reference(self):
        rng = np.random.default_rng(11)
        B, T, D, H = 3, 7, 5, 4
        x = rng.normal(size=(B, T, D))
        wx = rng.normal(size=(D, 4 * H))
        wh = rng.normal(size=(H, 4 * H))
        b = rng.normal(size=4 * H)
        upstream = rng.normal(size=(B, T, H))
        ref_out, *ref_grads = reference_lstm_grads(x, wx, wh, b, upstream)

        tensors = [ad.parameter(a.copy()) for a in (x, wx, wh, b)]
        tape = Tape()
        out = ad.lstm(tape, *tensors)
        assert len(tape) == 1
        backward(tape, ad.sum_all(tape, ad.mul_const(tape, out, upstream)))
        np.testing.assert_allclose(out.data, ref_out, rtol=0, atol=1e-12)
        for t, ref in zip(tensors, ref_grads):
            np.testing.assert_allclose(t.grad, ref, rtol=0, atol=1e-12)

    def test_attention_tape_length_independent_of_sequence_length(self):
        cfg, params = small_rnn(13)
        rng = np.random.default_rng(13)
        lengths = []
        for T in (5, 50):
            tape = Tape()
            rnn_attention_batch(tape, rng.normal(size=(2, T, 3)), np.array([T, T - 2]), params, cfg, "eval")
            lengths.append(len(tape))
        assert lengths[0] == lengths[1]

    def test_padded_batch_matches_finite_differences(self):
        cfg, params = small_rnn(14, hidden=4)
        rng = np.random.default_rng(14)
        lengths = np.array([6, 3, 5])
        inputs = rng.normal(scale=0.3, size=(3, 6, 3))
        for bi, n in enumerate(lengths):
            inputs[bi, n:] = 0.0
        w = rng.normal(size=(3, 6))

        def fn(tape):
            attn = rnn_attention_batch(tape, inputs, lengths, params, cfg, "eval")
            return ad.sum_all(tape, ad.mul_const(tape, attn, w))

        rep = grad_check(fn, params, step=1e-4, tolerance=1e-5)
        assert rep.passed, rep.format()


class TestCnn:
    def test_zero_image_equal_logits(self):
        rng = np.random.default_rng(9)
        cfg = CnnConfig(stages=((3, 4, 2), (3, 8, 2)), num_classes=3)
        params = init_cnn_params(rng, cfg)
        logits = cnn_logits(np.zeros((16, 16)), cfg, params)
        assert np.allclose(logits, logits[0])

    def test_all_parameters_match_finite_differences(self):
        rng = np.random.default_rng(10)
        cfg = CnnConfig(stages=((3, 4, 2), (3, 8, 2)), num_classes=2)
        params = init_cnn_params(rng, cfg)
        for name, p in params.items():
            if name.endswith(".b"):
                p.data += rng.normal(0, 0.05, p.data.shape)  # move relu off its kink
        image = rng.normal(size=(1, 1, 8, 8))
        labels = np.array([1])

        def fn(tape):
            logits = cnn_forward_batch(tape, ad.constant(image), params, cfg)
            return cross_entropy_logits(tape, logits, labels)

        rep = grad_check(fn, params, step=1e-5, tolerance=1e-4)
        assert rep.passed, rep.format()

    def test_logits_continuous_in_input_scale(self):
        rng = np.random.default_rng(11)
        cfg = CnnConfig(stages=((3, 4, 2),), num_classes=2)
        params = init_cnn_params(rng, cfg)
        img = rng.uniform(0.1, 1.0, size=(8, 8))
        base = cnn_logits(img, cfg, params)
        nudged = cnn_logits(img * 1.0001, cfg, params)
        assert np.abs(nudged - base).max() < 1e-2

    def test_works_on_any_canvas(self):
        rng = np.random.default_rng(12)
        cfg = CnnConfig(stages=((3, 4, 2), (3, 8, 2)), num_classes=4)
        params = init_cnn_params(rng, cfg)
        for size in (16, 24, 64):
            logits = cnn_logits(rng.normal(size=(size, size)), cfg, params)
            assert logits.shape == (4,)

    def test_config_validation(self):
        with pytest.raises(InvalidConfigError):
            CnnConfig(stages=((2, 4, 2),))
        with pytest.raises(InvalidConfigError):
            CnnConfig(num_classes=1)


class TestCrossEntropy:
    def test_uniform_logits_ln_c(self):
        assert ce_loss_and_grad(np.zeros(4), 2)[0] == pytest.approx(np.log(4.0), abs=1e-12)
        assert ce_loss_and_grad(np.full(6, 3.7), 0)[0] == pytest.approx(np.log(6.0), abs=1e-12)

    def test_confident_correct_logit_loss_zero(self):
        logits = np.zeros(5)
        logits[3] = 1e6
        assert ce_loss_and_grad(logits, 3)[0] == pytest.approx(0.0, abs=1e-12)

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            _, g = ce_loss_and_grad(rng.normal(size=7), int(rng.integers(7)))
            assert abs(g.sum()) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRangeError):
            cross_entropy_logits(Tape(), ad.constant(np.zeros((1, 3))), np.array([3]))
        with pytest.raises(LabelOutOfRangeError):
            cross_entropy_logits(Tape(), ad.constant(np.zeros((1, 3))), np.array([5]))

    def test_batched_op_matches_plain(self):
        # a plain numpy reference: -log softmax(z)[y], gradient softmax - one_hot
        rng = np.random.default_rng(14)
        logits = rng.normal(size=(4, 5))
        labels = np.array([0, 3, 2, 4])
        z = logits - logits.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(z).sum(axis=1))
        expected_rows = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        expected_rows[np.arange(4), labels] -= 1.0
        t = Tensor(logits, requires_grad=True)
        tape = Tape()
        loss = cross_entropy_logits(tape, t, labels)
        expected = np.mean(log_norm - z[np.arange(4), labels])
        assert float(loss.data) == pytest.approx(expected, abs=1e-12)
        backward(tape, loss)
        rows = t.grad * 4.0  # mean reduction
        for i in range(4):
            np.testing.assert_allclose(rows[i], expected_rows[i], atol=1e-12)
            assert abs(t.grad[i].sum()) < 1e-12


class TestAdam:
    def test_first_step_is_signed_lr(self):
        params = {"w": ad.parameter(np.array([1.0, -2.0, 3.0]))}
        state = ModelState(params=params)
        before = params["w"].data.copy()
        g = np.array([0.5, -0.25, 1.0])
        adam_step(state, {"w": g}, lr=1e-3)
        update = params["w"].data - before
        np.testing.assert_allclose(update, -1e-3 * np.sign(g), rtol=1e-6)
        assert np.all(np.abs(update) >= 1e-3 * (1 - 1e-6))
        assert np.all(np.abs(update) <= 1e-3)
        assert state.step == 1

    def test_zero_gradient_leaves_parameters_moments_decay(self):
        params = {"w": ad.parameter(np.array([1.0, 2.0]))}
        state = ModelState(params=params)
        adam_step(state, {"w": np.array([4.0, -4.0])}, lr=0.0)
        m_before = state.m["w"].copy()
        adam_step(state, {"w": np.zeros(2)}, lr=1e-3)
        np.testing.assert_allclose(state.m["w"], 0.9 * m_before, rtol=1e-12)
        # parameters still move on the decayed first moment; a zero moment
        # and zero gradient must leave them untouched
        state2 = ModelState(params={"w": ad.parameter(np.array([1.0, 2.0]))})
        before = state2.params["w"].data.copy()
        adam_step(state2, {"w": np.zeros(2)}, lr=1e-3)
        np.testing.assert_array_equal(state2.params["w"].data, before)

    def test_shape_mismatch(self):
        state = ModelState(params={"w": ad.parameter(np.zeros((2, 2)))})
        with pytest.raises(ShapeMismatchError):
            adam_step(state, {"w": np.zeros(3)}, lr=1e-3)

    def test_paper_learning_rates_available(self):
        from sketchattn.pipeline import PAPER_LR, PAPER_LR_FINETUNE, paper_scale_config

        assert PAPER_LR == 1e-4
        assert PAPER_LR_FINETUNE == 5e-5
        assert paper_scale_config(6).lr == 1e-4
        assert paper_scale_config(6, finetune=True).lr == 5e-5
        assert paper_scale_config(6).batch_size == 48


class TestModelStateAndCheckpoints:
    def test_init_deterministic(self):
        cfg = RnnConfig(hidden_size=8, num_layers=2, bidirectional=True)
        p1 = init_rnn_params(np.random.default_rng(5), cfg)
        p2 = init_rnn_params(np.random.default_rng(5), cfg)
        for k in p1:
            np.testing.assert_array_equal(p1[k].data, p2[k].data)

    def test_forget_gate_bias_one(self):
        cfg = RnnConfig(hidden_size=8, num_layers=1, bidirectional=False)
        params = init_rnn_params(np.random.default_rng(0), cfg)
        b = params["rnn.l0.fw.b"].data
        np.testing.assert_array_equal(b[8:16], np.ones(8))
        np.testing.assert_array_equal(b[:8], np.zeros(8))

    def test_recurrent_blocks_orthogonal(self):
        cfg = RnnConfig(hidden_size=16, num_layers=1, bidirectional=False)
        params = init_rnn_params(np.random.default_rng(1), cfg)
        wh = params["rnn.l0.fw.wh"].data
        for k in range(4):
            blk = wh[:, 16 * k : 16 * (k + 1)]
            np.testing.assert_allclose(blk.T @ blk, np.eye(16), atol=1e-10)

    def test_num_params_reported(self):
        state = ModelState(params={"a": ad.parameter(np.zeros((3, 4))), "b": ad.parameter(np.zeros(5))})
        assert state.num_params() == 17

    def test_checkpoint_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        cfg = CnnConfig(stages=((3, 4, 2),), num_classes=2)
        state = ModelState(params=init_cnn_params(rng, cfg), seed=9, config={"k": 1})
        adam_step(state, {k: rng.normal(size=p.data.shape) for k, p in state.params.items()}, lr=1e-3)
        path = tmp_path / "ck.json"
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        assert back.step == 1 and back.seed == 9 and back.config == {"k": 1}
        for k in state.params:
            np.testing.assert_array_equal(back.params[k].data, state.params[k].data)
            np.testing.assert_array_equal(back.m[k], state.m[k])
            np.testing.assert_array_equal(back.v[k], state.v[k])

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        rng = np.random.default_rng(16)
        cfg = CnnConfig(stages=((3, 4, 2),), num_classes=2)
        state = ModelState(params=init_cnn_params(rng, cfg))
        save_checkpoint(state, tmp_path / "a.json")
        save_checkpoint(state, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_checkpoint_version_mismatch(self, tmp_path):
        import json

        state = ModelState(params={"w": ad.parameter(np.zeros(2))})
        path = tmp_path / "ck.json"
        save_checkpoint(state, path)
        payload = json.loads(path.read_text())
        payload["version"] = 42
        path.write_text(json.dumps(payload))
        from sketchattn.errors import VersionMismatchError

        with pytest.raises(VersionMismatchError):
            load_checkpoint(path)


class TestGradCheckHarness:
    def test_corrupted_gradient_flagged_by_name(self):
        theta = ad.parameter(np.array([1.0, 2.0]))
        phi = ad.parameter(np.array([3.0]))

        def fn(tape):
            return ad.add(tape, ad.sum_all(tape, ad.mul(tape, theta, theta)), ad.sum_all(tape, phi))

        rep = grad_check(fn, {"theta": theta, "phi": phi}, tolerance=1e-6, corrupt="phi")
        assert not rep.passed
        assert rep.worst.name == "phi"

    def test_report_format_mentions_worst(self):
        theta = ad.parameter(np.array([1.0]))

        def fn(tape):
            return ad.sum_all(tape, ad.mul(tape, theta, theta))

        rep = grad_check(fn, {"theta": theta}, tolerance=1e-6)
        text = rep.format()
        assert "theta" in text and "PASS" in text

    def test_sampling_entries(self):
        theta = ad.parameter(np.arange(100, dtype=float))

        def fn(tape):
            return ad.sum_all(tape, ad.mul(tape, theta, theta))

        rep = grad_check(
            fn, {"theta": theta}, tolerance=1e-6, max_entries_per_param=5,
            rng=np.random.default_rng(0),
        )
        assert rep.passed
