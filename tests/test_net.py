import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from sketchattn.errors import (
    InvalidConfigError,
    LabelOutOfRangeError,
    LengthMismatchError,
    ShapeMismatchError,
    TapeConsumedError,
)
from sketchattn.ingest import random_sketch
from sketchattn.net import autodiff as ad
from sketchattn.net.autodiff import Tape, Tensor, backward, cross_entropy_logits
from sketchattn.net.gradcheck import grad_check
from sketchattn.net import model
from sketchattn.net.model import (
    NUM_LAYERS,
    CnnConfig,
    RnnConfig,
    cnn_forward_batch,
    init_cnn_params,
    init_rnn_params,
    rnn_attention_batch,
)
from sketchattn.net.optim import ModelState, adam_step, load_checkpoint, save_checkpoint
from sketchattn.pipeline import VARIANTS, _batch_inputs

import loop_reference as ref
from image_support import full_support
import tape_ops as ops


def small_rnn(seed=0, hidden=8):
    rng = np.random.default_rng(seed)
    cfg = RnnConfig(hidden_size=hidden, dropout_prob=0.0)
    return cfg, init_rnn_params(rng, cfg)


def offsets_for(sketch, width=64.0):
    """(n, 3) RNN input rows [dx/w, dy/w, s] of one sketch."""
    return _batch_inputs([sketch], width)[0][0]


def attention_for(sketch, cfg, params, tape=None, dropout_rng=None):
    """(1, n) attention of one sketch through the batch path with B=1."""
    inputs = offsets_for(sketch)[None]
    tape = tape if tape is not None else Tape()
    return rnn_attention_batch(tape, inputs, np.array([sketch.n]), params, cfg, dropout_rng)


def cnn_logits(image, cfg, params):
    """(H, W) image -> (num_classes,) logits through the B=1 batch path,
    every pixel in the support."""
    values, support, shape = full_support(image[None])
    return cnn_forward_batch(Tape(), ad.constant(values), support, shape, params, cfg).data[0]


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
            return ad.sum_all(tape, ops.mul(tape, theta, theta))

        rep = grad_check(fn, {"theta": theta}, step=1e-4, tolerance=1e-9)
        assert rep.passed
        assert rep.worst.max_rel_err < 1e-10

    def test_tape_consumed(self):
        x = ad.parameter(np.array(2.0))
        tape = Tape()
        y = ops.mul(tape, x, x)
        backward(tape, y)
        with pytest.raises(TapeConsumedError):
            backward(tape, y)

    def test_loss_scaling_scales_gradients(self):
        x = ad.parameter(np.array([1.0, 2.0, 3.0]))
        grads = {}
        for c in (1.0, 3.5):
            tape = Tape()
            loss = ad.mul_const(tape, ad.sum_all(tape, ops.mul(tape, x, x)), c)
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
            out = ad.sum_all(tape, ops.tanh(tape, ops.matmul(tape, x, w)))
            backward(tape, out)
            assert np.isfinite(w.grad).all()
            w.grad = None

    def test_backward_requires_scalar(self):
        x = ad.parameter(np.ones(3))
        tape = Tape()
        y = ops.mul(tape, x, x)
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
    # maxpool_relu probes stay off its kinks and ties
    return rng.choice([-1.0, 1.0], size=shape) * rng.uniform(0.2, 1.0, size=shape)


def _mixed_sign_windows(rng, shape):
    """(B, H, 4, C) values off the kinks for 2x2 windows: columns 0-1 are
    negative, so the relu masks their windows, and columns 2-3 of both
    signs, so their windows' max is positive."""
    x = np.abs(_away_from_zero(rng, shape))
    x[:, :, [0, 1, 3]] *= -1.0
    return x


# a support in the (2, 5, 4) grid with pixels on both items' borders
_SUPPORT = np.array([0, 3, 5, 9, 10, 19, 20, 23, 31, 36, 39])

# every op routed through ad.op, the package's and the test-local tape_ops
# the reference LSTM is built from: (operand arrays, forward on those tensors)
OP_CASES = {
    "add_broadcast_row": (lambda r: [r.normal(size=(3, 4)), r.normal(size=4)], lambda t, a, b: ops.add(t, a, b)),
    "add_broadcast_both": (lambda r: [r.normal(size=(3, 1)), r.normal(size=(1, 4))], lambda t, a, b: ops.add(t, a, b)),
    "mul_broadcast": (lambda r: [r.normal(size=(2, 3, 4)), r.normal(size=(3, 1))], lambda t, a, b: ops.mul(t, a, b)),
    "mul_const": (lambda r: [r.normal(size=(2, 3))], lambda t, a: ad.mul_const(t, a, np.array([0.5, -2.0, 3.0]))),
    "matmul": (lambda r: [r.normal(size=(3, 4)), r.normal(size=(4, 2))], lambda t, a, b: ops.matmul(t, a, b)),
    "linear": (
        lambda r: [r.normal(size=(3, 4)), r.normal(size=(4, 2)), r.normal(size=2)],
        lambda t, x, w, b: ad.linear(t, x, w, b),
    ),
    "sigmoid": (lambda r: [r.normal(size=(2, 5))], lambda t, a: ad.sigmoid(t, a)),
    "tanh": (lambda r: [r.normal(size=(2, 5))], lambda t, a: ops.tanh(t, a)),
    "reshape": (lambda r: [r.normal(size=(2, 6))], lambda t, a: ad.reshape(t, a, (3, 4))),
    "conv2d": (
        lambda r: [r.normal(size=(2, 5, 4, 2)), r.normal(size=(3, 2, 3, 3)), r.normal(size=3)],
        lambda t, x, w, b: ad.conv2d(t, x, w, b),
    ),
    "conv2d_support": (
        lambda r: [r.normal(size=len(_SUPPORT)), r.normal(size=(3, 1, 3, 3)), r.normal(size=3)],
        lambda t, x, w, b: ad.conv2d_support(t, x, _SUPPORT, (2, 5, 4), w, b),
    ),
    "maxpool_relu_cropped": (lambda r: [_away_from_zero(r, (2, 5, 7, 2))], lambda t, a: ad.maxpool_relu(t, a, 2)),
    "maxpool_relu_factor3": (lambda r: [_away_from_zero(r, (1, 7, 6, 2))], lambda t, a: ad.maxpool_relu(t, a, 3)),
    "maxpool_relu_mixed_sign": (lambda r: [_mixed_sign_windows(r, (2, 4, 4, 3))], lambda t, a: ad.maxpool_relu(t, a, 2)),
    "global_avg_pool": (lambda r: [r.normal(size=(2, 4, 5, 3))], lambda t, a: ad.global_avg_pool(t, a)),
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
        x = ad.parameter(_away_from_zero(np.random.default_rng(0), (1, 5, 7, 1)))
        tape = Tape()
        backward(tape, ad.sum_all(tape, ad.maxpool_relu(tape, x, 2)))
        assert x.grad.shape == (1, 5, 7, 1)
        assert np.all(x.grad[:, 4, :, :] == 0.0) and np.all(x.grad[:, :, 6, :] == 0.0)
        assert x.grad[:, :4, :6, :].sum() == 6.0  # every window's max is positive here

    def test_maxpool_relu_window_with_nonpositive_max_sends_nothing(self):
        # relu(maxpool2d(x)) wrote g*0 into such a window's first maximum:
        # -0.0 for a negative g, NaN for an infinite one; a max of exactly
        # 0.0 sends nothing either, as relu's > 0 mask did
        x = ad.parameter(np.array([[-1.0, -2.0, 0.0, -1.0], [-3.0, -0.5, -2.0, 0.0]]).reshape(1, 2, 4, 1).repeat(3, axis=3))
        upstream = np.array([[np.inf, -np.inf, -1.5], [np.inf, -np.inf, -2.0]]).reshape(1, 1, 2, 3)
        tape = Tape()
        out = ad.maxpool_relu(tape, x, 2)
        assert out.data.tobytes() == np.zeros((1, 1, 2, 3)).tobytes()
        with np.errstate(invalid="ignore"):  # the loss 0 * inf is NaN; only its gradient is read
            loss = ad.sum_all(tape, ad.mul_const(tape, out, upstream))
        backward(tape, loss)
        assert x.grad.tobytes() == np.zeros(x.data.shape).tobytes()

    def test_unreached_and_constant_operands_keep_no_gradient(self):
        x = ad.parameter(np.array([0.3, -0.7]))
        y = ad.parameter(np.array([1.5, 2.0]))
        c = ad.constant(np.array([2.0, 3.0]))
        tape = Tape()
        ad.sigmoid(tape, x)  # recorded, but the loss never reaches it
        loss = ad.sum_all(tape, ops.mul(tape, y, c))
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
        logits, _, _ = _forward_batch(init_model_state(cfg), cfg, sketches, tape, np.random.default_rng(0))
        cross_entropy_logits(tape, logits, np.array([it.label for it in ds.items]))
        assert len(calls) == len(tape) > 0
        # and each closure is the one that autodiff.op makes
        op_closure = [c for c in ad.op.__code__.co_consts if getattr(c, "co_name", None) == "bwd"]
        assert {fn.__code__ for fn in calls} == set(op_closure)


def _captured(fn, name):
    """The value the closure fn captured under name."""
    return fn.__closure__[fn.__code__.co_freevars.index(name)].cell_contents


def _conv_captures(tape):
    """Weak references to the arrays the conv vjps on tape keep alive, by
    op: each conv2d's is its padded input, never a column matrix of
    B*H*W rows; conv2d_support's are its columns and index arrays, each
    of fewer rows than the B*H*W pixels of a dense image."""
    held = {"conv2d": {}, "conv2d_support": {}}
    for fn in tape._ops:
        edges = _captured(fn, "edges")
        kind = edges[-1][1].__qualname__.split(".")[0]
        if kind not in held:
            continue
        (_b, _), (w, _), (x, _) = edges
        B, H, W, _O = _captured(fn, "out").data.shape
        k = w.data.shape[2]
        for _t, vjp in edges:
            for cell in vjp.__closure__ or ():
                a = cell.cell_contents
                if isinstance(a, np.ndarray):
                    while a.base is not None:
                        a = a.base
                    if kind == "conv2d":
                        assert a.shape == (B, H + k - 1, W + k - 1, x.data.shape[3]), vjp.__qualname__
                    else:
                        assert a.shape[0] < B * H * W, vjp.__qualname__
                    held[kind][id(a)] = weakref.ref(a)
    return {kind: list(refs.values()) for kind, refs in held.items()}


def _desk_step(variant):
    """(params, tape, loss) of one seeded desk-profile batch of 16 before backward."""
    from sketchattn.ingest import synth_dataset
    from sketchattn.pipeline import _forward_batch, desk_config, init_model_state, prepare_sketch

    ds = synth_dataset(3, 0)
    cfg = desk_config(len(ds.categories), variant=variant)
    state = init_model_state(cfg)
    sketches = [prepare_sketch(it.sketch, cfg) for it in ds.items[:16]]
    tape = Tape()
    logits, _, _ = _forward_batch(state, cfg, sketches, tape, np.random.default_rng(0))
    loss = cross_entropy_logits(tape, logits, np.array([it.label for it in ds.items[:16]]))
    return state.params, tape, loss


class TestBackwardFreesAsItGoes:
    def test_backward_releases_closures_and_keeps_the_op_count(self):
        params, tape, loss = _desk_step("sketch_r2cnn")
        n_ops = len(tape)
        held = _conv_captures(tape)
        assert len(held["conv2d"]) == 2 and len(held["conv2d_support"]) > 0
        backward(tape, loss)
        assert len(tape) == n_ops
        assert all(a() is None for refs in held.values() for a in refs)
        assert all(p.grad is not None for p in params.values())

    def test_view_of_g_is_copied_not_handed_over(self):
        rng = np.random.default_rng(0)
        a = ad.parameter(rng.normal(size=(2, 6)))
        up = rng.normal(size=(3, 4))
        tape = Tape()
        r = ad.reshape(tape, a, (3, 4))  # its vjp returns a view of r.grad
        backward(tape, ad.sum_all(tape, ad.mul_const(tape, r, up)))
        assert not np.shares_memory(a.grad, r.grad)
        assert a.grad.tobytes() == up.reshape(2, 6).tobytes()

    def test_g_itself_is_copied_not_handed_over(self):
        a = ad.parameter(np.array(2.5))
        tape = Tape()
        loss = ad.sum_all(tape, a)  # its vjp returns g, shaped like a here
        backward(tape, loss)
        assert not np.shares_memory(a.grad, loss.grad)
        a.grad += 1.0
        assert a.grad == 2.0 and loss.grad == 1.0

    def test_broadcast_result_fills_the_operand_shape(self):
        rng = np.random.default_rng(1)
        x = ad.parameter(rng.normal(size=(2, 3, 4, 5)))
        up = rng.normal(size=(2, 5))
        tape = Tape()
        backward(tape, ad.sum_all(tape, ad.mul_const(tape, ad.global_avg_pool(tape, x), up)))
        assert x.grad.shape == x.data.shape and x.grad.flags.c_contiguous and x.grad.flags.writeable
        np.testing.assert_array_equal(x.grad, np.broadcast_to(up[:, None, None, :] / 12, x.data.shape))

    def test_two_consumers_add_into_the_first_handed_over_gradient(self):
        rng = np.random.default_rng(2)
        x = ad.parameter(rng.normal(size=(3, 4)))
        up = rng.normal(size=(3, 4))
        tape = Tape()
        a = ad.mul_const(tape, x, 2.0)
        b = ad.sigmoid(tape, x)
        s = ops.add(tape, a, b)  # both vjps return g itself
        backward(tape, ad.sum_all(tape, ad.mul_const(tape, s, up)))
        for t in (s, a, b):
            assert t.grad.tobytes() == up.tobytes()
        # sigmoid's vjp ran first and handed its new array over; mul_const's adds
        assert x.grad.tobytes() == (up * b.data * (1.0 - b.data) + up * 2.0).tobytes()

    def test_one_op_consuming_a_tensor_twice_leaves_g_alone(self):
        rng = np.random.default_rng(3)
        x = ad.parameter(rng.normal(size=(2, 3)))
        up = rng.normal(size=(2, 3))
        tape = Tape()
        y = ops.add(tape, x, x)
        backward(tape, ad.sum_all(tape, ad.mul_const(tape, y, up)))
        assert y.grad.tobytes() == up.tobytes()
        assert x.grad.tobytes() == (up + up).tobytes()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_gradients_match_accumulating_into_zeros(self, monkeypatch, variant):
        params, tape, loss = _desk_step(variant)
        backward(tape, loss)
        grads = {name: p.grad for name, p in params.items()}
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(grads.values(), 2))
        monkeypatch.setattr(ad, "op", ref.accumulating_op)
        params, tape, loss = _desk_step(variant)
        assert {fn.__qualname__ for fn in tape._ops} == {"accumulating_op.<locals>.bwd"}
        backward(tape, loss)
        assert grads.keys() == params.keys()
        for name, p in params.items():
            # a handed-over zero may be -0.0 where 0.0 + -0.0 gave 0.0
            assert np.array_equal(grads[name], p.grad), name

    def test_desk_backward_peak_over_forward_is_bounded(self):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _params, tape, loss = _desk_step("sketch_r2cnn")
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(tape, loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the forward's activations, padded conv inputs and LSTM gates: first
        # measured at 21.8 MB; keeping each conv's im2col matrix held 38.3 MB
        assert held - start < 24e6
        # first measured at +1.84 MB; a backward that kept its closures to
        # the end peaked at +17.0 MB on this batch
        assert peak - held < 2.0e6


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
        batch = rnn_attention_batch(Tape(), inputs, np.array([sk_short.n, sk_long.n]), params, cfg)
        np.testing.assert_allclose(batch.data[0, : sk_short.n], a_short, atol=1e-12)
        np.testing.assert_allclose(batch.data[1], a_long, atol=1e-12)
        assert np.all(batch.data[0, sk_short.n :] == 0.0)

    def test_dropout_runs_iff_an_rng_is_given(self):
        rng = np.random.default_rng(7)
        cfg = RnnConfig(hidden_size=4, dropout_prob=0.5)
        params = init_rnn_params(rng, cfg)
        sk = random_sketch(rng, 4, 64, 64)
        plain = attention_for(sk, RnnConfig(hidden_size=4, dropout_prob=0.0), params).data
        np.testing.assert_array_equal(attention_for(sk, cfg, params).data, plain)
        dropped = attention_for(sk, cfg, params, dropout_rng=rng).data
        assert dropped.shape == (1, sk.n)
        assert not np.array_equal(dropped, plain)

    @pytest.mark.parametrize("width", [2, 4])
    def test_input_width_is_the_offset_encoding(self, width):
        cfg, params = small_rnn()
        assert params["rnn.l0.fw.wx"].data.shape == (3, 4 * cfg.hidden_size)
        assert params["head.w"].data.shape == (2 * cfg.hidden_size, 1)
        with pytest.raises(ShapeMismatchError, match=f"dim {width} != 3"):
            rnn_attention_batch(Tape(), np.zeros((1, 4, width)), np.array([4]), params, cfg)

    @pytest.mark.parametrize(
        "lengths",
        [[5], [5, 6], [5, 5, 5], [0, 5], [-1, 5], [2.5, 5], [5.0, 5.0], [True, True], [[5], [5]], np.array(5)],
        ids=["too_few", "past_T", "too_many", "zero", "negative", "fractional", "float", "boolean", "2d", "scalar"],
    )
    def test_lengths_checked(self, lengths):
        # B=2, T=5: each of these broadcast, indexed out of range, gave
        # all-zero attention or was truncated before the check
        cfg, params = small_rnn()
        with pytest.raises(LengthMismatchError, match=r"lengths must be a \(2,\) integer array with entries in \[1, 5\]"):
            rnn_attention_batch(None, np.zeros((2, 5, 3)), np.asarray(lengths), params, cfg)

    @pytest.mark.parametrize("lengths", [[5, 1], np.array([5, 1], dtype=np.uint8), np.array([5, 1], dtype=np.int32)])
    def test_integer_lengths_accepted(self, lengths):
        cfg, params = small_rnn()
        attn = rnn_attention_batch(None, np.zeros((2, 5, 3)), lengths, params, cfg)
        assert np.all(attn.data[1, 1:] == 0.0) and np.all(attn.data[:, 0] > 0.0)

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
        z = [ops.add(tape, ops.add(tape, ops.matmul(tape, xs[t], wxs[k]), ops.matmul(tape, h, whs[k])), bs[k])
             for k in range(4)]
        i, f, o = ad.sigmoid(tape, z[0]), ad.sigmoid(tape, z[1]), ad.sigmoid(tape, z[3])
        g = ops.tanh(tape, z[2])
        c = ops.add(tape, ops.mul(tape, f, c), ops.mul(tape, i, g))
        h = ops.mul(tape, o, ops.tanh(tape, c))
        hs.append(h.data)
        step = ad.sum_all(tape, ops.mul(tape, h, ad.constant(upstream[:, t])))
        loss = step if loss is None else ops.add(tape, loss, step)
    backward(tape, loss)
    return (
        np.stack(hs, axis=1),
        np.stack([xt.grad for xt in xs], axis=1),
        np.concatenate([w.grad for w in wxs], axis=1),
        np.concatenate([w.grad for w in whs], axis=1),
        np.concatenate([v.grad for v in bs]),
    )


def reference_bidirectional(x, lengths, weights, upstream):
    """The layer's output and gradients (x, then fw and bw wx, wh, b) built
    from reference_lstm_grads: the fw half on the whole batch, the bw half
    item by item on each real prefix reversed, its padding after it."""
    B, T, _ = x.shape
    H = weights[1].shape[0]
    fw_out, fw_dx, *fw_dw = reference_lstm_grads(x, *weights[:3], upstream[..., :H])
    bw_out, bw_dx = np.zeros_like(fw_out), np.zeros_like(fw_dx)
    bw_dw = [np.zeros_like(w) for w in weights[3:]]
    for bi, n in enumerate(lengths):
        order = np.concatenate([np.arange(n - 1, -1, -1), np.arange(n, T)])
        item = np.s_[bi : bi + 1, order]
        out, dx, *dw = reference_lstm_grads(x[item], *weights[3:], upstream[..., H:][item])
        back = np.argsort(order)
        bw_out[bi], bw_dx[bi] = out[0, back], dx[0, back]
        for acc, g in zip(bw_dw, dw):
            acc += g
    return np.concatenate([fw_out, bw_out], axis=2), [fw_dx + bw_dx, *fw_dw, *bw_dw]


def random_layer(rng, D, H):
    """fw then bw (wx, wh, b) arrays of one layer."""
    return [a for _ in ("fw", "bw") for a in (rng.normal(size=(D, 4 * H)), rng.normal(size=(H, 4 * H)), rng.normal(size=4 * H))]


def run_layer(tensors, lengths, upstream):
    """ad.lstm on [x, *fw, *bw] tensors and backward of sum(out * upstream)."""
    tape = Tape()
    out = ad.lstm(tape, tensors[0], lengths, tuple(tensors[1:4]), tuple(tensors[4:]))
    assert len(tape) == 1
    backward(tape, ad.sum_all(tape, ad.mul_const(tape, out, upstream)))
    return out


LAYER_OPERANDS = ["x", "wx", "wh", "b", "bw_wx", "bw_wh", "bw_b"]


class TestFusedLstm:
    def _check_against_reference(self, seed, B, T, D, H, lengths):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(B, T, D))
        weights = random_layer(rng, D, H)
        upstream = rng.normal(size=(B, T, 2 * H))
        ref_out, ref_grads = reference_bidirectional(x, lengths, weights, upstream)

        tensors = [ad.parameter(a.copy()) for a in [x, *weights]]
        out = run_layer(tensors, lengths, upstream)
        np.testing.assert_allclose(out.data, ref_out, rtol=0, atol=1e-12)
        for name, t, ref in zip(LAYER_OPERANDS, tensors, ref_grads):
            np.testing.assert_allclose(t.grad, ref, rtol=0, atol=1e-12, err_msg=name)

    def test_matches_step_by_step_reference(self):
        # full lengths: the bw half reads every item wholly reversed
        self._check_against_reference(11, B=3, T=7, D=5, H=4, lengths=np.array([7, 7, 7]))

    @pytest.mark.parametrize("which", range(7), ids=LAYER_OPERANDS)
    def test_lone_operand_gradient_matches_reference(self, which):
        # the seven vjps share one BPTT pass, run by whichever comes first;
        # with one operand requiring a gradient, its vjp is the only one
        rng = np.random.default_rng(15)
        B, T, D, H = 2, 5, 3, 4
        lengths = np.array([5, 3])
        arrays = [rng.normal(size=(B, T, D)), *random_layer(rng, D, H)]
        upstream = rng.normal(size=(B, T, 2 * H))
        _, ref_grads = reference_bidirectional(arrays[0], lengths, arrays[1:], upstream)

        tensors = [Tensor(a.copy(), requires_grad=k == which) for k, a in enumerate(arrays)]
        tape = Tape()
        out = ad.lstm(tape, tensors[0], lengths, tuple(tensors[1:4]), tuple(tensors[4:]))
        backward(tape, ad.sum_all(tape, ad.mul_const(tape, out, upstream)))
        assert [t.grad is not None for t in tensors] == [k == which for k in range(7)]
        np.testing.assert_allclose(tensors[which].grad, ref_grads[which], rtol=0, atol=1e-12)

    def test_reversed_prefixes_match_reference_per_item(self):
        # ragged lengths: each item's bw half runs over its real prefix
        # backwards, then its padding in place; states come back in the
        # input's time order
        self._check_against_reference(12, B=3, T=6, D=4, H=3, lengths=np.array([6, 2, 4]))
        self._check_against_reference(16, B=4, T=5, D=3, H=2, lengths=np.array([1, 5, 3, 1]))

    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_one_recurrence_op_per_layer(self, num_layers, training, monkeypatch):
        # per layer one lstm op (and dropout between layers when training);
        # then reshape, linear, sigmoid, reshape and the padding mask. Every
        # profile has NUM_LAYERS layers; the other counts check the loop
        monkeypatch.setattr(model, "NUM_LAYERS", num_layers)
        cfg = RnnConfig(hidden_size=4, dropout_prob=0.5)
        params = init_rnn_params(np.random.default_rng(17), cfg)
        rng = np.random.default_rng(17)
        tape = Tape()
        rnn_attention_batch(tape, rng.normal(size=(3, 6, 3)), np.array([6, 1, 4]), params, cfg,
                            rng if training else None)
        assert len(tape) == num_layers + (num_layers - 1 if training else 0) + 5
        assert sum(name.endswith(".fw.wx") for name in params) == num_layers

    def test_attention_tape_length_independent_of_sequence_length(self):
        cfg, params = small_rnn(13)
        rng = np.random.default_rng(13)
        lengths = []
        for T in (5, 50):
            tape = Tape()
            rnn_attention_batch(tape, rng.normal(size=(2, T, 3)), np.array([T, T - 2]), params, cfg)
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
            attn = rnn_attention_batch(tape, inputs, lengths, params, cfg)
            return ad.sum_all(tape, ad.mul_const(tape, attn, w))

        rep = grad_check(fn, params, step=1e-4, tolerance=1e-5)
        assert rep.passed, rep.format()


class TestCnn:
    def test_zero_image_equal_logits(self):
        rng = np.random.default_rng(9)
        cfg = CnnConfig(stages=(4, 8), num_classes=3)
        params = init_cnn_params(rng, cfg)
        logits = cnn_logits(np.zeros((16, 16)), cfg, params)
        assert np.allclose(logits, logits[0])

    def test_all_parameters_match_finite_differences(self):
        rng = np.random.default_rng(10)
        cfg = CnnConfig(stages=(4, 8), num_classes=2)
        params = init_cnn_params(rng, cfg)
        for name, p in params.items():
            if name.endswith(".b"):
                p.data += rng.normal(0, 0.05, p.data.shape)  # move relu off its kink
        values, support, shape = full_support(rng.normal(size=(1, 8, 8, 1)))
        labels = np.array([1])

        def fn(tape):
            logits = cnn_forward_batch(tape, ad.constant(values), support, shape, params, cfg)
            return cross_entropy_logits(tape, logits, labels)

        rep = grad_check(fn, params, step=1e-5, tolerance=1e-4)
        assert rep.passed, rep.format()

    def test_logits_continuous_in_input_scale(self):
        rng = np.random.default_rng(11)
        cfg = CnnConfig(stages=(4,), num_classes=2)
        params = init_cnn_params(rng, cfg)
        img = rng.uniform(0.1, 1.0, size=(8, 8))
        base = cnn_logits(img, cfg, params)
        nudged = cnn_logits(img * 1.0001, cfg, params)
        assert np.abs(nudged - base).max() < 1e-2

    def test_works_on_any_canvas(self):
        rng = np.random.default_rng(12)
        cfg = CnnConfig(stages=(4, 8), num_classes=4)
        params = init_cnn_params(rng, cfg)
        for size in (16, 24, 64):
            logits = cnn_logits(rng.normal(size=(size, size)), cfg, params)
            assert logits.shape == (4,)

    @pytest.mark.parametrize("num_stages", [1, 2, 3])
    def test_two_ops_per_stage_plus_two(self, num_stages):
        # conv and maxpool_relu per stage, then the global pool and the
        # linear head: the benchmark's cnn.tape_ops counts these
        rng = np.random.default_rng(13)
        cfg = CnnConfig(stages=(4,) * num_stages, num_classes=3)
        params = init_cnn_params(rng, cfg)
        tape = Tape()
        values, support, shape = full_support(rng.normal(size=(2, 16, 16, 1)))
        cnn_forward_batch(tape, ad.constant(values), support, shape, params, cfg)
        assert len(tape) == 2 * num_stages + 2

    def test_config_validation(self):
        with pytest.raises(InvalidConfigError):
            CnnConfig(num_classes=1)
        # an empty stage list used to be accepted, then cnn_forward_batch
        # raised UnboundLocalError in train, evaluate and forward_classify
        for stages in [(), (0,), (8, 0), (8, -1, 16)]:
            with pytest.raises(InvalidConfigError, match="'stages' must hold at least one channel count"):
                CnnConfig(stages=stages, num_classes=2)


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


def fresh_state(params, **kw):
    """A ModelState with zero Adam moments, as init_model_state builds it."""
    m, v = ({k: np.zeros_like(p.data) for k, p in params.items()} for _ in range(2))
    return ModelState(params, m, v, **kw)


class TestAdam:
    def test_first_step_is_signed_lr(self):
        params = {"w": ad.parameter(np.array([1.0, -2.0, 3.0]))}
        state = fresh_state(params)
        before = params["w"].data.copy()
        g = np.array([0.5, -0.25, 1.0])
        params["w"].grad = g
        adam_step(state, lr=1e-3)
        update = params["w"].data - before
        np.testing.assert_allclose(update, -1e-3 * np.sign(g), rtol=1e-6)
        assert np.all(np.abs(update) >= 1e-3 * (1 - 1e-6))
        assert np.all(np.abs(update) <= 1e-3)
        assert state.step == 1
        assert params["w"].grad is None  # consumed

    def test_zero_gradient_leaves_parameters_moments_decay(self):
        params = {"w": ad.parameter(np.array([1.0, 2.0]))}
        state = fresh_state(params)
        params["w"].grad = np.array([4.0, -4.0])
        adam_step(state, lr=0.0)
        m_before = state.m["w"].copy()
        adam_step(state, lr=1e-3)  # no gradient reached w: it counts as zeros
        np.testing.assert_allclose(state.m["w"], 0.9 * m_before, rtol=1e-12)
        # parameters still move on the decayed first moment; a zero moment
        # and zero gradient must leave them untouched
        state2 = fresh_state({"w": ad.parameter(np.array([1.0, 2.0]))})
        before = state2.params["w"].data.copy()
        adam_step(state2, lr=1e-3)
        np.testing.assert_array_equal(state2.params["w"].data, before)

    def test_three_steps_match_hand_written_adam(self):
        # a new gradient at each step pins beta1, beta2 and eps; the
        # microscopic entry makes eps matter against sqrt(v_hat)
        w = np.array([0.5, -1.5, 2.0, 1e-3])
        grads = [
            np.array([0.3, -2.0, 1e-6, 0.0]),
            np.array([-0.1, 0.5, 2e-6, 4.0]),
            np.array([0.2, 0.25, -3e-6, -1.0]),
        ]
        p = ad.parameter(w.copy())
        state = fresh_state({"w": p})
        m, v = np.zeros(4), np.zeros(4)
        for t, g in enumerate(grads, start=1):
            p.grad = g.copy()
            adam_step(state, lr=0.01)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            w = w - 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            np.testing.assert_allclose(state.m["w"], m, rtol=1e-14)
            np.testing.assert_allclose(state.v["w"], v, rtol=1e-14)
            np.testing.assert_allclose(p.data, w, rtol=1e-14)
        assert state.step == 3

    def test_paper_learning_rates_available(self):
        # fine-tuning needs pre-trained CNN weights, which the repository
        # does not have: its rate 5e-5 is an ordinary lr override
        from sketchattn.pipeline import PAPER_LR, paper_scale_config

        assert PAPER_LR == 1e-4
        assert paper_scale_config(6).lr == 1e-4
        assert paper_scale_config(6, lr=5e-5).lr == 5e-5
        assert paper_scale_config(6).batch_size == 48
        with pytest.raises(TypeError):
            paper_scale_config(6, finetune=True)
        # the profile is the config defaults; a changed default fails here
        assert paper_scale_config(6).to_json_dict() == {
            "format": "sketchattn-config",
            "version": 4,
            "variant": "sketch_r2cnn",
            "rnn": {"hidden_size": 512, "dropout_prob": 0.5},
            "cnn": {"stages": [16, 32, 64], "num_classes": 6},
            "raster": {"width": 224, "height": 224, "epsilon": 1.0},
            "simplify": {"epsilon": 2.0, "max_points": 448, "escalation_factor": 1.5},
            "augment": {"reflect_prob": 0.5, "removal_prob": 0.3, "jitter_sigma": 1.0},
            "batch_size": 48,
            "epochs": 10,
            "lr": 1e-4,
            "seed": 0,
            "early_stop_train_acc": None,
            "early_stop_valid_acc": None,
        }


class TestModelStateAndCheckpoints:
    def test_init_deterministic(self):
        cfg = RnnConfig(hidden_size=8)
        p1 = init_rnn_params(np.random.default_rng(5), cfg)
        p2 = init_rnn_params(np.random.default_rng(5), cfg)
        for k in p1:
            np.testing.assert_array_equal(p1[k].data, p2[k].data)

    def test_forget_gate_bias_one(self):
        cfg = RnnConfig(hidden_size=8)
        params = init_rnn_params(np.random.default_rng(0), cfg)
        for layer, d in itertools.product(range(NUM_LAYERS), ("fw", "bw")):
            b = params[f"rnn.l{layer}.{d}.b"].data
            np.testing.assert_array_equal(b[8:16], np.ones(8))
            np.testing.assert_array_equal(b[:8], np.zeros(8))

    def test_recurrent_blocks_orthogonal(self):
        cfg = RnnConfig(hidden_size=16)
        params = init_rnn_params(np.random.default_rng(1), cfg)
        for layer, d in itertools.product(range(NUM_LAYERS), ("fw", "bw")):
            wh = params[f"rnn.l{layer}.{d}.wh"].data
            for k in range(4):
                blk = wh[:, 16 * k : 16 * (k + 1)]
                np.testing.assert_allclose(blk.T @ blk, np.eye(16), atol=1e-10)

    def test_num_params_reported(self):
        state = fresh_state({"a": ad.parameter(np.zeros((3, 4))), "b": ad.parameter(np.zeros(5))})
        assert state.num_params() == 17

    def test_checkpoint_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        cfg = CnnConfig(stages=(4,), num_classes=2)
        state = fresh_state(init_cnn_params(rng, cfg), config={"k": 1}, categories=["a", "b"])
        for p in state.params.values():
            p.grad = rng.normal(size=p.data.shape)
        adam_step(state, lr=1e-3)
        path = tmp_path / "ck.json"
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        assert back.step == 1 and back.config == {"k": 1} and back.categories == ["a", "b"]
        for k in state.params:
            np.testing.assert_array_equal(back.params[k].data, state.params[k].data)
            np.testing.assert_array_equal(back.m[k], state.m[k])
            np.testing.assert_array_equal(back.v[k], state.v[k])

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        rng = np.random.default_rng(16)
        cfg = CnnConfig(stages=(4,), num_classes=2)
        state = fresh_state(init_cnn_params(rng, cfg))
        save_checkpoint(state, tmp_path / "a.json")
        save_checkpoint(state, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_checkpoint_version_mismatch(self, tmp_path):
        import json

        state = fresh_state({"w": ad.parameter(np.zeros(2))})
        path = tmp_path / "ck.json"
        save_checkpoint(state, path)
        payload = json.loads(path.read_text())
        payload["version"] = 42
        path.write_text(json.dumps(payload))
        from sketchattn.errors import VersionMismatchError

        with pytest.raises(VersionMismatchError):
            load_checkpoint(path)

    def test_version_1_checkpoint_rejected(self, tmp_path):
        # v1 stored the seed beside the config and the categories inside it
        import json

        from sketchattn.errors import VersionMismatchError

        path = tmp_path / "ck.json"
        save_checkpoint(fresh_state({"w": ad.parameter(np.zeros(2))}), path)
        payload = json.loads(path.read_text())
        payload.pop("categories")
        payload.update(version=1, seed=0, config={"categories": ["a", "b"]})
        path.write_text(json.dumps(payload))
        with pytest.raises(VersionMismatchError, match="version 1"):
            load_checkpoint(path)


class TestGradCheckHarness:
    def test_corrupted_gradient_flagged_by_name(self):
        theta = ad.parameter(np.array([1.0, 2.0]))
        phi = ad.parameter(np.array([3.0]))

        def fn(tape):
            return ops.add(tape, ad.sum_all(tape, ops.mul(tape, theta, theta)), ad.sum_all(tape, phi))

        def broken(tape):
            return ops.wrong_gradient(tape, fn(tape), phi)

        assert grad_check(fn, {"theta": theta, "phi": phi}, tolerance=1e-6).passed
        rep = grad_check(broken, {"theta": theta, "phi": phi}, tolerance=1e-6)
        assert not rep.passed
        assert rep.worst.name == "phi"

    @pytest.mark.parametrize("side", ["analytic", "numeric"])
    def test_nan_gradient_fails(self, side):
        # a NaN relative error used to compare false against the running
        # worst, so the entry kept max_rel_err=0.0 and the report said PASS
        theta = ad.parameter(np.array([1.0, 2.0]))
        phi = ad.parameter(np.array([0.5]))
        scale = np.array([3.0, np.nan if side == "analytic" else 3.0])

        def loss(tape):
            value = 3.0 * theta.data.sum()
            if side == "numeric" and theta.data[1] != 2.0:
                value = float("nan")  # the loss leaves the reals off the probe point
            linear = ad.op(tape, value, (theta, lambda g: g * scale))
            return ops.add(tape, linear, ad.sum_all(tape, ops.mul(tape, phi, phi)))

        rep = grad_check(loss, {"theta": theta, "phi": phi}, tolerance=1e-6)
        assert not rep.passed
        assert rep.worst.name == "theta" and rep.worst.worst_flat_index == 1
        assert rep.worst.max_rel_err == np.inf
        text = rep.format()
        assert text.splitlines()[0].startswith("FAIL theta")
        assert text.splitlines()[-1].startswith("FAIL: worst theta rel_err=inf")

    def test_report_format_mentions_worst(self):
        theta = ad.parameter(np.array([1.0]))

        def fn(tape):
            return ad.sum_all(tape, ops.mul(tape, theta, theta))

        rep = grad_check(fn, {"theta": theta}, tolerance=1e-6)
        text = rep.format()
        assert "theta" in text and "PASS" in text

    def test_sampling_entries(self):
        theta = ad.parameter(np.arange(100, dtype=float))

        def fn(tape):
            return ad.sum_all(tape, ops.mul(tape, theta, theta))

        rep = grad_check(
            fn, {"theta": theta}, tolerance=1e-6, max_entries_per_param=5,
            rng=np.random.default_rng(0),
        )
        assert rep.passed
