"""Elementwise tape ops with numpy broadcasting, built on ``autodiff.op``.

The package's op set holds only what the pipeline runs. The step-by-step
reference LSTM in tests/test_net.py needs per-gate adds, products and
tanh, so those live here; OP_CASES checks each against finite
differences like the package's ops. wrong_gradient is the exception: its
vjp is wrong on purpose, so gradcheck's self-tests have a broken gradient
to catch.
"""

import numpy as np

from sketchattn.net import autodiff as ad


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def add(tape, a, b):
    return ad.op(
        tape,
        a.data + b.data,
        (a, lambda g: unbroadcast(g, a.data.shape)),
        (b, lambda g: unbroadcast(g, b.data.shape)),
    )


def mul(tape, a, b):
    return ad.op(
        tape,
        a.data * b.data,
        (a, lambda g: unbroadcast(g * b.data, a.data.shape)),
        (b, lambda g: unbroadcast(g * a.data, b.data.shape)),
    )


def matmul(tape, a, b):
    return ad.op(tape, a.data @ b.data, (a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g))


def tanh(tape, a):
    t = np.tanh(a.data)
    return ad.op(tape, t, (a, lambda g: g * (1.0 - t * t)))


def wrong_gradient(tape, loss, p, error=1e-2):
    """Pass a scalar loss through unchanged while the vjp claims that every
    entry of p adds `error` to its gradient."""
    return ad.op(tape, loss.data, (loss, lambda g: g), (p, lambda g: np.full(p.data.shape, error) * g))
