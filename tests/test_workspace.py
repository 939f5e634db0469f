"""The per-epoch training workspace: step buffers are reused once no array
views them, never read stale, never handed to Adam, and change no bit of a
training run."""

import gc
import os
import weakref

import numpy as np
import pytest

from sketchattn import pipeline
from sketchattn.ingest import Dataset, LabeledSketch, random_sketch, synth_dataset
from sketchattn.net import autodiff as ad
from sketchattn.net.autodiff import Tape, Workspace, backward
from sketchattn.pipeline import VARIANTS, desk_config

import test_net
from test_net import _desk_step


def _datasets():
    """Seeded splits whose last train batch is short, with multi-stroke walks."""
    shapes = synth_dataset(2, 0, "train")
    cats = shapes.categories
    rng = np.random.default_rng(5)
    walks = [
        LabeledSketch(random_sketch(rng, int(rng.integers(20, 40)), 255.0, 255.0, 0.2), k % len(cats), cats[k % len(cats)])
        for k in range(8)
    ]
    return Dataset(cats, shapes.items + walks, "train"), synth_dataset(1, 0, "valid")


def _artifacts(variant, out_dir):
    train_ds, valid_ds = _datasets()
    config = desk_config(len(train_ds.categories), variant=variant, epochs=2)
    pipeline.train(config, train_ds, valid_ds, out_dir=str(out_dir))
    return {name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))}


def segments(ws: Workspace) -> tuple[np.ndarray, ...]:
    """Every segment of ws, free bytes included."""
    return tuple(ws._segments)


def _poison(a):
    a.reshape(-1).view(np.uint8).fill(0xFF)  # NaN as float64, -1 as intp, True as bool


@pytest.mark.parametrize("variant", VARIANTS)
def test_poisoned_and_absent_workspaces_give_the_same_bytes(variant, tmp_path, monkeypatch):
    expected = _artifacts(variant, tmp_path / "plain")
    workspaces, returned = [], []
    original_backward, original_free_range = pipeline.backward, Workspace._free_range

    def poisoning_backward(tape, loss):
        original_backward(tape, loss)
        workspaces.append(tape.workspace)
        for buf in segments(tape.workspace):  # every byte, free or not
            _poison(buf)

    def poisoning_free_range(ws, k, lo, hi):
        _poison(segments(ws)[k][lo:hi])  # a stale read of a returned range meets NaN
        returned.append(hi - lo)
        original_free_range(ws, k, lo, hi)

    monkeypatch.setattr(pipeline, "backward", poisoning_backward)
    monkeypatch.setattr(Workspace, "_free_range", poisoning_free_range)
    assert _artifacts(variant, tmp_path / "poisoned") == expected
    assert workspaces and all(ws is not None and segments(ws) for ws in workspaces)
    assert returned
    monkeypatch.undo()
    monkeypatch.setattr(pipeline, "Workspace", lambda: None)  # every tape without a workspace
    assert _artifacts(variant, tmp_path / "absent") == expected


def test_no_gradient_adam_reads_shares_memory_with_the_workspace(monkeypatch):
    seen = {}
    original_backward, original_adam = pipeline.backward, pipeline.adam_step

    def capturing_backward(tape, loss):
        seen["workspace"] = tape.workspace
        original_backward(tape, loss)

    def checking_adam(state, lr):
        buffers = segments(seen["workspace"])
        grads = [p.grad for p in state.params.values() if p.grad is not None]
        assert grads and buffers
        assert not any(np.shares_memory(g, buf) for g in grads for buf in buffers)
        seen["checked"] = seen.get("checked", 0) + 1
        return original_adam(state, lr)

    monkeypatch.setattr(pipeline, "backward", capturing_backward)
    monkeypatch.setattr(pipeline, "adam_step", checking_adam)
    train_ds, _ = _datasets()
    pipeline.train(desk_config(len(train_ds.categories), epochs=1), train_ds)
    assert seen["checked"] == -(-len(train_ds.items) // 16)


@pytest.mark.parametrize("variant", VARIANTS)
def test_tape_with_and_without_workspace_same_gradients(variant, monkeypatch):
    params, tape, loss = _desk_step(variant)
    assert tape.workspace is None
    backward(tape, loss)
    plain = {name: p.grad.tobytes() for name, p in params.items()}

    ws = Workspace()
    monkeypatch.setattr(test_net, "Tape", lambda: Tape(ws))
    for _ in range(2):  # the second step reuses the first one's segments
        params, tape, loss = _desk_step(variant)
        assert tape.workspace is ws
        backward(tape, loss)
        assert {name: p.grad.tobytes() for name, p in params.items()} == plain
    assert segments(ws)


def test_a_range_comes_back_only_once_no_view_of_its_array_is_left():
    ws = Workspace()
    a = ws.take((4, 25))
    start = a.ctypes.data
    views = [a.reshape(100), a.T, a[1:, 3:]]
    del a
    while views:  # each view alone keeps the range
        b = ws.take((4, 25))
        assert not any(np.shares_memory(b, v) for v in views)
        del b
        views.pop()
    assert ws.take((4, 25)).ctypes.data == start


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_training_step_starts_with_no_live_workspace_array(variant, monkeypatch):
    starts = []

    def checking_tape(ws):
        starts.append(len(ws._live))
        return Tape(ws)

    monkeypatch.setattr(pipeline, "Tape", checking_tape)
    train_ds, valid_ds = _datasets()
    pipeline.train(desk_config(len(train_ds.categories), variant=variant, epochs=2), train_ds, valid_ds)
    assert starts == [0] * (2 * -(-len(train_ds.items) // 16))


class TestWorkspaceAllocator:
    def test_live_arrays_do_not_overlap_and_given_back_ranges_are_reused(self):
        ws = Workspace()
        a, b, c = ws.take((100,)), ws.take((3, 7), np.intp), ws.take((50,), bool)
        assert not any(np.shares_memory(p, q) for p, q in ((a, b), (a, c), (b, c)))
        assert len(segments(ws)) == 1 and ws.holds(a) and ws.holds(b.T)
        assert not ws.holds(a.copy()) and not ws.holds(a[1:]) and not ws.holds(Workspace().take((100,)))
        start = a.ctypes.data
        del a
        assert ws.take((100,)).ctypes.data == start  # the smallest free range that holds it

    def test_given_back_neighbours_merge_into_one_range(self):
        ws = Workspace()
        half = ad._SEGMENT // 2 // 8
        a, b = ws.take((half,)), ws.take((half,))
        start = a.ctypes.data
        del b, a
        whole = ws.take((2 * half,))  # fits only once a and b are one range again
        assert whole.ctypes.data == start and len(segments(ws)) == 1

    def test_a_request_beyond_every_free_range_adds_a_segment_of_its_size(self):
        ws = Workspace()
        big = ws.take((ad._SEGMENT // 8 + 1,))
        small = ws.take((10,))
        sizes = sorted(buf.nbytes for buf in segments(ws))
        assert sizes == [ad._SEGMENT, -(-big.nbytes // ad._ALIGN) * ad._ALIGN]
        assert not np.shares_memory(big, small)

    def test_a_dropped_workspace_dies_at_once_while_its_arrays_live(self):
        ws = Workspace()
        a = ws.take((10,))
        gone = weakref.ref(ws)
        gc.disable()  # by reference counts alone: no cycle runs through a's callback
        try:
            del ws
            assert gone() is None
        finally:
            gc.enable()
        a.fill(1.0)  # its segment lives as long as a
        assert a.sum() == 10.0

    def test_a_repeated_step_allocates_nothing(self, monkeypatch):
        ws = Workspace()
        monkeypatch.setattr(pipeline, "Workspace", lambda: ws)
        train_ds, _ = _datasets()
        cfg = desk_config(len(train_ds.categories), epochs=1)
        seen = []
        original_backward = pipeline.backward

        def counting_backward(tape, loss):
            original_backward(tape, loss)
            seen.append(tuple(id(buf) for buf in segments(ws)))

        monkeypatch.setattr(pipeline, "backward", counting_backward)
        pipeline.train(cfg, train_ds)
        pipeline.train(cfg, train_ds)  # the same batches again, on the sized workspace
        later = seen[len(seen) // 2 :]
        assert len(set(later)) == 1 and later[0] == seen[len(seen) // 2 - 1]


def test_training_frees_the_workspace_before_scoring(monkeypatch):
    alive = []
    original_evaluate, original_backward = pipeline.evaluate, pipeline.backward

    def capturing_backward(tape, loss):
        alive.append(weakref.ref(tape.workspace))
        original_backward(tape, loss)

    def checking_evaluate(*args, **kwargs):
        assert all(ref() is None for ref in alive)
        return original_evaluate(*args, **kwargs)

    monkeypatch.setattr(pipeline, "backward", capturing_backward)
    monkeypatch.setattr(pipeline, "evaluate", checking_evaluate)
    train_ds, valid_ds = _datasets()
    gc.disable()  # by reference counts alone, not the cyclic collector
    try:
        pipeline.train(desk_config(len(train_ds.categories), epochs=1), train_ds, valid_ds)
    finally:
        gc.enable()
    assert alive
