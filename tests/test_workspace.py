"""The per-epoch training workspace: step buffers are reused, never read
stale, never handed to Adam, and change no bit of a training run."""

import gc
import os
import weakref

import numpy as np
import pytest

from sketchattn import pipeline
from sketchattn.errors import WorkspaceBusyError
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


def _poison(a):
    a.reshape(-1).view(np.uint8).fill(0xFF)  # NaN as float64, -1 as intp, True as bool


@pytest.mark.parametrize("variant", VARIANTS)
def test_poisoned_and_absent_workspaces_give_the_same_bytes(variant, tmp_path, monkeypatch):
    expected = _artifacts(variant, tmp_path / "plain")
    workspaces = []
    original_backward, original_give_back = pipeline.backward, Workspace.give_back

    def poisoning_backward(tape, loss):
        original_backward(tape, loss)
        workspaces.append(tape.workspace)
        for buf in tape.workspace.buffers():  # every byte, free or not
            _poison(buf)

    def poisoning_give_back(ws, a):
        if ws.holds(a):  # a stale read of a given-back array meets NaN
            _poison(a)
        original_give_back(ws, a)

    monkeypatch.setattr(pipeline, "backward", poisoning_backward)
    monkeypatch.setattr(Workspace, "give_back", poisoning_give_back)
    assert _artifacts(variant, tmp_path / "poisoned") == expected
    assert workspaces and all(ws is not None and ws.buffers() for ws in workspaces)
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
        buffers = seen["workspace"].buffers()
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
    assert ws.buffers()


def test_a_live_unconsumed_tape_keeps_the_workspace():
    ws = Workspace()
    x = ad.parameter(np.ones((1, 4, 4, 2)))
    tape = Tape(ws)
    y = ad.relu(tape, x)
    with pytest.raises(WorkspaceBusyError):
        Tape(ws)
    backward(tape, ad.sum_all(tape, y))
    Tape(ws)  # after backward
    dropped = Tape(ws)
    ad.relu(dropped, x)
    del dropped
    gc.collect()
    Tape(ws)  # after the last tape was dropped


class TestWorkspaceAllocator:
    def test_live_arrays_do_not_overlap_and_given_back_ranges_are_reused(self):
        ws = Workspace()
        Tape(ws)
        a, b, c = ws.take((100,)), ws.take((3, 7), np.intp), ws.take((50,), bool)
        assert not any(np.shares_memory(p, q) for p, q in ((a, b), (a, c), (b, c)))
        assert len(ws.buffers()) == 1 and ws.holds(a) and not ws.holds(a.copy())
        ws.give_back(a)
        assert not ws.holds(a)
        d = ws.take((100,))
        assert np.shares_memory(a, d)  # the smallest free range that holds it
        ws.give_back(np.zeros(3))  # not handed out: nothing happens
        ws.give_back(d)
        ws.give_back(d)  # twice: nothing more happens

    def test_given_back_neighbours_merge_into_one_range(self):
        ws = Workspace()
        Tape(ws)
        half = ad._SEGMENT // 2 // 8
        a, b = ws.take((half,)), ws.take((half,))
        ws.give_back(b)
        ws.give_back(a)
        whole = ws.take((2 * half,))  # fits only once a and b are one range again
        assert np.shares_memory(whole, a) and np.shares_memory(whole, b)
        assert len(ws.buffers()) == 1

    def test_a_request_beyond_every_free_range_adds_a_segment_of_its_size(self):
        ws = Workspace()
        Tape(ws)
        big = ws.take((ad._SEGMENT // 8 + 1,))
        small = ws.take((10,))
        sizes = sorted(buf.nbytes for buf in ws.buffers())
        assert sizes == [ad._SEGMENT, -(-big.nbytes // ad._ALIGN) * ad._ALIGN]
        assert not np.shares_memory(big, small)

    def test_a_repeated_step_allocates_nothing(self, monkeypatch):
        ws = Workspace()
        monkeypatch.setattr(pipeline, "Workspace", lambda: ws)
        train_ds, _ = _datasets()
        cfg = desk_config(len(train_ds.categories), epochs=1)
        segments = []
        original_backward = pipeline.backward

        def counting_backward(tape, loss):
            original_backward(tape, loss)
            segments.append(tuple(id(buf) for buf in ws.buffers()))

        monkeypatch.setattr(pipeline, "backward", counting_backward)
        pipeline.train(cfg, train_ds)
        pipeline.train(cfg, train_ds)  # the same batches again, on the sized workspace
        later = segments[len(segments) // 2 :]
        assert len(set(later)) == 1 and later[0] == segments[len(segments) // 2 - 1]


def test_training_frees_the_workspace_before_scoring(monkeypatch):
    alive = []
    original_evaluate, original_backward = pipeline.evaluate, pipeline.backward

    def capturing_backward(tape, loss):
        alive.append(weakref.ref(tape.workspace))
        original_backward(tape, loss)

    def checking_evaluate(*args, **kwargs):
        gc.collect()
        assert all(ref() is None for ref in alive)
        return original_evaluate(*args, **kwargs)

    monkeypatch.setattr(pipeline, "backward", capturing_backward)
    monkeypatch.setattr(pipeline, "evaluate", checking_evaluate)
    train_ds, valid_ds = _datasets()
    pipeline.train(desk_config(len(train_ds.categories), epochs=1), train_ds, valid_ds)
    assert alive
