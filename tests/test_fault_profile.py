"""tests/fault_profile.py on a tiny training run: the structure of its
report, not its counts."""

import types

from sketchattn import pipeline
from sketchattn.ingest import synth_dataset
from sketchattn.net import autodiff as ad
from sketchattn.net.model import CnnConfig, RnnConfig
from sketchattn.pipeline import desk_config
from sketchattn.raster import RasterConfig

from fault_profile import profile_train, table, tape_ops


def test_report_attributes_every_op_and_restores_them():
    ds = synth_dataset(1, 0)
    cfg = desk_config(
        len(ds.categories), epochs=1, batch_size=4,
        rnn=RnnConfig(hidden_size=4, dropout_prob=0.2),
        cnn=CnnConfig(stages=(4, 4), num_classes=len(ds.categories)),
        raster=RasterConfig(width=16, height=16),
    )
    originals = {name: getattr(ad, name) for name in tape_ops(ad)}
    record, take = ad.Tape.record, ad.Workspace.take
    report = profile_train(lambda: pipeline.train(cfg, ds))

    ran = {"lstm", "dropout", "linear", "sigmoid", "reshape", "mul_const", "conv2d_support", "conv2d",
           "maxpool_relu", "global_avg_pool", "cross_entropy_logits", "rasterize_batch"}
    assert set(report["ops"]) == ran
    assert set(report["wrapped"]) == ran | {"sum_all"}
    for counts in report["ops"].values():
        assert set(counts) == {"forward_faults", "backward_faults", "forward_system_s", "backward_system_s"}
        assert all(v >= 0 for v in counts.values())
    parts = sum(c["forward_faults"] + c["backward_faults"] for c in report["ops"].values())
    assert report["total_faults"] >= parts
    assert report["other_faults"] == report["total_faults"] - parts
    assert report["total_system_s"] >= 0.0
    footprint = report["workspace"]
    assert footprint["segment_bytes"] >= ad._SEGMENT and 0 < footprint["peak_live_bytes"] <= footprint["segment_bytes"]
    assert "| `conv2d` |" in table(report) and "**total**" in table(report) and "live at peak" in table(report)
    assert {name: getattr(ad, name) for name in tape_ops(ad)} == originals
    assert ad.Tape.record is record and ad.Workspace.take is take


def test_tree_with_other_op_names_and_no_workspace():
    # a stand-in for an older tree: relu and maxpool2d where this tree has
    # maxpool_relu, and no Workspace
    class Tape:
        def __init__(self):
            self.fns = []

        def record(self, fn):
            self.fns.append(fn)

    def unary(tape, x):
        tape.record(lambda: None)
        return x

    def backward(tape, loss):
        for fn in reversed(tape.fns):
            fn()

    autodiff = types.ModuleType("autodiff")
    vars(autodiff).update(
        Tape=Tape, op=unary, backward=backward, relu=unary, maxpool2d=lambda tape, x, factor: unary(tape, x),
        constant=lambda data: data, _buffer=unary,
    )
    stub_pipeline = types.SimpleNamespace(_rasterize_batch=unary, cross_entropy_logits=lambda tape, x, labels: x)

    def train_call():
        tape = autodiff.Tape()
        x = autodiff.maxpool2d(tape, autodiff.relu(tape, stub_pipeline._rasterize_batch(tape, 1.0)), 2)
        autodiff.backward(tape, stub_pipeline.cross_entropy_logits(tape, x, 0))

    report = profile_train(train_call, autodiff, stub_pipeline)
    assert report["wrapped"] == ["cross_entropy_logits", "maxpool2d", "rasterize_batch", "relu"]
    assert set(report["ops"]) == {"maxpool2d", "relu", "rasterize_batch", "cross_entropy_logits"}
    assert report["workspace"] is None
    assert "wrapped: cross_entropy_logits, maxpool2d, rasterize_batch, relu" in table(report)
    assert "live at peak" not in table(report)
    assert autodiff.relu is unary and autodiff.Tape.record is Tape.record
