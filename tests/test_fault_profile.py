"""tests/fault_profile.py on a tiny training run: the structure of its
report, not its counts."""

from sketchattn import pipeline
from sketchattn.ingest import synth_dataset
from sketchattn.net import autodiff as ad
from sketchattn.net.model import CnnConfig, RnnConfig
from sketchattn.pipeline import desk_config
from sketchattn.raster import RasterConfig

from fault_profile import AUTODIFF_OPS, profile_train, table


def test_report_attributes_every_op_and_restores_them():
    ds = synth_dataset(1, 0)
    cfg = desk_config(
        len(ds.categories), epochs=1, batch_size=4,
        rnn=RnnConfig(hidden_size=4, num_layers=2, dropout_prob=0.2),
        cnn=CnnConfig(stages=((3, 4, 2), (3, 4, 2)), num_classes=len(ds.categories)),
        raster=RasterConfig(width=16, height=16),
    )
    originals = {name: getattr(ad, name) for name in AUTODIFF_OPS}
    record, take = ad.Tape.record, ad.Workspace.take
    report = profile_train(lambda: pipeline.train(cfg, ds))

    ran = {"lstm", "dropout", "linear", "sigmoid", "reshape", "mul_const", "conv2d_support", "conv2d",
           "maxpool_relu", "global_avg_pool", "cross_entropy_logits", "rasterize_batch"}
    assert set(report["ops"]) == ran
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
    assert {name: getattr(ad, name) for name in AUTODIFF_OPS} == originals
    assert ad.Tape.record is record and ad.Workspace.take is take
