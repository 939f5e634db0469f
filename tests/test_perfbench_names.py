"""The benchmark's tracer wraps package functions by name and reads their
arguments and results; a rename or a signature drift must fail here, not
only when the benchmark runs. The benchmark's own correctness gate runs
here too."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module's annotations through it
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return _load("tracer")


def test_every_traced_name_exists():
    tracer = load_tracer()
    assert tracer.WRAPPED
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracer.WRAPPED if not hasattr(module, attr)]
    assert missing == []


def test_counters_match_direct_counts():
    from sketchattn import pipeline
    from sketchattn.ingest import synth_dataset
    from sketchattn.net.autodiff import Tape, cross_entropy_logits
    from sketchattn.net.model import CnnConfig, RnnConfig
    from sketchattn.pipeline import AugmentConfig, desk_config
    from sketchattn.raster import RasterConfig, rasterize_forward, segment_table

    ds = synth_dataset(1, 0)
    cfg = desk_config(
        len(ds.categories), epochs=1, batch_size=4,
        rnn=RnnConfig(hidden_size=4, dropout_prob=0.2),
        cnn=CnnConfig(stages=(4,), num_classes=len(ds.categories)),
        raster=RasterConfig(width=16, height=16, epsilon=1.0),
        augment=AugmentConfig(reflect_prob=0.0, removal_prob=0.0, jitter_sigma=0.0),
    )
    prepared = [pipeline.prepare_sketch(it.sketch, cfg) for it in ds.items]
    extra = prepared[0]
    extra_attention = np.linspace(0.0, 1.0, extra.n)

    # the same counts, taken directly: one raster per train item plus the
    # extra call, and one train-mode tape per batch
    rastered = prepared + [extra]
    owners = [rasterize_forward(sk, np.zeros(sk.n), cfg.raster).owner for sk in rastered]
    tape = Tape()
    logits, _, _ = pipeline._forward_batch(
        pipeline.init_model_state(cfg), cfg, prepared[: cfg.batch_size], tape, np.random.default_rng(0)
    )
    cross_entropy_logits(tape, logits, np.array([it.label for it in ds.items[: cfg.batch_size]]))
    batches = -(-len(prepared) // cfg.batch_size)

    with load_tracer().Tracer() as tracer:
        pipeline.train(cfg, ds)
        pipeline.rasterize_forward(extra, extra_attention, cfg.raster)

    counts = tracer.counts
    assert counts["rnn.real_steps"] == sum(sk.n for sk in prepared)
    assert counts["raster.segments"] == sum(len(segment_table(sk)) for sk in rastered)
    assert counts["raster.owned_pixels"] == sum(int(np.count_nonzero(o >= 0)) for o in owners)
    assert counts["tape.backwards"] == batches
    assert counts["tape.ops"] == batches * len(tape)
    assert tracer.per_layer()["tape.ops"] == (len(tape), "count")


@pytest.mark.parametrize("workload", ["desk", "longseq"])
def test_reference_check_passes(workload, tmp_path):
    # the stored seed-0 loss (rtol 1e-7) and one checked operation of each
    # phase, as every benchmark run does before it measures
    wl = _load("workloads")
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    with wl.Probes() as probes:
        res = wl.reference_check(wl.WORKLOADS[workload], reference, probes, str(tmp_path))
    assert res.errors == []
    assert res.failed == 0 and res.attempted > 0
    assert len(res.final_losses) == 1
