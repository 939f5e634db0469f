"""The benchmark's tracer wraps package functions by name and reads their
arguments and results; a rename or a signature drift must fail here, not
only when the benchmark runs."""

import importlib.util
from pathlib import Path

import numpy as np

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


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
        rnn=RnnConfig(hidden_size=4, num_layers=2, bidirectional=True, dropout_prob=0.2),
        cnn=CnnConfig(stages=((3, 4, 2),), num_classes=len(ds.categories)),
        raster=RasterConfig(width=16, height=16, epsilon=1.0),
        augment=AugmentConfig(reflect=False, stroke_removal=False, jitter=False),
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
        pipeline.init_model_state(cfg), cfg, prepared[: cfg.batch_size], "train", tape, np.random.default_rng(0)
    )
    cross_entropy_logits(tape, logits, np.array([it.label for it in ds.items[: cfg.batch_size]]))
    batches = -(-len(prepared) // cfg.batch_size)

    with load_tracer().Tracer() as tracer:
        pipeline.train(cfg, ds)
        pipeline.rasterize_forward(extra, extra_attention, cfg.raster)

    counts = tracer.counts
    assert counts["rnn.real_steps"] == sum(sk.n for sk in prepared)
    discs = cfg.raster.render_point_discs
    assert counts["raster.segments"] == sum(len(segment_table(sk, discs)) for sk in rastered)
    assert counts["raster.owned_pixels"] == sum(int(np.count_nonzero(o >= 0)) for o in owners)
    assert counts["tape.backwards"] == batches
    assert counts["tape.ops"] == batches * len(tape)
    assert tracer.per_layer()["tape.ops"] == (len(tape), "count")
