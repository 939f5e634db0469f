"""Benchmark workloads: seeded inputs, set-up, and the four phases.

Every workload runs the same four phases on its own inputs and profile:

- ``train``: ``pipeline.train`` for one epoch per call, writing checkpoints
  and metrics to a temporary directory as ``sketchattn train`` does;
- ``eval``: ``pipeline.evaluate`` on one batch-sized chunk per call;
- ``predict``: ``pipeline.forward_classify`` on one prepared sketch (B=1);
- ``raster``: one raw sketch through ``prepare_sketch``, ``rasterize_forward``
  with a seeded attention vector and ``rasterize_backward`` with a seeded
  upstream gradient.

Each phase checks its outputs and counts an operation that raises or fails a
check as failed instead of stopping the run. The harness calls the package
only through module attributes (``pipeline.train``, ``ingest.random_sketch``,
...), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import itertools
import math
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from sketchattn import ingest, pipeline, raster
from sketchattn.geometry import VectorSketch
from sketchattn.ingest import SYNTH_CATEGORIES, Dataset, LabeledSketch
from sketchattn.pipeline import ExperimentConfig

PHASES = ("train", "eval", "predict", "raster")

# inputs of the reference training whose final loss is stored in reference.json
REFERENCE_SEED = 0
REFERENCE_BATCHES = 2

# relative tolerance for the reference loss: room for float64 sums taken in
# another order, far below what a changed computation moves
LOSS_RTOL = 1e-7


@dataclass(frozen=True)
class Inputs:
    train: Dataset
    valid: Dataset
    test: Dataset
    raw: list[VectorSketch]  # raster phase: raw sketches, prepared inside the timed op
    attention: list[np.ndarray]  # one seeded vector per raw sketch, sliced to the prepared length
    deltas: list[np.ndarray]  # seeded upstream pixel gradients, used in turn


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int], ExperimentConfig]  # profile of train, eval and predict
    vector: ExperimentConfig  # profile of the raster phase
    inputs: Callable[[int], Inputs]
    shares: dict[str, float]  # share of --seconds given to each phase
    traced_ops: dict[str, int]  # operations of each phase in the traced run


def _vector_inputs(rng: np.random.Generator, raw: list[VectorSketch], vector: ExperimentConfig):
    attention = [rng.random(sk.n) for sk in raw]
    shape = (vector.raster.height, vector.raster.width)
    deltas = [rng.normal(size=shape) for _ in range(8)]
    return attention, deltas


def _desk_config(seed: int) -> ExperimentConfig:
    return pipeline.desk_config(len(SYNTH_CATEGORIES), seed=seed, epochs=1)


def _desk_inputs(seed: int) -> Inputs:
    train = ingest.synth_dataset(48, seed, "train")
    valid = ingest.synth_dataset(4, seed, "valid")
    test = ingest.synth_dataset(16, seed, "test")
    raw = [it.sketch for it in test.items]
    attention, deltas = _vector_inputs(np.random.default_rng((seed, 1)), raw, _desk_config(seed))
    return Inputs(train, valid, test, raw, attention, deltas)


def _shuffled(rng: np.random.Generator, lengths: np.ndarray) -> np.ndarray:
    """Raw lengths from a fixed grid, in seeded order.

    Every seed gets the same lengths and only the walks' shapes differ, so
    the spread between seeds does not hang on a few draws from the tails.
    """
    return rng.permutation(lengths.round().astype(int))


def _walks(rng: np.random.Generator, count: int, lo: int, hi: int, canvas: float, split: str) -> Dataset:
    # labels cycle through the categories: the walks carry no class signal,
    # which costs nothing in a speed benchmark
    c = len(SYNTH_CATEGORIES)
    items = [
        LabeledSketch(ingest.random_sketch(rng, int(n), canvas, canvas), k % c, SYNTH_CATEGORIES[k % c])
        for k, n in enumerate(_shuffled(rng, np.linspace(lo, hi, count)))
    ]
    return Dataset(list(SYNTH_CATEGORIES), items, split)


def _longseq_config(seed: int) -> ExperimentConfig:
    return pipeline.desk_config(len(SYNTH_CATEGORIES), seed=seed, epochs=1, batch_size=4)


LONGSEQ_VECTOR = pipeline.paper_scale_config(len(SYNTH_CATEGORIES))


def _longseq_inputs(seed: int) -> Inputs:
    rng = np.random.default_rng((seed, 0))
    train = _walks(rng, 80, 100, 200, 64.0, "train")
    valid = _walks(rng, 8, 100, 200, 64.0, "valid")
    test = _walks(rng, 32, 100, 200, 64.0, "test")
    # raw lengths straddle the 448-point cap: three fifths stay under it and
    # cost mostly NLR, the rest need RDP epsilon escalation. No walk sits at
    # the threshold, where a small change of shape would flip its cost.
    lengths = np.concatenate([np.linspace(150, 440, 36), np.linspace(640, 900, 24)])
    raw = [ingest.random_sketch(rng, int(n), 224.0, 224.0) for n in _shuffled(rng, lengths)]
    attention, deltas = _vector_inputs(rng, raw, LONGSEQ_VECTOR)
    return Inputs(train, valid, test, raw, attention, deltas)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            config=_desk_config,
            vector=_desk_config(0),
            inputs=_desk_inputs,
            shares={"train": 0.65, "eval": 0.1, "predict": 0.15, "raster": 0.1},
            traced_ops={"train": 2, "eval": 12, "predict": 150, "raster": 400},
        ),
        Workload(
            name="longseq",
            config=_longseq_config,
            vector=LONGSEQ_VECTOR,
            inputs=_longseq_inputs,
            shares={"train": 0.55, "eval": 0.08, "predict": 0.2, "raster": 0.17},
            traced_ops={"train": 2, "eval": 10, "predict": 30, "raster": 60},
        ),
    )
}


@dataclass(frozen=True)
class Setup:
    workload: Workload
    config: ExperimentConfig
    inputs: Inputs
    prepared: dict[str, list[VectorSketch]]
    state: object
    seconds: float


def set_up(w: Workload, seed: int) -> Setup:
    """Generate the inputs, prepare every item and initialise the model."""
    t0 = time.perf_counter()
    inputs = w.inputs(seed)
    config = w.config(seed)
    prepared = {
        split: [pipeline.prepare_sketch(it.sketch, config) for it in ds.items]
        for split, ds in (("train", inputs.train), ("valid", inputs.valid), ("test", inputs.test))
    }
    state = pipeline.init_model_state(config)
    return Setup(w, config, inputs, prepared, state, time.perf_counter() - t0)


@dataclass
class PhaseResult:
    samples: list[float] = field(default_factory=list)  # seconds per operation
    sketches: int = 0
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    final_losses: list[float] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


class Probes:
    """Wrappers present in every run: optimizer-step timestamps and a
    finiteness check on every logits tensor the CNN returns."""

    def __init__(self):
        self.stamps: list[float] = []
        self.nonfinite_logits = 0
        self._originals = {}

    def __enter__(self) -> "Probes":
        adam_step = self._originals["adam_step"] = pipeline.adam_step
        cnn_forward_batch = self._originals["cnn_forward_batch"] = pipeline.cnn_forward_batch

        def stamped_adam_step(*args, **kwargs):
            self.stamps.append(time.perf_counter())
            return adam_step(*args, **kwargs)

        def checked_cnn_forward_batch(*args, **kwargs):
            logits = cnn_forward_batch(*args, **kwargs)
            if not np.isfinite(logits.data).all():
                self.nonfinite_logits += 1
            return logits

        pipeline.adam_step = stamped_adam_step
        pipeline.cnn_forward_batch = checked_cnn_forward_batch
        return self

    def __exit__(self, *exc) -> None:
        for attr, original in self._originals.items():
            setattr(pipeline, attr, original)


def _timed(result: PhaseResult, probes: Probes, op, check) -> None:
    """Run one operation, time it and check its output."""
    result.attempted += 1
    bad_before = probes.nonfinite_logits
    t0 = time.perf_counter()
    try:
        out = op()
    except Exception:  # the run goes on; the failure is counted and kept
        result.fail(traceback.format_exc(limit=3))
        return
    dt = time.perf_counter() - t0
    problem = check(out) or ("non-finite logits" if probes.nonfinite_logits != bad_before else None)
    if problem:
        result.fail(problem)
        return
    result.samples.append(dt)
    result.busy_s += dt


# Each phase is an endless stream of operations: one step of the generator
# runs one operation and records it in the phase's PhaseResult.


def train_ops(s: Setup, probes: Probes, res: PhaseResult, out_dir: str, train_ds: Dataset | None = None):
    """Whole ``pipeline.train`` calls; samples are the gaps between
    consecutive optimizer steps inside an epoch."""
    cfg = s.config
    train_ds = train_ds if train_ds is not None else s.inputs.train
    per_epoch = math.ceil(len(train_ds) / cfg.batch_size)
    while True:
        probes.stamps.clear()
        bad_before = probes.nonfinite_logits
        t0 = time.perf_counter()
        try:
            with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
                _, metrics = pipeline.train(cfg, train_ds, s.inputs.valid, out_dir=tmp)
        except Exception:  # counted as one failed step
            res.attempted += len(probes.stamps) + 1
            res.fail(traceback.format_exc(limit=3))
            yield
            continue
        res.busy_s += time.perf_counter() - t0
        stamps = list(probes.stamps)
        res.attempted += len(stamps)
        res.sketches += len(train_ds) * cfg.epochs
        res.samples.extend(stamps[i] - stamps[i - 1] for i in range(1, len(stamps)) if i % per_epoch)
        loss = metrics.final.train_loss
        res.final_losses.append(loss)
        if not math.isfinite(loss):
            res.fail(f"final train loss {loss}")
        elif loss != res.final_losses[0]:
            res.fail(f"final train loss {loss!r} differs from the first call's {res.final_losses[0]!r}")
        if probes.nonfinite_logits != bad_before:
            res.fail("non-finite logits during training")
        yield


def eval_ops(s: Setup, probes: Probes, res: PhaseResult, out_dir: str):
    b = s.config.batch_size
    test = s.inputs.test
    chunks = [
        (Dataset(test.categories, test.items[lo : lo + b], test.split), s.prepared["test"][lo : lo + b])
        for lo in range(0, len(test), b)
    ]

    def check(acc):
        return None if 0.0 <= acc <= 1.0 else f"accuracy {acc} outside [0, 1]"

    for k in itertools.count():
        ds, prepared = chunks[k % len(chunks)]
        ok_before = len(res.samples)
        _timed(res, probes, lambda: pipeline.evaluate(s.state, s.config, ds, prepared), check)
        if len(res.samples) > ok_before:
            res.sketches += len(prepared)
        yield


def predict_ops(s: Setup, probes: Probes, res: PhaseResult, out_dir: str):
    prepared = s.prepared["test"]
    classes = s.config.cnn.num_classes

    def check(out):
        logits = out[0]
        if logits.shape != (classes,) or not np.isfinite(logits).all():
            return f"logits {logits!r}"
        return None

    for k in itertools.count():
        sk = prepared[k % len(prepared)]
        _timed(res, probes, lambda: pipeline.forward_classify(s.state, s.config, sk), check)
        res.sketches = len(res.samples)
        yield


def raster_ops(s: Setup, probes: Probes, res: PhaseResult, out_dir: str):
    cfg = s.workload.vector
    inp = s.inputs
    ones = np.ones((cfg.raster.height, cfg.raster.width))

    def op(k):
        sk = pipeline.prepare_sketch(inp.raw[k], cfg)
        amap = pipeline.rasterize_forward(sk, inp.attention[k][: sk.n], cfg.raster)
        grad = pipeline.rasterize_backward(amap, inp.deltas[k % len(inp.deltas)], sk.n)
        return sk, amap, grad

    def check(out):
        sk, amap, grad = out
        if not (np.isfinite(amap.intensities).all() and np.isfinite(grad).all()):
            return "non-finite raster output"
        # gradient conservation: an all-ones upstream gradient hands each
        # owned pixel's weight (1 - alpha) + alpha to its two endpoints
        total = float(raster.rasterize_backward(amap, ones, sk.n).sum())
        owned = amap.owned_pixel_count
        if abs(total - owned) > 1e-9 * max(owned, 1):
            return f"all-ones gradient sums to {total!r}, owned pixels {owned}"
        return None

    for k in itertools.count():
        _timed(res, probes, lambda: op(k % len(inp.raw)), check)
        res.sketches = len(res.samples)
        yield


OPS = {"train": train_ops, "eval": eval_ops, "predict": predict_ops, "raster": raster_ops}

# The timed run visits the phases in this many rounds, so that a machine
# that runs slower for part of the run slows every phase alike.
ROUNDS = 10


def run_for(s: Setup, probes: Probes, out_dir: str, seconds: float) -> dict[str, PhaseResult]:
    """Give each phase its share of ``seconds``, interleaved in rounds. A
    phase that overran its allotment in one round runs less in the next."""
    results = {name: PhaseResult() for name in PHASES}
    streams = {name: OPS[name](s, probes, results[name], out_dir) for name in PHASES}
    used = dict.fromkeys(PHASES, 0.0)
    for k in range(1, ROUNDS + 1):
        for name in PHASES:
            allotted = seconds * s.workload.shares[name] * k / ROUNDS
            while used[name] < allotted:
                t0 = time.perf_counter()
                next(streams[name])
                used[name] += time.perf_counter() - t0
    return results


def run_counted(s: Setup, probes: Probes, out_dir: str, ops: dict[str, int], in_phase) -> dict[str, PhaseResult]:
    """Run a fixed number of operations of each phase, one phase after the
    other, each inside ``in_phase(name)``."""
    results = {}
    for name in PHASES:
        results[name] = PhaseResult()
        stream = OPS[name](s, probes, results[name], out_dir)
        with in_phase(name):
            for _ in range(ops[name]):
                next(stream)
    return results


def reference_check(w: Workload, reference: dict, probes: Probes, out_dir: str) -> PhaseResult:
    """Train the first batches of the reference inputs and compare the final
    loss with the stored value. Also warms every phase before timing."""
    s = set_up(w, REFERENCE_SEED)
    head = Dataset(s.inputs.train.categories, s.inputs.train.items[: REFERENCE_BATCHES * s.config.batch_size])
    res = PhaseResult()
    next(train_ops(s, probes, res, out_dir, train_ds=head))
    expected = reference[w.name]["final_train_loss"]
    got = res.final_losses[0] if res.final_losses else float("nan")
    if not math.isclose(got, expected, rel_tol=LOSS_RTOL, abs_tol=0.0):
        res.attempted += 1
        res.fail(f"reference final train loss {got!r}, stored {expected!r}")
    for name in PHASES[1:]:
        next(OPS[name](s, probes, res, out_dir))
    return res
