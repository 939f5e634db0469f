"""Span tracer for the benchmark's traced run.

The tracer wraps the functions that ``sketchattn.pipeline`` imports from
each layer, so spans mark the calls from one layer into the next without
any change to the package. Tape closures are wrapped when they are
recorded and timed when ``backward`` replays them, so backward time is
split by the layer whose span recorded each closure.

Spans stay in memory; ``write`` saves them when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

from sketchattn import ingest, pipeline
from sketchattn.net.autodiff import Tape

# (module, attribute, span name). The layer of a span is the first part of
# its name; the harness calls every one of these through the module
# attribute, so it always meets the wrapper.
WRAPPED = (
    (ingest, "synth_dataset", "ingest"),
    (ingest, "random_sketch", "ingest"),
    (pipeline, "simplify_sketch", "simplify"),
    (pipeline, "normalize_to_canvas", "simplify.canvas"),
    (pipeline, "rasterize_forward", "raster.fwd"),
    (pipeline, "rasterize_backward", "raster.bwd"),
    (pipeline, "rnn_attention_batch", "rnn.fwd"),
    (pipeline, "cnn_forward_batch", "cnn.fwd"),
    (pipeline, "cross_entropy_logits", "loss.fwd"),
    (pipeline, "backward", "tape.backward"),
    (pipeline, "adam_step", "adam"),
    (pipeline, "save_checkpoint", "checkpoint.save"),
    (pipeline, "augment", "augment"),
    (pipeline, "prepare_sketch", "pipeline.prepare"),
    (pipeline, "init_model_state", "pipeline.init"),
    (pipeline, "train", "pipeline.train"),
    (pipeline, "evaluate", "pipeline.evaluate"),
    (pipeline, "forward_classify", "pipeline.predict"),
)


def _count_rnn(counts, args, result):
    inputs, lengths = args[1], args[2]
    counts["rnn.real_steps"] += int(sum(int(n) for n in lengths))
    counts["rnn.padded_steps"] += int(inputs.shape[0] * inputs.shape[1])


def _count_raster(counts, args, result):
    counts["raster.segments"] += len(result.table)
    counts["raster.owned_pixels"] += result.owned_pixel_count


def _count_simplify(counts, args, result):
    counts["simplify.points_in"] += args[0].n
    counts["simplify.points_out"] += result.n


def _count_backward(counts, args, result):
    counts["tape.ops"] += len(args[0])
    counts["tape.backwards"] += 1


COUNTERS = {
    "rnn.fwd": _count_rnn,
    "raster.fwd": _count_raster,
    "simplify": _count_simplify,
    "tape.backward": _count_backward,
}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, busy seconds)
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)  # (phase, name) -> self seconds
        self.counts: dict[str, int] = defaultdict(int)
        self.phase = "setup"
        self._next_id = 0
        self._stack: list[list] = []  # [id, parent id, name, start, child seconds, layer]
        self._bwd: dict[str, list] = {}  # closure aggregates of the running backward
        self._restore: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module, attr, name in WRAPPED:
            if not hasattr(module, attr):
                raise AttributeError(f"traced name {module.__name__}.{attr} no longer exists")
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        original_record = Tape.record
        self._restore.append((Tape, "record", original_record))
        tracer = self

        def record(tape, backward_fn):
            layer = tracer._stack[-1][5] if tracer._stack else "harness"
            tracer.counts[layer + ".tape_ops"] += 1
            original_record(tape, tracer._closure(backward_fn, layer + ".bwd"))

        Tape.record = record
        return self

    def __exit__(self, *exc) -> None:
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def in_phase(self, phase: str):
        """Attribute everything inside to ``phase``, under one root span."""
        self.phase = phase
        self._open("phase." + phase)
        try:
            yield
        finally:
            self._close()

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._new_id(), parent, name, time.perf_counter(), 0.0, layer_of(name)])

    def _close(self, keep: bool = True) -> None:
        end = time.perf_counter()
        span_id, parent, name, start, child, _layer = self._stack.pop()
        dur = end - start
        self.self_s[(self.phase, name)] += dur - child
        if self._stack:
            self._stack[-1][4] += dur
        if not keep:
            agg = self._bwd.setdefault(name, [start, end, 0.0])
            agg[1] = end
            agg[2] += dur
            return
        self.spans.append((span_id, parent, name, start, end, dur))
        if name == "tape.backward":
            for bwd_name, (s, e, busy) in self._bwd.items():
                self.spans.append((self._new_id(), span_id, bwd_name, s, e, busy))
            self._bwd.clear()

    def _wrap(self, fn, name: str):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def _closure(self, fn, name: str):
        def run():
            # not a span of its own: spans opened inside hang from the
            # running backward span
            backward_id = self._stack[-1][0] if self._stack else None
            self._stack.append([backward_id, backward_id, name, time.perf_counter(), 0.0, None])
            try:
                fn()
            finally:
                self._close(keep=False)

        return run

    def self_ms(self, *names: str, phase: str | None = None) -> float:
        return 1000.0 * sum(
            v for (ph, n), v in self.self_s.items() if n in names and (phase is None or ph == phase)
        )

    def layer_ms(self, layer: str, phase: str | None = None) -> float:
        names = {n for (_ph, n) in self.self_s if layer_of(n) == layer}
        return self.self_ms(*names, phase=phase)

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics over everything traced, as (value, unit)."""
        c = self.counts
        ms = self.self_ms
        return {
            "rnn.fwd_ms": (ms("rnn.fwd"), "ms"),
            "rnn.bwd_ms": (ms("rnn.bwd"), "ms"),
            "rnn.tape_ops": (c["rnn.tape_ops"], "count"),
            "rnn.pad_efficiency": (c["rnn.real_steps"] / max(c["rnn.padded_steps"], 1), "ratio"),
            "cnn.fwd_ms": (ms("cnn.fwd"), "ms"),
            "cnn.bwd_ms": (ms("cnn.bwd"), "ms"),
            "cnn.tape_ops": (c["cnn.tape_ops"], "count"),
            "raster.fwd_ms": (ms("raster.fwd"), "ms"),
            "raster.bwd_ms": (ms("raster.bwd"), "ms"),
            "raster.segments": (c["raster.segments"], "count"),
            "raster.owned_pixels": (c["raster.owned_pixels"], "count"),
            "simplify.ms": (ms("simplify", "simplify.canvas"), "ms"),
            "simplify.points_in": (c["simplify.points_in"], "count"),
            "simplify.points_out": (c["simplify.points_out"], "count"),
            "loss.fwd_ms": (ms("loss.fwd"), "ms"),
            "loss.bwd_ms": (ms("loss.bwd"), "ms"),
            "tape.ops": (c["tape.ops"] / max(c["tape.backwards"], 1), "count"),
            "adam.ms": (ms("adam"), "ms"),
            "checkpoint.save_ms": (ms("checkpoint.save"), "ms"),
            "augment.ms": (ms("augment"), "ms"),
            "pipeline.self_ms": (self.layer_ms("pipeline"), "ms"),
            "ingest.ms": (ms("ingest"), "ms"),
        }

    def phase_shares(self) -> dict[str, dict[str, float]]:
        """Per phase: its wall time and each layer's share of it."""
        out = {}
        for phase in sorted({ph for (ph, _n) in self.self_s}):
            total = sum(v for (ph, _n), v in self.self_s.items() if ph == phase)
            layers = sorted({layer_of(n) for (ph, n) in self.self_s if ph == phase})
            shares = {layer: self.layer_ms(layer, phase) / (1000.0 * total) for layer in layers}
            out[phase] = {"seconds": total, "shares": dict(sorted(shares.items(), key=lambda kv: -kv[1]))}
        return out

    def write(self, path: str, header: dict) -> None:
        payload = dict(header)
        payload["span_fields"] = ["id", "parent", "name", "start_s", "end_s", "busy_s"]
        payload["spans"] = self.spans
        payload["phases"] = self.phase_shares()
        payload["counts"] = dict(self.counts)
        with open(path, "w") as f:
            json.dump(payload, f)
