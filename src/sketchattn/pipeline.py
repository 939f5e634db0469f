"""End-to-end assembly: model variants, augmentation, training, evaluation.

Every variant runs per-point attention -> differentiable rasterization ->
CNN; the CNN reads the owned pixels' values and their support, never a
dense batch image. The RNN variants take the attention from the RNN, in
one taped graph, so a single backward pass reaches every parameter; the
baselines feed the same rasterizer fixed attention: all ones (binary) or
the first-to-last ramp (order encoded).

All randomness is derived from the experiment seed: parameter init from
(seed, 0); epoch shuffling from (seed, 1, epoch); augmentation from
(seed, 2, epoch, item); dropout from (seed, 3, epoch, step); stroke-order
randomization from (seed, 4, epoch, step). Two runs with one seed produce
byte-identical metrics files and checkpoints.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CategoryMismatchError,
    EmptyDatasetError,
    InvalidConfigError,
    LabelOutOfRangeError,
    LengthMismatchError,
    MalformedDocumentError,
    NonFiniteAttentionError,
    NonFiniteLossError,
    ShapeMismatchError,
    require_finite,
    require_seed,
)
from .geometry import CANVAS_MARGIN, VectorSketch, normalize_to_canvas, stroke_slices
from .ingest import Dataset, check_document
from .net import autodiff as ad
from .net.autodiff import Tape, Tensor, Workspace, backward, cross_entropy_logits
from .net.model import (
    POOL,
    CnnConfig,
    RnnConfig,
    cnn_forward_batch,
    init_cnn_params,
    init_rnn_params,
    rnn_attention_batch,
)
from .net.optim import ModelState, adam_step, load_checkpoint, save_checkpoint
from .raster import RasterConfig, order_ramp, rasterize_backward, rasterize_forward
from .simplify import SimplifyConfig, simplify_sketch, simplify_split

VARIANTS = ("sketch_r2cnn", "cnn_only_binary", "order_encoded_cnn", "random_stroke_order_r2cnn")

PAPER_LR = 1e-4  # the paper's rate for training from scratch

METRICS_FORMAT = "sketchattn-metrics"
METRICS_VERSION = 1
CONFIG_FORMAT = "sketchattn-config"
CONFIG_VERSION = 4


@dataclass(frozen=True)
class AugmentConfig:
    reflect_prob: float = 0.5
    removal_prob: float = 0.3
    jitter_sigma: float = 1.0

    def __post_init__(self):
        for name in ("reflect_prob", "removal_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:  # false for NaN too
                raise InvalidConfigError(f"{name!r} must lie in [0, 1], got {getattr(self, name)!r}")
        require_finite(jitter_sigma=self.jitter_sigma)
        if self.jitter_sigma < 0:
            raise InvalidConfigError(f"'jitter_sigma' must be >= 0, got {self.jitter_sigma!r}")


_SECTIONS = {
    "rnn": RnnConfig,
    "cnn": CnnConfig,
    "raster": RasterConfig,
    "simplify": SimplifyConfig,
    "augment": AugmentConfig,
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# JSON value checks by declared field type: (test, what the value must be)
_VALUE_CHECKS = {
    "int": (_is_int, "an integer"),
    "float": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "float | None": (lambda v: v is None or _is_int(v) or isinstance(v, float), "null or a number"),
    "tuple[int, ...]": (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integer channel counts"),
}


def _check_values(where: str, cls, values: dict) -> None:
    """Reject a JSON value of the wrong type for its field of cls, by name."""
    for f in dataclasses.fields(cls):
        test, what = _VALUE_CHECKS.get(f.type, (None, None))
        if test is not None and f.name in values and not test(values[f.name]):
            raise InvalidConfigError(f"{where}: {f.name!r} must be {what}, got {values[f.name]!r}")


def _config_section(name: str, cls, value):
    """One nested config section from its JSON object; absent keys take
    their defaults, unknown keys and ill-typed values are rejected."""
    if not isinstance(value, dict):
        raise InvalidConfigError(f"config section {name!r} is not an object")
    unknown = sorted(value.keys() - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise InvalidConfigError(f"config section {name!r} has unknown key {unknown[0]!r}")
    _check_values(f"config section {name!r}", cls, value)
    try:
        return cls(**value)
    except (TypeError, ValueError, InvalidConfigError) as exc:
        raise InvalidConfigError(f"config section {name!r}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    variant: str = "sketch_r2cnn"
    rnn: RnnConfig = field(default_factory=RnnConfig)
    cnn: CnnConfig = field(default_factory=CnnConfig)
    raster: RasterConfig = field(default_factory=RasterConfig)
    simplify: SimplifyConfig = field(default_factory=SimplifyConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    batch_size: int = 48
    epochs: int = 10
    lr: float = PAPER_LR
    seed: int = 0
    early_stop_train_acc: float | None = None
    early_stop_valid_acc: float | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidConfigError(f"variant must be one of {VARIANTS}")
        for name in ("batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise InvalidConfigError(f"config {name!r} must be >= 1, got {getattr(self, name)}")
        require_seed(self.seed)
        require_finite(lr=self.lr)
        if self.lr <= 0:
            raise InvalidConfigError(f"config 'lr' must be > 0, got {self.lr!r}")
        for name in ("early_stop_train_acc", "early_stop_valid_acc"):
            acc = getattr(self, name)
            if acc is not None and not 0.0 <= acc <= 1.0:  # false for NaN too
                raise InvalidConfigError(f"config {name!r} must lie in [0, 1], got {acc!r}")
        h, w = self.raster.height, self.raster.width
        for s in range(len(self.cnn.stages)):
            if h < POOL or w < POOL:
                raise InvalidConfigError(
                    f"cnn stage {s} pools by {POOL} but its input is {h}x{w} (height x width): "
                    "the canvas is too small for the stages"
                )
            h, w = h // POOL, w // POOL
        if min(self.raster.width, self.raster.height) <= 2 * CANVAS_MARGIN:
            raise InvalidConfigError(f"raster {self.raster.width}x{self.raster.height} (width x height): 'width' and "
                                     f"'height' must exceed {2 * CANVAS_MARGIN:g}, twice the canvas margin")

    @property
    def uses_rnn(self) -> bool:
        return self.variant in ("sketch_r2cnn", "random_stroke_order_r2cnn")

    def to_json_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["format"] = CONFIG_FORMAT
        d["version"] = CONFIG_VERSION
        d["cnn"]["stages"] = list(self.cnn.stages)
        return d

    @staticmethod
    def from_json_dict(d: dict) -> "ExperimentConfig":
        check_document(d, CONFIG_FORMAT, CONFIG_VERSION, "config")
        known = {f.name for f in dataclasses.fields(ExperimentConfig)}
        unknown = sorted(d.keys() - known - {"format", "version"})
        if unknown:
            raise InvalidConfigError(f"config has unknown key {unknown[0]!r}")
        kw = {k: v for k, v in d.items() if k in known}
        _check_values("config", ExperimentConfig, kw)
        for name, cls in _SECTIONS.items():
            if name in kw:
                kw[name] = _config_section(name, cls, kw[name])
        try:
            return ExperimentConfig(**kw)
        except TypeError as exc:
            raise InvalidConfigError(f"config: {exc}") from exc


def desk_config(num_classes: int, **overrides) -> ExperimentConfig:
    """Desk-scale profile: 64x64 canvas, hidden 32, batch 16, 30 epochs.

    Trains in minutes on one CPU core. Horizontal reflection is off here
    (reflect_prob 0) because the synthetic square_cw/square_ccw pair is
    chirality labeled: mirroring a clockwise traversal produces a
    counter-clockwise one, which would make those labels contradictory.
    """
    return ExperimentConfig(**{
        "rnn": RnnConfig(hidden_size=32, dropout_prob=0.2),
        "cnn": CnnConfig(stages=(8, 16, 32), num_classes=num_classes),
        "raster": RasterConfig(width=64, height=64),
        "augment": AugmentConfig(reflect_prob=0.0),
        "batch_size": 16,
        "epochs": 30,
        "lr": 1e-3,
        **overrides,
    })


def paper_scale_config(num_classes: int, **overrides) -> ExperimentConfig:
    """Full-scale profile, the config defaults: 224x224 canvas, hidden 512,
    batch 48, lr 1e-4."""
    return ExperimentConfig(**{"cnn": CnnConfig(num_classes=num_classes), **overrides})


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    valid_acc: float | None
    test_acc: float | None

    def to_json_line(self) -> str:
        # no wall clock here: metrics files are byte reproducible per seed
        return json.dumps(dataclasses.asdict(self), sort_keys=True)


@dataclass
class Metrics:
    records: list[EpochRecord] = field(default_factory=list)

    @property
    def final(self) -> EpochRecord:
        return self.records[-1]

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write(json.dumps({"format": METRICS_FORMAT, "version": METRICS_VERSION}, sort_keys=True) + "\n")
            for r in self.records:
                f.write(r.to_json_line() + "\n")


def init_model_state(config: ExperimentConfig) -> ModelState:
    rng = np.random.default_rng((config.seed, 0))
    params = {}
    if config.uses_rnn:
        params.update(init_rnn_params(rng, config.rnn))
    params.update(init_cnn_params(rng, config.cnn))
    m, v = ({name: np.zeros_like(p.data) for name, p in params.items()} for _ in range(2))
    return ModelState(params, m, v, config=config.to_json_dict())


def prepare_sketch(sketch: VectorSketch, config: ExperimentConfig) -> VectorSketch:
    """Simplify and normalize into the raster canvas, inside its margin."""
    sk = simplify_sketch(sketch, config.simplify)
    return normalize_to_canvas(sk, config.raster.width, config.raster.height, CANVAS_MARGIN)


def prepare_split(sketches: list[VectorSketch], config: ExperimentConfig) -> list[VectorSketch]:
    """prepare_sketch of every sketch, with one simplify pass over them all."""
    width, height = config.raster.width, config.raster.height
    return [normalize_to_canvas(sk, width, height, CANVAS_MARGIN) for sk in simplify_split(sketches, config.simplify)]


def augment(
    sketch: VectorSketch,
    rng: np.random.Generator,
    amounts: AugmentConfig,
    canvas_width: int,
) -> VectorSketch:
    """Horizontal reflection, whole-stroke removal, per-point jitter.

    The jitter stands in for elastic sketch deformation. A single-stroke
    sketch never loses its stroke. A step draws from rng only when its
    amount is non-zero; with every amount 0 this is the identity.
    """
    xy, s = sketch.xy, sketch.s
    if amounts.reflect_prob > 0 and rng.random() < amounts.reflect_prob:
        xy = xy.copy()
        xy[:, 0] = (canvas_width - 1) - xy[:, 0]
    if amounts.removal_prob > 0 and rng.random() < amounts.removal_prob:
        slices = stroke_slices(sketch)
        if len(slices) > 1:
            a, b = slices[int(rng.integers(len(slices)))]
            xy = np.concatenate([xy[:a], xy[b:]])
            s = np.concatenate([s[:a], s[b:]])
    if amounts.jitter_sigma > 0:
        xy = xy + rng.normal(0.0, amounts.jitter_sigma, size=xy.shape)
    return VectorSketch(xy, s)


def randomize_stroke_order(sketch: VectorSketch, rng: np.random.Generator) -> VectorSketch:
    """Uniformly permute strokes, preserving within-stroke point order."""
    slices = stroke_slices(sketch)
    if len(slices) <= 1:
        return sketch
    perm = rng.permutation(len(slices))
    xy = np.concatenate([sketch.xy[slices[k][0] : slices[k][1]] for k in perm])
    s = np.concatenate([sketch.s[slices[k][0] : slices[k][1]] for k in perm])
    return VectorSketch(xy, s)


def _rasterize_batch(tape: Tape | None, attn: Tensor, sketches: list[VectorSketch], cfg: RasterConfig):
    """The one bridge from per-point attention (B, T) to what the CNN reads.

    Returns (values, support, maps): support holds the flat indices, in
    the (B, H, W) grid, of the pixels each item's rasterization owns, item
    by item in row-major order, values (nnz,) their intensities, and maps
    each item's AttentionMap, whose intensities are the one dense image.
    Every variant and the nlr gradcheck pass through here. The vjp hands
    each item's slice of the value gradients, which lies on its owned
    pixels, to rasterize_backward and puts the result into the attention
    rows; fixed attention, which requires no gradient, adds no tape op.
    """
    maps = [rasterize_forward(sk, attn.data[b, : sk.n], cfg) for b, sk in enumerate(sketches)]
    owned = [amap.owned for amap in maps]
    pixels = cfg.height * cfg.width
    values = np.concatenate([amap.intensities.reshape(-1)[o] for amap, o in zip(maps, owned)])
    support = np.concatenate([o + b * pixels for b, o in enumerate(owned)])
    ends = np.cumsum([len(o) for o in owned])[:-1]

    def vjp(g):
        d = np.zeros_like(attn.data)
        for b, (sk, amap, g_item) in enumerate(zip(sketches, maps, np.split(g, ends))):
            d[b, : sk.n] = rasterize_backward(amap, g_item, sk.n)
        return d

    return ad.op(tape, values, (attn, vjp)), support, maps


def _batch_inputs(sketches: list[VectorSketch], canvas_width: int):
    """The RNN input: per point [dx/w, dy/w, s], zero-padded to (B, T, 3).

    (dx, dy) is the offset from the previous point, (0, 0) for the first;
    dividing by the canvas width w keeps raw pixel offsets from saturating
    the LSTM gates.
    """
    lengths = np.array([sk.n for sk in sketches], dtype=np.int64)
    T = int(lengths.max())
    inputs = np.zeros((len(sketches), T, 3))
    for b, sk in enumerate(sketches):
        inputs[b, 1 : sk.n, :2] = (sk.xy[1:] - sk.xy[:-1]) * (1.0 / canvas_width)
        inputs[b, : sk.n, 2] = sk.s
    return inputs, lengths


def _forward_batch(
    state: ModelState,
    config: ExperimentConfig,
    sketches: list[VectorSketch],
    tape: Tape | None,
    dropout_rng: np.random.Generator | None = None,
):
    """Shared batched forward pass for every variant.

    Returns (logits Tensor (B, C), attention Tensor (B, T), maps). The
    attention is the RNN's output, or the fixed ones (cnn_only_binary) or
    order ramp (order_encoded_cnn) of the baselines, padded with zeros.
    Given dropout_rng, it is a training step that drives the RNN's
    dropout. Inference passes no tape.
    """
    cfg_r = config.raster
    if config.uses_rnn:
        inputs, lengths = _batch_inputs(sketches, cfg_r.width)
        attn = rnn_attention_batch(tape, inputs, lengths, state.params, config.rnn, dropout_rng)
    else:
        fixed = np.zeros((len(sketches), max(sk.n for sk in sketches)))
        for b, sk in enumerate(sketches):
            fixed[b, : sk.n] = 1.0 if config.variant == "cnn_only_binary" else order_ramp(sk.n)
        attn = ad.constant(fixed)
    values, support, maps = _rasterize_batch(tape, attn, sketches, cfg_r)
    shape = (len(sketches), cfg_r.height, cfg_r.width)
    logits = cnn_forward_batch(tape, values, support, shape, state.params, config.cnn)
    return logits, attn, maps


def forward_classify(state: ModelState, config: ExperimentConfig, sketch: VectorSketch):
    """Classify one canvas-space sketch, deterministically (no dropout, drawn
    stroke order).

    Returns (logits (C,), attention values or None, AttentionMap). The
    attention entry is the learned per-point sequence for RNN variants,
    the deterministic ramp for order_encoded_cnn, and None for
    cnn_only_binary.
    """
    logits, attn, maps = _forward_batch(state, config, [sketch], None)
    attention = None if config.variant == "cnn_only_binary" else attn.data[0, : sketch.n].copy()
    return logits.data[0].copy(), attention, maps[0]


def _require_items(dataset: Dataset, name: str) -> None:
    if not dataset.items:
        raise EmptyDatasetError(f"the {name} split has no items")


def evaluate(state: ModelState, config: ExperimentConfig, dataset: Dataset, prepared: list[VectorSketch] | None = None) -> float:
    """Eval-mode top-1 accuracy on a split, no augmentation; prepared: its
    items through prepare_split, one per item (else LengthMismatchError)."""
    _require_items(dataset, dataset.split)
    if prepared is None:
        prepared = prepare_split([it.sketch for it in dataset.items], config)
    if len(prepared) != len(dataset.items):
        raise LengthMismatchError(f"{len(prepared)} prepared sketches for {len(dataset.items)} items")
    labels = np.array([it.label for it in dataset.items], dtype=np.int64)
    if labels.max() >= config.cnn.num_classes:
        raise LabelOutOfRangeError(f"labels must lie in [0, {config.cnn.num_classes})")
    correct = 0
    for lo in range(0, len(prepared), config.batch_size):
        logits, _, _ = _forward_batch(state, config, prepared[lo : lo + config.batch_size], None)
        correct += int((logits.data.argmax(axis=1) == labels[lo : lo + config.batch_size]).sum())
    return correct / len(prepared)


def load_model(path) -> tuple[ModelState, ExperimentConfig]:
    """Load a checkpoint whose categories, parameters and Adam moments match
    its config in number, names and shapes."""
    state = load_checkpoint(path)
    config = ExperimentConfig.from_json_dict(state.config)
    if len(state.categories) != config.cnn.num_classes:
        raise MalformedDocumentError(
            f"{path}: 'categories' names {len(state.categories)} categories, "
            f"its config classifies into {config.cnn.num_classes}"
        )
    expected = {name: p.data.shape for name, p in init_model_state(config).params.items()}
    params = {name: p.data for name, p in state.params.items()}
    for group, arrays in (("parameter", params), ("adam_m", state.m), ("adam_v", state.v)):
        found = {name: a.shape for name, a in arrays.items()}
        for name in sorted(expected.keys() | found.keys()):
            if expected.get(name) != found.get(name):
                raise ShapeMismatchError(
                    f"{path}: {group} {name} has shape {found.get(name, 'none')}, "
                    f"its config expects {expected.get(name, 'none')}"
                )
    return state, config


def _nonfinite(out_dir: str | None, error_type: type, dump: dict) -> Exception:
    """Write dump to out_dir/nonfinite_dump.json (given an out_dir) and
    return an error_type whose message is the dump."""
    if out_dir:
        with open(os.path.join(out_dir, "nonfinite_dump.json"), "w") as f:
            json.dump(dump, f, indent=2)
    return error_type(json.dumps(dump))


def train(
    config: ExperimentConfig,
    train_ds: Dataset,
    valid_ds: Dataset | None = None,
    test_ds: Dataset | None = None,
    out_dir: str | None = None,
    log=None,
) -> tuple[ModelState, Metrics]:
    """Train a variant; deterministic given the config seed.

    The one place for training-time transforms: each train item is
    augmented, then, for random_stroke_order_r2cnn, stroke-shuffled. Valid
    and test splits are scored by evaluate. Writes per-epoch checkpoints, a
    best-validation checkpoint, and a JSON-lines metrics file when out_dir
    is given. The steps of an epoch share one autodiff Workspace, so each
    reuses the step buffers of the last; it is dropped before the held-out
    splits are scored, whose tapeless passes allocate as before. Aborts
    with NonFiniteAttentionError if the RNN's attention leaves the reals
    and with NonFiniteLossError if the loss does, each after writing
    nonfinite_dump.json (epoch, step, which tensor) to out_dir. Training
    stops early once at least one early-stop threshold is set and every
    one that is set is met. A split that is given but has no items raises
    EmptyDatasetError, a valid or test split whose category list is not
    the train split's raises CategoryMismatchError, and a valid threshold
    without a valid split raises InvalidConfigError, all before training
    starts.
    """
    if config.early_stop_valid_acc is not None and valid_ds is None:
        raise InvalidConfigError("'early_stop_valid_acc' is set but no valid split is given")
    held_out = {name: ds for name, ds in (("valid", valid_ds), ("test", test_ds)) if ds is not None}
    for name, ds in {"train": train_ds, **held_out}.items():
        _require_items(ds, name)
        if list(ds.categories) != list(train_ds.categories):
            raise CategoryMismatchError(
                f"{name} split categories {list(ds.categories)} != train split categories {list(train_ds.categories)}"
            )
    if len(train_ds.categories) != config.cnn.num_classes:
        raise InvalidConfigError(
            f"config classifies into {config.cnn.num_classes} classes, "
            f"the train split names {len(train_ds.categories)} categories"
        )
    state = init_model_state(config)
    state.categories = list(train_ds.categories)
    prepared_train = prepare_split([it.sketch for it in train_ds.items], config)
    labels_train = np.array([it.label for it in train_ds.items], dtype=np.int64)
    prepared = {name: prepare_split([it.sketch for it in ds.items], config) for name, ds in held_out.items()}

    if log:
        log(f"training {config.variant}: {state.num_params()} parameters, "
            f"{len(prepared_train)} train items, seed {config.seed}")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    metrics = Metrics()
    best_valid = -1.0
    step = 0
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        workspace = Workspace()
        order = np.random.default_rng((config.seed, 1, epoch)).permutation(len(prepared_train))
        correct = 0
        loss_sum = 0.0
        for lo in range(0, len(order), config.batch_size):
            sel = order[lo : lo + config.batch_size]
            order_rng = np.random.default_rng((config.seed, 4, epoch, step))
            sketches = []
            for d in sel:
                aug_rng = np.random.default_rng((config.seed, 2, epoch, int(d)))
                sk = augment(prepared_train[d], aug_rng, config.augment, config.raster.width)
                if config.variant == "random_stroke_order_r2cnn":
                    sk = randomize_stroke_order(sk, order_rng)
                sketches.append(sk)
            y = labels_train[sel]
            tape = Tape(workspace)
            dropout_rng = np.random.default_rng((config.seed, 3, epoch, step))
            try:
                logits, _, _ = _forward_batch(state, config, sketches, tape, dropout_rng)
            except NonFiniteAttentionError as err:
                dump = {"epoch": epoch, "step": step, "tensor": "attention"}
                raise _nonfinite(out_dir, NonFiniteAttentionError, dump) from err
            loss = cross_entropy_logits(tape, logits, y)
            if not np.isfinite(loss.data):
                dump = {
                    "epoch": epoch,
                    "step": step,
                    "tensor": "loss",
                    "loss": float(loss.data),
                    "logits_max": float(np.abs(logits.data).max()),
                }
                raise _nonfinite(out_dir, NonFiniteLossError, dump)
            backward(tape, loss)
            adam_step(state, config.lr)
            loss_sum += float(loss.data) * len(sel)
            correct += int((logits.data.argmax(axis=1) == y).sum())
            step += 1
        workspace = tape = None  # frees the step buffers

        train_acc = correct / len(prepared_train)
        train_loss = loss_sum / len(prepared_train)
        acc = {name: evaluate(state, config, ds, prepared[name]) for name, ds in held_out.items()}
        valid_acc, test_acc = acc.get("valid"), acc.get("test")
        wall = time.perf_counter() - t0
        metrics.records.append(EpochRecord(epoch, train_loss, train_acc, valid_acc, test_acc))
        if log:
            log(f"epoch {epoch:3d} loss {train_loss:.4f} train {train_acc:.3f} "
                f"valid {valid_acc if valid_acc is not None else '-'} "
                f"test {test_acc if test_acc is not None else '-'} ({wall:.1f}s)")

        if out_dir:
            save_checkpoint(state, os.path.join(out_dir, f"epoch_{epoch:03d}.ckpt.json"))
            metrics.write(os.path.join(out_dir, "metrics.jsonl"))
            ref_acc = valid_acc if valid_acc is not None else train_acc
            if ref_acc > best_valid:
                best_valid = ref_acc
                save_checkpoint(state, os.path.join(out_dir, "best.ckpt.json"))

        checks = ((config.early_stop_train_acc, train_acc), (config.early_stop_valid_acc, valid_acc))
        met = [acc >= threshold for threshold, acc in checks if threshold is not None]
        if met and all(met):
            break
    return state, metrics
