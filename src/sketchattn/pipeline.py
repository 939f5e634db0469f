"""End-to-end assembly: model variants, augmentation, training, evaluation.

Every variant runs per-point attention -> differentiable rasterization ->
CNN. The RNN variants take the attention from the RNN, in one taped graph,
so a single backward pass reaches every parameter; the baselines feed the
same rasterizer fixed attention: all ones (binary) or the first-to-last
ramp (order encoded).

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

from .errors import InvalidConfigError, LabelOutOfRangeError, NonFiniteLossError, ShapeMismatchError
from .geometry import VectorSketch, normalize_to_canvas, stroke_slices, validate_and_normalize
from .ingest import Dataset, LabeledSketch
from .net import autodiff as ad
from .net.autodiff import Tape, Tensor, backward, cross_entropy_logits
from .net.model import (
    CnnConfig,
    RnnConfig,
    cnn_forward_batch,
    init_cnn_params,
    init_rnn_params,
    rnn_attention_batch,
)
from .net.optim import ModelState, adam_step, load_checkpoint, save_checkpoint
from .raster import AttentionMap, RasterConfig, order_ramp, rasterize_backward, rasterize_forward
from .simplify import SimplifyConfig, simplify_sketch

VARIANTS = ("sketch_r2cnn", "cnn_only_binary", "order_encoded_cnn", "random_stroke_order_r2cnn")

# full-scale defaults: 1e-4 for training from scratch, 5e-5 for fine-tuning
PAPER_LR = 1e-4
PAPER_LR_FINETUNE = 5e-5

METRICS_FORMAT = "sketchattn-metrics"
CONFIG_FORMAT = "sketchattn-config"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class AugmentConfig:
    reflect: bool = True
    reflect_prob: float = 0.5
    stroke_removal: bool = True
    removal_prob: float = 0.3
    jitter: bool = True
    jitter_sigma: float = 1.0

    @property
    def any_enabled(self) -> bool:
        return self.reflect or self.stroke_removal or self.jitter


_SECTIONS = {
    "rnn": RnnConfig,
    "cnn": CnnConfig,
    "raster": RasterConfig,
    "simplify": SimplifyConfig,
    "augment": AugmentConfig,
}


def _config_section(name: str, cls, value):
    """One nested config section from its JSON object; absent keys take
    their defaults, unknown keys and ill-typed values are rejected."""
    if not isinstance(value, dict):
        raise InvalidConfigError(f"config section {name!r} is not an object")
    unknown = sorted(value.keys() - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise InvalidConfigError(f"config section {name!r} has unknown key {unknown[0]!r}")
    try:
        return cls(**value)
    except (TypeError, ValueError) as exc:
        raise InvalidConfigError(f"config section {name!r}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    variant: str = "sketch_r2cnn"
    rnn: RnnConfig = field(default_factory=RnnConfig)
    cnn: CnnConfig = field(default_factory=CnnConfig)
    raster: RasterConfig = field(default_factory=RasterConfig)
    simplify: SimplifyConfig | None = field(default_factory=SimplifyConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    canvas_pad: float = 4.0
    batch_size: int = 48
    epochs: int = 10
    lr: float = PAPER_LR
    beta1: float = 0.9
    beta2: float = 0.999
    eps_opt: float = 1e-8
    seed: int = 0
    early_stop_train_acc: float | None = None
    early_stop_valid_acc: float | None = None
    eval_test_each_epoch: bool = True

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidConfigError(f"variant must be one of {VARIANTS}")
        if self.batch_size < 1 or self.epochs < 0:
            raise InvalidConfigError("batch_size must be >= 1 and epochs >= 0")

    @property
    def uses_rnn(self) -> bool:
        return self.variant in ("sketch_r2cnn", "random_stroke_order_r2cnn")

    def to_json_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["format"] = CONFIG_FORMAT
        d["version"] = FORMAT_VERSION
        d["cnn"]["stages"] = [list(s) for s in self.cnn.stages]
        return d

    @staticmethod
    def from_json_dict(d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict) or d.get("format", CONFIG_FORMAT) != CONFIG_FORMAT:
            raise InvalidConfigError("not an experiment config document")
        known = {f.name for f in dataclasses.fields(ExperimentConfig)}
        kw = {k: v for k, v in d.items() if k in known}
        for name, cls in _SECTIONS.items():
            if name in kw and not (name == "simplify" and kw[name] is None):
                kw[name] = _config_section(name, cls, kw[name])
        try:
            return ExperimentConfig(**kw)
        except TypeError as exc:
            raise InvalidConfigError(f"config: {exc}") from exc


def desk_config(
    num_classes: int,
    variant: str = "sketch_r2cnn",
    seed: int = 0,
    epochs: int = 30,
    **overrides,
) -> ExperimentConfig:
    """Desk-scale profile: 64x64 canvas, hidden 32, batch 16.

    Trains in minutes on one CPU core. Horizontal reflection defaults off
    here because the synthetic square_cw/square_ccw pair is chirality
    labeled: mirroring a clockwise traversal produces a counter-clockwise
    one, which would make those labels contradictory.
    """
    kw = dict(
        variant=variant,
        rnn=RnnConfig(hidden_size=32, num_layers=2, bidirectional=True, dropout_prob=0.2),
        cnn=CnnConfig(stages=((3, 8, 2), (3, 16, 2), (3, 32, 2)), num_classes=num_classes),
        raster=RasterConfig(width=64, height=64, epsilon=1.0),
        simplify=SimplifyConfig(epsilon=2.0, max_points=448, escalation_factor=1.5),
        augment=AugmentConfig(reflect=False, stroke_removal=True, jitter=True, jitter_sigma=1.0),
        batch_size=16,
        epochs=epochs,
        lr=1e-3,
        seed=seed,
    )
    kw.update(overrides)
    return ExperimentConfig(**kw)


def paper_scale_config(
    num_classes: int,
    variant: str = "sketch_r2cnn",
    seed: int = 0,
    finetune: bool = False,
    **overrides,
) -> ExperimentConfig:
    """Full-scale profile: 224x224 canvas, hidden 512, batch 48, lr 1e-4
    (5e-5 with finetune=True)."""
    kw = dict(
        variant=variant,
        rnn=RnnConfig(hidden_size=512, num_layers=2, bidirectional=True, dropout_prob=0.5),
        cnn=CnnConfig(stages=((3, 16, 2), (3, 32, 2), (3, 64, 2)), num_classes=num_classes),
        raster=RasterConfig(width=224, height=224, epsilon=1.0),
        simplify=SimplifyConfig(epsilon=2.0, max_points=448, escalation_factor=1.5),
        augment=AugmentConfig(),
        batch_size=48,
        epochs=10,
        lr=PAPER_LR_FINETUNE if finetune else PAPER_LR,
        seed=seed,
    )
    kw.update(overrides)
    return ExperimentConfig(**kw)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    valid_acc: float | None
    test_acc: float | None
    wall_clock_s: float

    def to_json_line(self) -> str:
        # wall clock deliberately excluded: metrics files must be byte
        # reproducible across runs of the same seed
        rec = {
            "epoch": self.epoch,
            "train_loss": self.train_loss,
            "train_acc": self.train_acc,
            "valid_acc": self.valid_acc,
            "test_acc": self.test_acc,
        }
        return json.dumps(rec, sort_keys=True)


@dataclass
class Metrics:
    records: list[EpochRecord] = field(default_factory=list)

    @property
    def final(self) -> EpochRecord:
        return self.records[-1]

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write(json.dumps({"format": METRICS_FORMAT, "version": FORMAT_VERSION}, sort_keys=True) + "\n")
            for r in self.records:
                f.write(r.to_json_line() + "\n")


def init_model_state(config: ExperimentConfig) -> ModelState:
    rng = np.random.default_rng((config.seed, 0))
    params = {}
    if config.uses_rnn:
        params.update(init_rnn_params(rng, config.rnn))
    params.update(init_cnn_params(rng, config.cnn))
    return ModelState(params=params, seed=config.seed, config=config.to_json_dict())


def prepare_sketch(sketch: VectorSketch, config: ExperimentConfig) -> VectorSketch:
    """Simplify (optional) and normalize into the raster canvas."""
    sk = simplify_sketch(sketch, config.simplify) if config.simplify is not None else sketch
    return normalize_to_canvas(sk, config.raster.width, config.raster.height, config.canvas_pad)


def augment(
    sketch: VectorSketch,
    rng: np.random.Generator,
    switches: AugmentConfig,
    canvas_width: int,
) -> VectorSketch:
    """Horizontal reflection, whole-stroke removal, per-point jitter.

    The jitter stands in for elastic sketch deformation. A single-stroke
    sketch never loses its stroke. With all switches off this is the
    identity.
    """
    xy = sketch.xy.copy()
    s = sketch.s.copy()
    if switches.reflect and rng.random() < switches.reflect_prob:
        xy[:, 0] = (canvas_width - 1) - xy[:, 0]
    if switches.stroke_removal and rng.random() < switches.removal_prob:
        slices = stroke_slices(VectorSketch(xy, s))
        if len(slices) > 1:
            k = int(rng.integers(len(slices)))
            a, b = slices[k]
            keep = np.ones(len(s), dtype=bool)
            keep[a:b] = False
            xy, s = xy[keep], s[keep]
    if switches.jitter:
        xy = xy + rng.normal(0.0, switches.jitter_sigma, size=xy.shape)
    return validate_and_normalize(np.column_stack([xy, s]))


def randomize_stroke_order(sketch: VectorSketch, rng: np.random.Generator) -> VectorSketch:
    """Uniformly permute strokes, preserving within-stroke point order."""
    slices = stroke_slices(sketch)
    if len(slices) <= 1:
        return sketch
    perm = rng.permutation(len(slices))
    xy = np.concatenate([sketch.xy[slices[k][0] : slices[k][1]] for k in perm])
    s = np.concatenate([sketch.s[slices[k][0] : slices[k][1]] for k in perm])
    return VectorSketch(xy, s)


def _rasterize_batch(tape: Tape, attn: Tensor, sketches: list[VectorSketch], cfg: RasterConfig):
    """The one bridge from per-point attention (B, T) to images (B, 1, H, W).

    Every variant and the nlr gradcheck pass through here. The vjp hands
    each item's incoming pixel gradients to rasterize_backward and scatters
    the result into the attention rows; fixed attention, which requires no
    gradient, adds no tape op.
    """
    maps: list[AttentionMap] = []
    images = np.zeros((len(sketches), 1, cfg.height, cfg.width))
    for b, sk in enumerate(sketches):
        amap = rasterize_forward(sk, attn.data[b, : sk.n], cfg)
        maps.append(amap)
        images[b, 0] = amap.intensities

    def vjp(g):
        d = np.zeros_like(attn.data)
        for b, sk in enumerate(sketches):
            d[b, : sk.n] = rasterize_backward(maps[b], g[b, 0], sk.n)
        return d

    return ad.op(tape, images, (attn, vjp)), maps


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
    mode: str,
    tape: Tape,
    dropout_rng: np.random.Generator | None = None,
    order_rng: np.random.Generator | None = None,
):
    """Shared batched forward pass for every variant.

    Returns (logits Tensor (B, C), attention Tensor (B, T), maps). The
    attention is the RNN's output, or the fixed ones (cnn_only_binary) or
    order ramp (order_encoded_cnn) of the baselines, padded with zeros.
    """
    cfg_r = config.raster
    if config.variant == "random_stroke_order_r2cnn" and mode == "train":
        # order disruption is a training-time treatment; evaluation keeps
        # the drawn order so it stays deterministic
        if order_rng is None:
            order_rng = np.random.default_rng(0)
        sketches = [randomize_stroke_order(sk, order_rng) for sk in sketches]

    if config.uses_rnn:
        inputs, lengths = _batch_inputs(sketches, cfg_r.width)
        attn = rnn_attention_batch(tape, inputs, lengths, state.params, config.rnn, mode, dropout_rng)
    else:
        fixed = np.zeros((len(sketches), max(sk.n for sk in sketches)))
        for b, sk in enumerate(sketches):
            fixed[b, : sk.n] = 1.0 if config.variant == "cnn_only_binary" else order_ramp(sk.n)
        attn = ad.constant(fixed)
    images, maps = _rasterize_batch(tape, attn, sketches, cfg_r)
    logits = cnn_forward_batch(tape, images, state.params, config.cnn)
    return logits, attn, maps


def forward_classify(
    state: ModelState,
    config: ExperimentConfig,
    item: LabeledSketch | VectorSketch,
    mode: str = "eval",
    tape: Tape | None = None,
    rng: np.random.Generator | None = None,
):
    """Classify one canvas-space sketch.

    Returns (logits (C,), attention values or None, AttentionMap). The
    attention entry is the learned per-point sequence for RNN variants,
    the deterministic ramp for order_encoded_cnn, and None for
    cnn_only_binary.
    """
    sk = item.sketch if isinstance(item, LabeledSketch) else item
    tape = tape if tape is not None else Tape()
    logits, attn, maps = _forward_batch(
        state, config, [sk], mode, tape,
        dropout_rng=rng, order_rng=rng,
    )
    attention = None if config.variant == "cnn_only_binary" else attn.data[0, : sk.n].copy()
    return logits.data[0].copy(), attention, maps[0]


def _accuracy(state, config, prepared, labels) -> float:
    """Eval-mode top-1 accuracy over prepared sketches."""
    if labels.max() >= config.cnn.num_classes:
        raise LabelOutOfRangeError(f"labels must lie in [0, {config.cnn.num_classes})")
    correct = 0
    for lo in range(0, len(prepared), config.batch_size):
        logits, _, _ = _forward_batch(state, config, prepared[lo : lo + config.batch_size], "eval", Tape())
        correct += int((logits.data.argmax(axis=1) == labels[lo : lo + config.batch_size]).sum())
    return correct / len(prepared)


def evaluate(state: ModelState, config: ExperimentConfig, dataset: Dataset, prepared: list[VectorSketch] | None = None) -> float:
    """Top-1 accuracy on a dataset split; eval mode, no augmentation."""
    if prepared is None:
        prepared = [prepare_sketch(it.sketch, config) for it in dataset.items]
    labels = np.array([it.label for it in dataset.items], dtype=np.int64)
    return _accuracy(state, config, prepared, labels)


def load_model(path) -> tuple[ModelState, ExperimentConfig]:
    """Load a checkpoint whose parameter names and shapes match its config."""
    state = load_checkpoint(path)
    config = ExperimentConfig.from_json_dict(state.config)
    expected = {name: p.data.shape for name, p in init_model_state(config).params.items()}
    found = {name: p.data.shape for name, p in state.params.items()}
    for name in sorted(expected.keys() | found.keys()):
        if expected.get(name) != found.get(name):
            raise ShapeMismatchError(
                f"{path}: parameter {name} has shape {found.get(name, 'none')}, "
                f"its config expects {expected.get(name, 'none')}"
            )
    return state, config


def train(
    config: ExperimentConfig,
    train_ds: Dataset,
    valid_ds: Dataset | None = None,
    test_ds: Dataset | None = None,
    out_dir: str | None = None,
    log=None,
) -> tuple[ModelState, Metrics]:
    """Train a variant; deterministic given the config seed.

    Writes per-epoch checkpoints, a best-validation checkpoint, and a
    JSON-lines metrics file when out_dir is given. Aborts with
    NonFiniteLossError (after dumping diagnostics) if the loss leaves the
    reals.
    """
    state = init_model_state(config)
    state.config["categories"] = list(train_ds.categories)
    prepared_train = [prepare_sketch(it.sketch, config) for it in train_ds.items]
    labels_train = np.array([it.label for it in train_ds.items], dtype=np.int64)
    prepared_valid = [prepare_sketch(it.sketch, config) for it in valid_ds.items] if valid_ds else None
    labels_valid = np.array([it.label for it in valid_ds.items], dtype=np.int64) if valid_ds else None
    prepared_test = [prepare_sketch(it.sketch, config) for it in test_ds.items] if test_ds else None
    labels_test = np.array([it.label for it in test_ds.items], dtype=np.int64) if test_ds else None

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
        order = np.random.default_rng((config.seed, 1, epoch)).permutation(len(prepared_train))
        correct = 0
        loss_sum = 0.0
        for lo in range(0, len(order), config.batch_size):
            sel = order[lo : lo + config.batch_size]
            sketches = []
            for d in sel:
                sk = prepared_train[d]
                if config.augment.any_enabled:
                    aug_rng = np.random.default_rng((config.seed, 2, epoch, int(d)))
                    sk = augment(sk, aug_rng, config.augment, config.raster.width)
                sketches.append(sk)
            y = labels_train[sel]
            tape = Tape()
            dropout_rng = np.random.default_rng((config.seed, 3, epoch, step))
            order_rng = np.random.default_rng((config.seed, 4, epoch, step))
            logits, _, _ = _forward_batch(state, config, sketches, "train", tape, dropout_rng, order_rng)
            loss = cross_entropy_logits(tape, logits, y)
            if not np.isfinite(loss.data):
                dump = {
                    "epoch": epoch,
                    "step": step,
                    "loss": float(loss.data),
                    "logits_max": float(np.abs(logits.data).max()),
                }
                if out_dir:
                    with open(os.path.join(out_dir, "nonfinite_dump.json"), "w") as f:
                        json.dump(dump, f, indent=2)
                raise NonFiniteLossError(json.dumps(dump))
            backward(tape, loss)
            adam_step(state, state.grads(), config.lr, config.beta1, config.beta2, config.eps_opt)
            state.zero_grads()
            loss_sum += float(loss.data) * len(sel)
            correct += int((logits.data.argmax(axis=1) == y).sum())
            step += 1

        train_acc = correct / len(prepared_train)
        train_loss = loss_sum / len(prepared_train)
        valid_acc = None
        if prepared_valid is not None:
            valid_acc = _accuracy(state, config, prepared_valid, labels_valid)
        test_acc = None
        if prepared_test is not None and config.eval_test_each_epoch:
            test_acc = _accuracy(state, config, prepared_test, labels_test)
        wall = time.perf_counter() - t0
        rec = EpochRecord(epoch, train_loss, train_acc, valid_acc, test_acc, wall)
        metrics.records.append(rec)
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
        else:
            ref_acc = valid_acc if valid_acc is not None else train_acc
            best_valid = max(best_valid, ref_acc)

        stop_train = config.early_stop_train_acc is not None and train_acc >= config.early_stop_train_acc
        stop_valid = (
            config.early_stop_valid_acc is None
            or (valid_acc is not None and valid_acc >= config.early_stop_valid_acc)
        )
        if stop_train and stop_valid:
            break
    return state, metrics
