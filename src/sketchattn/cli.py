"""Command-line surface: rasterize, simplify, synth, train, eval, predict,
gradcheck.

Every subcommand is deterministic given --seed, exits 0 on success and
nonzero with one machine-readable JSON error line on stderr otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .errors import CategoryMismatchError, InvalidConfigError, MalformedDocumentError, SketchError, require_seed
from .geometry import CANVAS_MARGIN, VectorSketch, normalize_to_canvas
from .ingest import (
    SYNTH_CATEGORIES,
    load_dataset,
    load_sketch,
    number_list,
    random_sketch,
    read_json,
    read_quickdraw,
    save_internal,
    save_sketch,
    synth_dataset,
    synth_generate,
)
from .net import autodiff as ad
from .net.autodiff import Tape, Tensor, cross_entropy_logits
from .net.gradcheck import grad_check
from .net.model import CnnConfig, RnnConfig, cnn_forward_batch, init_cnn_params, init_rnn_params, rnn_attention_batch
from .pipeline import (
    ExperimentConfig,
    _batch_inputs,
    _forward_batch,
    _rasterize_batch,
    desk_config,
    evaluate,
    forward_classify,
    init_model_state,
    load_model,
    prepare_sketch,
    train,
)
from .raster import (
    RasterConfig,
    order_ramp,
    rasterize_forward,
    write_grid_json,
    write_pgm,
    write_provenance_json,
)
from .simplify import SimplifyConfig, simplify_sketch

GRADCHECK_TOLERANCES = {"nlr": 1e-6, "rnn": 1e-5, "cnn": 1e-4, "full": 1e-4}
# relu and max-pool make the cnn paths piecewise smooth; a smaller probe
# step keeps central differences off the kinks (rounding noise ~1e-11)
GRADCHECK_STEPS = {"nlr": 1e-4, "rnn": 1e-4, "cnn": 1e-5, "full": 1e-5}


def _load_input_sketch(path: str) -> VectorSketch:
    """Internal one-sketch JSON, or the first sketch of a QuickDraw ndjson."""
    if str(path).endswith(".ndjson"):
        return read_quickdraw(path)[0]
    return load_sketch(path)


def cmd_rasterize(args) -> int:
    if (args.attention == "file") != (args.attention_file is not None):
        raise InvalidConfigError("--attention file and --attention-file go together: give both or neither")
    sketch = _load_input_sketch(args.input)
    config = RasterConfig(width=args.width, height=args.height, epsilon=args.eps)
    if not args.no_normalize:
        sketch = normalize_to_canvas(sketch, args.width, args.height, args.pad)
    if args.attention == "uniform":
        attention = np.ones(sketch.n)
    elif args.attention == "ramp":
        attention = order_ramp(sketch.n)
    else:
        # a JSON list of numbers, one per sketch point
        attention = number_list(read_json(args.attention_file), MalformedDocumentError, f"{args.attention_file}: attention")
    amap = rasterize_forward(sketch, attention, config)
    write_pgm(amap.intensities, args.out)
    if args.json_grid:
        write_grid_json(amap.intensities, args.json_grid)
    if args.provenance:
        write_provenance_json(amap, args.provenance)
    print(json.dumps({"owned_pixels": amap.owned_pixel_count, "out": str(args.out)}))
    return 0


def cmd_simplify(args) -> int:
    sketch = _load_input_sketch(args.input)
    config = SimplifyConfig(epsilon=args.eps, max_points=args.max_points, escalation_factor=args.escalation)
    out = simplify_sketch(sketch, config)
    save_sketch(out, args.out)
    print(json.dumps({"points_before": sketch.n, "points_after": out.n, "out": str(args.out)}))
    return 0


def cmd_synth(args) -> int:
    categories = tuple(args.categories.split(",")) if args.categories else SYNTH_CATEGORIES
    ds = synth_dataset(args.per_class, args.seed, args.split, categories, args.matched_jitter)
    save_internal(ds, args.out)
    print(json.dumps({"items": len(ds), "categories": list(ds.categories), "out": str(args.out)}))
    return 0


def _experiment_config(args, num_classes: int) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json_dict(read_json(args.config)) if args.config else desk_config(num_classes)
    flags = ("variant", "epochs", "seed", "lr", "batch_size")
    overrides = {name: getattr(args, name) for name in flags if getattr(args, name) is not None}
    return dataclasses.replace(cfg, **overrides, cnn=dataclasses.replace(cfg.cnn, num_classes=num_classes))


def cmd_train(args) -> int:
    train_ds = load_dataset(args.train, "train")
    valid_ds = load_dataset(args.valid, "valid") if args.valid else None
    test_ds = load_dataset(args.test, "test") if args.test else None
    cfg = _experiment_config(args, len(train_ds.categories))
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "config.json"), "w") as f:
        json.dump(cfg.to_json_dict(), f, indent=2, sort_keys=True)
    state, metrics = train(cfg, train_ds, valid_ds, test_ds, out_dir=args.out, log=print)
    final = metrics.final
    print(json.dumps({
        "epochs_run": len(metrics.records),
        "final_train_acc": final.train_acc,
        "final_valid_acc": final.valid_acc,
        "final_test_acc": final.test_acc,
        "out": str(args.out),
    }))
    return 0


def cmd_eval(args) -> int:
    state, cfg = load_model(args.checkpoint)
    ds = load_dataset(args.data, "test")
    if list(ds.categories) != state.categories:
        raise CategoryMismatchError(f"dataset categories {list(ds.categories)} != checkpoint categories {state.categories}")
    acc = evaluate(state, cfg, ds)
    print(json.dumps({"accuracy": acc, "items": len(ds)}))
    return 0


def cmd_predict(args) -> int:
    state, cfg = load_model(args.checkpoint)
    sketch = prepare_sketch(_load_input_sketch(args.input), cfg)
    logits, _attention, amap = forward_classify(state, cfg, sketch)
    label = int(np.argmax(logits))
    if args.out_map:
        write_pgm(amap.intensities, args.out_map)
    result = {"label": label, "category": state.categories[label]}
    if args.out_map:
        result["attention_map"] = str(args.out_map)
    print(json.dumps(result))
    return 0


# --- gradcheck profiles ----------------------------------------------------


def _nlr_profile(seed: int):
    rng = np.random.default_rng((seed, 11))
    sketch = random_sketch(rng, 24, 32.0, 32.0)
    config = RasterConfig(width=32, height=32, epsilon=1.0)
    delta = rng.normal(size=32 * 32)
    attention = ad.parameter(rng.uniform(0.1, 0.9, size=(1, sketch.n)))

    def fn(tape: Tape | None) -> Tensor:
        values, support, _ = _rasterize_batch(tape, attention, [sketch], config)
        return ad.sum_all(tape, ad.mul_const(tape, values, delta[support]))

    return fn, {"attention": attention}


def _rnn_profile(seed: int):
    rng = np.random.default_rng((seed, 12))
    cfg = RnnConfig(hidden_size=8, num_layers=2, dropout_prob=0.0)
    params = init_rnn_params(rng, cfg)
    sketch = random_sketch(rng, 5, 64.0, 64.0)
    inputs, _ = _batch_inputs([sketch], 64)
    w = rng.normal(size=(1, sketch.n))

    def fn(tape: Tape | None) -> Tensor:
        attn = rnn_attention_batch(tape, inputs, np.array([sketch.n]), params, cfg)
        return ad.sum_all(tape, ad.mul_const(tape, attn, w))

    return fn, params


def _jitter_biases(params, rng) -> None:
    # probe at a differentiable point: zero biases put every background
    # pixel's relu pre-activation exactly on the kink, where central
    # differences disagree with any subgradient
    for name, p in params.items():
        if name.endswith(".b"):
            p.data += rng.normal(0.0, 0.05, size=p.data.shape)


def _cnn_profile(seed: int):
    rng = np.random.default_rng((seed, 13))
    cfg = CnnConfig(stages=((3, 4, 2), (3, 8, 2)), num_classes=2)
    params = init_cnn_params(rng, cfg)
    _jitter_biases(params, rng)
    image = rng.normal(size=8 * 8)  # one 8x8 image whose support is every pixel
    labels = np.array([1])

    def fn(tape: Tape | None) -> Tensor:
        logits = cnn_forward_batch(tape, ad.constant(image), np.arange(8 * 8), (1, 8, 8), params, cfg)
        return cross_entropy_logits(tape, logits, labels)

    return fn, params


def _full_profile(seed: int):
    cfg = desk_config(
        2,
        seed=seed,
        rnn=RnnConfig(hidden_size=8, num_layers=2, dropout_prob=0.0),
        cnn=CnnConfig(stages=((3, 4, 2), (3, 8, 2)), num_classes=2),
        raster=RasterConfig(width=16, height=16, epsilon=1.0),
    )
    state = init_model_state(cfg)
    _jitter_biases(state.params, np.random.default_rng((seed, 15)))
    item = synth_generate("square_cw", (seed, 14))
    sketch = prepare_sketch(item.sketch, cfg)
    labels = np.array([0])

    def fn(tape: Tape | None) -> Tensor:
        logits, _, _ = _forward_batch(state, cfg, [sketch], tape)
        return cross_entropy_logits(tape, logits, labels)

    return fn, state.params


_PROFILES = {"nlr": _nlr_profile, "rnn": _rnn_profile, "cnn": _cnn_profile, "full": _full_profile}


def cmd_gradcheck(args) -> int:
    require_seed(args.seed)
    tolerance = GRADCHECK_TOLERANCES[args.profile]
    fn, params = _PROFILES[args.profile](args.seed)
    report = grad_check(
        fn,
        params,
        step=GRADCHECK_STEPS[args.profile],
        tolerance=tolerance,
        max_entries_per_param=args.max_entries,
        rng=np.random.default_rng((args.seed, 99)),
    )
    print(report.format())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sketchattn", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("rasterize", help="rasterize a sketch to a PGM attention map")
    r.add_argument("--input", required=True)
    r.add_argument("--attention", choices=["uniform", "ramp", "file"], default="uniform")
    r.add_argument("--attention-file")
    r.add_argument("--width", type=int, default=224)
    r.add_argument("--height", type=int, default=224)
    r.add_argument("--eps", type=float, default=1.0)
    r.add_argument("--pad", type=float, default=CANVAS_MARGIN)
    r.add_argument("--no-normalize", action="store_true")
    r.add_argument("--out", required=True)
    r.add_argument("--json-grid")
    r.add_argument("--provenance")
    r.set_defaults(func=cmd_rasterize)

    s = sub.add_parser("simplify", help="RDP-simplify a sketch")
    s.add_argument("--input", required=True)
    s.add_argument("--eps", type=float, default=2.0)
    s.add_argument("--max-points", type=int, default=448)
    s.add_argument("--escalation", type=float, default=1.5)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_simplify)

    y = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    y.add_argument("--out", required=True)
    y.add_argument("--per-class", type=int, default=200)
    y.add_argument("--seed", type=int, default=0)
    y.add_argument("--split", choices=["train", "valid", "test"], default="train")
    y.add_argument("--categories", help="comma-separated subset of synthetic categories")
    y.add_argument("--matched-jitter", action="store_true")
    y.set_defaults(func=cmd_synth)

    t = sub.add_parser("train", help="train a model variant")
    t.add_argument("--train", required=True)
    t.add_argument("--valid")
    t.add_argument("--test")
    t.add_argument("--out", required=True)
    t.add_argument("--config")
    t.add_argument("--variant")
    t.add_argument("--epochs", type=int)
    t.add_argument("--seed", type=int)
    t.add_argument("--lr", type=float)
    t.add_argument("--batch-size", type=int)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.set_defaults(func=cmd_eval)

    d = sub.add_parser("predict", help="classify one sketch and export its attention map")
    d.add_argument("--checkpoint", required=True)
    d.add_argument("--input", required=True)
    d.add_argument("--out-map")
    d.set_defaults(func=cmd_predict)

    g = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    g.add_argument("--profile", choices=sorted(_PROFILES), required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--max-entries", type=int, default=8)
    g.set_defaults(func=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SketchError, OSError, ValueError, KeyError) as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
