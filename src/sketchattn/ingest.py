"""Dataset loading: QuickDraw ndjson parsing, an internal versioned JSON
format, and a deterministic synthetic generator for desk-scale experiments.

The synthetic label set contains six shapes. Two of them, square_cw and
square_ccw, trace the same jittered square in opposite temporal orders:
their rasters are indistinguishable (exactly so with a matched jitter
stream) while their point sequences are not, which is what makes drawing
order a learnable signal.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyDatasetError,
    LabelOutOfRangeError,
    MalformedDocumentError,
    MalformedLineError,
    RaggedStrokeError,
    SketchError,
    VersionMismatchError,
)
from .geometry import VectorSketch, validate_and_normalize

DATASET_FORMAT = "sketchattn-dataset"
SKETCH_FORMAT = "sketchattn-sketch"
FORMAT_VERSION = 1

SYNTH_CATEGORIES = ("line", "circle", "zigzag", "spiral", "square_cw", "square_ccw")

SPLITS = ("train", "valid", "test")


@dataclass(frozen=True)
class LabeledSketch:
    sketch: VectorSketch
    label: int
    category_name: str


@dataclass
class Dataset:
    categories: list[str]
    items: list[LabeledSketch]
    split: str = "train"

    def __post_init__(self):
        for it in self.items:
            if not (0 <= it.label < len(self.categories)):
                raise LabelOutOfRangeError(f"label {it.label} outside category list of {len(self.categories)}")

    def __len__(self) -> int:
        return len(self.items)


def parse_quickdraw_line(text: str, label: int = 0) -> LabeledSketch:
    """Parse one QuickDraw simplified-format JSON line.

    The drawing field is a list of strokes, each a pair [xs, ys] of
    equal-length coordinate arrays; coordinates are taken verbatim.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedLineError(f"bad JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedLineError("line is not a JSON object")
    category = obj.get("word", obj.get("category"))
    drawing = obj.get("drawing")
    if not isinstance(category, str) or drawing is None:
        raise MalformedLineError("missing category/word or drawing field")
    if not isinstance(drawing, list):
        raise MalformedLineError("drawing field is not a list of strokes")

    strokes = [np.empty((0, 3))]
    for stroke in drawing:
        if not isinstance(stroke, (list, tuple)) or len(stroke) != 2:
            raise MalformedLineError("stroke is not an [xs, ys] pair")
        xs, ys = (_coordinates(values) for values in stroke)
        if len(xs) != len(ys):
            raise RaggedStrokeError(f"stroke has {len(xs)} xs but {len(ys)} ys")
        rows = np.column_stack([xs, ys, np.zeros(len(xs))])
        rows[-1:, 2] = 1.0  # the last point ends the stroke; an empty stroke adds no rows
        strokes.append(rows)
    return LabeledSketch(validate_and_normalize(np.concatenate(strokes)), label, category)


def _coordinates(values) -> list[float]:
    """One stroke's xs or ys: a JSON list of numbers (a boolean is not one)."""
    if not isinstance(values, list) or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values):
        raise MalformedLineError("stroke coordinates are not a list of numbers")
    try:
        return [float(v) for v in values]
    except OverflowError as exc:  # an integer literal beyond the float range
        raise MalformedLineError(f"stroke coordinate out of range: {exc}") from exc


def load_dataset(path, split: str = "train", max_items_per_category: int | None = None) -> Dataset:
    """Load a dataset from an ndjson directory or an internal-format file.

    Directory mode treats every *.ndjson file as one category (file stem =
    category name); categories are sorted by name and items keep file line
    order, so repeated loads produce identical datasets.
    """
    if max_items_per_category is not None and max_items_per_category <= 0:
        raise EmptyDatasetError("per-category cap must be positive")
    if os.path.isdir(path):
        files = sorted(f for f in os.listdir(path) if f.endswith(".ndjson"))
        if not files:
            raise EmptyDatasetError(f"no .ndjson files under {path}")
        categories = [os.path.splitext(f)[0] for f in files]
        items: list[LabeledSketch] = []
        for label, fname in enumerate(files):
            count = 0
            with open(os.path.join(path, fname)) as f:
                for line in f:
                    line = line.strip()
                    if not line:
                        continue
                    if max_items_per_category is not None and count >= max_items_per_category:
                        break
                    parsed = parse_quickdraw_line(line, label)
                    items.append(LabeledSketch(parsed.sketch, label, categories[label]))
                    count += 1
        if not items:
            raise EmptyDatasetError(f"no sketches parsed under {path}")
        return Dataset(categories, items, split)

    ds = load_internal(path)
    if max_items_per_category is not None:
        kept = []
        counts = [0] * len(ds.categories)
        for it in ds.items:
            if counts[it.label] < max_items_per_category:
                kept.append(it)
                counts[it.label] += 1
        ds = Dataset(ds.categories, kept, split)
    else:
        ds = Dataset(ds.categories, ds.items, split)
    if not ds.items:
        raise EmptyDatasetError(f"no items in {path}")
    return ds


# --- synthetic shapes ----------------------------------------------------

_CANVAS_CENTER = 127.5
_CANVAS_RADIUS = 90.0
_JITTER_SIGMA = 2.0


def shape_control_points(category: str) -> np.ndarray:
    """Defining vertices of each shape in the unit frame [-1, 1]^2."""
    if category == "line":
        return np.array([[-1.0, -1.0], [1.0, 1.0]])
    if category == "circle":
        t = np.linspace(0.0, 2.0 * np.pi, 25)
        return np.column_stack([np.cos(t), np.sin(t)])
    if category == "zigzag":
        return np.array([[-1.0, -0.6], [-0.5, 0.6], [0.0, -0.6], [0.5, 0.6], [1.0, -0.6]])
    if category == "spiral":
        t = np.linspace(0.0, 4.0 * np.pi, 40)
        r = 0.08 + 0.92 * t / (4.0 * np.pi)
        return np.column_stack([r * np.cos(t), r * np.sin(t)])
    if category in ("square_cw", "square_ccw"):
        return np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
    raise ValueError(f"unknown synthetic category {category!r}")


def _resample(control: np.ndarray, per_segment: int) -> np.ndarray:
    pts = [control[0]]
    for a, b in zip(control[:-1], control[1:]):
        for k in range(1, per_segment + 1):
            pts.append(a + (b - a) * (k / per_segment))
    return np.asarray(pts)


_RESAMPLE = {"line": 11, "circle": 1, "zigzag": 4, "spiral": 1, "square_cw": 6, "square_ccw": 6}


def synth_generate(category: str, seed, matched_jitter: bool = False) -> LabeledSketch:
    """Generate one labeled synthetic sketch, deterministic for a seed.

    square_ccw is square_cw traversed backwards. With matched_jitter the
    per-point jitter attaches to the geometric points (canonical order)
    before the traversal direction is applied, so square_cw and square_ccw
    from the same seed have identical point sets. By default jitter is
    drawn in traversal order, so the pair differs by the jitter draw only.
    """
    if category not in SYNTH_CATEGORIES:
        raise ValueError(f"unknown synthetic category {category!r}")
    rng = np.random.default_rng(seed)
    rotation = rng.uniform(-0.3, 0.3)
    scale = rng.uniform(0.8, 1.1)
    shift = rng.uniform(-15.0, 15.0, size=2)

    canonical = _resample(shape_control_points(category), _RESAMPLE[category])
    pts = _CANVAS_CENTER + _CANVAS_RADIUS * canonical
    jitter = rng.normal(0.0, _JITTER_SIGMA, size=pts.shape)
    if category == "square_ccw":
        if matched_jitter:
            pts = (pts + jitter)[::-1]
        else:
            pts = pts[::-1] + jitter
    else:
        pts = pts + jitter

    rot = np.array([[np.cos(rotation), -np.sin(rotation)], [np.sin(rotation), np.cos(rotation)]])
    center = np.array([_CANVAS_CENTER, _CANVAS_CENTER])
    pts = (pts - center) @ (scale * rot).T + center + shift

    s = np.zeros(len(pts))
    s[-1] = 1.0
    label = SYNTH_CATEGORIES.index(category)
    return LabeledSketch(validate_and_normalize(np.column_stack([pts, s])), label, category)


_SHAPE_FAMILY = {c: c for c in SYNTH_CATEGORIES}
_SHAPE_FAMILY["square_cw"] = "square"
_SHAPE_FAMILY["square_ccw"] = "square"


def synth_dataset(
    per_class: int,
    seed: int,
    split: str = "train",
    categories: tuple[str, ...] = SYNTH_CATEGORIES,
    matched_jitter: bool = False,
) -> Dataset:
    """Build a labeled synthetic dataset.

    Item seeds derive from (seed, split, shape family, index); square_cw
    and square_ccw share a family so item k of each traces the same
    underlying square, making the pair raster-identical under matched
    jitter.
    """
    if split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}")
    split_code = SPLITS.index(split)
    items = []
    for label, cat in enumerate(categories):
        family_code = sorted({_SHAPE_FAMILY[c] for c in SYNTH_CATEGORIES}).index(_SHAPE_FAMILY[cat])
        for idx in range(per_class):
            item = synth_generate(cat, (seed, split_code, family_code, idx), matched_jitter)
            items.append(LabeledSketch(item.sketch, label, cat))
    return Dataset(list(categories), items, split)


def random_sketch(
    rng: np.random.Generator,
    n_points: int,
    width: float = 64.0,
    height: float = 64.0,
    stroke_break_prob: float = 0.15,
) -> VectorSketch:
    """Random-walk sketch in canvas coordinates, for harnesses and tests."""
    xy = np.empty((n_points, 2))
    xy[0] = rng.uniform([2.0, 2.0], [width - 3.0, height - 3.0])
    for i in range(1, n_points):
        step = rng.normal(0.0, max(width, height) / 12.0, size=2)
        xy[i] = np.clip(xy[i - 1] + step, 0.0, [width - 1.0, height - 1.0])
    s = (rng.random(n_points) < stroke_break_prob).astype(np.float64)
    s[-1] = 1.0
    return validate_and_normalize(np.column_stack([xy, s]))


# --- internal persistence -------------------------------------------------


def _sketch_to_rows(sketch: VectorSketch) -> list[list[float]]:
    return [[float(x), float(y), int(st)] for (x, y), st in zip(sketch.xy, sketch.s)]


def save_internal(dataset: Dataset, path) -> None:
    """Write the versioned JSON dataset format (lossless float round trip)."""
    payload = {
        "format": DATASET_FORMAT,
        "version": FORMAT_VERSION,
        "split": dataset.split,
        "categories": list(dataset.categories),
        "items": [
            {"label": it.label, "category": it.category_name, "points": _sketch_to_rows(it.sketch)}
            for it in dataset.items
        ],
    }
    with open(path, "w") as f:
        json.dump(payload, f)


def _read_document(path, fmt: str) -> dict:
    """A versioned JSON document of the given format."""
    with open(path) as f:
        try:
            payload = json.load(f)
        except ValueError as exc:
            raise MalformedDocumentError(f"{path}: not a JSON document: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != fmt:
        raise VersionMismatchError(f"{path} is not a {fmt} file")
    if payload.get("version") != FORMAT_VERSION:
        raise VersionMismatchError(f"unsupported {fmt} version {payload.get('version')}")
    return payload


def _field(record, key: str, kind: type, where: str):
    """record[key], which must be an instance of kind (a boolean is not an int)."""
    value = record.get(key) if isinstance(record, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise MalformedDocumentError(f"{where}: {key!r} is missing or not a {kind.__name__}")
    return value


def load_internal(path) -> Dataset:
    payload = _read_document(path, DATASET_FORMAT)
    categories = _field(payload, "categories", list, str(path))
    if not all(isinstance(c, str) for c in categories):
        raise MalformedDocumentError(f"{path}: 'categories' is not a list of strings")
    items = []
    for k, rec in enumerate(_field(payload, "items", list, str(path))):
        where = f"{path}: item {k}"
        label = _field(rec, "label", int, where)
        category = _field(rec, "category", str, where)
        try:
            sketch = validate_and_normalize(_field(rec, "points", list, where))
        except SketchError as exc:
            raise type(exc)(f"{where}: {exc}") from exc
        items.append(LabeledSketch(sketch, label, category))
    return Dataset(categories, items, str(payload.get("split", "train")))


def save_sketch(sketch: VectorSketch, path) -> None:
    """Write a single sketch in the internal one-sketch JSON format."""
    payload = {"format": SKETCH_FORMAT, "version": FORMAT_VERSION, "points": _sketch_to_rows(sketch)}
    with open(path, "w") as f:
        json.dump(payload, f)


def load_sketch(path) -> VectorSketch:
    payload = _read_document(path, SKETCH_FORMAT)
    return validate_and_normalize(_field(payload, "points", list, str(path)))
