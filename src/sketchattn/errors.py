"""Exception types shared across the package, and the finiteness and seed
checks the config classes share."""

import math
import numbers


class SketchError(Exception):
    """Base class for all sketchattn errors."""


class EmptySketchError(SketchError):
    """No points survive validation."""


class NonFiniteCoordinateError(SketchError):
    """An input coordinate is NaN or infinite."""


class MalformedPointsError(SketchError):
    """Sketch points are not an (n, 3) array of numbers, or a sketch's xy
    and s arrays are not of shapes (n, 2) and (n,)."""


class InvalidStrokeStateError(SketchError):
    """A stroke state is neither 0 nor 1."""


class InvalidCanvasError(SketchError):
    """Canvas dimensions are too small for the requested padding, or the
    padding is not a finite non-negative number."""


class MalformedLineError(SketchError):
    """A QuickDraw JSON line is not parseable or misses required fields."""


class MalformedDocumentError(SketchError):
    """A dataset or sketch document misses a field or holds one of the wrong type."""


class RaggedStrokeError(SketchError):
    """A stroke's x and y coordinate arrays have different lengths."""


class EmptyDatasetError(SketchError):
    """No items were produced while loading a dataset."""


class VersionMismatchError(SketchError):
    """A persisted file carries an unsupported format version."""


class LengthMismatchError(SketchError):
    """Per-item values do not match their items in number: attention
    values and sketch points, or prepared sketches and dataset items."""


class NonFiniteAttentionError(SketchError):
    """An attention value is NaN or infinite."""


class InvalidConfigError(SketchError):
    """A configuration value violates its invariants."""


def require_finite(**values) -> None:
    """Raise InvalidConfigError naming the first value that is NaN,
    infinite, or an integer beyond the float range."""
    for name, value in values.items():
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise InvalidConfigError(f"{name!r} must be finite, got {value!r}")


def require_seed(seed) -> None:
    """Raise InvalidConfigError unless seed is what numpy seeds from: a
    non-negative integer, or a tuple or list of them."""
    for v in seed if isinstance(seed, (tuple, list)) else (seed,):
        if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 0:
            raise InvalidConfigError(f"'seed' must be a non-negative integer, got {seed!r}")


class ShapeMismatchError(SketchError):
    """Array shapes are inconsistent with the operation's contract."""


class CategoryMismatchError(SketchError):
    """A dataset's category list differs from the one a model was trained on."""


class LabelOutOfRangeError(SketchError):
    """A class label does not index a category or a valid logit."""


class TapeConsumedError(SketchError):
    """backward() was called more than once on the same tape."""


class NonFiniteLossError(SketchError):
    """Training produced a NaN or infinite loss."""
