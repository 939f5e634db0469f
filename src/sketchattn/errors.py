"""Exception types shared across the package."""


class SketchError(Exception):
    """Base class for all sketchattn errors."""


class EmptySketchError(SketchError):
    """No points survive validation."""


class NonFiniteCoordinateError(SketchError):
    """An input coordinate is NaN or infinite."""


class MalformedPointsError(SketchError):
    """Sketch points are not an (n, 3) array of numbers."""


class InvalidStrokeStateError(SketchError):
    """A stroke state is neither 0 nor 1."""


class InvalidCanvasError(SketchError):
    """Canvas dimensions are too small for the requested padding."""


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
    """Attention length does not match the sketch point count."""


class NonFiniteAttentionError(SketchError):
    """An attention value is NaN or infinite."""


class InvalidConfigError(SketchError):
    """A configuration value violates its invariants."""


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
