"""Exception types shared across the package."""


class RelpropError(Exception):
    """Base class for all errors raised by this package. where, if given, names the part of
    a model at fault ("input", "mean" or a layer's index), which load_model maps to a line."""

    def __init__(self, message: str = "", where: int | str | None = None):
        super().__init__(message)
        self.where = where


class ShapeError(RelpropError):
    """An operand does not have the shape an operation requires."""


class ManifestError(RelpropError):
    """A model manifest is malformed."""


class UnknownLayerError(ManifestError):
    """A manifest names a layer kind this package does not implement."""


class BlobError(RelpropError):
    """A weight blob does not match the size the manifest implies."""


class ChainError(RelpropError):
    """Consecutive layers are not shape-compatible, or the tail is not dense+softmax."""


class ImageFormatError(RelpropError):
    """An image file is not a format this package reads."""


class DataError(RelpropError):
    """A dataset list, label, or bounding-box file is malformed or inconsistent."""
