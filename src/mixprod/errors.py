"""Exception types shared across the package."""


class MixprodError(Exception):
    """Base class for all errors raised by this package."""


class InvalidAmbient(MixprodError, ValueError):
    """An ambient has a negative block size or no variables at all."""


class DegreeOutOfRange(MixprodError, ValueError):
    """A requested generator degree is negative or exceeds its block size."""


class AmbientMismatch(MixprodError, ValueError):
    """Two operands live in polynomial rings of different shapes."""


class UnsupportedIdeal(MixprodError, ValueError):
    """The zero or unit ideal was passed to an operation that excludes it."""


class SupportOutsideVertices(MixprodError, ValueError):
    """A generator uses variables outside the given vertex set."""


class VerticesOutsideComplex(MixprodError, ValueError):
    """A restriction vertex set is not contained in the complex's vertices."""


class VoidComplex(MixprodError, ValueError):
    """Homology of the void complex (no faces at all) is undefined here."""


class UnsupportedShape(MixprodError, ValueError):
    """A mixed product description is outside the shapes the formulas cover."""


class EmptyBlock(MixprodError, ValueError):
    """A construction needs at least one variable in each block."""


class CapExceeded(MixprodError, ValueError):
    """A requested ambient exceeds the supported number of variables."""


class TeraiMismatch(MixprodError, AssertionError):
    """Internal consistency failure: regularity disagreed with the dual's
    projective dimension. Signals an implementation bug, never expected."""
