"""Exception hierarchy shared across the package."""

from __future__ import annotations


class ConvDefError(Exception):
    """Base class for all domain errors raised by this package."""


class FieldMismatch(ConvDefError):
    """Operands live over different base fields."""


class ShapeError(ConvDefError):
    """Matrix or tensor dimensions are incompatible."""


class UnsupportedSearch(ConvDefError):
    """Exhaustive enumeration was requested where it is not feasible."""


class CocycleViolation(ConvDefError):
    """Comodule or 2-cocycle data fails one of its defining identities."""


class NotAnExtension(ConvDefError):
    """The coalgebra inclusion does not satisfy the extension condition."""


class RetractNotNormalized(ConvDefError):
    """The supplied retract is not a normalized left inverse of the inclusion."""


class EmptyLayer(ConvDefError):
    """The requested homogeneous layer of a graded coalgebra is zero."""


class UnsupportedCoaction(ConvDefError):
    """The coaction is not supported on the span of the given group-likes."""


class NotCocommutative(ConvDefError):
    """An operation requiring a cocommutative coalgebra got one that is not."""


class NoFiltration(ConvDefError):
    """No coalgebra filtration is available for a congruence computation."""


class NotInvertible(ConvDefError):
    """A morphism is not convolution invertible."""


class NotRankOne(ConvDefError):
    """The multiplication does not have rank one."""


class NotCompletelyReducible(ConvDefError):
    """The comodule does not decompose into one-dimensional subcomodules."""


class SpecMismatch(ConvDefError):
    """Two objects that must share a base (extension, algebra) do not."""


class NotUnital(ConvDefError):
    """The supplied morphism is not a unit of the algebra."""


class SpecFileError(ConvDefError):
    """Error while parsing or validating an input spec file.

    `kind` is one of: io, syntax, reference, dimension, axiom.
    `line`/`col` are 1-based positions when known.
    """

    def __init__(self, kind: str, message: str, line: int | None = None, col: int | None = None):
        self.kind = kind
        self.line = line
        self.col = col
        where = f" at {line}:{col}" if line is not None else ""
        super().__init__(f"{kind} error{where}: {message}")
