"""Exception types shared across the package."""


class BmwError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(BmwError):
    """Division by the zero element of the coefficient field."""


class ParseError(BmwError):
    """Malformed coefficient text or input file.

    `position` is a 0-based character offset into the offending text when
    the error comes from the coefficient grammar, else None.
    """

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ExcludedEvaluationPoint(BmwError):
    """Numeric evaluation requested at s in {0, 1, -1} (q in {0, 1})."""


class PoleAtPoint(BmwError):
    """Numeric evaluation requested at a zero of the denominator."""


class UnluckyPoint(BmwError):
    """A nonzero input of Q(s) vanishes or has a pole at the numeric point."""

    def __init__(self, message):
        super().__init__(f"{message}, an unlucky point; choose another --at-s")


class BadPositions(BmwError):
    """Invalid tensor-factor labels for an embedding or a partial trace."""


class ShapeMismatch(BmwError):
    """Operands act on different spaces."""


class Singular(BmwError):
    """A linear system or matrix inversion has no solution."""


class NotBMWSpectralType(BmwError):
    """The operator does not expose the cubic spectral structure
    needed to read off the contraction eigenvalue."""


class NotSkewInvertible(BmwError):
    """No skew inverse exists for the given operator."""


class RankNotOne(BmwError):
    """The contraction operator does not have rank one."""


class BadDimension(BmwError):
    """Unsupported dimension for a standard family."""


class InvalidTwistParameters(BmwError):
    """The twist parameter array violates the compatibility conditions."""


class DimensionMismatch(BmwError):
    """An imported file uses indices outside the declared dimension."""
