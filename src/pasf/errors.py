"""Exception hierarchy for the pasf package.

Every failure mode gets its own class so callers (and the CLI exit-code
mapping) can branch on the *kind* of failure without parsing messages.
Names follow the operation contracts: ``Singular`` means a square
map's numerical rank fell short, ``NotAFrame`` means a frame operator
is singular, ``GateSingular`` means a parameterized dual candidate
failed its invertibility gate, and so on.
"""

from __future__ import annotations


class PasfError(Exception):
    """Base class for all pasf errors."""


class DimensionMismatch(PasfError):
    """Shapes or space dimensions are incompatible."""


class MixedExponents(PasfError):
    """Operator norm requested between spaces with different exponents."""


class NonSquare(PasfError):
    """Inversion requested for a non-square map."""


class Singular(PasfError):
    """Fewer singular values than the dimension reach tol * max-entry.

    ``rank`` carries the numerical rank that was found.
    """

    def __init__(self, message: str, rank: int | None = None):
        super().__init__(message)
        self.rank = rank


class NotInvertible(PasfError):
    """The product V*U of a factorization pair is singular."""


class NotAFrame(PasfError):
    """The frame operator is singular at the configured tolerance.

    ``rank`` carries the numerical rank of the frame operator.
    """

    def __init__(self, message: str, rank: int | None = None):
        super().__init__(message)
        self.rank = rank


class SpaceMismatch(PasfError):
    """Two frames do not live on the same pair of spaces."""


class NotDual(PasfError):
    """The dual criterion does not hold for the given pair."""


class GateSingular(PasfError):
    """The gate operator of a parameterized dual candidate is singular."""


class RequiresSquare(PasfError):
    """The operation is only defined for square frames (count == dim)."""


class NotInvertibleWitness(PasfError):
    """A similarity witness with a non-invertible map cannot be applied."""


class NotParseval(PasfError):
    """A Parseval frame was required but the frame operator is not I."""


class NotSimilar(PasfError):
    """The two frames are not similar."""


class NotOrthogonal(PasfError):
    """The two frames are not orthogonal."""


class ContractViolated(PasfError):
    """The interpolation contract C*A + D*B = I fails.

    ``residual`` carries the max-entry deviation so callers can repair
    the operator quadruple.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class InsufficientCoordinates(PasfError):
    """Too few sequence coordinates for the requested construction."""


class GenerationFailed(PasfError):
    """Rejection sampling exhausted its retry budget."""


class FrameFormatError(PasfError):
    """A frame file does not conform to the documented JSON schema."""


class ConsistencyError(PasfError):
    """An internal cross-check between two computation routes failed.

    This should never fire on well-conditioned inputs; it guards the
    implementation's algebra, not the caller's data.
    """
