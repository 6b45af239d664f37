"""Exception and warning types shared across the package."""


class MatrixBsError(Exception):
    """Base class for all matrixbs errors; ``row`` indexes the failing matrix of a stack."""

    def __init__(self, message: str = "", row: int | None = None):
        super().__init__(message)
        self.row = row


class RankDeficientError(MatrixBsError):
    """Matrix does not have full column rank at the working tolerance."""


class NotSymmetricError(MatrixBsError):
    """Matrix is not symmetric within tolerance."""


class NotSpdError(MatrixBsError):
    """Matrix is not symmetric positive definite."""


class DomainError(MatrixBsError):
    """Argument outside the mathematical domain of the operation."""


class OutsideSupportError(MatrixBsError):
    """Point lies outside the support of the requested density."""


class SingularMatrixError(MatrixBsError):
    """A matrix required to be invertible is singular."""


class NegativeDiffError(MatrixBsError):
    """Evidence grading requires a nonnegative criterion difference."""


class DataFormatError(MatrixBsError):
    """Malformed input data file; message cites the offending row."""


class SingularKernelWarning(UserWarning):
    """Kernel evaluated at a point where its density diverges."""


class DegenerateDataWarning(UserWarning):
    """Moment initialisation fell back to defaults on degenerate data."""
