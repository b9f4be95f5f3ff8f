"""Exception types raised by qdlab validation and computation routines."""


class QdlabError(Exception):
    """Base class for all qdlab errors."""


class ValidationError(QdlabError, ValueError):
    """A constructed value violates one of its type invariants."""


class NonSquare(QdlabError, ValueError):
    """Input matrix is not square (or is empty)."""


class TooFarFromHermitian(QdlabError, ValueError):
    """Anti-Hermitian part of the input is too large to symmetrize away."""


class UnsupportedP(QdlabError, ValueError):
    """Schatten norm requested for an exponent outside {1, 2, inf}."""


class DimMismatch(QdlabError, ValueError):
    """Operands have incompatible dimensions."""


class NotOrthonormal(QdlabError, ValueError):
    """Column frame is not orthonormal within tolerance."""


class ConvergenceFailure(QdlabError, ArithmeticError):
    """The eigenvalue routine failed to converge."""


class SpectrumOutOfRange(QdlabError, ValueError):
    """Kernel spectrum leaves [0, 1]; carries the offending eigenvalue."""

    def __init__(self, eigenvalue: float):
        self.eigenvalue = eigenvalue
        super().__init__(f"kernel eigenvalue {eigenvalue!r} outside [0, 1]")


class IndexOutOfRange(QdlabError, ValueError):
    """A ground-set index is outside [1, N]."""


class GroundSetTooLarge(QdlabError, ValueError):
    """Exhaustive enumeration requested beyond the configured cap."""


class DegenerateM(QdlabError, ValueError):
    """System size M too small for the requested bound (log M must be > 0)."""


class DegenerateDim(QdlabError, ValueError):
    """Ambient dimension too small for the requested construction."""


class RankMismatch(QdlabError, ValueError):
    """Projection rank differs from the rank the operation requires."""


class NumericalBreakdown(QdlabError, ArithmeticError):
    """Residual mass collapsed mid-sampling; refusing to emit a biased draw."""


class EmptyRestriction(QdlabError, ValueError):
    """Kernel restriction to the empty set is undefined."""


class NonPositiveT(QdlabError, ValueError):
    """Tail bound requested at a non-positive deviation t."""
