"""Exception hierarchy for the nilpath library.

Guard errors indicate a tripped internal safety limit (size caps, search
and iteration budgets, a lift chart that fails) rather than a mathematically
negative answer.
"""


class NilpathError(Exception):
    """Base class for all library errors."""


class InputFormatError(NilpathError):
    """Malformed textual or JSON input."""


class GuardError(NilpathError):
    """An internal safety guard tripped (a size cap, a budget or a lift chart)."""


class NotNilpotentError(NilpathError):
    """Operation requires a nilpotent matrix."""


class NotSimilarError(NilpathError):
    """The two matrices are not similar (profiles differ)."""


class SingularMatrixError(NilpathError):
    """Inverse of a matrix with zero determinant was requested."""


class SizeCapExceededError(GuardError):
    """Profile size exceeds the configured enumeration cap."""


class InvalidMoveError(NilpathError):
    """An adjacency move cannot be applied (negative count or bad window)."""


class PowerMismatchError(NilpathError):
    """The stated power relation between inputs does not hold."""


class ZeroPolynomialError(NilpathError):
    """Root counting or certification on the zero polynomial."""


class DuplicateSampleError(NilpathError):
    """Interpolation received two samples at the same parameter."""


class NotInKernelError(NilpathError):
    """Section anchor vector is zero or not annihilated by the operator."""


class OutsideNeighborhoodError(NilpathError):
    """Operator fell outside the validity neighborhood of a local section."""


class WindowViolationError(NilpathError):
    """No admissible window index exists for the requested cell pair."""


class MissingCellsError(NilpathError):
    """The root lacks a Jordan cell required by the requested move."""


class DetourSearchExhaustedError(GuardError):
    """No certified determinant detour found within the search budget."""


class ChainGuardError(GuardError):
    """Profile chain construction exceeded its iteration guard."""
