"""Exception types shared across the package."""


class CircleJacobiError(Exception):
    """Base class for all package-specific errors."""


class NotDivisible(CircleJacobiError):
    """Exact Laurent division left a nonzero remainder."""


class ZeroArgument(CircleJacobiError):
    """Evaluation at z = 0, which is outside the Laurent domain."""


class BadSupport(CircleJacobiError):
    """Polynomial support violates the window an operation requires."""


class ParamOutOfRange(CircleJacobiError):
    """Parameters outside the admissible domain alpha, beta > -1
    (``opuc.JacobiParams``)."""


class BadVerblunsky(CircleJacobiError):
    """A supplied Verblunsky coefficient lies outside (-1, 1)."""


class Degenerate(CircleJacobiError):
    """Structure constants violate the nondegeneracy conditions."""


class NonPositive(CircleJacobiError):
    """A Toeplitz determinant fails the positivity test expected of a
    genuine probability measure."""


class ConvergenceFailure(CircleJacobiError):
    """The Aberth iteration of ``cmv.spectrum`` did not converge."""
