"""Typed errors raised throughout the package.

Two branches matter for scripting: :class:`InputError` covers bad documents,
references and argument shapes (CLI exit code 2), :class:`NumericalError`
covers singular or numerically unusable systems (CLI exit code 3).
"""


class GridError(Exception):
    """Base class for every error raised by this package."""


class InputError(GridError):
    """Invalid document, reference, or argument shape."""


class NumericalError(GridError):
    """Linear-algebraic failure: singular, rank-deficient, or ill-conditioned."""


class MalformedDocument(InputError):
    """Case or scenario document violates the expected schema."""


class DanglingReference(InputError):
    """A branch or meter points at a bus or line that does not exist."""


class NoReferenceBus(InputError):
    """No bus is flagged as the angle reference."""


class MultipleReferenceBuses(InputError):
    """More than one bus is flagged as the angle reference."""


class DisconnectedNetwork(InputError):
    """The branch graph does not connect all buses."""


class ZeroReactance(InputError):
    """A branch has zero series reactance."""


class UnsupportedKindForDC(InputError):
    """Meter kind has no linear (active-power) model."""


class MissingMagnitudes(InputError):
    """A full AC state requires a voltage magnitude for every bus."""


class LengthMismatch(InputError):
    """Two meter-indexed vectors have different lengths."""


class DimensionMismatch(InputError):
    """Vector length does not match the matrix dimension it pairs with."""


class NoRedundancy(InputError):
    """Meter count does not exceed the state dimension."""


class InvalidArgument(InputError, ValueError):
    """An argument value is out of range: a non-positive trial count, attack
    magnitude or weight, or a state that does not fit the network. Also a
    ValueError, the class these cases raised before."""


class UnobservableNetwork(NumericalError):
    """The gain matrix is singular or numerically rank-deficient."""


class NumericallySingularOmega(NumericalError):
    """Every meter is critical: the residual covariance diagonal vanishes."""
