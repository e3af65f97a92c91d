"""Exception types raised by the public API."""


class GateDiscrimError(Exception):
    """Base class for all package errors."""


class DomainError(GateDiscrimError, ValueError):
    """An argument is outside the documented domain of an operation."""


class NotUnitaryError(DomainError):
    """A matrix expected to be unitary fails the unitarity check."""


class NotMagicDiagonalError(DomainError):
    """An operator has off-diagonal magic-basis entries above tolerance."""


class NotNormalizedError(DomainError):
    """A state vector is not normalized to within tolerance."""


class ConstructionFailedError(GateDiscrimError):
    """A probe missed its tolerance on overlap or concurrence; a bug."""
