"""Exception types shared across the laboratory modules."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested exactly at a pole."""


class AdmissibilityError(DomainError):
    """Moment order outside the admissible region Re(k) > -3."""


class CapabilityError(ValueError):
    """Request is valid mathematically but outside this implementation's supported range."""


class MissingZeroError(RuntimeError):
    """A Rosser block did not show one sign change of Z per zero it holds, even after rescans."""

    def __init__(self, message, interval=None):
        super().__init__(message)
        self.interval = interval


class ZeroTableParseError(ValueError):
    """Malformed or non-monotone zero table file."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


class EmptyOverlapError(ValueError):
    """Two zero lists have no common height range to compare."""
