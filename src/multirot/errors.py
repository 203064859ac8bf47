"""Exception types shared across the package."""


class UsageError(ValueError):
    """A caller violated an operation's documented precondition."""


class DomainError(ValueError):
    """An input value lies outside the mathematical domain of an operation."""


class GuardError(RuntimeError):
    """A guarded resource limit (point count, scan budget) would be exceeded."""


class ConfigError(ValueError):
    """An experiment configuration failed validation."""


class FactorLimitError(DomainError):
    """A rational carries a prime factor beyond the trial-division bound."""


class NotInAttractorError(DomainError):
    """A point could not be coded: it escapes every cylinder at some depth."""

    def __init__(self, depth: int, message: str | None = None):
        self.depth = depth
        super().__init__(message or f"point not in attractor (fails at depth {depth})")
