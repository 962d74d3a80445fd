"""Exception types shared across the package."""

__all__ = ["IdentifiabilityError", "AlsDivergenceError", "ConfigError"]


class IdentifiabilityError(ValueError):
    """A dimension requirement for unique estimation is violated."""


class AlsDivergenceError(RuntimeError):
    """The alternating-least-squares iteration produced a non-finite error."""


class ConfigError(ValueError):
    """An experiment configuration is malformed or inconsistent."""
