"""Exception types shared across the package."""

__all__ = ["IdentifiabilityError", "AlsDivergenceError", "ConfigError"]


class IdentifiabilityError(ValueError):
    """A dimension requirement for unique estimation is violated."""


class AlsDivergenceError(RuntimeError):
    """The sensing fit met a non-finite reconstruction error."""


class ConfigError(ValueError):
    """An experiment configuration is malformed or inconsistent."""
