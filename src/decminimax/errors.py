"""Shared exception types."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


class NotPSDError(ConfigError):
    """Matrix expected to be positive semi-definite is not."""


class DegenerateModeError(RuntimeError):
    """A non-principal eigenmode has a zero mixing-gap eigenvalue."""


class DivergenceError(RuntimeError):
    """A replicate's gradient estimates or iterates became non-finite, or
    its iterates exceeded the magnitude guard."""

    def __init__(self, msg, round_index=None, max_entry=None):
        super().__init__(msg)
        self.round_index = round_index
        self.max_entry = max_entry
