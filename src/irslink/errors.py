"""Exception hierarchy shared across the package."""


class IrsLinkError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(IrsLinkError):
    """Invalid configuration. Carries a list of field-level messages."""

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class NumericalConsistencyError(IrsLinkError):
    """A numerically evaluated probability left [0, 1] beyond the slack, or a
    statistic or bound is not a finite float: float64 cannot carry the setup."""
