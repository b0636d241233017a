"""Exception types shared across the simulator."""


class ConfigurationError(Exception):
    """A scenario, register table, or algorithm was set up inconsistently."""


class ScenarioError(Exception):
    """Scenario file could not be parsed; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class ConsistencyError(Exception):
    """An internal cross-check failed; indicates a bug in the simulator itself."""
