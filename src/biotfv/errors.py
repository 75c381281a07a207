"""Exception types shared across the package."""


class BiotfvError(Exception):
    """Base class for all package errors."""


class GeometryError(BiotfvError):
    """Mesh construction or validation failed."""


class ConfigurationError(BiotfvError):
    """Case configuration is missing, malformed, or inconsistent."""

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        self.key = key
        self.line = line
        parts = [message]
        if key is not None:
            parts.append(f"key '{key}'")
        if line is not None:
            parts.append(f"line {line}")
        super().__init__(": ".join(parts) if len(parts) > 1 else message)


class SolverError(BiotfvError):
    """A linear or nonlinear solve failed.

    Carries the residual trace of the failed solve when available so
    callers can report diagnostics, and, for a block of right-hand sides,
    the column that failed.
    """

    def __init__(self, message: str, trace=None, column: int | None = None):
        super().__init__(message)
        self.trace = trace if trace is not None else []
        self.column = column
