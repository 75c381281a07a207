"""Exception types shared across the package.  The command line exits 3 on a
SolverError and 2 on any other, which it prints as "configuration error:"."""


class BiotfvError(Exception):
    """Base class for all package errors."""


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


class GeometryError(ConfigurationError):
    """Mesh construction or validation failed."""


class SolverError(BiotfvError):
    """A linear or nonlinear solve failed.

    Carries the residual trace of the failed solve when available so
    callers can report diagnostics.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []
