"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A configuration value is invalid or an unknown key was supplied."""


class ScenarioError(ValueError):
    """A contact scenario cannot be simulated (out of bounds, degenerate)."""


class CalibrationError(RuntimeError):
    """Calibration construction failed (e.g. non-monotone force sweep)."""


class StaleCalibrationError(RuntimeError):
    """Calibration parameter hash or schema version does not match the configuration."""

    def __init__(self, expected, found, what: str = "hash"):
        super().__init__(
            f"stale calibration: expected {what} {expected}, found {found}"
        )
        self.expected = expected
        self.found = found


class AssignmentError(RuntimeError):
    """Positive-sample assignment could not satisfy its contract."""


class ContractViolation(RuntimeError):
    """An internal invariant was violated; indicates a bug or corrupt input."""


class DecodeError(ValueError):
    """A value could not be decoded (e.g. an all-zero angle label)."""
