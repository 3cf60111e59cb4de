"""Exception types shared across the package, and the text-file reader
that turns undecodable bytes into one of them."""


class PeltError(Exception):
    """Base class for all library errors."""


class ShapeError(PeltError):
    """Tensor dimensions do not agree."""


class ConfigError(PeltError):
    """Invalid or inconsistent configuration."""


class UsageError(PeltError):
    """A command-line option or config value is unknown or malformed."""


class ContractError(PeltError):
    """A documented precondition was violated by the caller."""


class LengthError(PeltError):
    """A sequence exceeds the model's maximum length."""


class NumericalError(PeltError):
    """A computation produced non-finite values."""


class DivergenceError(NumericalError):
    """Training loss became non-finite."""

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"non-finite loss at step {step}")


class FormatError(PeltError):
    """A serialized file has the wrong magic, version or layout."""


class CorruptionError(FormatError):
    """A serialized file ended before its declared payload."""


class FingerprintError(PeltError):
    """A lookup table does not belong to the checkpoint in use."""


class NoOccurrencesError(PeltError):
    """An entity has no occurrences to aggregate."""

    def __init__(self, entity_id):
        self.entity_id = entity_id
        super().__init__(f"no occurrences for entity {entity_id!r}")


class DegenerateDirectionError(PeltError):
    """The summed output representations have zero norm."""


def read_lines(path):
    """The lines of a UTF-8 text file, newlines stripped; FormatError naming
    the path if its bytes are not UTF-8."""
    try:
        with open(path, encoding="utf-8") as f:
            return [line.rstrip("\n") for line in f]
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None
