"""Exception types, and the (words, predicate) config rules every layer shares."""

import numbers

SEED_BITS = 64  # a run's one seed feeds the split, training and the index header's 64-bit field
FLAG_RULE = ("true or false", lambda v: isinstance(v, bool))


class DecodeError(ValueError):
    """A binary artifact could not be decoded."""


class BadMagicError(DecodeError):
    """The file does not start with the expected magic bytes."""


class TruncatedError(DecodeError):
    """The file ended before the declared content."""


class VersionError(DecodeError):
    """The file carries an unsupported format version."""


class ConfigError(ValueError):
    """A configuration file or override is missing or malformed."""


def int_rule(low: int, bits: int | None = None):
    """An integer >= low, and < 2**bits when bits is given: (words, predicate)."""
    if bits is None:
        return f">= {low}", lambda v: isinstance(v, numbers.Integral) and v >= low
    return f">= {low} and < 2**{bits}", lambda v: isinstance(v, numbers.Integral) and low <= v < 2**bits


def check_rules(obj, rules: dict) -> None:
    """ConfigError naming the first field of obj, in rules' order, that breaks its rule."""
    for name, (words, ok) in rules.items():
        if not ok(value := getattr(obj, name)):
            raise ConfigError(f"{name} must be {words}, got {value!r}")


class TrainingDiverged(RuntimeError):
    """The training loss became non-finite."""

    def __init__(self, iteration: int, value: float):
        super().__init__(f"non-finite loss {value!r} at iteration {iteration}")
        self.iteration = iteration
        self.value = value


class StageError(RuntimeError):
    """A pipeline stage failed; the stage name and cause are preserved."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause
