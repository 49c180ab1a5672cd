"""Exception hierarchy shared across the package, and the setting checks that raise ConfigError."""

import dataclasses
import math


class GlemimlError(Exception):
    """Base class for all package errors."""


class ConfigError(GlemimlError):
    """Invalid configuration value or combination."""


class DataFormatError(GlemimlError):
    """Malformed or dimensionally inconsistent dataset content."""


class ShapeError(GlemimlError):
    """Array shapes incompatible with the requested operation."""


class NumericError(GlemimlError):
    """Non-finite values where finite ones are required."""


class DegenerateInputError(GlemimlError):
    """Input is valid but leaves the operation undefined (e.g. no eligible bags)."""


def check_finite(config) -> None:
    """A ConfigError naming the first float field of the dataclass `config` that is NaN or infinite."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{field.name} must be finite, got {value!r}")


def check_seed(name: str, seed: int, scale: int = 1, offset: int = 0) -> None:
    """A ConfigError unless seed >= 0 and the seed derived from it, seed * scale + offset,
    fits np.uint64, which np.random.default_rng is seeded with."""
    largest = (2**64 - 1 - offset) // scale
    if not 0 <= seed <= largest:
        raise ConfigError(f"{name} must lie in [0, {largest}], got {seed!r}")
