"""Exception types shared across the toolkit."""

from __future__ import annotations


class SatlinkError(Exception):
    """Base class for all toolkit errors."""


class DomainError(SatlinkError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class OutOfBandError(DomainError):
    """A frequency falls outside every known band allocation.

    Carries the nearest allocation so callers can report how far off the
    query was.
    """

    def __init__(self, message: str, nearest=None):
        super().__init__(message)
        self.nearest = nearest


class NoSidelobeError(DomainError):
    """The radiation pattern has no sidelobe to measure (too few elements)."""


class NoFeasibleModcodError(SatlinkError):
    """SNR is below the requirement of every entry in the MODCOD catalog."""

    def __init__(self, message: str, floor=None):
        super().__init__(message)
        self.floor = floor  # catalog entry with the lowest SNR requirement


class NotFoundError(SatlinkError, KeyError):
    """A catalog lookup failed; carries the list of valid identifiers."""

    def __init__(self, message: str, valid_ids=()):
        # bypass KeyError's repr-quoting of the message
        Exception.__init__(self, message)
        self.valid_ids = tuple(valid_ids)

    def __str__(self) -> str:
        return self.args[0]


class ParseError(SatlinkError, ValueError):
    """A structured document could not be parsed; carries the location."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(SatlinkError, ValueError):
    """A parsed document violates an invariant; carries the field name."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field
