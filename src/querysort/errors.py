"""Exceptions shared across the package.

Everything raised on purpose derives from QuerysortError so callers can
catch domain failures without also swallowing programming errors.
"""


class QuerysortError(Exception):
    """Base class for all deliberate failures in this package."""


class InvariantViolation(QuerysortError):
    """A value or document breaks a structural rule (bad bounds, bad field, ...)."""


class ParseError(QuerysortError):
    """Malformed instance document.  Carries the 1-based line and column."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class MissingRealization(QuerysortError):
    """An operation needed hidden values but the instance has none."""


class UnresolvedDependency(QuerysortError):
    """Asked to order intervals that still contain a dependent pair."""


class NotSimplicial(QuerysortError):
    """A vertex expected to have a clique neighborhood does not."""


class NotChordal(QuerysortError):
    """The graph has no perfect elimination ordering."""


class NotTree(QuerysortError):
    """A component expected to be a tree has a cycle or is disconnected."""


class TooLarge(QuerysortError):
    """Exhaustive enumeration was asked for an instance beyond its guard."""


class TooManyBranches(QuerysortError):
    """An exact expectation's coin tree is too big to walk: more real flips than the walk's node budget."""


class DeltaNotZero(QuerysortError):
    """An algorithm that only works at threshold zero got a positive threshold."""


class RepeatQuery(QuerysortError):
    """The exact query model was asked to query the same interval twice."""


class ScriptExhausted(QuerysortError):
    """A refinement script was queried past its final (point) entry."""
