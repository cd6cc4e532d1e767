"""Exception types shared across the toolkit.

Input problems raise subclasses of ToolkitError; blown enumeration
budgets raise CapExceeded so callers (and the CLI) can tell "bad input"
apart from "too big to compute honestly".
"""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(ToolkitError):
    pass


class DegreeZero(ToolkitError):
    pass


class CapExceeded(ToolkitError):
    """An enumeration or search would exceed its configured budget."""


def check_budget(count, what, cap):
    """Raise CapExceeded, naming the count, the budget and the flag, when
    count exceeds cap."""
    if count > cap:
        raise CapExceeded(f"{count} {what} exceed the budget {cap}; "
                          "raise it with --cap")


class LabelMismatch(ToolkitError):
    pass


class NotSubset(ToolkitError):
    pass


class FieldTooSmall(ToolkitError):
    pass


class NotASubfield(ToolkitError):
    pass


class LabelClash(ToolkitError):
    pass


class NotConforming(ToolkitError):
    pass


class ShapeMismatch(ToolkitError):
    pass


class DomainError(ToolkitError):
    pass


class Disconnected(ToolkitError):
    pass


class NotBinary(ToolkitError):
    pass


class EmptyCode(ToolkitError):
    pass


class DefectOutOfRange(ToolkitError):
    pass
