"""Exception types shared across the package."""


class LamlatError(Exception):
    """Base class for all package-specific errors."""


class ArgumentError(LamlatError, ValueError):
    """An argument is malformed: a size that is not an int or is below 1,
    an empty poset or restriction, labels that are not one distinct token
    per element, a relabeling that is not a permutation, a choice spec with
    a same-element or conflicting pair, operation tables that are empty,
    not square, of the wrong size or asymmetric, a subset not closed under
    the operations, an enumeration flag or collect_all that is not a bool,
    an unknown fixture name, or nothing to classify."""


class RangeError(LamlatError):
    """An element index or table entry is not an int in 0..n-1; a bool counts as none."""


class InvalidOrderError(LamlatError):
    """A relation matrix is not square, holds an entry other than 0, 1 or a
    bool, or is not reflexive, antisymmetric and transitive."""


class CycleError(InvalidOrderError):
    """Cover input or a relation closure violates antisymmetry."""


class UnboundedError(LamlatError):
    """Operation requires a bottom (or bottom and top) element."""


class NoTopError(UnboundedError):
    """Operation requires a top element."""


class NotDirectedError(LamlatError):
    """Operation requires a directed poset."""


class BadChoiceError(LamlatError):
    """A join/meet value is not a legal bound for its pair."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class IncompleteChoiceError(LamlatError):
    """A choice spec leaves incomparable pairs without a value."""

    def __init__(self, message, pairs=()):
        super().__init__(message)
        self.pairs = tuple(pairs)


class BudgetError(LamlatError):
    """An enumeration would exceed a size guard or the listing cap."""

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class UnknownTheoremError(LamlatError):
    """verify() was asked for an unregistered theorem id."""


class ParseError(LamlatError):
    """Instance text is malformed; carries 1-based line and column."""

    def __init__(self, message, line, column=1):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.column = column
