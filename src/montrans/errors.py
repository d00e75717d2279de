"""Exception types shared across the package."""

from __future__ import annotations


class MontransError(Exception):
    """Base class for all package-specific errors."""


class NotDivisible(MontransError):
    """Left division failed: the divisor is not a left factor of the value."""


class UnknownGenerator(MontransError):
    """An element references a generator the monoid does not declare."""


class MalformedElement(MontransError):
    """Element text or wire payload does not denote a monoid element."""


class UnknownLetter(MontransError):
    """A word contains a letter outside the machine's input alphabet."""


class SchemaError(MontransError):
    """A machine document failed validation.

    `path` locates the offending field, e.g. ``transitions[2].to``.
    """

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class IterationBudgetExceeded(MontransError):
    """A fixpoint iteration did not stabilize within its round cap."""


class InternalInconsistency(MontransError):
    """A defect-free table failed to assemble into a machine (library bug)."""


class BudgetExceeded(MontransError):
    """A learning run hit its prefix-count or iteration cap.

    Carries the statistics and the observation table at the moment the cap
    was hit so callers can inspect the partial run.
    """

    def __init__(self, message: str, stats, table=None):
        super().__init__(message)
        self.stats = stats
        self.table = table


class NotMinimalInput(MontransError):
    """An operation requiring minimal machines received a non-minimal one."""


class SearchBoundExceeded(MontransError):
    """A configuration-pair walk found no difference up to its length bound
    while unexplored pairs lie beyond it: the caller's bound cut the walk
    short.  Raised under the equivalence oracle's own bound, it is a library
    bug."""
