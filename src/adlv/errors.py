"""Exception hierarchy shared by all adlv modules.

Every failure mode that the CLI maps to an exit code has its own class;
everything derives from AdlvError so callers can catch broadly.
"""

from __future__ import annotations


class AdlvError(Exception):
    """Base class for all errors raised by this package."""


class NonIntegralCartan(AdlvError):
    """Pairing table of a root datum is not an integer matrix."""


class NonReducedSystem(AdlvError):
    """A root and twice the root both occur in the system."""


class UnknownPreset(AdlvError):
    """Requested preset name is not in the catalog."""


class NotDominantInput(AdlvError):
    """An argument required to be dominant is not."""


class DatumMismatch(AdlvError):
    """Two elements from different root data were combined."""


class InfiniteParabolic(AdlvError):
    """The parabolic subgroup generated by the given reflections is infinite."""


class PeriodOverflow(AdlvError):
    """Newton period search exceeded its provable cap; the datum is broken."""


class BudgetExceeded(AdlvError):
    """An enumeration would exceed the configured node budget.

    Raised instead of returning a silently truncated set; `what` names
    the set, and the message is built here only.
    """

    def __init__(self, what: str, budget: int):
        super().__init__(f"{what} exceeds node budget {budget}")


class HypothesisViolated(AdlvError):
    """A verifier was invoked outside the hypotheses it assumes."""


class TagNotInBGMu(AdlvError):
    """A class tag was passed that is not an element of B(G, {mu})."""


class NoSolution(AdlvError):
    """An integer linear system admits no solution."""


class ExtremalityViolation(AdlvError):
    """A poset expected to have a unique extremum does not; implementation bug."""


class SingularOperator(AdlvError):
    """A Picard operator that must avoid eigenvalue 1 has it.

    This contradicts a verified property and is reported as a
    counterexample candidate, not swallowed.
    """


class NotStraight(AdlvError):
    """An operation requiring a straight element received a non-straight one."""


class SchemaError(AdlvError):
    """Malformed JSON input; message carries a JSON-pointer path."""
