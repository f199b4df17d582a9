"""Shared exception types.

Every error the library raises deliberately derives from RecLabError so the
CLI can map them onto exit codes (precision failures get their own code).
"""

from __future__ import annotations

import sys


class RecLabError(Exception):
    """Base class for all deliberate library errors."""


class EmptyInput(RecLabError):
    """An operation received a set with no usable elements."""


class NoElementsInWindow(RecLabError):
    """The window filter removed every element."""


class TooFewElements(RecLabError):
    """The operation needs more elements than were supplied."""


class InvalidArity(RecLabError):
    """Color count / arity outside the supported range."""


class MalformedCertificate(RecLabError):
    """A certificate object fails structural validation."""


class UncertainAtPrecision(RecLabError):
    """A sum of surds from several quadratic fields did not separate from
    its bound within 4096 bits (``exactreal._int_sum_sign``).

    Carries ``ambiguous``: the n values an enumeration could not place.
    """

    def __init__(self, message: str = "", ambiguous=None):
        super().__init__(message or "comparison undecidable at current precision")
        self.ambiguous = ambiguous or []


class RadicandTooLarge(RecLabError):
    """A surd radicand exceeds the size that is reduced without factoring
    risk (``exactreal.MAX_RADICAND_BITS``)."""


class NoSuchM(RecLabError):
    """No orbit-density constant exists (orbit too coarse for the target)."""


class WindowInadequate(RecLabError):
    """A declared data window is too small for the requested horizon."""


class NonIntegerPolynomial(RecLabError):
    """A polynomial generator produced a non-integer value."""


class PruningBudgetExceeded(RecLabError):
    """Interval pruning exceeded its work budget."""


class VerificationBudgetExceeded(RecLabError):
    """Independent certificate re-verification hit its safety cap."""


class ListingBudgetExceeded(RecLabError):
    """A listing of hits, greedy terms, set differences, generated elements
    or polynomial residues would hold more than ``intsets.HIT_CAP`` members."""


class UnprintableInteger(RecLabError):
    """An integer to print has more decimal digits than the interpreter
    converts to text (``sys.get_int_max_str_digits()``)."""

    def __init__(self):
        limit = sys.get_int_max_str_digits()
        super().__init__(f"an integer to print has more than {limit} digits, the limit of sys.get_int_max_str_digits()")
