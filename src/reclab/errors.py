"""Shared exception types.

Every error the library raises deliberately derives from RecLabError so the
CLI can map them onto exit codes: a budget that ran out, or an integer too
long to print, exits 4, and any other error 2.
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


class UncertainAtPrecision(ListingBudgetExceeded):
    """A sum of surds from several quadratic fields is not separated by any
    bracket of at most ``intsets.HIT_CAP`` bits, short of the scale that its
    inputs guarantee (``exactreal._int_sum_sign``)."""


class UnprintableInteger(RecLabError):
    """An integer to print has more decimal digits than the interpreter
    converts to text (``sys.get_int_max_str_digits()``)."""

    def __init__(self):
        limit = sys.get_int_max_str_digits()
        super().__init__(f"an integer to print has more than {limit} digits, the limit of sys.get_int_max_str_digits()")
