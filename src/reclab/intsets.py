"""Finite integer sets, windows, gap statistics and the set generators.

Every operation here takes any iterable of integers, where 0 is legitimate.
The generators and difference sets return strictly increasing tuples of
nonzero integers.

A listing is bounded before any element is built: a difference set of more
than HIT_CAP ordered pairs (unless there are more pairs than the span and
the count times the span is at most 64*HIT_CAP: a bitset then lists the
distinct differences), or a generated family of more than HIT_CAP elements or
more than 64*HIT_CAP bits in all, raises ListingBudgetExceeded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import EmptyInput, ListingBudgetExceeded, NoElementsInWindow, NonIntegerPolynomial, TooFewElements

# Most members a listing may hold: set-file differences, a generated family,
# hits of a circle walk or of one coordinate of a torus, greedy terms.
HIT_CAP = 1_000_000


def _check_listing(count: int, bits: int, what: str) -> None:
    """ListingBudgetExceeded when a listing of count integers of bits bits in
    all would pass HIT_CAP members or 64*HIT_CAP bits; bits is 0 where only
    the count is capped."""
    if count > HIT_CAP:
        raise ListingBudgetExceeded(f"{what} of {count} elements exceeds the listing cap {HIT_CAP}")
    if bits > 64 * HIT_CAP:
        raise ListingBudgetExceeded(f"{what} of {bits} bits exceeds the listing cap {64 * HIT_CAP} bits")


@dataclass(frozen=True)
class Window:
    """Inclusive integer window [lo, hi].  lo > hi denotes the empty window."""

    lo: int
    hi: int

    def __contains__(self, n: int) -> bool:
        return self.lo <= n <= self.hi


ZSetLike = Iterable[int]


def as_int_list(s: ZSetLike) -> list[int]:
    """Sorted deduplicated list of ints; zero is preserved."""
    return sorted({int(e) for e in s})


# ---------------------------------------------------------------------------
# combinatorial statistics
# ---------------------------------------------------------------------------


def difference_set(s: ZSetLike, window: Window | None = None) -> tuple[int, ...]:
    """All pairwise differences a - b (a != b), zero excluded from the output.

    The input may contain 0; pass a window to restrict the listing first.
    """
    elems = as_int_list(s)
    if window is not None:
        elems = [e for e in elems if e in window]
    if not elems:
        raise EmptyInput("difference set of an empty listing")
    lo, span = elems[0], elems[-1] - elems[0]
    pairs = len(elems) * (len(elems) - 1)
    if pairs > span and len(elems) * span <= 64 * HIT_CAP:
        # more ordered pairs than the span repeat differences: list the
        # distinct ones from a bitset of the elements, one shift per element,
        # so that bit i of ahead is set when some a - b = i >= 0
        mask = ahead = 0
        for e in elems:
            mask |= 1 << (e - lo)
        for e in elems:
            ahead |= mask >> (e - lo)
        digits = bin(ahead)[:1:-1]  # digits[i] is bit i
        positive = [i for i in range(1, len(digits)) if digits[i] == "1"]
        return tuple(-d for d in reversed(positive)) + tuple(positive)
    _check_listing(pairs, 0, "difference set")
    return tuple(sorted({a - b for a in elems for b in elems if a != b}))


@dataclass(frozen=True)
class GapProfile:
    max_gap: int
    gaps: tuple[int, ...]


def syndetic_gap(s: ZSetLike, window: Window, side: str = "two") -> GapProfile:
    """Consecutive-difference profile of s inside the window.

    side="two" uses the window as given; side="one" first intersects it with
    the positive half-line.  A single surviving element yields gaps=() and
    max_gap=0 (degenerate but explicit).
    """
    if side not in ("two", "one"):
        raise ValueError("side must be 'two' or 'one'")
    lo = max(window.lo, 1) if side == "one" else window.lo
    elems = [e for e in as_int_list(s) if lo <= e <= window.hi]
    if not elems:
        raise NoElementsInWindow(f"no elements in [{lo}, {window.hi}]")
    gaps = tuple(b - a for a, b in zip(elems, elems[1:]))
    return GapProfile(max_gap=max(gaps, default=0), gaps=gaps)


def is_thick_window(s: ZSetLike, run_length: int, window: Window) -> bool:
    """Does s contain run_length consecutive integers inside the window?"""
    if run_length < 1:
        raise ValueError("run_length must be >= 1")
    elems = [e for e in as_int_list(s) if e in window]
    run = 0
    prev = None
    for e in elems:
        run = run + 1 if prev is not None and e == prev + 1 else 1
        if run >= run_length:
            return True
        prev = e
    return False


def lacunarity_ratios(s: ZSetLike) -> tuple[Fraction, bool]:
    """Minimum consecutive ratio of the positive part, as an exact rational.

    Returns (min_ratio, min_ratio > 1).
    """
    pos = [e for e in as_int_list(s) if e > 0]
    if len(pos) < 2:
        raise TooFewElements("need at least two positive elements")
    ratio = min(Fraction(b, a) for a, b in zip(pos, pos[1:]))
    return ratio, ratio > 1


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def gen_k_times_nr(k: int, r: int) -> tuple[int, ...]:
    """{k, 2k, ..., rk}."""
    if k < 1 or r < 1:
        raise ValueError("k and r must be >= 1")
    _check_listing(r, r * (k * r).bit_length(), "kxnr family")
    return tuple(k * i for i in range(1, r + 1))


def gen_l_r(r: int, k_max: int) -> tuple[int, ...]:
    """Layered geometric family: n*(r+2)**k for 1 <= n <= r, 0 <= k <= k_max."""
    if r < 1 or k_max < 0:
        raise ValueError("need r >= 1 and k_max >= 0")
    # n*(r+2)**k has at most bl(r) + k*bl(r+2) bits
    layers = k_max + 1
    bits = r * (layers * r.bit_length() + (r + 2).bit_length() * k_max * layers // 2)
    _check_listing(r * layers, bits, "layered family")
    out = []
    base = 1
    for _ in range(k_max + 1):
        out.extend(n * base for n in range(1, r + 1))
        base *= r + 2
    return tuple(out)


def l_r_layer(r: int, k: int) -> tuple[int, ...]:
    """Single layer (r+2)**k * {1..r} of the family above."""
    base = (r + 2) ** k
    return tuple(n * base for n in range(1, r + 1))


def gen_polynomial(coeffs: Sequence[Union[int, Fraction]], n_max: int) -> tuple[int, ...]:
    """{p(n) : 1 <= n <= n_max} minus {0}, p given by ascending coefficients.

    Values are computed in exact rational arithmetic and must all be
    integers (integer-valued polynomials like n(n+1)/2 are fine).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if not coeffs:
        raise EmptyInput("no coefficients")
    # |p(n)| <= sum|c_i| * n_max**deg for 1 <= n <= n_max
    size = sum(abs(Fraction(c)) for c in coeffs)
    bits = n_max * (int(size).bit_length() + 1 + (len(coeffs) - 1) * n_max.bit_length())
    _check_listing(n_max, bits, "polynomial family")
    return tuple(sorted({poly_eval_int(coeffs, n) for n in range(1, n_max + 1)} - {0}))


def poly_eval_int(coeffs: Sequence[Union[int, Fraction]], n: int) -> int:
    """Exact evaluation of the same polynomials at a single point, by Horner's
    rule in ints until a Fraction coefficient makes it rational."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    if acc.denominator != 1:
        raise NonIntegerPolynomial(f"p({n}) = {acc} is not an integer")
    return int(acc)


# ---------------------------------------------------------------------------
# set files: JSON array or newline-separated integers, auto-detected
# ---------------------------------------------------------------------------


def parse_set_text(text: str) -> list[int]:
    stripped = text.strip()
    if not stripped:
        raise EmptyInput("empty set file")
    if stripped.startswith("["):
        try:
            data = json.loads(stripped)
        except RecursionError:
            data = None  # nested past the interpreter's limit: no array of integers
        if not isinstance(data, list) or not all(isinstance(v, int) for v in data):
            raise ValueError("JSON set file must be an array of integers")
        return [int(v) for v in data]
    out = []
    for line in stripped.splitlines():
        line = line.strip()
        if line:
            out.append(int(line))
    return out


def load_set_file(path: str) -> list[int]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_set_text(fh.read())
