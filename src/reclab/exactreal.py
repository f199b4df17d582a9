"""Exact real arithmetic for circle computations.

A ``Real`` is one of two exact kinds:

* ``fractions.Fraction`` -- exact rational;
* ``Surd`` -- exact quadratic irrational ``(a + b*sqrt(d))/c`` held as four
  integers, normalised so that b != 0, c > 0, gcd(a, b, c) == 1 and d >= 2 is
  square-free; its rational and surd parts ``p = a/c`` and ``q = b/c`` are
  read-only ``Fraction`` views.

Arithmetic, order and rounding of surds run in integers: the sign of
``a + b*sqrt(d)`` compares a*a with b*b*d, and ``floor`` is one
``math.isqrt(b*b*d)`` followed by an integer division, with no bracket to
refine.  Each function computes in one quadratic field at a time.  Sums,
differences and products are the exact kinds' own operators; a comparison
of rationals is one cross-multiplication, and their floor, fractional part
and circle norm are integer divisions.  ``_int_sum_sign`` signs a sum of
surds from several fields in integers; ``bohr`` signs its squared torus
norms with it.

The exact kinds are the only inputs and the only results: ints, Fractions
and Surds; only ``parse_real`` takes a string.  A float or a string is
refused with TypeError, and so is a sum, product or comparison across two
quadratic fields
(``real_add``, ``real_sub``, ``real_mul``, ``real_cmp``).  ``Approx``, a
rational midpoint with an error bound, is a display type only:
``bohr.torus_norm`` builds one for a torus norm whose square is irrational,
and ``real_to_json``, ``real_to_float`` and ``float()`` read it.  Every other
function here raises TypeError on one, and so does ``TorusPoint``.

Radicands are reduced to square-free form by trial division up to a cube
root, so they are capped at ``MAX_RADICAND_BITS``: a larger one raises
:class:`RadicandTooLarge` in ``Surd.make`` (and so in ``parse_real``), and
in ``real_sqrt`` of a non-square rational whose numerator or denominator is
larger, before any factoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Sequence, Union

from .errors import RadicandTooLarge, UncertainAtPrecision, UnprintableInteger
from . import intsets

# Largest radicand (bits) reduced to square-free form.  _squarefree_split
# trial-divides up to a cube root: about 0.1 s for a prime just below 2**56,
# 0.5 s at 2**64, growing by 2**(1/3) per bit.
MAX_RADICAND_BITS = 56

_ZERO = Fraction(0)


def _squarefree_split(d: int) -> tuple[int, int]:
    """Return (s, core) with d == s*s*core and core square-free, for d >= 1."""
    s, core, f = 1, 1, 2
    # take out every prime f with f**3 <= the cofactor left
    while f * f * f <= d:
        if d % f == 0:
            e = 0
            while d % f == 0:
                d //= f
                e += 1
            s *= f ** (e // 2)
            if e % 2:
                core *= f
        f += 1
    # every prime factor of d is now above its cube root, so d is 1, p, p*p
    # or p*q: square-free unless it is a perfect square
    r = isqrt(d)
    if r * r == d:
        return s * r, core
    return s, core * d


def _sign2(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for a non-square d >= 2."""
    if a >= 0 and b >= 0:
        return 1 if a or b else 0
    if a <= 0 and b <= 0:
        return -1
    # opposite signs: compare a^2 against b^2 d, never equal (irrational)
    if a > 0:
        return 1 if a * a > b * b * d else -1
    return 1 if b * b * d > a * a else -1


def _floor_surd(a: int, b: int, c: int, d: int) -> int:
    """floor((a + b*sqrt(d))/c) for c > 0 and a non-square d (any d when b == 0)."""
    # b*b*d is no square, so floor(b*sqrt(d)) is isqrt for b > 0 and
    # -(isqrt + 1) for b < 0; floor(y/c) == floor(y) // c for an integer c > 0
    r = isqrt(b * b * d)
    return (a + (r if b >= 0 else -r - 1)) // c


def _floor_ratio(a1: int, b1: int, a2: int, b2: int, d: int) -> int:
    """floor((a1 + b1*sqrt(d))/(a2 + b2*sqrt(d))) for a nonzero divisor and a
    non-square d: multiplied out by the divisor's conjugate, the quotient is
    ((a1*a2 - b1*b2*d) + (b1*a2 - a1*b2)*sqrt(d))/(a2*a2 - b2*b2*d), floored
    by one _floor_surd."""
    p, q, r = a1 * a2 - b1 * b2 * d, b1 * a2 - a1 * b2, a2 * a2 - b2 * b2 * d
    if r < 0:
        p, q, r = -p, -q, -r
    return _floor_surd(p, q, r, d)


def _new(a: int, b: int, c: int, d: int) -> "Surd":
    """Surd from fields that are already normalised."""
    out = object.__new__(Surd)
    out.a, out.b, out.c, out.d = a, b, c, d
    return out


def _norm(a: int, b: int, c: int, d: int) -> "Real":
    """(a + b*sqrt(d))/c for square-free d >= 2, normalised; a Fraction when
    b == 0.  Raises ZeroDivisionError when c == 0."""
    if b == 0:
        return Fraction(a, c)
    g = gcd(a, b, c)
    if c <= 0:
        if c == 0:
            raise ZeroDivisionError("surd denominator is zero")
        g = -g
    if g != 1:
        a, b, c = a // g, b // g, c // g
    return _new(a, b, c, d)


class Surd:
    """Exact quadratic irrational (a + b*sqrt(d))/c in integers.

    Normalised: b != 0, c > 0, gcd(a, b, c) == 1 and d >= 2 square-free, so
    equal values have equal fields.  The one constructor is
    ``Surd.make(p, q, d)``, meaning p + q*sqrt(d) for rationals p, q.
    """

    __slots__ = ("a", "b", "c", "d")

    @staticmethod
    def make(p, q, d: int) -> "Real":
        """p + q*sqrt(d) for rationals p, q; folds rational results into Fraction."""
        p, q = Fraction(p), Fraction(q)
        if q == 0 or d == 0:
            return p
        if d < 0:
            raise ValueError("surd radicand must be nonnegative")
        if d.bit_length() > MAX_RADICAND_BITS:
            raise RadicandTooLarge(
                f"surd radicand has {d.bit_length()} bits; the limit is "
                f"{MAX_RADICAND_BITS} bits"
            )
        s, core = _squarefree_split(d)
        if core == 1:
            return p + q * s
        pd, qd = p.denominator, q.denominator
        c = lcm(pd, qd)
        return _norm(p.numerator * (c // pd), q.numerator * s * (c // qd), c, core)

    @property
    def p(self) -> Fraction:
        """Rational part a/c."""
        return Fraction(self.a, self.c)

    @property
    def q(self) -> Fraction:
        """Coefficient b/c of sqrt(d)."""
        return Fraction(self.b, self.c)

    # -- arithmetic within the field (and with rationals) --------------

    # Surd is tested before Fraction in the methods below: isinstance
    # against Fraction goes through the numbers ABCs for any other type

    def _plus(self, other, sign: int):
        """self + sign*other for sign in (1, -1), or NotImplemented."""
        a, b, c, d = self.a, self.b, self.c, self.d
        if isinstance(other, Surd) and other.d == d:
            oc = other.c
            return _norm(a * oc + sign * other.a * c, b * oc + sign * other.b * c, c * oc, d)
        if isinstance(other, int):
            return _new(a + sign * other * c, b, c, d)
        if isinstance(other, Fraction):
            m = other.denominator
            return _norm(a * m + sign * other.numerator * c, b * m, c * m, d)
        return NotImplemented

    def __neg__(self):
        return _new(-self.a, -self.b, self.c, self.d)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self)._plus(other, 1)

    def __mul__(self, other):
        a, b, c, d = self.a, self.b, self.c, self.d
        if isinstance(other, Surd) and other.d == d:
            oa, ob = other.a, other.b
            return _norm(a * oa + b * ob * d, a * ob + b * oa, c * other.c, d)
        if isinstance(other, int):
            if other == 0:
                return _ZERO
            # gcd(a, b, c) == 1, so only the factor shared by n and c cancels
            g = gcd(other, c)
            n = other // g
            return _new(a * n, b * n, c // g, d)
        if isinstance(other, Fraction):
            n = other.numerator
            if n == 0:
                return _ZERO
            return _norm(a * n, b * n, c * other.denominator, d)
        return NotImplemented

    __rmul__ = __mul__

    # -- exact order ----------------------------------------------------

    def sign(self) -> int:
        return _sign2(self.a, self.b, self.d)

    def _cmp_exact(self, other) -> int:
        a, b, c, d = self.a, self.b, self.c, self.d
        if isinstance(other, Surd) and other.d == d:
            oc = other.c
            return _sign2(a * oc - other.a * c, b * oc - other.b * c, d)
        if isinstance(other, int):
            return _sign2(a - other * c, b, d)
        if isinstance(other, Fraction):
            m = other.denominator
            return _sign2(a * m - other.numerator * c, b * m, d)
        raise TypeError(f"a surd in sqrt({d}) compares only with rationals and surds of that field, not {other!r}")

    def __lt__(self, other):
        return self._cmp_exact(other) < 0

    def __le__(self, other):
        return self._cmp_exact(other) <= 0

    def __gt__(self, other):
        return self._cmp_exact(other) > 0

    def __ge__(self, other):
        return self._cmp_exact(other) >= 0

    def __eq__(self, other):
        if isinstance(other, Surd):
            return (
                self.a == other.a and self.b == other.b
                and self.c == other.c and self.d == other.d
            )
        if isinstance(other, (int, Fraction)):
            return False  # irrational
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    # -- rounding / conversion -------------------------------------------

    def floor(self) -> int:
        return _floor_surd(self.a, self.b, self.c, self.d)

    def __float__(self):
        # x lies strictly between the quotients at n and n + 1, n = floor(
        # sqrt(d)*2**k), read from the conjugate (a*a - b*b*d)/(c*(a - b*sqrt(d)))
        # where a + b*sqrt(d) cancels: 2**-k of |x| apart at any coefficient
        # size.  int / int rounds correctly and an irrational x is no tie, so
        # k doubles until both ends round to one float
        a, b, c, d = self.a, self.b, self.c, self.d
        k = 64
        while True:
            n = isqrt(d << 2 * k)
            if a * b < 0:
                num, den = (a * a - b * b * d) << k, c * ((a << k) - b * n)
                lo, hi = num / den, num / (den - c * b)
            else:
                num, den = (a << k) + b * n, c << k
                lo, hi = num / den, (num + b) / den
            if lo == hi:
                return lo
            k *= 2

    def __abs__(self):
        return self if self.sign() > 0 else -self

    def __repr__(self):
        return f"Surd({self.p} + {self.q}*sqrt({self.d}))"


@dataclass(frozen=True)
class Approx:
    """Rational midpoint with an absolute error bound: a displayed value
    only, never an input to arithmetic."""

    value: Fraction
    err: Fraction

    def __post_init__(self):
        if self.err < 0:
            raise ValueError("error bound must be nonnegative")

    def __float__(self):
        return float(self.value)


Real = Union[Fraction, Surd]


# The rational kind below: ints and Fractions, read through .numerator and
# .denominator.  Functions test Surd before it, because isinstance against
# Fraction goes through the numbers ABCs for any other type.
_RATIONAL = (int, Fraction)


def as_real(x) -> Real:
    """Coerce ints, Fractions and surds to Real.  A float or an Approx is
    refused, neither being exact, and so is a string: parse_real reads one."""
    if isinstance(x, (Surd, Fraction)):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact real; pass an int, Fraction or Surd")


def parse_real(text: str) -> Real:
    """Parse 'p/q', 'sqrt:d:a:b:c' meaning (a + b*sqrt(d))/c, or a decimal.
    A zero denominator is a ValueError."""
    text = text.strip()
    if text.startswith("sqrt:"):
        parts = text.split(":")
        if len(parts) != 5:
            raise ValueError("surd format is sqrt:d:a:b:c for (a + b*sqrt(d))/c")
        d, a, b, c = (int(p) for p in parts[1:])
        if c == 0:
            raise ValueError("surd denominator c must be nonzero")
        return Surd.make(Fraction(a, c), Fraction(b, c), d)
    try:
        return Fraction(text)  # handles 'p/q', '3', '0.618' exactly
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


# ---------------------------------------------------------------------------
# arithmetic, rounding and order
# ---------------------------------------------------------------------------


def real_add(x: Real, y: Real) -> Real:
    return as_real(x) + as_real(y)


def real_sub(x: Real, y: Real) -> Real:
    return as_real(x) - as_real(y)


def real_mul(x: Real, y: Real) -> Real:
    return as_real(x) * as_real(y)


def real_mul_int(x: Real, n: int) -> Real:
    return as_real(x) * n


def real_abs(x: Real) -> Real:
    return abs(as_real(x))


def real_floor(x: Real) -> int:
    if isinstance(x, Surd):
        return x.floor()
    if isinstance(x, _RATIONAL):
        return x.numerator // x.denominator
    return real_floor(as_real(x))


def real_frac(x: Real) -> Real:
    if isinstance(x, Surd):
        # x - floor(x) keeps gcd(a, b, c) == 1
        return _new(x.a - x.floor() * x.c, x.b, x.c, x.d)
    if isinstance(x, _RATIONAL):
        d = x.denominator
        return Fraction(x.numerator % d, d)
    return real_frac(as_real(x))


def torus_norm1(x) -> Real:
    """Distance from x to the nearest integer; same kind as the input."""
    if isinstance(x, Surd):
        a, b, c, d = x.a, x.b, x.c, x.d
        # nearest integer floor(x + 1/2) = floor((2a + c + 2b sqrt d) / 2c)
        a -= _floor_surd(2 * a + c, 2 * b, 2 * c, d) * c
        return _new(a, b, c, d) if _sign2(a, b, d) > 0 else _new(-a, -b, c, d)
    if isinstance(x, _RATIONAL):
        n, d = x.numerator, x.denominator
        return Fraction(abs(n - (2 * n + d) // (2 * d) * d), d)
    return torus_norm1(as_real(x))


def real_cmp(x, y) -> int:
    """Three-way compare of exact reals of at most one quadratic field."""
    if isinstance(x, Surd):
        return x._cmp_exact(y)
    if isinstance(x, _RATIONAL):
        if isinstance(y, Surd):
            return -y._cmp_exact(x)
        if isinstance(y, _RATIONAL):
            s = x.numerator * y.denominator - y.numerator * x.denominator
            return (s > 0) - (s < 0)
    return real_cmp(as_real(x), as_real(y))


def _sum_bracket(surds: Sequence[tuple[int, int]], k: int) -> int:
    """lo with lo < 2**k * sum(b*sqrt(d) for b, d in surds) < lo + len(surds),
    for nonzero ints b and non-square d: b*sqrt(d)*2**k lies strictly
    between r and r + 1 (b > 0) or -r - 1 and -r (b < 0) for
    r = isqrt(b*b*d*4**k), being irrational."""
    lo = 0
    for b, d in surds:
        r = isqrt(b * b * d << 2 * k)
        lo += r if b > 0 else -r - 1
    return lo


def _int_sum_sign(n0: int, surds: Sequence[tuple[int, int]]) -> int:
    """Sign of n0 + sum(b*sqrt(d) for b, d in surds), for nonzero ints b and
    distinct square-free d >= 2.

    No field is the sign of n0 and one field one ``_sign2``.  Square roots
    of distinct square-free integers are linearly independent over Q, so
    with f >= 2 fields the sum x is never 0.  Nor can it be much closer to
    0: the product of the 2**f sums with every sign of each sqrt(d) is a
    nonzero integer, and each of the other 2**f - 1 factors is at most
    B = |n0| + sum(|b|*sqrt(d)), so |x| >= B**-(2**f - 1).  A bracket of x
    at scale 2**L with L = (2**f - 1)*bits(B) + bits(f) therefore separates
    it.  x is bracketed at scale 2**k (_sum_bracket), first at k = 64, then
    doubling k up to L, read from bit lengths: bits(B) is that of
    |n0| + sum(|b|*2**ceil(bits(d)/2)), above B.  A k past HIT_CAP raises
    UncertainAtPrecision, a listing budget, before its bracket is built.
    No Fraction is built.
    """
    if not surds:
        return (n0 > 0) - (n0 < 0)
    if len(surds) == 1:
        (b, d), = surds
        return _sign2(n0, b, d)
    k, limit = 64, None
    while True:
        lo = (n0 << k) + _sum_bracket(surds, k)
        if lo >= 0:
            return 1
        if lo + len(surds) <= 0:
            return -1
        if limit is None:
            top = abs(n0) + sum(abs(b) << (d.bit_length() + 1) // 2 for b, d in surds)
            limit = ((1 << len(surds)) - 1) * top.bit_length() + len(surds).bit_length()
        assert k < limit, "a bracket at the norm bound separates"
        k = min(2 * k, limit)
        if k > intsets.HIT_CAP:
            raise UncertainAtPrecision(
                f"cross-field sum needs up to {limit} bracket bits to separate, past the cap {intsets.HIT_CAP} bits"
            )


def real_sqrt(x: Real) -> Real:
    """Square root of a rational: a Fraction for the square of a rational,
    else a Surd when its numerator and denominator fit MAX_RADICAND_BITS.
    Past that it raises RadicandTooLarge, before any factoring."""
    x = as_real(x)
    if not isinstance(x, Fraction):
        raise TypeError(f"real_sqrt takes a rational, not {x!r}")
    if x < 0:
        raise ValueError("sqrt of negative value")
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    if max(num, den).bit_length() > MAX_RADICAND_BITS:
        raise RadicandTooLarge(
            f"sqrt of a rational with {max(num, den).bit_length()} bits; the limit is "
            f"{MAX_RADICAND_BITS} bits"
        )
    # sqrt(num/den) = sqrt(num*den)/den, and num, den are coprime, so the
    # square-free core of num*den is the product of their cores
    sn, cn = _squarefree_split(num)
    sd, cd = _squarefree_split(den)
    return _norm(0, sn * sd, den, cn * cd)


def real_to_float(x) -> float:
    """A float view of an exact real or a displayed Approx."""
    return float(x if isinstance(x, Approx) else as_real(x))


def real_to_json(x) -> dict:
    """Serializable description of an exact real or a displayed Approx:
    float view plus exactness metadata.  Raises UnprintableInteger when an
    exact part has more digits than the interpreter converts to text."""
    if isinstance(x, Approx):
        return {"float": float(x), "kind": "approx", "max_error": float(x.err)}
    x = as_real(x)
    try:
        if isinstance(x, Fraction):
            kind, exact = "rational", f"{x.numerator}/{x.denominator}"
        else:
            kind, exact = "surd", f"({x.p}) + ({x.q})*sqrt({x.d})"
    except ValueError:  # an int past sys.get_int_max_str_digits()
        raise UnprintableInteger() from None
    return {"float": float(x), "kind": kind, "exact": exact}


# ---------------------------------------------------------------------------
# points on the circle / torus
# ---------------------------------------------------------------------------


class TorusPoint:
    """A coordinate on the unit circle, stored reduced into [0, 1)."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = real_frac(value)  # TypeError on a float or an Approx

    def multiple(self, n: int) -> Real:
        return real_mul_int(self.value, n)

    def __eq__(self, other):
        return isinstance(other, TorusPoint) and self.value == other.value

    def __hash__(self):
        return hash(("TorusPoint", self.value))

    def __float__(self):
        return float(self.value)

    def __repr__(self):
        return f"TorusPoint({self.value!r})"


def golden_rotation() -> TorusPoint:
    """(sqrt(5) - 1) / 2, the canonical badly-approximable rotation number."""
    return TorusPoint(Surd.make(Fraction(-1, 2), Fraction(1, 2), 5))


def sqrt2_rotation() -> TorusPoint:
    """sqrt(2) - 1."""
    return TorusPoint(Surd.make(Fraction(-1), Fraction(1), 2))
