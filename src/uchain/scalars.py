"""Exact scalar arithmetic in characteristic 2.

Two scalar domains back the whole engine:

* ``Poly`` -- F2[U].  A polynomial is stored as a nonnegative Python int
  whose bit k is the coefficient of U^k, i.e. a canonically sorted
  exponent set.  Addition is XOR, multiplication is carry-less, equality
  is int equality.
* ``LocalScalar`` -- F2[U] localized at the prime (U): reduced fractions
  whose denominator has constant term 1.  This is a discrete valuation
  ring with uniformizer U; it embeds in F2[[U]] and exact power-series
  prefixes of any element are available via :meth:`LocalScalar.series`.

The shared text syntax for polynomials is ``0``, or the monomials ``1``,
``U``, ``U^k`` (k >= 2) joined by ``+``.  Spaces around ``+`` are
tolerated on input and never produced on output.

Exponents above 2**20, written or formed by a ``Poly`` product (parsing,
validation, the constructions), raise :class:`ExponentOverflow` instead of
silently building enormous integers.  ``LocalScalar`` arithmetic, and with
it the reduction's fractions, is not checked against the limit.
"""

from __future__ import annotations

import math
import re

from .errors import BothZero, ExponentOverflow, NotAUnit, ParseError
from .gf2 import set_bits

__all__ = [
    "EXPONENT_LIMIT",
    "Poly",
    "LocalScalar",
    "poly_gcd",
]

EXPONENT_LIMIT = 1 << 20


def _check_degree(deg: int) -> None:
    if deg > EXPONENT_LIMIT:
        raise ExponentOverflow(f"exponent {deg} exceeds limit {EXPONENT_LIMIT}")


# ---------------------------------------------------------------------------
# bit-level helpers on raw ints (bit k = coefficient of U^k)

def _pmul(a: int, b: int) -> int:
    """Carry-less product of two F2[U] bit masks."""
    if a == 0 or b == 0:
        return 0
    if a.bit_count() > b.bit_count():
        a, b = b, a
    acc = 0
    while a:
        acc ^= b << ((a & -a).bit_length() - 1)
        a &= a - 1
    return acc


def _pdivmod(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = b.bit_length()
    q = 0
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def _pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, _pdivmod(a, b)[1]
    return a


def _val(a: int) -> int:
    """U-adic valuation of a nonzero bit mask."""
    return (a & -a).bit_length() - 1


def _series_inv(d: int, order: int) -> int:
    """Inverse of d (constant term 1) in F2[[U]] modulo U^order, order >= 1."""
    x = 1
    prec = 1
    while prec < order:
        prec = min(2 * prec, order)
        mask = (1 << prec) - 1
        e = (_pmul(d & mask, x) ^ 1) & mask
        x = (x ^ _pmul(x, e)) & mask
    return x


_MONOMIAL = re.compile(r"^(1|U|U\^0*([0-9]+))$")


def _parse_bits(text: str, line: int | None = None) -> int:
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial", line=line)
    if s == "0":
        return 0
    bits = 0
    for part in s.split("+"):
        part = part.strip()
        m = _MONOMIAL.match(part)
        if m is None:
            raise ParseError("bad monomial", line=line, token=part or text)
        if part == "1":
            k = 0
        elif part == "U":
            k = 1
        else:
            # _check_degree's test, made on the digits (leading zeros
            # stripped) so that int() never reads more than 7 of them:
            # 8 are past 2^20, and int() refuses past 4300
            digits = m.group(2)
            if len(digits) > 7 or (k := int(digits)) > EXPONENT_LIMIT:
                raise ExponentOverflow(
                    f"exponent {digits} exceeds limit {EXPONENT_LIMIT}")
            if k < 2:
                raise ParseError("exponent syntax U^k requires k >= 2",
                                 line=line, token=part)
        if bits >> k & 1:
            raise ParseError("repeated exponent", line=line, token=part)
        bits |= 1 << k
    return bits


def _format_bits(bits: int) -> str:
    return "+".join("1" if k == 0 else "U" if k == 1 else f"U^{k}"
                    for k in set_bits(bits)) or "0"


# ---------------------------------------------------------------------------


class Poly:
    """Element of F2[U]; ``bits`` holds the exponent set."""

    __slots__ = ("bits",)

    def __init__(self, bits: int = 0):
        if bits < 0:
            raise ValueError("negative bit mask")
        _check_degree(bits.bit_length() - 1)
        self.bits = bits

    @classmethod
    def u(cls, k: int = 1) -> "Poly":
        if k < 0:
            raise ValueError("negative exponent")
        _check_degree(k)
        return _poly(1 << k)

    @classmethod
    def of(cls, *exponents: int) -> "Poly":
        bits = 0
        for k in exponents:
            _check_degree(k)
            bits ^= 1 << k
        return _poly(bits)

    @classmethod
    def parse(cls, text: str, line: int | None = None) -> "Poly":
        return _poly(_parse_bits(text, line=line))

    # -- ring structure --

    def __add__(self, other: "Poly") -> "Poly":
        return _poly(self.bits ^ other.bits)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "Poly") -> "Poly":
        da, db = self.bits.bit_length() - 1, other.bits.bit_length() - 1
        if da >= 0 and db >= 0:
            _check_degree(da + db)
        return _poly(_pmul(self.bits, other.bits))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        q, r = _pdivmod(self.bits, other.bits)
        return Poly(q), Poly(r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    # -- structure queries --

    def degree(self) -> int:
        """Degree, with degree(0) = -1."""
        return self.bits.bit_length() - 1

    def valuation(self) -> int | float:
        return math.inf if self.bits == 0 else _val(self.bits)

    def derivative(self) -> "Poly":
        # d/dU U^k = k U^(k-1); only odd k survive mod 2, so keep the odd
        # positions and shift down.
        b = self.bits >> 1
        if b == 0:
            return Poly(0)
        width = b.bit_length() + (b.bit_length() & 1)
        even_mask = ((1 << width) - 1) // 3
        return Poly(b & even_mask)

    def exponents(self) -> tuple[int, ...]:
        return tuple(set_bits(self.bits))

    # -- protocol --

    def __bool__(self) -> bool:
        return self.bits != 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(("Poly", self.bits))

    def __str__(self) -> str:
        return _format_bits(self.bits)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _poly(bits: int) -> Poly:
    """A Poly of ``bits`` that are already known valid, such as a sum of
    two polynomials or a product whose degree was checked: no check
    again."""
    p = object.__new__(Poly)
    p.bits = bits
    return p


P0 = Poly(0)
P1 = Poly(1)


class LocalScalar:
    """Reduced fraction num/den in F2[U] with den(0) = 1.

    Instances are canonical: the zero element is 0/1, gcd(num, den) = 1,
    and the denominator is a unit of the localization.  Equality is
    therefore componentwise.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly | int, den: Poly | int = 1):
        n = num.bits if isinstance(num, Poly) else int(num)
        d = den.bits if isinstance(den, Poly) else int(den)
        if d == 0:
            raise ZeroDivisionError("zero denominator")
        if n == 0:
            n, d = 0, 1
        elif d != 1:
            g = _pgcd(n, d)
            if g != 1:
                n = _pdivmod(n, g)[0]
                d = _pdivmod(d, g)[0]
        if d & 1 == 0:
            raise NotAUnit(
                f"{_format_bits(n)}/{_format_bits(d)} has a denominator of "
                "positive valuation; not an element of the localization at (U)")
        self.num = n
        self.den = d

    # -- field-like structure (restricted to the localization) --

    def __add__(self, other: "LocalScalar") -> "LocalScalar":
        if self.den == 1 and other.den == 1:
            return _integral(self.num ^ other.num)
        return LocalScalar(
            _pmul(self.num, other.den) ^ _pmul(other.num, self.den),
            _pmul(self.den, other.den))

    __sub__ = __add__

    def __mul__(self, other: "LocalScalar") -> "LocalScalar":
        if self.den == 1 and other.den == 1:
            return _integral(_pmul(self.num, other.num))
        return LocalScalar(_pmul(self.num, other.num), _pmul(self.den, other.den))

    def __truediv__(self, other: "LocalScalar") -> "LocalScalar":
        if other.num == 0:
            raise NotAUnit("division by zero")
        return LocalScalar(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def inverse(self) -> "LocalScalar":
        if self.num == 0 or self.num & 1 == 0:
            raise NotAUnit(f"{self} has positive valuation or is zero")
        return LocalScalar(self.den, self.num)

    # -- structure queries --

    def valuation(self) -> int | float:
        return math.inf if self.num == 0 else _val(self.num)

    def is_zero(self) -> bool:
        return self.num == 0

    def series(self, order: int) -> int:
        """Bit mask of the power-series expansion modulo U^order."""
        if self.num == 0 or order <= 0:
            return 0
        mask = (1 << order) - 1
        if self.den == 1:
            return self.num & mask
        return _pmul(self.num & mask, _series_inv(self.den, order)) & mask

    # -- protocol --

    def __bool__(self) -> bool:
        return self.num != 0

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, LocalScalar)
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        return hash(("LocalScalar", self.num, self.den))

    def __str__(self) -> str:
        if self.den == 1:
            return _format_bits(self.num)
        return f"({_format_bits(self.num)})/({_format_bits(self.den)})"

    def __repr__(self) -> str:
        return f"LocalScalar({self})"


def _integral(num: int) -> LocalScalar:
    """num/1, canonical as it stands (zero included): the sum or product of
    two elements of denominator 1 needs no gcd and no unit check."""
    x = object.__new__(LocalScalar)
    x.num = num
    x.den = 1
    return x


LS0 = LocalScalar(0)
LS1 = LocalScalar(1)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd (every nonzero element of F2[U] is monic)."""
    if not p and not q:
        raise BothZero("gcd(0, 0) is undefined")
    return Poly(_pgcd(p.bits, q.bits))
