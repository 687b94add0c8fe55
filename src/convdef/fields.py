"""Exact base fields: the rationals and prime fields F_p.

Rational scalars are `fractions.Fraction` values (always in lowest terms
with positive denominator); prime-field scalars are plain ints reduced to
the range [0, p).  Every container carries a field object and all mixed
operations go through `require_same_field`.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ConvDefError, FieldMismatch

# Python refuses int() literals and str() of ints with more than 4300 digits;
# a decimal exponent is held to the same ceiling, so 10**e is never expanded
# past that size, and a rational is printed only within it.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*\Z")


def _digit_count(n: int) -> int:
    """Decimal digits of n > 0, without str() (which refuses past 4300 digits)."""
    d = int(n.bit_length() * 0.30103)
    while d > 0 and 10**d > n:
        d -= 1
    while 10 ** (d + 1) <= n:
        d += 1
    return d + 1


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class RationalField:
    """The field of rational numbers with exact Fraction arithmetic."""

    char = 0
    name = "Q"

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return self.parse(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def normalize(self, x) -> Fraction:
        return x if isinstance(x, Fraction) else Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a) -> Fraction:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in Q")
        return 1 / self.normalize(a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0

    def parse(self, s: str) -> Fraction:
        exp = _EXPONENT.search(s)
        if exp:
            digits = exp.group(1).replace("_", "").lstrip("+-").lstrip("0")
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
                raise ValueError(
                    f"exponent {exp.group(1)} of rational literal exceeds {MAX_EXPONENT} in absolute value"
                )
        try:
            return Fraction(s.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational literal {s!r}") from exc

    def fmt(self, a) -> str:
        a = self.normalize(a)
        for part in (abs(a.numerator), a.denominator):
            # a digit holds over 3 bits, so only a part this long can pass the limit
            if part.bit_length() > 3 * MAX_EXPONENT and _digit_count(part) > MAX_EXPONENT:
                raise ConvDefError(
                    f"rational scalar with a {_digit_count(part)}-digit numerator or denominator"
                    f" exceeds the {MAX_EXPONENT}-digit printing limit"
                )
        return str(a)

    def random_element(self, rng, nonzero: bool = False) -> Fraction:
        # Small numerators/denominators keep downstream arithmetic cheap.
        while True:
            v = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 1, 2)))
            if v != 0 or not nonzero:
                return v

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("field:Q")

    def __repr__(self) -> str:
        return "QQ"


class PrimeField:
    """The prime field F_p, elements stored as ints in [0, p)."""

    def __init__(self, p: int):
        if isinstance(p, int) and p >= 2**31:
            raise ValueError(f"{p} too large (must be a prime < 2^31)")
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.name = f"Fp {p}"
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x) -> int:
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, str):
            return self.parse(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        raise TypeError(f"cannot coerce {x!r} into F_{self.p}")

    def normalize(self, x: int) -> int:
        return x % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def parse(self, s: str) -> int:
        s = s.strip()
        if "/" in s:
            num, den = s.split("/", 1)
            return self.div(int(num), int(den))
        try:
            return int(s) % self.p
        except ValueError as exc:
            raise ValueError(f"bad F_{self.p} literal {s!r}") from exc

    def fmt(self, a) -> str:
        return str(a % self.p)

    def random_element(self, rng, nonzero: bool = False) -> int:
        lo = 1 if nonzero else 0
        return rng.randint(lo, self.p - 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("field:Fp", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


QQ = RationalField()

Field = RationalField | PrimeField


def field_by_name(name: str) -> Field:
    """Parse a field tag: "Q" or "Fp <prime>" (also accepts "F<prime>")."""
    s = name.strip()
    if s == "Q":
        return QQ
    if s.startswith("Fp"):
        return PrimeField(int(s[2:].strip()))
    if s.startswith("F"):
        return PrimeField(int(s[1:].strip()))
    raise ValueError(f"unknown field {name!r}")


def require_same_field(a: Field, b: Field) -> Field:
    if a != b:
        raise FieldMismatch(f"mixed fields {a!r} and {b!r}")
    return a
