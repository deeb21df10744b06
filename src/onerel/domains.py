"""Exact coefficient domains: integers, rationals and prime fields.

A coefficient is a plain Python value in its domain's normal form: an
``int`` over Z, a ``fractions.Fraction`` over Q and an ``int`` in
``0..p-1`` over F_p.  Callers combine normal-form values with Python's
operators and pass each result through :meth:`Domain.coerce`, the one place
that knows the modulus p; a normal-form value is zero exactly when it is
falsy.  ``zero`` and ``one`` are normal-form constants, and ``is_unit`` and
``inv`` serve the divisions.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError


class Domain:
    name = "?"
    is_field = False
    zero = 0
    one = 1

    def coerce(self, value):
        raise NotImplementedError

    def is_unit(self, x):
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, Domain) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return self.name


class IntegerDomain(Domain):
    name = "Z"

    def coerce(self, value):
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise InputError(f"{value} is not an integer")
            return value.numerator
        return int(value)

    def is_unit(self, x):
        return x in (1, -1)

    def inv(self, x):
        if not self.is_unit(x):
            raise InputError(f"{x} is not a unit in Z")
        return x


class RationalDomain(Domain):
    name = "Q"
    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        return value if isinstance(value, Fraction) else Fraction(value)

    def is_unit(self, x):
        return x != 0

    def inv(self, x):
        if x == 0:
            raise InputError("0 is not a unit")
        return Fraction(1) / x


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeFieldDomain(Domain):
    is_field = True

    def __init__(self, p):
        if not _is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"

    def coerce(self, value):
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if not den:
                raise InputError(f"{value} has no value in {self.name}: "
                                 f"{self.p} divides its denominator")
            return value.numerator * pow(den, self.p - 2, self.p) % self.p
        return int(value) % self.p

    def is_unit(self, x):
        return x % self.p != 0

    def inv(self, x):
        x %= self.p
        if x == 0:
            raise InputError("0 is not a unit")
        return pow(x, self.p - 2, self.p)


ZZ = IntegerDomain()
QQ = RationalDomain()


def parse_domain(spec):
    """Parse a domain name: ``Z``, ``Q`` or a prime ``p`` for F_p."""
    s = str(spec).strip()
    if s in ("Z", "ZZ", "int"):
        return ZZ
    if s in ("Q", "QQ", "rational"):
        return QQ
    if s.startswith("F"):
        s = s[1:]
    try:
        return PrimeFieldDomain(int(s))
    except ValueError as exc:
        raise InputError(f"unknown coefficient domain {spec!r}") from exc
