"""Exact 2x2 rational matrices and the solvable Baumslag-Solitar check.

The group with presentation ``b a b^-1 = a^m`` embeds faithfully as
``a -> [[1,1],[0,1]]``, ``b -> [[m,0],[0,1]]``.  With ``b`` standing for
``t a t^-1`` this turns the commutator-power relation

    [t a^n t^-1, a^n]  =  a^(n((n+1)^n - 1))     (m = n + 1)

into a matrix identity that can be checked with arbitrary-precision
rationals, which is what :func:`verify_qn_identity` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, UnsupportedError

# Largest n that ``qn_report`` accepts.  The exponent n((n+1)^n - 1) has about
# n*log10(n+1) digits: 3,004 at n = 1000, where the check takes about half a
# second, and past Python's 4,300-digit limit on int-to-text conversion from
# about n = 1400.
MAX_QN = 1000


@dataclass(frozen=True)
class ExactMatrix2:
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    @classmethod
    def of(cls, a, b, c, d):
        return cls(Fraction(a), Fraction(b), Fraction(c), Fraction(d))

    @classmethod
    def identity(cls):
        return cls.of(1, 0, 0, 1)

    def det(self):
        return self.a * self.d - self.b * self.c

    def __mul__(self, other):
        return ExactMatrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d)

    def inverse(self):
        det = self.det()
        if det == 0:
            raise InputError("matrix is singular")
        return ExactMatrix2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = ExactMatrix2.identity()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def rows(self):
        return [[self.a, self.b], [self.c, self.d]]

    def render(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


def commutator(x: ExactMatrix2, y: ExactMatrix2) -> ExactMatrix2:
    return x * y * x.inverse() * y.inverse()


def bs_representation(m: int) -> tuple[ExactMatrix2, ExactMatrix2]:
    """The classical faithful pair for ``b a b^-1 = a^m``, verified exactly."""
    if m < 2:
        raise InputError("the representation needs m >= 2")
    a = ExactMatrix2.of(1, 1, 0, 1)
    b = ExactMatrix2.of(m, 0, 0, 1)
    if b * a * b.inverse() != a ** m:
        raise InputError("representation failed its defining relation")
    return a, b


def verify_qn_identity(n: int) -> bool:
    """Check ``[B^n, A^n] == A^(n((n+1)^n - 1))`` in exact matrices."""
    if n < 1:
        raise InputError("n must be a positive integer")
    a, b = bs_representation(n + 1)
    lhs = commutator(b ** n, a ** n)
    exponent = n * ((n + 1) ** n - 1)
    return lhs == a ** exponent


def qn_report(n: int) -> dict:
    """Structured summary of the two-generator example with torsion.

    The relator ``[t*a*t^-1, a] * a^-n`` says exactly that ``b = t*a*t^-1``
    conjugates ``a`` to ``a^(n+1)``; inside the subgroup generated by ``a``
    and ``b`` the commutator-power identity then follows and is verified
    here by exact matrix arithmetic.
    """
    if n < 1:
        raise InputError("n must be a positive integer")
    if n > MAX_QN:
        raise UnsupportedError(f"n = {n} is above the supported maximum {MAX_QN}")
    exponent = n * ((n + 1) ** n - 1)
    verdict = verify_qn_identity(n)
    return {
        "n": n,
        "relator": f"[t*a*t^-1, a]*a^-{n}",
        "rearranged": f"b*a*b^-1 = a^{n + 1} with b = t*a*t^-1",
        "identity": f"[b^{n}, a^{n}] = a^{exponent}",
        "exponent": exponent,
        "verdict": verdict,
    }
