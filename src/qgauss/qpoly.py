"""Exact polynomials in the deformation parameter q with rational coefficients.

A QPoly is a tuple of Fractions indexed by the power of q, stored in
canonical form (trailing zeros stripped).  All arithmetic is exact; numeric
evaluation at a rational point is a separate, final step.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class QPoly:
    """Polynomial in q over the rationals, immutable and hashable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(c) -> "QPoly":
        return QPoly([_as_fraction(c)])

    @staticmethod
    def monomial(k: int, c: Scalar = 1) -> "QPoly":
        """c * q**k."""
        if k < 0:
            raise ValueError("negative power")
        return QPoly([0] * k + [c])

    @staticmethod
    def zero() -> "QPoly":
        """The zero polynomial, one shared instance."""
        return _ZERO

    @staticmethod
    def one() -> "QPoly":
        return QPoly([1])

    @staticmethod
    def from_powers(powers: dict) -> "QPoly":
        """The sum of c * q**p over a {p: c} dict, the form in which long
        sums accumulate without a new QPoly per term."""
        return QPoly([powers.get(p, 0)
                      for p in range(max(powers, default=-1) + 1)])

    def add_to(self, powers: dict, c=1):
        """Add c * self into a {power: coefficient} dict, in place."""
        for p, x in enumerate(self.coeffs):
            if x:
                powers[p] = powers.get(p, 0) + c * x

    @staticmethod
    def coerce(x) -> "QPoly":
        if isinstance(x, QPoly):
            return x
        return QPoly.constant(_as_fraction(x))

    # -- ring structure ----------------------------------------------

    def __add__(self, other):
        other = QPoly.coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-QPoly.coerce(other))

    def __rsub__(self, other):
        return QPoly.coerce(other) + (-self)

    def __mul__(self, other):
        other = QPoly.coerce(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return QPoly(out)

    __rmul__ = __mul__

    def scale(self, c) -> "QPoly":
        c = _as_fraction(c)
        return QPoly([c * x for x in self.coeffs])

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = QPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- queries ------------------------------------------------------

    def eval(self, q0) -> Fraction:
        """Exact Horner evaluation at a rational point; the zero
        polynomial gives one shared Fraction(0)."""
        q0 = _as_fraction(q0)
        acc = _FRACTION_ZERO
        for c in reversed(self.coeffs):
            acc = acc * q0 + c
        return acc

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the convention deg(0) = -1."""
        return len(self.coeffs) - 1

    # -- serialization -----------------------------------------------

    def to_strings(self) -> list[str]:
        """Coefficient list as exact "num/den" strings; [] is the zero polynomial."""
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_strings(ss: Iterable[str]) -> "QPoly":
        return QPoly([Fraction(s) for s in ss])

    # -- dunder plumbing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly.constant(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "QPoly(0)"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*q" if c != 1 else "q")
            else:
                parts.append(f"{c}*q^{k}" if c != 1 else f"q^{k}")
        return "QPoly(" + " + ".join(parts) + ")"


_ZERO = QPoly()
_FRACTION_ZERO = Fraction(0)

#: The generator q itself, for building polynomials by arithmetic.
Q = QPoly.monomial(1)
