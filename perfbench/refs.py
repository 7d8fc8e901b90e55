"""Closed forms that the benchmark checks qgauss results against.

They are written here with plain integers and fractions, apart from the
library, so that a check never compares the program with itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def double_factorial(m: int) -> int:
    """(m-1)!! for even m: the number of pair partitions of m points."""
    out = 1
    for i in range(m - 1, 0, -2):
        out *= i
    return out


def half_factorial(m: int) -> int:
    """(m/2)! for even m."""
    return factorial(m // 2)


def _divide_by_one_minus_q(coeffs: list[int]) -> list[int]:
    """Exact quotient of a polynomial by (1 - q); raises if it does not divide."""
    out = []
    acc = 0
    for c in coeffs:
        acc += c
        out.append(acc)
    if out.pop() != 0:
        raise ArithmeticError("polynomial is not divisible by 1 - q")
    return out


def touchard_riordan(k: int) -> list[int]:
    """Coefficients, lowest power first, of the 2k-th q-gaussian moment.

    (1-q)^{-k} sum_{j=0..k} (-1)^j [C(2k,k-j) - C(2k,k-j-1)] q^{j(j+1)/2}
    (Touchard 1952; Riordan 1975): the crossing-number generating function
    of the pair partitions of 2k points.
    """
    top = k * (k + 1) // 2
    coeffs = [0] * (top + 1)
    for j in range(k + 1):
        lower = comb(2 * k, k - j - 1) if k - j - 1 >= 0 else 0
        coeffs[j * (j + 1) // 2] += (-1) ** j * (comb(2 * k, k - j) - lower)
    for _ in range(k):
        coeffs = _divide_by_one_minus_q(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def evaluate(coeffs, q) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * q + c
    return acc


def self_check() -> list[str]:
    """Compare the closed forms with hand values; returns the mismatches."""
    bad = []
    if touchard_riordan(2) != [2, 1]:
        bad.append("TR(m=4) != 2 + q")
    if touchard_riordan(3) != [5, 6, 3, 1]:
        bad.append("TR(m=6) != 5 + 6q + 3q^2 + q^3")
    for k in range(1, 8):
        tr = touchard_riordan(k)
        if evaluate(tr, 0) != catalan(k):
            bad.append(f"TR(m={2 * k}) at q=0 is not Catalan({k})")
        if evaluate(tr, 1) != double_factorial(2 * k):
            bad.append(f"TR(m={2 * k}) at q=1 is not ({2 * k}-1)!!")
    if [catalan(k) for k in range(6)] != [1, 1, 2, 5, 14, 42]:
        bad.append("Catalan numbers")
    return bad
