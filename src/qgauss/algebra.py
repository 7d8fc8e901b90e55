"""Tracial group *-algebras with exact rational arithmetic.

The coefficient world for the copy constructions: group algebras of
finite groups and of the free group (a tensor product is the group
algebra of the direct product), subalgebras spanned by subgroups, traces,
and trace-preserving conditional expectations, which restrict an element
to the subgroup's keys.  The one dense exact elimination kernel sits
behind rank and is_positive_definite; an echelon basis spans sparse
elements one at a time.  A basis element is keyed by its group element,
so a product costs one group multiplication per pair of terms and a group
is enumerated only where a computation asks for its elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import permutations, product
from math import factorial, inf, lcm, prod

from .errors import SizeGuard


def exact(c):
    """The rational c as an int when integral, else as a Fraction: both
    are exact, an int equals and hashes as the Fraction of its value, and
    int arithmetic is the cheaper."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def common_denominator(values) -> int:
    """The least common multiple of the denominators of the exact
    rationals values (ints or Fractions), 1 for none: each value times it
    is an int."""
    return lcm(*(c.denominator for c in values))


class FiniteTracialAlgebra:
    """The group *-algebra L(G): u_g u_h = u_{gh}, u_g* = u_{g^{-1}} and
    tau(u_g) = [g = e].  Basis elements are keyed by the group elements
    themselves; dim is the group order and no element table is built.
    The group may be infinite (free_group): its elements are then finite
    combinations, dim is math.inf, and nothing lists the group.
    """

    def __init__(self, group: Group, name=""):
        self.group = group
        self.dim = group.order
        self.unit = group.identity
        self.name = name

    # -- element constructors -----------------------------------------

    @property
    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, {self.unit: 1})

    def basis_element(self, g) -> "AlgebraElement":
        return AlgebraElement(self, {g: 1})

    def element(self, coeffs: dict) -> "AlgebraElement":
        """Build an element from a {group element: rational} mapping."""
        return AlgebraElement(self, {g: exact(c)
                                     for g, c in coeffs.items() if c})

    def __repr__(self):
        return f"FiniteTracialAlgebra({self.name or 'dim=%d' % self.dim})"


class AlgebraElement:
    """Sparse rational combination of the basis of a group algebra."""

    __slots__ = ("parent", "coeffs")

    def __init__(self, parent: FiniteTracialAlgebra, coeffs: dict):
        self.parent = parent
        # {group element: nonzero rational}, an int when integral and a
        # Fraction if not (see exact); the two mix exactly and hash alike
        self.coeffs = coeffs

    def _check(self, other):
        if self.parent is not other.parent:
            raise ValueError("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            nc = out.get(g, 0) + c
            if nc:
                out[g] = nc
            else:
                out.pop(g, None)
        return AlgebraElement(self.parent, out)

    def times(self, other, key=None):
        """self * other, with each product key k = gh replaced by key(k),
        or dropped where key(k) is None, before terms merge.

        Exact when key is injective on the keys it keeps: equal mapped
        keys then come only from equal product keys, so the terms merge
        and cancel exactly as in the product, and the result is the
        product's terms with their keys mapped.  A backend closes an arc
        this way (copies: close), without forming the product first."""
        self._check(other)
        mul = self.parent.group.mul
        if key is None and len(other.coeffs) == 1:
            # g -> gh is injective: no terms merge
            (h, ch), = other.coeffs.items()
            return AlgebraElement(self.parent, {mul(g, h): cg if ch == 1 else cg * ch
                                                for g, cg in self.coeffs.items()})
        out = {}
        for g, cg in self.coeffs.items():
            for h, ch in other.coeffs.items():
                k = mul(g, h)
                if key is not None:
                    k = key(k)
                    if k is None:
                        continue
                c = cg * ch
                if k in out:
                    c += out[k]
                    if not c:
                        del out[k]
                        continue
                out[k] = c
        return AlgebraElement(self.parent, out)

    # one product: * is times without a key, defined here by name, where
    # perfbench/spans.py looks it up
    __mul__ = times

    def scale(self, c) -> "AlgebraElement":
        c = exact(c)
        if not c:
            return AlgebraElement(self.parent, {})
        return AlgebraElement(self.parent, {g: c * x for g, x in self.coeffs.items()})

    def star(self) -> "AlgebraElement":
        inv = self.parent.group.inv
        return AlgebraElement(self.parent, {inv(g): c for g, c in self.coeffs.items()})

    def trace(self):
        return self.coeffs.get(self.parent.unit, 0)

    def inner(self, other):
        """tau(self* other) without forming the product: tau(u_g* u_h) =
        [g = h] and every coefficient is a real rational, so it is the
        sum of self_g * other_g over the smaller support."""
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        return sum((c * b[g] for g, c in a.items() if g in b), 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.parent is other.parent and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.parent), frozenset(self.coeffs.items())))

    def __repr__(self):
        terms = [f"{c}*[{g}]" for g, c in sorted(self.coeffs.items())]
        return "AlgebraElement(" + (" + ".join(terms) or "0") + ")"


# ---------------------------------------------------------------------
# groups and group algebras


class Elements:
    """The elements of a group, generated afresh on each iteration and
    never stored, with the group order alongside."""

    def __init__(self, order: int, generate):
        self.order = order
        self._generate = generate

    def __iter__(self):
        return iter(self._generate())


@dataclass(frozen=True)
class Group:
    """A group presented by element set, product, and inverse."""

    elements: object  # a sized iterable, or Elements
    mul: object  # callable (g, h) -> g*h
    inv: object  # callable g -> g^{-1}
    identity: object

    @property
    def order(self) -> int:
        """|G|, without enumerating lazily generated elements."""
        if isinstance(self.elements, Elements):
            return self.elements.order
        return len(self.elements)


def group_algebra(group: Group) -> FiniteTracialAlgebra:
    """The group *-algebra with tau(u_g) = [g = e] and u_g* = u_{g^{-1}}."""
    return FiniteTracialAlgebra(group, name=f"L(G), |G|={group.order}")


def symmetric_group(points) -> Group:
    """All permutations of the given points, as tuples of image positions.

    A permutation is stored as a tuple p with p[i] = position of the image
    of the i-th point (points taken in their given order).
    """
    n = len(tuple(points))

    def mul(p, r):
        # (p o r): apply r first
        return tuple(map(p.__getitem__, r))

    def inv(p):
        out = [0] * n
        for i, pi in enumerate(p):
            out[pi] = i
        return tuple(out)

    return Group(Elements(factorial(n), lambda: permutations(range(n))),
                 mul, inv, tuple(range(n)))


def cyclic_group(n: int) -> Group:
    return Group(range(n), lambda a, b: (a + b) % n, lambda a: (-a) % n, 0)


def _unlisted():
    raise SizeGuard("the free group is infinite; its elements cannot be "
                    "listed")


def free_group() -> Group:
    """The free group on any hashable letters.  An element is a reduced
    word, a tuple of (letter, +-1) with no adjacent (l, e), (l, -e); the
    identity is ().  Listing the elements raises SizeGuard, so nothing
    that enumerates a group runs on it by accident."""

    def mul(v, w):
        # v and w are reduced, so only their junction can cancel
        if not v or not w or v[-1][0] != w[0][0] or v[-1][1] == w[0][1]:
            return v + w
        i, n = 1, min(len(v), len(w))
        while i < n and v[-1 - i][0] == w[i][0] and v[-1 - i][1] != w[i][1]:
            i += 1
        return v[:len(v) - i] + w[i:]

    def inv(w):
        return tuple([(l, -e) for l, e in reversed(w)])

    return Group(Elements(inf, _unlisted), mul, inv, ())


def direct_product(*groups) -> Group:
    """G_1 x ... x G_n with componentwise operations on element tuples.
    The product calls a factor's mul only where neither side holds that
    factor's identity, and elsewhere takes the other side's entry
    (e y = y = y e)."""
    muls = [(g.mul, g.identity) for g in groups]
    invs = [g.inv for g in groups]

    def mul(a, b):
        return tuple([y if x == e else x if y == e else f(x, y)
                      for (f, e), x, y in zip(muls, a, b)])

    def inv(a):
        return tuple([f(x) for f, x in zip(invs, a)])

    return Group(Elements(prod(g.order for g in groups),
                          lambda: product(*(g.elements for g in groups))),
                 mul, inv, tuple(g.identity for g in groups))


# ---------------------------------------------------------------------
# tensor products


def tensor_algebra(*factors: FiniteTracialAlgebra) -> FiniteTracialAlgebra:
    """A_1 (x) ... (x) A_n: the group algebra of the direct product, keyed
    by tuples of factor keys, with the product trace."""
    return FiniteTracialAlgebra(
        direct_product(*(f.group for f in factors)),
        name="x".join(f"({f.name})" for f in factors))


def trivial_algebra() -> FiniteTracialAlgebra:
    """The scalars as a one-dimensional algebra."""
    return FiniteTracialAlgebra(cyclic_group(1), name="C")


# ---------------------------------------------------------------------
# subalgebras and conditional expectations


@dataclass(frozen=True)
class SubalgebraSpec:
    """The span L(H) of the basis elements of a subgroup H, given by its
    elements; the algebra's own lazy element set stands for the whole.
    Only the unit and *-closure are checked: the backends list each A_I
    as a subgroup."""

    algebra: FiniteTracialAlgebra
    indices: object  # a frozenset of group elements, or algebra.group.elements

    def __post_init__(self):
        if self.whole:
            return  # the whole algebra, nothing to verify
        group, idx = self.algebra.group, self.indices
        if group.identity not in idx:
            raise ValueError("subalgebra must contain the unit")
        for g in idx:
            if group.inv(g) not in idx:
                raise ValueError(f"not *-closed at basis {g}")

    @property
    def whole(self) -> bool:
        idx = self.indices
        return idx is self.algebra.group.elements or len(idx) == self.algebra.dim

    def contains(self, x: AlgebraElement) -> bool:
        return all(g in self.indices for g in x.coeffs)


def conditional_expectation(x: AlgebraElement,
                            sub: SubalgebraSpec) -> AlgebraElement:
    """Trace-preserving conditional expectation onto the subalgebra.

    The spec's indices form a subgroup H, and tau(u_g* u_h) = [g = h]
    makes {u_h : h in H} tau-orthonormal, so the tau-orthogonal projection
    onto L(H) keeps the terms of x whose keys lie in H.  The identity
    shortcut applies when sub is the whole algebra.
    """
    if x.parent is not sub.algebra:
        raise ValueError("element not in the subalgebra's parent")
    if sub.whole:
        return x
    idx = sub.indices
    return AlgebraElement(x.parent, {g: c for g, c in x.coeffs.items()
                                     if g in idx})


# ---------------------------------------------------------------------
# exact elimination


def eliminate(a) -> tuple[list, bool]:
    """Reduce the rows a (integers or Fractions) to echelon form in place.

    Zero entries are skipped before any division by the pivot.  Returns
    (pivots, swapped): the pivot of each echelon row in order, and whether
    rows were exchanged.
    """
    pivots = []
    swapped = False
    for col in range(len(a[0]) if a else 0):
        row = len(pivots)
        piv = next((r for r in range(row, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        if piv != row:
            a[row], a[piv] = a[piv], a[row]
            swapped = True
        top = a[row]
        for r in a[row + 1:]:
            if r[col]:
                f = Fraction(r[col], top[col])
                for c in range(col, len(top)):
                    if top[c]:
                        r[c] -= f * top[c]
        pivots.append(top[col])
    return pivots, swapped


def rank(mat) -> int:
    """Exact rank of a rational matrix."""
    a = [list(row) for row in mat]
    return len(eliminate(a)[0])


def is_positive_definite(mat) -> bool:
    """Exact Sylvester test of a symmetric rational matrix: elimination
    needs no row exchange and every pivot (a ratio of leading minors) is
    positive."""
    a = [list(row) for row in mat]
    pivots, swapped = eliminate(a)
    return (not swapped and len(pivots) == len(a)
            and all(p > 0 for p in pivots))


class EchelonBasis:
    """An exact basis of a growing span of AlgebraElements, in echelon
    form: each element has coefficient 1 at its pivot key, which no
    earlier element holds.

    eliminate works on a whole matrix with indexed columns; here elements
    arrive one at a time over keys never listed in advance, and adding one
    costs a lookup per term of it and of each element subtracted.
    """

    def __init__(self):
        self.vectors = []
        self._pivots = []
        self._index = {}  # pivot key -> position in vectors

    def _positions(self, x) -> list:
        return [self._index[key] for key in x.coeffs if key in self._index]

    def add(self, x) -> bool:
        """Keep what is left of x after reduction, if anything; returns
        whether the span grew."""
        # by increasing position: element i holds no earlier pivot, so
        # subtracting it brings back none that was cleared
        todo = self._positions(x)
        heapify(todo)
        x = AlgebraElement(x.parent, dict(x.coeffs))
        coeffs = x.coeffs
        while todo:
            i = heappop(todo)
            c = coeffs.get(self._pivots[i])
            if c:
                b = self.vectors[i]
                for g, bg in b.coeffs.items():  # x -= c * b, in place
                    coeffs[g] = coeffs.get(g, 0) - c * bg
                    if not coeffs[g]:
                        del coeffs[g]
                for j in self._positions(b):
                    if j > i:
                        heappush(todo, j)
        if not coeffs:
            return False
        key, c = next(iter(coeffs.items()))
        self._index[key] = len(self.vectors)
        self._pivots.append(key)
        self.vectors.append(x if c == 1 else x.scale(Fraction(1) / c))
        return True


