"""Finite-dimensional tracial *-algebras with exact rational arithmetic.

The coefficient world for the copy constructions: group algebras, tensor
products, subalgebras, traces, trace-preserving conditional expectations,
and the one exact elimination kernel behind rank, positive-definiteness
and linear solves.  Structure constants are exposed lazily (a callable with a
cache) so large group algebras never materialize a full multiplication
table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .errors import InvalidGroup, SizeGuard

#: Generic conditional expectations assemble a |sub| x |sub| Gram matrix.
PROJECTION_GUARD = 1024

#: Above this many basis triples, group validation samples instead of
#: sweeping.
_EXHAUSTIVE_TRIPLES = 20000


class FiniteTracialAlgebra:
    """A *-algebra with a tracial state, given by lazy structure constants.

    mul_basis(i, j) and star_basis(i) return sparse {index: Fraction}
    combinations; both are cached internally.  trace_vector[i] = tau(b_i).
    """

    def __init__(self, labels, mul_basis, star_basis, unit_index,
                 trace_vector, name=""):
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.index) != self.dim:
            raise ValueError("duplicate basis labels")
        self._mul_basis = mul_basis
        self._star_basis = star_basis
        self.unit_index = unit_index
        self.trace_vector = [Fraction(t) for t in trace_vector]
        self.name = name
        self._mul_cache = {}
        self._star_cache = {}
        if self.trace_vector[unit_index] != 1:
            raise ValueError("trace of the unit must be 1")
        self._projection_cache = {}

    def mul_basis(self, i: int, j: int) -> dict:
        out = self._mul_cache.get((i, j))
        if out is None:
            out = {k: Fraction(c) for k, c in self._mul_basis(i, j).items() if c}
            self._mul_cache[(i, j)] = out
        return out

    def star_basis(self, i: int) -> dict:
        out = self._star_cache.get(i)
        if out is None:
            out = {k: Fraction(c) for k, c in self._star_basis(i).items() if c}
            self._star_cache[i] = out
        return out

    # -- element constructors -----------------------------------------

    @property
    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, {self.unit_index: Fraction(1)})

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def basis_element(self, i: int) -> "AlgebraElement":
        return AlgebraElement(self, {i: Fraction(1)})

    def element(self, coeffs: dict) -> "AlgebraElement":
        """Build an element from a {label: rational} mapping."""
        out = {}
        for lab, c in coeffs.items():
            c = Fraction(c)
            if c:
                out[self.index[lab]] = out.get(self.index[lab], Fraction(0)) + c
        return AlgebraElement(self, {i: c for i, c in out.items() if c})

    def __repr__(self):
        return f"FiniteTracialAlgebra({self.name or 'dim=%d' % self.dim})"


class AlgebraElement:
    """Sparse rational combination of basis elements of a parent algebra."""

    __slots__ = ("parent", "coeffs")

    def __init__(self, parent: FiniteTracialAlgebra, coeffs: dict):
        self.parent = parent
        self.coeffs = coeffs  # {basis index: nonzero Fraction}

    def _check(self, other):
        if self.parent is not other.parent:
            raise ValueError("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            nc = out.get(i, Fraction(0)) + c
            if nc:
                out[i] = nc
            else:
                out.pop(i, None)
        return AlgebraElement(self.parent, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        self._check(other)
        out = {}
        mul = self.parent.mul_basis
        for i, ci in self.coeffs.items():
            for j, cj in other.coeffs.items():
                c = ci * cj
                for k, ck in mul(i, j).items():
                    nc = out.get(k, Fraction(0)) + c * ck
                    if nc:
                        out[k] = nc
                    else:
                        out.pop(k, None)
        return AlgebraElement(self.parent, out)

    def scale(self, c) -> "AlgebraElement":
        c = Fraction(c)
        if not c:
            return AlgebraElement(self.parent, {})
        return AlgebraElement(self.parent, {i: c * x for i, x in self.coeffs.items()})

    def star(self) -> "AlgebraElement":
        out = {}
        for i, ci in self.coeffs.items():
            for k, ck in self.parent.star_basis(i).items():
                nc = out.get(k, Fraction(0)) + ci * ck
                if nc:
                    out[k] = nc
                else:
                    out.pop(k, None)
        return AlgebraElement(self.parent, out)

    def trace(self) -> Fraction:
        tv = self.parent.trace_vector
        return sum((c * tv[i] for i, c in self.coeffs.items()), Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.parent is other.parent and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.parent), frozenset(self.coeffs.items())))

    def __repr__(self):
        terms = [f"{c}*[{self.parent.labels[i]}]"
                 for i, c in sorted(self.coeffs.items())]
        return "AlgebraElement(" + (" + ".join(terms) or "0") + ")"


# ---------------------------------------------------------------------
# groups and group algebras


@dataclass(frozen=True)
class Group:
    """A finite group presented by element set, product, and inverse."""

    elements: tuple
    mul: object  # callable (g, h) -> g*h
    inv: object  # callable g -> g^{-1}
    identity: object


def validate_group(group: Group):
    """Check the group axioms; exhaustively for small groups, sampled above
    the triple budget.  Raises InvalidGroup with a witness on failure.
    """
    els = group.elements
    eset = set(els)
    e = group.identity
    if e not in eset:
        raise InvalidGroup("identity not among the elements")
    for g in els:
        if group.mul(e, g) != g or group.mul(g, e) != g:
            raise InvalidGroup(f"identity fails on {g!r}")
        gi = group.inv(g)
        if gi not in eset or group.mul(g, gi) != e or group.mul(gi, g) != e:
            raise InvalidGroup(f"inverse fails on {g!r}")
    n = len(els)
    if n ** 3 <= _EXHAUSTIVE_TRIPLES:
        triples = ((a, b, c) for a in els for b in els for c in els)
    else:
        rng = random.Random(0)
        triples = ((rng.choice(els), rng.choice(els), rng.choice(els))
                   for _ in range(500))
    for a, b, c in triples:
        ab = group.mul(a, b)
        if ab not in eset:
            raise InvalidGroup(f"not closed: {a!r}*{b!r}")
        if group.mul(ab, c) != group.mul(a, group.mul(b, c)):
            raise InvalidGroup(f"not associative on ({a!r},{b!r},{c!r})")


def group_algebra(group: Group, validate: bool = True) -> FiniteTracialAlgebra:
    """The group *-algebra with tau(u_g) = [g = e] and u_g* = u_{g^{-1}}."""
    if validate:
        validate_group(group)
    labels = list(group.elements)
    index = {g: i for i, g in enumerate(labels)}

    def mul_basis(i, j):
        return {index[group.mul(labels[i], labels[j])]: Fraction(1)}

    def star_basis(i):
        return {index[group.inv(labels[i])]: Fraction(1)}

    trace = [Fraction(int(g == group.identity)) for g in labels]
    return FiniteTracialAlgebra(labels, mul_basis, star_basis,
                                index[group.identity], trace,
                                name=f"L(G), |G|={len(labels)}")


def symmetric_group(points) -> Group:
    """All permutations of the given points, as tuples of image positions.

    A permutation is stored as a tuple p with p[i] = position of the image
    of the i-th point (points taken in their given order).
    """
    points = tuple(points)
    n = len(points)
    els = tuple(permutations(range(n)))
    identity = tuple(range(n))

    def mul(p, r):
        # (p o r): apply r first
        return tuple(p[r[i]] for i in range(n))

    def inv(p):
        out = [0] * n
        for i, pi in enumerate(p):
            out[pi] = i
        return tuple(out)

    return Group(els, mul, inv, identity)


def cyclic_group(n: int) -> Group:
    return Group(tuple(range(n)), lambda a, b: (a + b) % n,
                 lambda a: (-a) % n, 0)


# ---------------------------------------------------------------------
# tensor products


def tensor_algebra(a: FiniteTracialAlgebra,
                   b: FiniteTracialAlgebra) -> FiniteTracialAlgebra:
    """A (x) B with componentwise product, product trace, componentwise *."""
    labels = [(la, lb) for la in a.labels for lb in b.labels]

    def split(i):
        return divmod(i, b.dim)

    def mul_basis(i, j):
        ia, ib = split(i)
        ja, jb = split(j)
        out = {}
        for ka, ca in a.mul_basis(ia, ja).items():
            for kb, cb in b.mul_basis(ib, jb).items():
                out[ka * b.dim + kb] = ca * cb
        return out

    def star_basis(i):
        ia, ib = split(i)
        out = {}
        for ka, ca in a.star_basis(ia).items():
            for kb, cb in b.star_basis(ib).items():
                out[ka * b.dim + kb] = ca * cb
        return out

    trace = [a.trace_vector[i] * b.trace_vector[j]
             for i in range(a.dim) for j in range(b.dim)]
    unit = a.unit_index * b.dim + b.unit_index
    return FiniteTracialAlgebra(labels, mul_basis, star_basis, unit, trace,
                                name=f"({a.name})x({b.name})")


def trivial_algebra() -> FiniteTracialAlgebra:
    """The scalars as a one-dimensional algebra."""
    return FiniteTracialAlgebra(
        ["1"], lambda i, j: {0: Fraction(1)}, lambda i: {0: Fraction(1)},
        0, [Fraction(1)], name="C")


# ---------------------------------------------------------------------
# subalgebras and conditional expectations


@dataclass(frozen=True)
class SubalgebraSpec:
    """A unital *-closed span of basis elements, given by their indices."""

    algebra: FiniteTracialAlgebra
    indices: frozenset

    def __post_init__(self):
        alg, idx = self.algebra, self.indices
        if len(idx) == alg.dim:
            return  # the whole algebra, nothing to verify
        if alg.unit_index not in idx:
            raise ValueError("subalgebra must contain the unit")
        for i in idx:
            if any(k not in idx for k in alg.star_basis(i)):
                raise ValueError(f"not *-closed at basis {i}")
        for i in idx:
            for j in idx:
                if any(k not in idx for k in alg.mul_basis(i, j)):
                    raise ValueError(f"not closed under product at ({i},{j})")

    def contains(self, x: AlgebraElement) -> bool:
        return all(i in self.indices for i in x.coeffs)


def eliminate(a, ncols: int) -> tuple[list, bool]:
    """Reduce the rows a (integers or Fractions) to echelon form in place.

    Pivots are sought in the first ncols columns; any further columns (a
    right-hand side) are carried along.  Zero entries are skipped before
    any division by the pivot.  Returns (pivots, swapped): the pivot of
    each echelon row in order, and whether rows were exchanged.
    """
    pivots = []
    swapped = False
    for col in range(ncols):
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
    return len(eliminate(a, len(a[0]) if a else 0)[0])


def is_positive_definite(mat) -> bool:
    """Exact Sylvester test of a symmetric rational matrix: elimination
    needs no row exchange and every pivot (a ratio of leading minors) is
    positive."""
    a = [list(row) for row in mat]
    pivots, swapped = eliminate(a, len(a))
    return (not swapped and len(pivots) == len(a)
            and all(p > 0 for p in pivots))


def solve(mat, rhs) -> list:
    """Solve M c = b over the rationals for a nonsingular square M."""
    n = len(mat)
    a = [list(mat[i]) + [rhs[i]] for i in range(n)]
    pivots, _ = eliminate(a, n)
    if len(pivots) != n:
        raise ValueError("singular matrix")
    out = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = a[i][n] - sum(a[i][j] * out[j] for j in range(i + 1, n) if a[i][j])
        out[i] = Fraction(s, a[i][i])
    return out


def conditional_expectation(x: AlgebraElement,
                            sub: SubalgebraSpec) -> AlgebraElement:
    """Trace-preserving conditional expectation onto the subalgebra.

    Computed as the tau-orthogonal projection onto the sub-basis span:
    solve the sub-basis Gram system G c = (tau(b_i* x))_i exactly.  The
    identity shortcut applies when sub is the whole algebra.
    """
    alg = sub.algebra
    if x.parent is not alg:
        raise ValueError("element not in the subalgebra's parent")
    if len(sub.indices) == alg.dim:
        return x
    if len(sub.indices) > PROJECTION_GUARD:
        raise SizeGuard(
            f"generic projection over {len(sub.indices)} basis elements "
            f"exceeds the guard {PROJECTION_GUARD}")
    basis = sorted(sub.indices)
    cached = alg._projection_cache.get(sub.indices)
    if cached is None:
        stars = [alg.basis_element(i).star() for i in basis]
        gram = [[(stars[r] * alg.basis_element(basis[c])).trace()
                 for c in range(len(basis))] for r in range(len(basis))]
        alg._projection_cache[sub.indices] = (stars, gram)
    else:
        stars, gram = cached
    rhs = [(s * x).trace() for s in stars]
    coeffs = solve(gram, rhs)
    out = {}
    for i, c in zip(basis, coeffs):
        if c:
            out[i] = c
    return AlgebraElement(alg, out)
