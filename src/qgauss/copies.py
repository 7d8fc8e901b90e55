"""Symmetric independent copies over a finite index window.

Three backends share one interface: pi(j, a) embeds A-elements as the j-th
copy inside D, expect(I, x) is the conditional expectation onto the
algebra generated by copies with indices in I (expect(()) is E_B), trace
is the trace of D, relabel applies the index-permutation automorphism,
and closing(label, top) and close(P, pi_x, label, top) close a scan's arc
(below).  All arithmetic is exact.

Each D is a group algebra, on whose keys a permutation g of the copies
acts by an injective renaming.  So the operations follow from which keys
lie in each A_I and how g renames a key:
- pi_j is the renaming by the transposition (1 j) on A = A_{1}: the
  copies are exchangeable, so pi_j = alpha_g pi_1 for any g sending 1 to
  j, and pi_1 is the inclusion of A;
- E_{A_I} keeps the terms whose keys lie in A_I: A_I is spanned by the
  u_h of a subgroup H, and tau(u_g* u_h) = [g = h] makes them orthonormal;
- relabel renames every key, and close filters and renames the keys of
  one product (AlgebraElement.times), exact because renaming is injective.
_Copies derives them once for all three backends.

The arc scans of moments and dimensions close the arc at label of a
state P by a letter x: P * pi_label(x) projected onto the open labels
1..top but label, then relabeled onto 1..top-1 by shifting label to top
and the labels above it down one.  closing(label, top) is that closing
on one key: a key lying in A_{1..top but label} goes to its image under
the shift, any other to None.  The moment scans close by it alone,
mapping the product of a state's key and each key of pi_x.  close(P,
pi_x, label, top) serves the span scan of dimensions: perm and tensor
take the keyed product P.times(pi_x, closing(label, top))
(_Copies.close), free Haar the two passes.  tests/closing_oracle.py
checks both against the two passes.

Give every arc its own label and let X be the prefix pi-word; then
P = E_L(X), where L = 1..top are the labels still open (a span scan's
singleton labels 1..s among them, which never close).  A letter on a
fresh label j, outside those X uses, keeps this form: E_{L+j}(X
pi_j(x)) = E_L(X) pi_j(x) by axiom 4 (E_I E_J = E_{I cap J}).

Why closing label t is exact: the rest R of the word lies in A_K, K =
(L - t) plus fresh labels.  For I = () (a trace) or I = 1..s (a
reduced coefficient), I lies in K, so E_I(X pi_t(x) R) =
E_I(E_K(X pi_t(x)) R), and E_K(X pi_t(x)) = E_{L-t}(P pi_t(x)) by
axiom 4 and because pi_t(x) lies in A_L.  The relabeling fixes 1..s,
so by exchangeability it leaves E_I unchanged while the open labels
stay 1..top-1 and a new arc reuses the freed label.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import permutations, product
from math import factorial, inf
from operator import itemgetter

from .algebra import (AlgebraElement, FiniteTracialAlgebra, SubalgebraSpec,
                      free_group, group_algebra, symmetric_group,
                      tensor_algebra)
from .errors import SizeGuard, WindowExceeded


#: Most copies a window may hold, most extra points d of perm_group, and
#: largest n of a cyclic or symmetric B or C: keys, relabelings,
#: expectations and group listings walk every one of them.
WINDOW_GUARD = 1024

#: Most basis elements of a proper A_I: its spec lists them all and
#: checks them for the unit and *-closure.
PROJECTION_GUARD = 1024


def check_size(name: str, value: int):
    """Refuse an index count over the window guard, before it is used;
    the message starts with the parameter's name."""
    if value > WINDOW_GUARD:
        raise SizeGuard(f"{name}: {value} exceeds the window guard "
                        f"{WINDOW_GUARD}")


def require_window(backend, needed: int, subject: str):
    """Refuse a computation whose copy indices need more than the
    backend's window; the message starts with the subject."""
    if backend.window < needed:
        raise WindowExceeded(f"{subject} needs window >= {needed}, "
                             f"backend has {backend.window}")


@lru_cache(maxsize=None)
def _closing(label, top):
    """The labels an arc's closing keeps, 1..top but label, and the
    relabeling that shifts label to top and the labels above it down one;
    shared, so never modified."""
    return (tuple(j for j in range(1, top + 1) if j != label),
            {j: top if j == label else j - 1 for j in range(label, top + 1)})


def pi_word(backend, xs, labels):
    """The product pi_{j_1}(x_1) ... pi_{j_m}(x_m) in D, multiplied from
    the unit left to right; labels gives the copy index j of each letter."""
    prod = backend.one()
    for x, j in zip(xs, labels):
        prod = prod * backend.pi(j, x)
    return prod


class _Copies:
    """A backend over copies 1..window, D keyed by its group elements.

    A subclass sets D and its generators S, which lie in A = A_{1} inside
    D, lists each A_I for its spec (_size, _listing), and gives the two
    key maps, built once per index set or permutation and cached:
    - _key_test(I): (get, want), where a key k lies in A_I when get(k) ==
      want.  The default reads the entries at the copies outside I, copy
      j's at index j + _offset, and wants the unit's;
    - _renamer(g): the key under g, given as {j: g(j)} for every j.
    The operations follow (the module docstring says why): pi(j, a)
    checks that a lies in A and renames it by (1 j); expect(I, x) keeps
    the terms whose keys lie in A_I; relabel renames every key; and
    close(P, pi_x, label, top) is P.times(pi_x, key), whose key keeps what
    _keeps(1..top but label) keeps and renames it by the shift of label to
    top, as the two passes of the module docstring would.  Each backend
    caches its own maps for its life: _kept (the key test per index set),
    _pis (pi_j's renamer per j) and _closings (per pair) are bounded by
    the window, while _relabels gains an entry for each map's items and
    _in_A for each key of A that a caller passes.  scenario reuses equal
    backends across requests, and with them their maps.
    """

    def __init__(self, window: int):
        if window < 1:
            raise ValueError("window must be >= 1")
        check_size("window", window)
        self.window = window
        self._specs = {}  # each spec is bound to this backend's D
        self._kept, self._relabels, self._pis, self._closings = {}, {}, {}, {}
        self._in_A = set()

    @property
    def A_one(self) -> AlgebraElement:
        return self.S["1"]

    @property
    def B_basis(self):
        """The basis elements of B, listed from the spec of A_() = B, which
        holds the guard."""
        return [self.D.basis_element(b)
                for b in sorted(self.subalgebra_spec(()).indices)]

    def one(self) -> AlgebraElement:
        return self.D.one

    def trace(self, x: AlgebraElement):
        return x.trace()

    def _pos(self, j: int) -> int:
        return j + self._offset

    def _keeps(self, I) -> tuple:
        """_key_test(I), built once per index set."""
        I = frozenset(I)
        kept = self._kept.get(I)
        if kept is None:
            kept = self._kept[I] = self._key_test(I)
        return kept

    def _key_test(self, I) -> tuple:
        at = [self._pos(j) for j in range(1, self.window + 1) if j not in I]
        get = itemgetter(*at) if at else lambda k: ()
        return get, get(self.D.unit)

    def _relabeling(self, gamma: dict):
        """The _renamer of the permutation of 1..window that extends the
        injective partial map gamma by the identity, checked and built
        once per map's items."""
        key = tuple(gamma.items())
        rename = self._relabels.get(key)
        if rename is None:
            window = self.window
            g = {j: gamma.get(j, j) for j in range(1, window + 1)}
            if sorted(g.values()) != list(range(1, window + 1)):
                raise ValueError(f"relabeling {gamma} is not injective on "
                                 "the window")
            rename = self._relabels[key] = self._renamer(g)
        return rename

    def pi(self, j: int, a: AlgebraElement) -> AlgebraElement:
        if a.parent is not self.D:
            raise ValueError("pi expects an element of A inside D")
        if not self._in_A.issuperset(a.coeffs):
            get, want = self._keeps((1,))
            if any(get(k) != want for k in a.coeffs):
                raise ValueError("pi expects an element of A = A_{1}")
            self._in_A.update(a.coeffs)
        if j == 1:
            return a
        rename = self._pis.get(j)
        if rename is None:
            if not 1 <= j <= self.window:
                raise WindowExceeded(f"copy index {j} outside window "
                                     f"{self.window}")
            rename = self._pis[j] = self._relabeling({1: j, j: 1})
        return AlgebraElement(self.D, {rename(k): c
                                       for k, c in a.coeffs.items()})

    def expect(self, I, x: AlgebraElement) -> AlgebraElement:
        get, want = self._keeps(I)
        return AlgebraElement(self.D, {k: c for k, c in x.coeffs.items()
                                       if get(k) == want})

    def relabel(self, gamma: dict, x: AlgebraElement) -> AlgebraElement:
        rename = self._relabeling(gamma)
        return AlgebraElement(self.D, {rename(k): c
                                       for k, c in x.coeffs.items()})

    def close(self, P, pi_x, label, top) -> AlgebraElement:
        return P.times(pi_x, self.closing(label, top))

    def closing(self, label, top):
        """The key map of closing label under top, built once per pair
        and cached: a key that lies in A_{1..top but label} goes to its
        image under the shift of label to top, any other to None.  On one
        key it is the two passes of the module docstring."""
        key = self._closings.get((label, top))
        if key is None:
            keep, shift = _closing(label, top)
            get, want = self._keeps(keep)
            rename = self._relabeling(shift)

            def key(k):
                if get(k) == want:
                    return rename(k)
            self._closings[label, top] = key
        return key

    def subalgebra_spec(self, I) -> SubalgebraSpec:
        """The spec of A_I, built once per index set and cached.

        I covering the window gives the whole of D and enumerates nothing;
        otherwise _size(k) is |A_I| for k = |I within the window|, checked
        against the projection guard before _listing(I) lists A_I.
        """
        I = frozenset(I)
        spec = self._specs.get(I)
        if spec is None:
            inside = I & set(range(1, self.window + 1))
            if len(inside) == self.window:
                idx = self.D.group.elements
            else:
                n = self._size(len(inside))
                if n > PROJECTION_GUARD:
                    raise SizeGuard(
                        f"subalgebra for copies {sorted(inside)} has {n} "
                        f"basis elements, over the projection guard "
                        f"{PROJECTION_GUARD}")
                idx = frozenset(self._listing(inside))
            spec = self._specs[I] = SubalgebraSpec(self.D, idx)
        return spec


# ---------------------------------------------------------------------
# free Haar backend


class FreeWordElement(AlgebraElement):
    """An element of D = L(F), built from one word by from_word."""

    __slots__ = ()

    # perfbench/spans.py wraps this class's own __mul__ by name, as it
    # does moments.trace_of_partition_term; remove both when the
    # benchmark next changes
    __mul__ = AlgebraElement.__mul__

    @staticmethod
    def from_word(word) -> "FreeWordElement":
        """u_w for any word of (letter, +-1), reduced by the group product."""
        mul = D.group.mul
        return FreeWordElement(D, {reduce(mul, [(x,) for x in word], ()): 1})


#: The group algebra of the free group, shared by every free Haar backend;
#: copy j of u is the letter j.
D = FiniteTracialAlgebra(free_group(), name="L(F)")


class FreeHaarBackend(_Copies):
    """B = scalars, A generated by one Haar unitary, pi_j(u_1) = u_j in
    D = L(F).  A key is a reduced word of letters (j, +-1): it lies in A_I
    when every letter's copy j does, and g renames each letter's copy.
    Renaming letters injectively keeps every word reduced and distinct
    words distinct, so neither pi nor relabel re-reduces or merges terms."""

    name = "free_haar"

    def __init__(self, window: int):
        super().__init__(window)
        self.D = D
        u = D.basis_element(((1, 1),))
        self.S = {"1": D.one, "u": u, "u*": u.star()}

    # perfbench/spans.py wraps these in each backend class's own vars
    pi, expect, relabel, trace = (_Copies.pi, _Copies.expect,
                                  _Copies.relabel, _Copies.trace)

    @staticmethod
    def _key_test(I) -> tuple:
        return frozenset((j, e) for j in I for e in (1, -1)).issuperset, True

    @staticmethod
    def _renamer(g: dict):
        """A letter outside the window keeps its copy: D is shared by
        backends of every window."""
        return lambda w: tuple([(g.get(l, l), e) for l, e in w])

    def close(self, P, pi_x, label, top) -> AlgebraElement:
        """The two passes of the module docstring: the product projected
        onto 1..top but label, then relabeled.  Projecting first leaves
        fewer terms to relabel."""
        keep, shift = _closing(label, top)
        R = self.expect(keep, P * pi_x)
        if label < top and R.coeffs:
            R = self.relabel(shift, R)
        return R

    # A_I is infinite once I holds a copy, so only B is ever listed
    _size = staticmethod(lambda k: 1 if k == 0 else inf)
    _listing = staticmethod(lambda inside: [()])

    def dim_bound(self, k: int) -> int:
        return 4 ** k


# ---------------------------------------------------------------------
# tensor and permutation backends


class TensorBackend(_Copies):
    """D = B (x) C^{(x)J}, keyed by slot tuples (b, c_1, ..., c_J), and
    A = B (x) C is the keys whose slots 2..J hold the unit; g moves slot
    j's entry to slot g(j).  So pi_j places the C-part of A in slot j, and
    expect traces out the slots outside I, since tau_C(u_c) = [c = e]."""

    name = "tensor"
    _offset = 0

    def __init__(self, B: FiniteTracialAlgebra, C: FiniteTracialAlgebra,
                 window: int):
        super().__init__(window)
        self.B, self.C = B, C
        self.D = tensor_algebra(B, *[C] * window)
        self.S = {"1": self.D.one}
        # the generator: unit-B tensor the first non-unit C element
        for c in C.group.elements:
            if c != C.unit:
                self.S["g"] = self.D.basis_element(
                    (B.unit, c) + (C.unit,) * (window - 1))
                break

    # perfbench/spans.py wraps these in each backend class's own vars
    pi, expect, relabel, trace = (_Copies.pi, _Copies.expect,
                                  _Copies.relabel, _Copies.trace)

    def _renamer(self, g: dict):
        """Slot g(j) takes slot j's entry: slot t reads slot g^-1(t)."""
        return itemgetter(0, *sorted(g, key=g.get))

    def _size(self, k: int) -> int:
        return self.B.dim * self.C.dim ** k

    def _listing(self, inside):
        C = self.C
        return product(self.B.group.elements,
                       *[C.group.elements if s in inside else (C.unit,)
                         for s in range(1, self.window + 1)])

    def dim_bound(self, k: int) -> int:
        return self.C.dim ** k


class PermGroupBackend(_Copies):
    """D = group algebra of the permutations of the integer interval
    [-d, J], keyed by the permutations themselves as image tuples, so D is
    never enumerated; g acts by conjugating with the permutation of the
    points 1..J it gives, so pi_1 = id and pi_j = conjugation by the
    transposition (1 j); A_I is the subalgebra of permutations supported
    on [-d,0] union I, which has (d+1+|I|)! elements."""

    name = "perm_group"

    def __init__(self, d: int, window: int):
        if d < 0:
            raise ValueError("d must be >= 0")
        super().__init__(window)
        check_size("d", d)
        self.d = self._offset = d  # position p <-> point p - d
        self.points = list(range(-d, window + 1))
        self.D = group_algebra(symmetric_group(self.points))
        u01 = list(range(len(self.points)))
        u01[d:d + 2] = d + 1, d
        self.S = {"1": self.D.one, "u01": self.D.basis_element(tuple(u01))}

    # perfbench/spans.py wraps these in each backend class's own vars
    pi, expect, relabel, trace = (_Copies.pi, _Copies.expect,
                                  _Copies.relabel, _Copies.trace)

    def _renamer(self, g: dict):
        """h -> phi h phi^-1, with phi the image tuple of g on the
        points: (phi h phi^-1)(x) = phi(h(phi^-1(x))), so gather(h) lists
        h(phi^-1(x)) for each x, and phi is read at each of those."""
        phi = list(range(len(self.points)))
        for j, gj in g.items():
            phi[self._pos(j)] = self._pos(gj)
        phi, gather = tuple(phi), itemgetter(*self.D.group.inv(phi))
        return lambda h: itemgetter(*gather(h))(phi)

    def _size(self, k: int) -> int:
        return factorial(self.d + 1 + k)

    def _listing(self, inside):
        """The permutations moving only points of [-d,0] union I, from the
        (d+1+|I|)! permutations of those points."""
        movable = list(range(self.d + 1)) + sorted(self._pos(j) for j in inside)
        for images in permutations(movable):
            g = list(range(len(self.points)))
            for p, image in zip(movable, images):
                g[p] = image
            yield tuple(g)

    def dim_bound(self, k: int) -> int:
        """2^k for every d: S moves only point 0 and the copy points, so
        D_k does not depend on d, and d = 1 bounds it by 2^k."""
        return 2 ** k


# ---------------------------------------------------------------------
# axiom checker

#: Copy indices the axiom checker covers, and the longest middle word of
#: axiom 3 and word of axiom 4; word_len of axiom_check bounds axiom 2.
AXIOM_INDICES = 3
AXIOM3_WORD_LEN = 2
AXIOM4_WORD_LEN = 3


def _words_over(items, max_len):
    """All nonempty tuples over items up to max_len, shortest first."""
    return [w for n in range(1, max_len + 1)
            for w in product(items, repeat=n)]


def axiom_check(backend, word_len: int = 4) -> dict:
    """Exhaustive finite-window check of the defining axioms.

    Returns {"axiom1": {...}, ..., "axiom5": {...}, "passed": bool}; each
    axiom entry carries ok, the number of identities checked, and a witness
    string on failure.  Needs window >= AXIOM_INDICES.

    Axioms 2-4 share two memos for the length of the call: each pi-word
    is built once, from its prefix one letter shorter, and each E_K of a
    pi-word is computed once.  Axiom 2 reads each relabelled word's E_B
    from a per-word list indexed by labelling; axiom 4 applies each E_I
    once to each distinct value among the E_K(x) of all words x, found
    through a table keyed by element.  The report is the one that
    rebuilding every word from the unit and recomputing every expectation
    would give, provided pi, * and expect are pure functions (they return
    new elements, never mutate their inputs, and depend only on the values
    of their arguments), * is associative and elements hash consistently
    with ==.
    """
    require_window(backend, AXIOM_INDICES,
                   f"axiom check over {AXIOM_INDICES} indices")
    report = {}
    names = list(backend.S)
    nontrivial = [n for n in names if n != "1"] or names
    # pi_j of each generator, keyed by name, for every index a check uses
    # (axiom 3 goes one past the checked indices); a pi-word multiplies
    # these entries.  Elements keep canonical coefficient dicts with no
    # stored zero, so == below is equality of elements: a stray stored
    # zero would raise a false alarm, never let a failure pass.
    top = min(AXIOM_INDICES + 1, backend.window)
    pis = {(j, n): backend.pi(j, backend.S[n])
           for j in range(1, top + 1) for n in names}

    # each pi-word keyed by its letters ((j, name), ...), built once from
    # its prefix one letter shorter, and each E_K(pi-word) keyed by
    # (frozenset K, letters)
    words = {(): backend.one()}
    expects = {}

    # one dict lookup per hit: an element is never None
    def word(key):
        w = words.get(key)
        if w is None:
            w = words[key] = word(key[:-1]) * pis[key[-1]]
        return w

    def expect(K, key):
        e = expects.get((K, key))
        if e is None:
            e = expects[K, key] = backend.expect(K, word(key))
        return e

    # (1) pi_j restricts to the identity on B
    B_basis = backend.B_basis
    report["axiom1"] = _first_failure(
        None if backend.pi(j, b) == b else f"pi({j}, b) != b for b={b!r}"
        for j in range(1, AXIOM_INDICES + 1) for b in B_basis)

    # (2) exchangeability of E_B under index permutations; the first
    # relabeling is the identity.  For each length, moved[p][r] is the
    # position of rho_r o labelings[p] among the labelings, and each
    # word's E_B values sit in one list indexed by position.
    def axiom2():
        B = frozenset()
        indices = range(1, AXIOM_INDICES + 1)
        rhos = list(permutations(indices))
        for length in range(1, word_len + 1):
            labelings = list(product(indices, repeat=length))
            position = {js: p for p, js in enumerate(labelings)}
            moved = [[position[tuple([rho[j - 1] for j in js])]
                      for rho in rhos] for js in labelings]
            for w in product(names, repeat=length):
                values = [None] * len(labelings)
                for js, row in zip(labelings, moved):
                    base = None
                    for rho, p in zip(rhos, row):
                        val = values[p]
                        if val is None:
                            val = values[p] = expect(
                                B, tuple(zip(labelings[p], w)))
                        base = val if base is None else base
                        yield None if val == base else (
                            f"E_B not invariant: word len {length}, "
                            f"indices {js}, relabeling {rho}")

    report["axiom2"] = _first_failure(axiom2())

    # (3) E_{A_I}(pi_j(a) d pi_j(a')) = E_{A_J}(...) for I subset J, j not in J
    subsets = _subsets(range(1, AXIOM_INDICES + 1))

    def axiom3():
        for J in subsets:
            for I in subsets:
                outside = [j for j in range(1, backend.window + 1)
                           if j not in J]
                if not I < J or not outside:
                    continue
                j = outside[0]
                ds = [()]
                for w in _words_over(nontrivial, AXIOM3_WORD_LEN):
                    for ks in product(sorted(I), repeat=len(w)):
                        ds.append(tuple(zip(ks, w)))
                for a, ap, dmid in product(names, names, ds):
                    x = ((j, a),) + dmid + ((j, ap),)
                    same = expect(I, x) == expect(J, x)
                    yield None if same else f"I={set(I)}, J={set(J)}, j={j}"

    report["axiom3"] = _first_failure(axiom3())

    # (4) E_{A_I} E_{A_J} = E_{A_{I cap J}}
    gens = [(j, n) for j in range(1, AXIOM_INDICES + 1) for n in nontrivial]
    xs = [()] + _words_over(gens, AXIOM4_WORD_LEN)

    def axiom4():
        where = {K: k for k, K in enumerate(subsets)}
        # each distinct value among the E_K(x), over every word x and
        # subset K, gets an id; per x, the id of each E_K(x); per I, the
        # E_I of each value, taken when first asked for
        ids = {}
        rows = [[ids.setdefault(expect(K, x), len(ids)) for K in subsets]
                for x in xs]
        values = list(ids)
        for I in subsets:
            images = [None] * len(values)
            for J in subsets:
                j, k = where[J], where[I & J]
                witness = f"I={set(I)}, J={set(J)}"
                for row in rows:
                    e = images[row[j]]
                    if e is None:
                        e = images[row[j]] = backend.expect(I, values[row[j]])
                    yield None if e == values[row[k]] else witness

    report["axiom4"] = _first_failure(axiom4())

    # (5) the union of all A_I is D: true by construction at window scale
    report["axiom5"] = {"ok": True, "checked": 0, "by_construction": True,
                        "witness": "holds by construction at window scale"}

    report["passed"] = all(report[k]["ok"] for k in
                           ("axiom1", "axiom2", "axiom3", "axiom4", "axiom5"))
    return report


def _first_failure(cases) -> dict:
    """One axiom's entry: the identities checked up to the first that
    fails.  A case is None when its identity holds, else a witness."""
    count = 0
    for witness in cases:
        count += 1
        if witness is not None:
            return {"ok": False, "checked": count, "witness": witness}
    return {"ok": True, "checked": count, "witness": None}


def _subsets(it):
    items = list(it)
    out = [frozenset()]
    for x in items:
        out += [s | {x} for s in out]
    return out
