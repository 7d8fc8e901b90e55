"""Brute-force oracle: the truncated q-Fock space over a finite-dimensional
real inner-product space.

A vector keeps int numerators per word and power of q over one common
denominator, so vacuum moments come out as exact polynomials in q and
only the final coefficient is a Fraction.  This module is deliberately
independent of the partition combinatorics in :mod:`qgauss.moments`; the
two are checked against each other in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product

from .algebra import common_denominator, exact, is_positive_definite
from .errors import SizeGuard, TruncationExceeded
from .qpoly import QPoly

#: Hard guard on dense Gram assemblies (dim_H ** degree).
GRAM_GUARD = 4096

#: Most dimensions of H: the inner matrix holds dim_H ** 2 exact entries.
DIM_H_GUARD = 256


def _frac_matrix(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


@dataclass(frozen=True)
class FockConfig:
    """Configuration of the truncated Fock space.

    inner is the (possibly non-orthonormal) Gram matrix of the chosen
    spanning family of H; it must be symmetric positive definite.
    """

    dim_H: int
    inner: tuple = None
    max_degree: int = 6

    def __post_init__(self):
        if self.dim_H < 1:
            raise ValueError("dim_H must be positive")
        if self.dim_H > DIM_H_GUARD:
            raise SizeGuard(f"dim_H: {self.dim_H} exceeds the guard "
                            f"{DIM_H_GUARD}")
        if self.max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        inner = self.inner
        if inner is None:
            inner = tuple(
                tuple(Fraction(int(i == j)) for j in range(self.dim_H))
                for i in range(self.dim_H)
            )
        else:
            inner = _frac_matrix(inner)
        if len(inner) != self.dim_H or any(len(r) != self.dim_H for r in inner):
            raise ValueError("inner matrix has wrong shape")
        for i in range(self.dim_H):
            for j in range(i):
                if inner[i][j] != inner[j][i]:
                    raise ValueError("inner matrix is not symmetric")
        if not is_positive_definite(inner):
            raise ValueError("inner matrix is not positive definite")
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "_ip_memo", {})  # not a field: no ==, hash

    def ip(self, u, v) -> Fraction:
        """Inner product of two coordinate vectors over the spanning family,
        memoized per pair of vectors.  Equal keys hold numerically equal
        entries (a list and a tuple, 1 and Fraction(1)), so they share one
        exact value."""
        key = (tuple(u), tuple(v))
        acc = self._ip_memo.get(key)
        if acc is None:
            if len(key[0]) != self.dim_H or len(key[1]) != self.dim_H:
                raise ValueError(f"vectors of {len(key[0])} and {len(key[1])}"
                                 f" coordinates under dim_H {self.dim_H}")
            acc = self._ip_memo[key] = sum(
                (Fraction(ui) * self.inner[i][j] * Fraction(vj)
                 for i, ui in enumerate(key[0]) if ui
                 for j, vj in enumerate(key[1]) if vj), Fraction(0))
        return acc

    def basis_vector(self, b: int):
        return tuple(Fraction(int(i == b)) for i in range(self.dim_H))


@dataclass
class FockVector:
    """Sparse vector in the truncated tensor algebra, over one common
    denominator.

    terms maps words (tuples of basis indices) to {power of q: int}
    numerators, which denominator divides; zero numerators, and words
    left without any, are never stored.  coefficient() gives the exact
    QPoly.
    """

    terms: dict = field(default_factory=dict)
    denominator: int = 1

    @staticmethod
    def vacuum() -> "FockVector":
        return FockVector({(): {0: 1}})

    def coefficient(self, word: tuple) -> QPoly:
        d = self.denominator
        return QPoly.from_powers({p: Fraction(c, d) for p, c
                                  in self.terms.get(word, {}).items()})

    def is_zero(self) -> bool:
        return not self.terms


def q_inner(u: tuple, v: tuple, cfg: FockConfig) -> QPoly:
    """The q-deformed inner product of two basis words.

    <u, v>_q = sum over permutations pi of q^inv(pi) * prod <u_i, v_pi(i)>;
    zero when the lengths differ.
    """
    if len(u) != len(v):
        return QPoly.zero()
    k = len(u)
    if k > cfg.max_degree:
        raise TruncationExceeded(f"word degree {k} exceeds truncation {cfg.max_degree}")
    ips = [[cfg.inner[a][b] for b in v] for a in u]
    total = {}
    for pi in permutations(range(k)):
        prod = 1
        for i in range(k):
            prod *= ips[i][pi[i]]
            if not prod:
                break
        if not prod:
            continue
        inv = sum(1 for i in range(k) for j in range(i + 1, k) if pi[i] > pi[j])
        total[inv] = total.get(inv, 0) + prod
    return QPoly.from_powers(total)


def apply_field(h, v: FockVector, cfg: FockConfig,
                create_limit: int | None = None) -> FockVector:
    """Apply the field operator s(h) = l+(h) + l-(h) to a Fock vector.

    h is a coordinate vector over the configured spanning family.  The
    annihilation part uses l-(h)(h_1 x ... x h_k) =
    sum_i q^(i-1) <h, h_i> h_1 x ... (drop i) ... x h_k, with <h, e_b> =
    sum_i h_i inner[i][b] over the nonzero h_i and inner[i][b].

    Fraction-free: every term of the result takes exactly one factor from
    h, a creation coordinate h_b or a pairing <h, e_b>.  So with L the
    common denominator of those factors, the numerators are multiplied by
    the ints L h_b and L <h, e_b>, and the result's denominator is L times
    v's.

    create_limit, when given, silently drops creation terms above that
    degree (used internally by vacuum_moment where such terms provably do
    not contribute); otherwise creation beyond max_degree is an error.
    """
    h = [Fraction(x) if x else 0 for x in h]
    if len(h) != cfg.dim_H:
        raise ValueError("vector has wrong dimension")
    nonzero = [(i, x) for i, x in enumerate(h) if x]
    pairings = [0] * cfg.dim_H
    for i, x in nonzero:
        for b, g in enumerate(cfg.inner[i]):
            if g:
                pairings[b] += x * g
    L = common_denominator([x for _, x in nonzero] + pairings)
    create = [(b, exact(x * L)) for b, x in nonzero]
    pairings = [exact(ip * L) for ip in pairings]
    top = cfg.max_degree if create_limit is None else min(create_limit,
                                                          cfg.max_degree)
    out = {}
    for word, coeff in v.terms.items():
        new_len = len(word) + 1
        if new_len > cfg.max_degree and create_limit is None:
            raise TruncationExceeded(
                f"creation to degree {new_len} exceeds truncation {cfg.max_degree}")
        # creation: prepend h expanded over the basis
        if new_len <= top:
            for b, hb in create:
                _add_term(out, (b,) + word, coeff, 0, hb)
        # annihilation
        for i, wi in enumerate(word):
            ip = pairings[wi]
            if ip:
                _add_term(out, word[:i] + word[i + 1:], coeff, i, ip)
    return FockVector(out, v.denominator * L)


def _add_term(terms, word, coeff, shift, factor):
    """Add q^shift * factor * coeff to the numerators of word in terms,
    dropping what cancels."""
    acc = terms.get(word)
    if acc is None:
        terms[word] = {p + shift: c * factor for p, c in coeff.items()}
        return
    for p, c in coeff.items():
        p += shift
        c = acc.get(p, 0) + c * factor
        if c:
            acc[p] = c
        else:
            del acc[p]
    if not acc:
        del terms[word]


def vacuum_moment(word, cfg: FockConfig) -> QPoly:
    """<s(h_1)...s(h_m) Omega, Omega> computed by repeated apply_field.

    word is the list of coordinate vectors h_1..h_m.  Needs max_degree >=
    ceil(m/2).  A term longer than the fields still to act cannot return
    to the vacuum, so creation stops at that length, which keeps the
    computation exact and leaves no longer term to prune.
    """
    m = len(word)
    if m == 0:
        return QPoly.one()
    need = (m + 1) // 2
    if cfg.max_degree < need:
        raise TruncationExceeded(
            f"moment of a length-{m} word needs max_degree >= {need}, "
            f"got {cfg.max_degree}")
    state = FockVector.vacuum()
    # rightmost field operator acts first
    for step, h in enumerate(reversed(word), start=1):
        state = apply_field(h, state, cfg, create_limit=m - step)
    return state.coefficient(())


def gram_psd_check(k: int, cfg: FockConfig, q0, tol: float = 1e-10):
    """PSD witness for the degree-k Gram matrix at a numeric q.

    The Gram matrix of all degree-k basis words is assembled exactly over
    the rationals and checked by a floating-point eigensolve.  Returns
    (is_psd, min_eigenvalue).
    """
    import numpy as np

    q0 = Fraction(q0)
    n = cfg.dim_H ** k
    if n > GRAM_GUARD:
        raise SizeGuard(f"degree-{k} Gram has {n} words, guard is {GRAM_GUARD}")
    words = list(product(range(cfg.dim_H), repeat=k))
    gram = np.empty((n, n), dtype=float)
    for i, u in enumerate(words):
        for j, v in enumerate(words[: i + 1]):
            val = float(q_inner(u, v, cfg).eval(q0))
            gram[i, j] = val
            gram[j, i] = val
    eigs = np.linalg.eigvalsh(gram)
    min_eig = float(eigs[0])
    scale = max(1.0, float(np.abs(gram).max()))
    return min_eig >= -tol * scale, min_eig
