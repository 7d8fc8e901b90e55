"""Brute-force oracle: the truncated q-Fock space over a finite-dimensional
real inner-product space.

Vectors carry exact QPoly coefficients, so vacuum moments come out as exact
polynomials in q.  This module is deliberately independent of the partition
combinatorics in :mod:`qgauss.moments`; the two are checked against each
other in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product

from .algebra import is_positive_definite
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
            acc = self._ip_memo[key] = sum(
                (Fraction(ui) * self.inner[i][j] * Fraction(vj)
                 for i, ui in enumerate(key[0]) if ui
                 for j, vj in enumerate(key[1]) if vj), Fraction(0))
        return acc

    def basis_vector(self, b: int):
        return tuple(Fraction(int(i == b)) for i in range(self.dim_H))


@dataclass
class FockVector:
    """Sparse vector in the truncated tensor algebra.

    terms maps words (tuples of basis indices) to QPoly coefficients; zero
    coefficients are never stored.
    """

    terms: dict = field(default_factory=dict)

    @staticmethod
    def vacuum() -> "FockVector":
        return FockVector({(): QPoly.one()})

    def add_term(self, word: tuple, coeff):
        coeff = QPoly.coerce(coeff)
        if coeff.is_zero():
            return
        cur = self.terms.get(word)
        new = coeff if cur is None else cur + coeff
        if new.is_zero():
            self.terms.pop(word, None)
        else:
            self.terms[word] = new

    def coefficient(self, word: tuple) -> QPoly:
        return self.terms.get(word, QPoly.zero())

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
    ips = [
        [cfg.ip(cfg.basis_vector(a), cfg.basis_vector(b)) for b in v]
        for a in u
    ]
    total = {}
    for pi in permutations(range(k)):
        prod = Fraction(1)
        for i in range(k):
            prod *= ips[i][pi[i]]
            if prod == 0:
                break
        if prod == 0:
            continue
        inv = sum(1 for i in range(k) for j in range(i + 1, k) if pi[i] > pi[j])
        total[inv] = total.get(inv, 0) + prod
    return QPoly.from_powers(total)


def apply_field(h, v: FockVector, cfg: FockConfig,
                create_limit: int | None = None) -> FockVector:
    """Apply the field operator s(h) = l+(h) + l-(h) to a Fock vector.

    h is a coordinate vector over the configured spanning family.  The
    annihilation part uses l-(h)(h_1 x ... x h_k) =
    sum_i q^(i-1) <h, h_i> h_1 x ... (drop i) ... x h_k.

    create_limit, when given, silently drops creation terms above that
    degree (used internally by vacuum_moment where such terms provably do
    not contribute); otherwise creation beyond max_degree is an error.
    """
    h = tuple(Fraction(x) for x in h)
    if len(h) != cfg.dim_H:
        raise ValueError("vector has wrong dimension")
    out = FockVector()
    # <h, e_b> for the annihilation contractions
    pairings = [cfg.ip(h, cfg.basis_vector(b)) for b in range(cfg.dim_H)]
    for word, coeff in v.terms.items():
        # creation: prepend h expanded over the basis
        new_len = len(word) + 1
        if new_len > cfg.max_degree and create_limit is None:
            raise TruncationExceeded(
                f"creation to degree {new_len} exceeds truncation {cfg.max_degree}")
        if create_limit is None or new_len <= min(create_limit, cfg.max_degree):
            for b, hb in enumerate(h):
                if hb:
                    out.add_term((b,) + word, coeff * hb)
        # annihilation
        for i, wi in enumerate(word):
            ip = pairings[wi]
            if ip == 0:
                continue
            out.add_term(word[:i] + word[i + 1:],
                         coeff * QPoly.monomial(i, ip))
    return out


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
