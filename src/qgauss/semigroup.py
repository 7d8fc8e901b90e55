"""The contraction semigroup, number operator, and rotation deformation on
spans of Wick words.

Time is always the rational contraction factor c = e^{-t}; the rotation is
handled through its rational cosine, with the sine carried implicitly by a
doubled coefficient space whose second block has inner product scaled by
1 - c^2 (sines only ever occur squared in trace pairings).
"""

from __future__ import annotations

from fractions import Fraction

from .moments import WickWord, trace_pairing, wick_inner_product
from .qfock import FockConfig
from .qpoly import QPoly


class WickSpanElement:
    """Formal combination of Wick words with QPoly coefficients, as a list
    of (coefficient, word) terms whose coefficients are nonzero."""

    def __init__(self, terms=()):
        self._terms = [(c, w) for c, w in terms if not c.is_zero()]

    @staticmethod
    def from_word(w: WickWord, coeff=1) -> "WickSpanElement":
        return WickSpanElement([(QPoly.coerce(coeff), w)])

    def __add__(self, other: "WickSpanElement") -> "WickSpanElement":
        return WickSpanElement(self._terms + other._terms)

    def scale_by_degree(self, factor) -> "WickSpanElement":
        """Multiply each degree-s component by factor(s)."""
        return WickSpanElement((c * QPoly.coerce(factor(w.degree)), w)
                               for c, w in self._terms)

    def degrees(self):
        return sorted({w.degree for _, w in self._terms})

    def terms(self):
        """(degree, coefficient, word) for each term, by degree."""
        for coeff, w in sorted(self._terms, key=lambda t: t[1].degree):
            yield w.degree, coeff, w


def apply_Tt(x: WickSpanElement, c) -> WickSpanElement:
    """T_t with e^{-t} = c: multiply each degree-s component by c^s."""
    c = Fraction(c)
    if not 0 < c <= 1:
        raise ValueError("contraction factor must lie in (0, 1]")
    return x.scale_by_degree(lambda s: c ** s)


def number_operator(x: WickSpanElement) -> WickSpanElement:
    """Multiply each degree-k component by k."""
    return x.scale_by_degree(lambda k: k)


def span_inner(x: WickSpanElement, y: WickSpanElement) -> QPoly:
    """Bilinear extension of the Wick inner product (exact)."""
    total = {}
    for _, cx, wx in x.terms():
        for _, cy, wy in y.terms():
            ip = wick_inner_product(wx, wy)
            if not ip.is_zero():
                (cx * cy * ip).add_to(total)
    return QPoly.from_powers(total)


# ---------------------------------------------------------------------
# rotation deformation


def doubled_config(cfg: FockConfig, c) -> FockConfig:
    """Coefficient space for H + H with the second block's inner product
    scaled by 1 - c^2 (the squared sine of the rotation angle)."""
    c = Fraction(c)
    d = cfg.dim_H
    w = 1 - c * c
    if w == 0:
        w = Fraction(1)  # theta = 0: the second copy is never populated
    inner = [[Fraction(0)] * (2 * d) for _ in range(2 * d)]
    for i in range(d):
        for j in range(d):
            inner[i][j] = cfg.inner[i][j]
            inner[d + i][d + j] = w * cfg.inner[i][j]
    return FockConfig(2 * d, tuple(tuple(r) for r in inner),
                      cfg.max_degree)


def _embed_first(h):
    return tuple(Fraction(x) for x in h) + (Fraction(0),) * len(h)


def _rotate(h, c):
    """alpha_theta applied to h + 0: cos(theta) h in the first block and
    (implicitly sine-weighted) h in the second, which stays zero at c = 1,
    where the rotation is the identity (see doubled_config)."""
    if c == 1:
        return _embed_first(h)
    return tuple(c * Fraction(x) for x in h) + tuple(Fraction(x) for x in h)


def alpha_theta_projected_moment(w: WickWord, c, test_words) -> dict:
    """Certify (E_M o alpha_theta)(x_sigma) = cos(theta)^s x_sigma by trace
    pairing: for every test word y (vectors in H),
    tau(y* alpha_theta(x_sigma)) must equal c^s tau(y* x_sigma), computed
    exactly on the doubled coefficient space.

    The right-hand side pairs w and y themselves, so every y needs w's
    backend and Fock configuration (else ValueError).

    Returns the eigenfactor and the certificate.
    """
    c = Fraction(c)
    if not 0 < c <= 1:
        raise ValueError("cos(theta) must lie in (0, 1]")
    cfg2 = doubled_config(w.cfg, c)
    s = w.degree
    factor = c ** s

    def lift(word: WickWord, vec_map) -> WickWord:
        return WickWord(word.sigma, word.xs,
                        tuple(vec_map(h) for h in word.hs),
                        word.backend, cfg2)

    w_rot = lift(w, lambda h: _rotate(h, c))
    checked = 0
    certified = True
    witness = None
    for y in test_words:
        rhs = trace_pairing(w, y).scale(factor)
        lhs = trace_pairing(w_rot, lift(y, _embed_first))
        checked += 1
        if lhs != rhs:
            certified = False
            witness = f"pairing mismatch on test word #{checked}"
            break
    return {
        "factor": factor,
        "degree": s,
        "certified": certified,
        "pairings_checked": checked,
        "witness": witness,
    }
