"""The moment engine: transfer-matrix limit and Q-matrix moments, exact
finite-n moments, Wick-word reduction, inner products, and trace
pairings.

Words are sequences of (x, h) letters: x an A-element of the chosen
backend, h a rational coordinate vector over the Fock configuration's
spanning family.  All results are exact polynomials in q (or exact
rationals where a numeric Q-matrix replaces q).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations

from .algebra import common_denominator, exact
from .copies import FreeHaarBackend, pi_word, require_window
from .partitions import (Partition12, _check_cap, crossing_number,
                         encoding_map)
from .qfock import FockConfig
from .qpoly import QPoly


def _pair_product(sigma: Partition12, hs, cfg: FockConfig):
    out = 1
    for l, r in sigma.sorted_pairs():
        out *= exact(cfg.ip(hs[l - 1], hs[r - 1]))
        if not out:
            break
    return out


def _encoded_word(sigma: Partition12, xs, backend):
    """The pi-word of xs with copy indices from the encoding map of sigma."""
    phi = encoding_map(sigma)
    return pi_word(backend, xs, [phi[pos] for pos in range(1, sigma.m + 1)])


def reduced_coefficient(sigma: Partition12, xs, backend):
    """F_sigma alone (no Fock data needed): the conditional expectation of
    the encoded pi-word onto the first s copies."""
    return backend.expect(range(1, sigma.num_singletons + 1),
                          _encoded_word(sigma, xs, backend))


def trace_of_partition_term(sigma: Partition12, xs, hs, backend,
                            cfg: FockConfig) -> QPoly:
    """tau of the single-partition component x_sigma of a word.

    Zero unless sigma is a pair partition; otherwise
    q^cr(sigma) * prod <h_l,h_r> * tau_D of the pi-word with the canonical
    index assignment (pairs get indices 1..p ordered by left leg).
    """
    if not sigma.is_pair_partition():
        return QPoly.zero()
    ip = _pair_product(sigma, hs, cfg)
    if not ip:
        return QPoly.zero()
    tr = backend.trace(_encoded_word(sigma, xs, backend))
    if not tr:
        return QPoly.zero()
    return QPoly.monomial(crossing_number(sigma), ip * tr)


def _arc_scan(xs, tags, backend, ip, Q=None) -> dict:
    """Sum over the pair partitions sigma of the word xs of
    weight(sigma) * tau_D(pi-word of sigma), by one left-to-right scan;
    returned as a {power: exact rational} dict.  A weight stays an int
    while every factor is integral (see algebra.exact); int and Fraction
    arithmetic mix exactly, so the form changes only the cost.

    Each letter carries a tag (key, vector id).  A state is the stack of
    open arcs, oldest first, and P.  Arc i carries copy label i+1 and
    keeps only the tag of its left leg: its letter is already in P, so
    states that differ only in where their arcs opened merge.  P is the
    prefix pi-word projected onto the open labels 1..k, the reduced
    coefficient of the prefix.  States with equal (stack, P) are merged by
    adding weights; a tag is a pair of small ints (a singleton's key in a
    trace pairing is None), so stacks hash cheaply.

    At each letter a state opens an arc, P * pi_{k+1}(x), while the
    letters left can still close every open arc, or closes arc i by
    backend.close(P, pi_{i+1}(x), i+1, k), which the copies module
    docstring shows exact.  Every scan of the module closes by one rule:
    the letter closes arc i only if the arc has the letter's key; the
    factor is ip[arc's vector][letter's vector], times Q[key][key']
    for each arc still open above arc i when a matrix Q is given; the
    power is k-1-i; and a zero factor prunes the closing.  A letter is
    embedded only at the labels a state uses, and once per label.

    _advance also takes opens, which fixes each letter's move (True
    opens, False closes); with the keys, it restricts the sum to a family
    of pair partitions.  trace_pairing restricts it to the convolution
    joins that are pair partitions.  Each partition that survives is
    summed exactly as without the restriction: closing arc i of k open
    arcs crosses exactly the k-1-i arcs opened after it and still open,
    so the powers add up to the crossing number (the number of Q factors
    when Q is given), and the closing (axiom 4 and exchangeability, see
    copies) keeps P the reduced coefficient of the prefix whichever arcs
    were closed.

    The states after a prefix are a function of the prefix's letters,
    tags and moves, of the number of letters after it (which the opening
    rule reads), of the entries of ip and Q at the prefix's own tags, and
    of the backend; nothing else reaches them.  So _advance may stop
    after a prefix and later resume from its states with the rest of the
    word, and the result is the one scan's, term by term: each join is
    still summed exactly once.  trace_pairing resumes that way.
    """
    return _traces(_advance({((), backend.one()): {0: 1}}, xs, tags,
                            backend, ip, Q, None, 0), backend)


def _advance(states, xs, tags, backend, ip, Q, opens, after) -> dict:
    """The scan states of _arc_scan after the letters xs, from the states
    before them, when after more letters follow xs; states and its
    weights are left unmodified.

    Each letter object is embedded once per label for the whole call,
    through a memo keyed by its id: xs holds every letter until the call
    returns, so no id is reused meanwhile."""
    m = len(xs) + after
    embedded = {}  # id(x) -> {j: pi_j(x)}
    for pos, (x, tag) in enumerate(zip(xs, tags)):
        left = m - pos - 1
        move = None if opens is None else opens[pos]
        key, h = tag
        # it opens a label <= min(pos + 1, left) or closes one <= min(pos,
        # m - pos), so labels stay within m/2 <= window
        pis = embedded.setdefault(id(x), {})

        def pi(j):
            if j not in pis:
                pis[j] = backend.pi(j, x)
            return pis[j]

        nxt = {}
        for (stack, P), weight in states.items():
            k = len(stack)
            if k < left and move is not False:
                _add_state(nxt, stack + (tag,), P * pi(k + 1), weight)
            if move is True:
                continue
            for i, (arc_key, v) in enumerate(stack):
                if arc_key != key:
                    continue
                factor = ip[v][h]
                if Q is not None:
                    for above, _ in stack[i + 1:]:
                        factor *= Q[key][above]
                if not factor:
                    continue
                R = backend.close(P, pi(i + 1), i + 1, k)
                _add_state(nxt, stack[:i] + stack[i + 1:], R, weight,
                           k - 1 - i, factor)
        states = nxt
    return states


def _traces(states, backend) -> dict:
    """The {power of q: exact rational} sum of weight * tau_D(P) over the
    final scan states."""
    total = {}
    for (_, P), weight in states.items():
        tr = backend.trace(P)
        for p, c in weight.items():
            total[p] = total.get(p, 0) + c * tr
    return total


def _add_state(states, stack, P, weight, power=0, factor=1):
    """Add q^power * factor * weight to the weight of state (stack, P)."""
    if P.is_zero():
        return
    acc = states.setdefault((stack, P), {})
    scaled = factor != 1
    for p, c in weight.items():
        p += power
        acc[p] = acc.get(p, 0) + (c * factor if scaled else c)


def _int_pairings(hs, cfg: FockConfig):
    """Each distinct vector of hs as a small int id, in order of first
    appearance; the table ip[a][b] of the inner products of the vectors
    with ids a and b times L; and L, their common denominator, so that
    every entry is an int.  A scan that pairs m vectors by this table
    closes m/2 arcs on every pair partition, so its sum is L^(m/2) times
    the exact one."""
    ids = {}
    vids = [ids.setdefault(tuple(h), len(ids)) for h in hs]
    ip = _ip_table(ids, cfg)
    L = common_denominator(c for row in ip for c in row)
    return vids, [[exact(c * L) for c in row] for row in ip], L


def _ip_table(vectors, cfg: FockConfig):
    """ip[a][b], the exact inner product of the a-th and b-th vectors."""
    return [[exact(cfg.ip(u, v)) for v in vectors] for u in vectors]


def moment(word, backend, cfg: FockConfig) -> QPoly:
    """tau(s(x_1,h_1)...s(x_m,h_m)) as an exact polynomial in q.

    The sum over pair partitions of q^cr * prod<h_l,h_r> * tau_D(pi-word),
    zero for odd m, computed by a transfer-matrix scan over the reduced
    coefficients (see _arc_scan), every letter of one key.  The scan
    pairs the vectors by ints (_int_pairings), and the sum is divided by
    L^(m/2) once.
    """
    word = list(word)
    m = len(word)
    if m % 2:
        return QPoly.zero()
    require_window(backend, m // 2, f"word of length {m}")

    vids, ip, L = _int_pairings([h for _, h in word], cfg)
    scale = L ** (m // 2)
    return QPoly.from_powers({
        p: Fraction(c, scale) for p, c in
        _arc_scan([x for x, _ in word], [(0, v) for v in vids], backend,
                  ip).items()})


# ---------------------------------------------------------------------
# finite-n generators


def enumerate_set_partitions(colors):
    """The set partitions of the positions 1..len(colors) whose blocks are
    even and color-constant, as sorted tuples of sorted blocks, in the
    order of the Bell recursion (point k joins each open block in turn,
    then opens its own; matmodel's Monte Carlo sums rely on it).  Point k
    joins only blocks of its color, and a branch stops once a color has
    more odd blocks than points left to place."""
    _check_cap(len(colors))
    left = Counter(colors)  # points of each color not yet placed
    odd = Counter()  # odd blocks of each color
    blocks = []

    def place(k, b, c):
        b.append(k)
        change = 1 if len(b) % 2 else -1
        odd[c] += change
        if odd[c] <= left[c]:
            yield from rec(k + 1)
        odd[c] -= change
        b.pop()

    def rec(k):
        if k > len(colors):
            yield tuple(tuple(b) for b in blocks)
            return
        c = colors[k - 1]
        left[c] -= 1
        for b in blocks:
            if colors[b[0] - 1] == c:
                yield from place(k, b, c)
        blocks.append([])
        yield from place(k, blocks[-1], c)
        blocks.pop()
        left[c] += 1

    yield from rec(1)


def coincidences(xs, colors, n: int, backend):
    """The coincidence partitions of a word's copy indices that a finite-n
    sum over index tuples needs: for each even, color-constant partition
    with at most n blocks of each color, (blocks, slots, tau), slots[i]
    the block of position i+1 and tau != 0 the trace of the pi-word at the
    representative tuple (block t gets copy t+1), which by exchangeability
    depends on the partition only.  An odd block contributes nothing: the
    sign-matrix trace vanishes, and the Wick factor (slot_moments) pairs
    points only inside one block.
    """
    for blocks in enumerate_set_partitions(colors):
        if any(c > n for c in Counter(colors[b[0] - 1]
                                      for b in blocks).values()):
            continue
        block_of = {pos: t for t, b in enumerate(blocks) for pos in b}
        slots = tuple(block_of[pos] for pos in range(1, len(colors) + 1))
        tau = backend.trace(pi_word(backend, xs, [t + 1 for t in slots]))
        if tau:
            yield blocks, slots, tau


def slot_moments(hs, cfg: FockConfig):
    """A function of the slot of each position returning the q-Fock vacuum
    moment of the vectors e_slot (x) h on l2_r (x) H, r slots in all and
    h the vectors hs in order.

    That moment is the q-Wick sum of q^cr * prod <e_l (x) h_l, e_r (x) h_r>
    over the pair partitions (Bozejko-Speicher), and the factor is
    [slot_l = slot_r] <h_l, h_r>.  So it is the scan of _arc_scan over
    unit letters, every trace 1, keyed by slot: a letter closes only an
    arc of its own slot, and crosses every arc opened after that one and
    still open, whatever its slot.  As in moment(), the scan pairs the
    vectors by ints and its sum is divided by L^(m/2) once.
    """
    m = len(hs)
    units = FreeHaarBackend(max(1, m // 2))
    letters = [units.A_one] * m
    vids, ip, L = _int_pairings(hs, cfg)
    scale = L ** (m // 2)

    def vacuum_moment(slots):
        return QPoly.from_powers({
            p: Fraction(c, scale) for p, c in
            _arc_scan(letters, list(zip(slots, vids)), units, ip).items()})

    return vacuum_moment


def finite_n_moment(word, backend, n: int, cfg: FockConfig) -> QPoly:
    """Exact moment of the finite-n generators.

    tau(u_n(x_1,h_1)...u_n(x_m,h_m)) with
    u_n(x,h) = n^{-1/2} sum_j s(e_j (x) h) (x) pi_j(x): the sum over all
    index tuples is grouped by the coincidence partition, each class
    contributing (n falling |rho|) times its representative value.
    """
    if n < 1:
        raise ValueError("n must be positive")
    word = list(word)
    m = len(word)
    if m == 0:
        return QPoly.one()
    if m % 2:
        return QPoly.zero()
    # blocks are even, so a partition uses at most m/2 copies
    require_window(backend, min(n, m // 2), "finite-n moment")
    fock = slot_moments([h for _, h in word], cfg)
    total = {}
    for blocks, slots, tau in coincidences([x for x, _ in word], [0] * m,
                                           n, backend):
        fock(slots).add_to(total, tau * math.perm(n, len(blocks)))
    return QPoly.from_powers(total).scale(Fraction(1, n ** (m // 2)))


# ---------------------------------------------------------------------
# Q-matrix moments


def check_q_matrix(Qm, colors) -> list:
    """Qm with exact entries (algebra.exact), once it is square, symmetric
    with entries in [-1, 1] and has a row for every color of colors; else
    ValueError names the first row, entry or letter at fault."""
    Q = [[exact(x) for x in row] for row in Qm]
    for i, row in enumerate(Q):
        if len(row) != len(Q):
            raise ValueError(f"Q[{i}]: has {len(row)} entries, Q has "
                             f"{len(Q)} rows")
    for i, row in enumerate(Q):
        for j, x in enumerate(row):
            if x != Q[j][i] or abs(x) > 1:
                raise ValueError(f"Q[{i}][{j}]: {x} breaks symmetry "
                                 "or lies outside [-1, 1]")
    for i, c in enumerate(colors):
        if not 0 <= c < len(Q):
            raise ValueError(f"word[{i}].color: {c} is outside the "
                             f"{len(Q)}x{len(Q)} Q matrix")
    return Q


def q_matrix_moment(word, colors, Qm, backend, cfg: FockConfig) -> Fraction:
    """Moment with the crossing weight q replaced by per-color-pair
    entries: each crossing ({a,b},{c,d}), a<c<b<d, contributes
    Q[t_a][t_c].  Pairs must match colors (variables of different colors
    have covariance zero, as the sign-matrix model realizes); partitions
    pairing distinct colors contribute nothing.  For monochromatic words
    with constant Qm = q0 this reduces to moment() evaluated at q0.
    Exact when Qm is rational.

    Computed by the same scan as moment(), keyed by color and given Q
    (see _arc_scan, which says why projecting each closed arc away is
    exact).  The weights stay ints: the scan pairs vectors by ints
    (_int_pairings), and crosses arcs by the entries of Q times their
    common denominator LQ.  A closing's power is the number of Q factors
    it takes, so the scan's coefficient c_p sums the terms with p factors
    in all, each scaled by L^(m/2) * LQ^p, and the moment is the Fraction
    sum of c_p / (L^(m/2) * LQ^p).
    """
    word = list(word)
    m = len(word)
    colors = list(colors)
    if len(colors) != m:
        raise ValueError("one color per letter required")
    Qm = check_q_matrix(Qm, colors)
    if m % 2:
        return Fraction(0)
    require_window(backend, m // 2, f"word of length {m}")
    vids, ip, L = _int_pairings([h for _, h in word], cfg)
    LQ = common_denominator(x for row in Qm for x in row)
    Qm = [[exact(x * LQ) for x in row] for row in Qm]
    total = _arc_scan([x for x, _ in word], list(zip(colors, vids)), backend,
                      ip, Qm)
    top = max(total, default=0)
    return Fraction(sum(c * LQ ** (top - p) for p, c in total.items()),
                    L ** (m // 2) * LQ ** top)


# ---------------------------------------------------------------------
# Wick words


@dataclass
class WickWord:
    """A partition-indexed generator x_sigma(x_1..x_m; h_1..h_m).

    The five fields define the word, and == and repr read only them.  A
    word is not modified after construction, so what derives from it is
    computed when first read and kept on the word: f_sigma, the scalar
    q^cr * prod<h_l,h_r>; F_sigma, the reduced coefficient
    E_{A_{1..s}}(pi_{phi(1)}(x_1)...pi_{phi(m)}(x_m)); and the data of
    the two Gram paths, each under the word's own cfg and backend
    (pairing_left, adjoint_prefix and relabeled).
    """

    sigma: Partition12
    xs: tuple
    hs: tuple
    backend: object
    cfg: FockConfig

    @cached_property
    def degree(self) -> int:
        return self.sigma.num_singletons

    @cached_property
    def F_sigma(self):
        require_window(self.backend, self.degree + self.sigma.num_pairs,
                       "reduction")
        return reduced_coefficient(self.sigma, self.xs, self.backend)

    @cached_property
    def f_sigma(self) -> QPoly:
        return QPoly.monomial(crossing_number(self.sigma),
                              _pair_product(self.sigma, self.hs, self.cfg))

    @cached_property
    def relabeled(self) -> dict:
        """{gamma: F_sigma relabeled by gamma}, filled by the pairings."""
        return {}

    @cached_property
    def pairing_left(self):
        """trace_pairing's data for the word as its left word."""
        return _pairing_side(self, False)

    @cached_property
    def adjoint_prefix(self):
        """The scan states after adj(w), with {vector: id} over adj(w)'s
        vectors and their inner-product table: the start of every trace
        pairing with w that scans.

        By _arc_scan's docstring the states depend on adj(w), the number
        of letters after it, that table and the backend alone.  A scan
        pairs w only with a word of its degree, and then the opening rule
        prunes no letter of adj(w): each arc open after it is closed later
        by a right leg in adj(w) or by one of the degree-many singletons
        of the other word.  So the scan counts w's degree as the letters
        to follow."""
        xs, tags, opens, ids = _pairing_side(self, True)
        ip = _ip_table(ids, self.cfg)
        return _advance({((), self.backend.one()): {0: 1}}, xs, tags,
                        self.backend, ip, None, opens, self.degree), ids, ip

    def singleton_vectors(self):
        return [self.hs[k - 1] for k in self.sigma.sorted_singletons()]

    def adjoint(self) -> "WickWord":
        """The Wick word of the adjoint: reversed partition, reversed
        starred coefficients, reversed vectors."""
        return WickWord(self.sigma.reversed(),
                        tuple(x.star() for x in reversed(self.xs)),
                        tuple(reversed(self.hs)),
                        self.backend, self.cfg)


def reduce(sigma: Partition12, xs, hs, backend, cfg: FockConfig) -> WickWord:
    """Compute the reduced form x_sigma = f_sigma * W_sigma now.

    The encoding map sends the t-th singleton to copy index t and the t-th
    pair to s+t; F_sigma is the conditional expectation onto the first s
    copies of the resulting pi-word.
    """
    w = WickWord(sigma, tuple(xs), tuple(hs), backend, cfg)
    w.F_sigma  # the window check comes first
    w.f_sigma
    return w


def _same_setting(w1: WickWord, w2: WickWord) -> bool:
    """Whether the words have one singleton degree, after refusing to
    pair words under different backends or inner products, which fix
    dim_H; no pairing reads max_degree.  Identity first, as equality walks
    the Fraction matrices."""
    if w1.backend is not w2.backend or not (
            w1.cfg is w2.cfg or w1.cfg.inner == w2.cfg.inner):
        raise ValueError("paired words need one backend and one Fock "
                         "configuration, up to max_degree")
    return w1.degree == w2.degree


def wick_inner_product(w1: WickWord, w2: WickWord) -> QPoly:
    """<x_sigma, x_nu> = tau(x_nu* x_sigma), via the reduced forms.

    Zero when the singleton degrees differ; otherwise
    f1 * f2 * sum over gamma in S_k of q^inv(gamma)
    * prod_s <g_{gamma(s)}, g~_s>
    * tau_D(relabel(t -> gamma(t))(F2)* F1).
    The last factor is AlgebraElement.inner of the relabeled F2 and F1,
    read from their supports without forming the product; the k x k
    singleton inner products are tabled once per pair of words, and each
    relabeled F2 is built once per word (w2.relabeled).
    """
    if not _same_setting(w1, w2):
        return QPoly.zero()
    F1, F2 = w1.F_sigma, w2.F_sigma
    if (F1.is_zero() or F2.is_zero() or w1.f_sigma.is_zero()
            or w2.f_sigma.is_zero()):
        return QPoly.zero()
    k = w1.degree
    ip = [[exact(w1.cfg.ip(u, v)) for v in w2.singleton_vectors()]
          for u in w1.singleton_vectors()]
    identity = tuple(range(1, k + 1))
    total = {}
    for gamma in permutations(identity):
        vec = 1
        for s, t in enumerate(gamma):
            vec *= ip[t - 1][s]
            if not vec:
                break
        if not vec:
            continue
        relabeled = F2 if gamma == identity else w2.relabeled.get(gamma)
        if relabeled is None:
            relabeled = w2.relabeled[gamma] = w2.backend.relabel(
                dict(zip(identity, gamma)), F2)
        tr = relabeled.inner(F1)
        if not tr:
            continue
        inv = sum(1 for i in range(k) for j in range(i + 1, k)
                  if gamma[i] > gamma[j])
        total[inv] = total.get(inv, 0) + vec * tr
    if not total:
        return QPoly.zero()
    return w1.f_sigma * w2.f_sigma * QPoly.from_powers(total)


def _pairing_side(w: WickWord, adjoint: bool):
    """trace_pairing's data for w as its left word, or, with adjoint, for
    adj(w) as the prefix of the scan.

    Returns the letters; for each letter its tag, (key, id), and whether
    it opens an arc; and {vector: id} over the distinct vectors, in order
    of first appearance.  The key of a letter in a pair is the position of
    its pair's left leg, negated in the left word so that the keys of the
    two words differ whatever their lengths; a singleton's key is None.
    """
    src = w.adjoint() if adjoint else w
    left_leg = {}
    for l, r in src.sigma.pairs:
        left_leg[l] = left_leg[r] = l if adjoint else -l
    ids = {}
    tags, opens = [], []
    for p, h in enumerate(src.hs, 1):
        key = left_leg.get(p)
        tags.append((key, ids.setdefault(tuple(h), len(ids))))
        # a left leg opens, a right leg closes; a singleton of adj(w)
        # opens and one of the left word closes
        opens.append(adjoint if key is None else abs(key) == p)
    return src.xs, tags, opens, ids


def trace_pairing(w1: WickWord, w2: WickWord) -> QPoly:
    """tau(w2* w1), an independent path to the Wick Gram: the sum over the
    convolution joins of adj(w2) and w1 that are pair partitions of
    q^cr * prod <h_l,h_r> * tau_D(pi-word), by the scan of _arc_scan on
    the concatenated word adj(w2) w1.

    A left leg of a pair of either word, or a singleton of adj(w2), opens
    an arc; a right leg may close only its own pair's arc, and a
    singleton of w1 any arc opened by a singleton of adj(w2).  With
    unequal singleton degrees no join is a pair partition.

    The scan resumes from the states after adj(w2), kept on w2
    (WickWord.adjoint_prefix).  That is exact because those states depend
    on nothing else (see _arc_scan and WickWord.adjoint_prefix): the
    vectors of adj(w2) take the first ids of the joint table, so the
    factors of its own closings are the ones a whole scan would use.

    The pairing is zero, with no scan of w1's letters, when either word's
    adjoint-prefix states are empty.  Empty states after adj(w2) mean
    that every join's term has vanished before w1 is read.  Empty states
    after adj(w1) mean, by the same reasoning, that tau(w1* y) = 0 for
    every y of w1's degree, w2 among them.  And tau(w2* w1) =
    tau(w1* w2): the mirror image of a join of adj(w2) w1 is a join of
    adj(w1) w2 with the same crossing number and inner products, and its
    pi-word is the starred reverse, whose tau_D is the complex conjugate;
    every coefficient, inner product and tau_D value is a real rational.
    """
    if not _same_setting(w1, w2):
        return QPoly.zero()
    m = w2.sigma.m + w1.sigma.m
    backend = w1.backend
    require_window(backend, m // 2, f"word of length {m}")
    states, ids, ip = w2.adjoint_prefix
    if not states or not w1.adjoint_prefix[0]:
        return QPoly.zero()
    ids = dict(ids)
    xs, tags, opens, ids1 = w1.pairing_left
    joint = [ids.setdefault(h, len(ids)) for h in ids1]
    tags = [(key, joint[v]) for key, v in tags]
    if len(ids) > len(ip):  # w1 brings vectors of its own
        ip = _ip_table(ids, w1.cfg)
    states = _advance(states, xs, tags, backend, ip, None, opens, 0)
    return QPoly.from_powers(_traces(states, backend))
