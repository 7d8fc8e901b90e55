"""A plain checker of the copy axioms, kept as the test oracle of
qgauss.copies.axiom_check: every case rebuilds its pi-words from the
unit, one letter at a time, and calls backend.expect afresh.  Nothing is
memoized, so it shares no shortcut with the checker."""

from itertools import permutations, product

from qgauss.copies import AXIOM3_WORD_LEN, AXIOM4_WORD_LEN, AXIOM_INDICES

INDICES = range(1, AXIOM_INDICES + 1)

#: The subsets of INDICES in axiom_check's order: bit j-1 of the position
#: says whether j is in the subset.
SUBSETS = [frozenset(j for j in INDICES if mask >> (j - 1) & 1)
           for mask in range(2 ** AXIOM_INDICES)]


def _words(items, max_len):
    for length in range(1, max_len + 1):
        yield from product(items, repeat=length)


def _tally(cases):
    """(ok, checked, witness) up to the first failing case."""
    checked = 0
    for witness in cases:
        checked += 1
        if witness is not None:
            return False, checked, witness
    return True, checked, None


def axiom_reports(backend, word_len):
    """{k: (ok, checked, witness)} for axioms k = 1..4, with the cases,
    their order and the witnesses of axiom_check."""
    names = list(backend.S)
    nontrivial = [n for n in names if n != "1"] or names

    def word(letters):
        x = backend.one()
        for j, name in letters:
            x = x * backend.pi(j, backend.S[name])
        return x

    def axiom1():
        for j in INDICES:
            for b in backend.B_basis:
                yield None if backend.pi(j, b) == b else \
                    f"pi({j}, b) != b for b={b!r}"

    def axiom2():
        for w in _words(names, word_len):
            for js in product(INDICES, repeat=len(w)):
                base = backend.expect(frozenset(), word(zip(js, w)))
                for rho in permutations(INDICES):
                    moved = [rho[j - 1] for j in js]
                    val = backend.expect(frozenset(), word(zip(moved, w)))
                    yield None if val == base else (
                        f"E_B not invariant: word len {len(w)}, "
                        f"indices {js}, relabeling {rho}")

    def axiom3():
        for J in SUBSETS:
            for I in SUBSETS:
                outside = [j for j in range(1, backend.window + 1)
                           if j not in J]
                if not I < J or not outside:
                    continue
                j = outside[0]
                middles = [()] + [tuple(zip(ks, w))
                                  for w in _words(nontrivial, AXIOM3_WORD_LEN)
                                  for ks in product(sorted(I), repeat=len(w))]
                for a, ap, mid in product(names, names, middles):
                    x = word(((j, a),) + mid + ((j, ap),))
                    same = backend.expect(I, x) == backend.expect(J, x)
                    yield None if same else f"I={set(I)}, J={set(J)}, j={j}"

    def axiom4():
        gens = [(j, n) for j in INDICES for n in nontrivial]
        xs = [()] + list(_words(gens, AXIOM4_WORD_LEN))
        for I in SUBSETS:
            for J in SUBSETS:
                for letters in xs:
                    x = word(letters)
                    lhs = backend.expect(I, backend.expect(J, x))
                    yield None if lhs == backend.expect(I & J, x) else \
                        f"I={set(I)}, J={set(J)}"

    return {k: _tally(cases()) for k, cases in
            ((1, axiom1), (2, axiom2), (3, axiom3), (4, axiom4))}
