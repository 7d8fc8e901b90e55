"""The benchmark's workloads.

Each workload makes its inputs from a seed (scenario files for the CLI and
exact values for direct calls), sets up its backends, and runs rounds of
operations.  Every round is the same list of computations, each checked
against a value made apart from the program: a closed form from
``refs``, or a slower oracle.  ``probe`` measures ``longest_word``.

All qgauss functions are called through their module attributes so that
the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import os
import random
import signal
import sys
import time
from collections import defaultdict
from fractions import Fraction as F
from itertools import product

import numpy as np

import refs
from qgauss import (algebra, cli, dimensions, moments, partitions, qfock,
                    semigroup)
from qgauss.copies import FreeHaarBackend, PermGroupBackend
from qgauss.errors import QGaussError
from qgauss.partitions import Partition12
from qgauss.qfock import FockConfig
from qgauss.scenario import Scenario

#: Per-moment time budget of the longest_word ladders, in seconds.
BUDGET_S = 1.0
#: Longest word a ladder tries.
RUNG_CAP = 32

H1 = (F(1),)
FAILED = object()

#: reduce() takes f_sigma = q^cr(sigma) * prod <h_l, h_r> with cr counting
#: pair-pair crossings only, so a singleton under a pair arc loses its
#: factor q: <x_{(1)}, x_{(1,3)(2)}> comes out 1 from wick_inner_product
#: where trace_pairing and the Fock space give q.  Every Gram entry that
#: differs between the two paths differs by exactly q^(such nestings).
WICK_SINGLETON_FAULT = "wick_inner_product omits q for singletons nested under pairs"


class Ops:
    """Counts attempted and failed operations and times them by group."""

    def __init__(self, between=None):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.group_s = defaultdict(float)
        self._between = between  # called before each computation, untimed

    def _fail(self, label, why):
        self.failed += 1
        if self.failed <= 20:
            print(f"perfbench: {label}: {why}", file=sys.stderr)

    def run(self, group, label, fn, *args, **kwargs):
        """One computation; an exception counts it as failed and the round
        goes on."""
        if self._between is not None:
            self._between()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # the workload must run to its end
            self._fail(label, repr(e))
            return FAILED
        finally:
            self.group_s[group] += time.perf_counter() - t0

    def check(self, label, pred, *deps, known_fault=None):
        """One check of computed values.  It fails, without counting as a
        wrong output, when a value it needs failed to compute, or when
        known_fault names the program fault that makes it fail."""
        self.attempted += 1
        if any(d is FAILED for d in deps):
            self._fail(label, "input failed")
            return False
        try:
            ok = bool(pred(*deps))
        except Exception as e:
            ok, why = False, repr(e)
        else:
            why = "wrong result"
        if not ok:
            if known_fault is None:
                self.wrong += 1
            else:
                why = f"known fault: {known_fault}"
            self._fail(label, why)
        return ok


class OverBudget(BaseException):
    """Raised by the interval timer when a ladder rung overruns BUDGET_S."""


def _alarm(signum, frame):
    raise OverBudget


def within_budget(fn, *args):
    """fn(*args), interrupted after BUDGET_S seconds."""
    old = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        t0 = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def ladder(sizes, compute, check) -> tuple[int, list[str]]:
    """Largest size in the unbroken run of sizes whose computation finishes
    within the budget, and the sizes whose result check(m, result) refused.
    A rung over the budget or refused by a qgauss guard (the enumeration
    cap, the window) ends the ladder; the ladder is not part of the counted
    rounds."""
    longest, wrong = 0, []
    for m in sizes:
        try:
            result, elapsed = within_budget(compute, m)
        except (OverBudget, QGaussError):
            break
        except Exception as e:
            wrong.append(f"m={m}: {e!r}")
            break
        if not check(m, result):
            wrong.append(f"m={m}")
            break
        if elapsed > BUDGET_S:
            break
        longest = m
    return longest, wrong


def _rational(rng, lo=1, hi=8, den=9) -> F:
    x = F(rng.randint(lo, hi), den)
    return -x if rng.random() < 0.5 else x


def _q2(rng):
    off = _rational(rng)
    return [[_rational(rng), off], [off, _rational(rng)]]


def _s(x) -> str:
    return str(F(x))


def _letter(coeff, vector, color=None):
    out = {"coeff": coeff, "vector": [_s(v) for v in vector]}
    if color is not None:
        out["color"] = color
    return out


def _fock(dim_H=1, max_degree=6, inner=None):
    out = {"dim_H": dim_H, "max_degree": max_degree}
    if inner is not None:
        out["inner"] = [[_s(x) for x in row] for row in inner]
    return out


def _read_json(path):
    with open(path) as f:
        return json.load(f)


def _read_json_lines(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def _cli(*args):
    """qgauss.cli.main(args); exit 2 (a refused scenario or precondition)
    makes the operation fail.  Returns the exit code."""
    rc = cli.main(list(args))
    if rc == 2:
        raise RuntimeError(f"qgauss {args[0]} exited 2")
    return rc


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.dir = workdir
        self.state = None

    def path(self, name):
        return os.path.join(self.dir, name)

    def write(self, name, doc) -> str:
        p = self.path(name)
        with open(p, "w") as f:
            json.dump(doc, f)
        return p


# ---------------------------------------------------------------------------


class LimitWords(Workload):
    """Exact limit moments on a length ladder, on every backend."""

    name = "limit_words"
    TOP = 12          # ladders of the alternating words, one per backend
    SHORT_TOP = 10    # ladders of the pure and Q-matrix words

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        # positive definite, with a nonzero off-diagonal entry so that no
        # inner product vanishes and the pruning does not depend on the seed
        a, c = F(rng.randint(1, 3)), F(rng.randint(1, 3))
        b = _rational(rng, 1, 3, 4)
        self.inner = [[a, b], [b, c]]
        self.pattern = [rng.randrange(2) for _ in range(self.SHORT_TOP)]
        self.q0 = _rational(rng)
        self.Q2 = _q2(rng)
        fock1 = _fock()
        uu = [_letter("u" if i % 2 == 0 else "u*", H1) for i in range(self.TOP)]
        self.cli_uu = {m: self.write(f"free_uu_{m}.json", {
            "backend": {"kind": "free_haar", "window": 6}, "fock": fock1,
            "word": uu[:m]}) for m in range(2, self.TOP + 1, 2)}
        self.cli_qmat = {m: self.write(f"qmat_{m}.json", {
            "backend": {"kind": "free_haar", "window": 6}, "fock": fock1,
            "word": [_letter("1", H1, 0)] * m, "Q": [[_s(self.q0)]]})
            for m in range(2, self.SHORT_TOP + 1, 2)}
        e = [(1, 0), (0, 1)]
        self.scenarios = {
            "free": self.write("free.json", {
                "backend": {"kind": "free_haar", "window": 6}, "fock": fock1,
                "word": [_letter("1", H1)] * self.TOP}),
            "nonorth": self.write("nonorth.json", {
                "backend": {"kind": "free_haar", "window": 6},
                "fock": _fock(2, self.SHORT_TOP // 2, self.inner),
                "word": [_letter("1", e[i]) for i in self.pattern]}),
            "perm": self.write("perm.json", {
                "backend": {"kind": "perm_group", "d": 2, "window": 6},
                "fock": fock1, "word": [_letter("u01", H1)] * self.TOP}),
            "tensor": self.write("tensor.json", {
                "backend": {"kind": "tensor", "window": 6,
                            "B": {"kind": "cyclic", "n": 2},
                            "C": {"kind": "cyclic", "n": 3}},
                "fock": fock1, "word": [_letter("g", H1)] * self.TOP}),
        }

    def setup(self):
        self.state = {k: Scenario.load(p) for k, p in self.scenarios.items()}

    def round(self, ops):
        st = self.state
        out = self.path("out.json")
        evens = range(2, self.TOP + 1, 2)
        short = range(2, self.SHORT_TOP + 1, 2)

        for m in evens:
            rc = ops.run("moment.free_haar", f"cli moment u,u* m={m}", _cli,
                         "moment", "--scenario", self.cli_uu[m], "--out", out)
            ops.check(f"free u,u* m={m} = Catalan", lambda rc: rc == 0 and
                      _read_json(out)["qpoly"] == [str(refs.catalan(m // 2))], rc)

        free = st["free"]
        for m in short:
            poly = ops.run("moment.free_haar", f"free pure m={m}", moments.moment,
                           free.word[:m], free.backend, free.cfg)
            ops.check(f"free pure m={m} = Touchard-Riordan",
                      lambda p: list(p.coeffs) == refs.touchard_riordan(m // 2), poly)

        no = st["nonorth"]
        for m in short:
            poly = ops.run("moment.free_haar", f"non-orthonormal m={m}",
                           moments.moment, no.word[:m], no.backend, no.cfg)
            fock = ops.run("oracle", f"Fock oracle m={m}", qfock.vacuum_moment,
                           [h for _, h in no.word[:m]], no.cfg)
            ops.check(f"non-orthonormal m={m} = Fock oracle",
                      lambda p, f: p == f, poly, fock)

        perm = st["perm"]
        for m in evens:
            poly = ops.run("moment.perm_group", f"perm m={m}", moments.moment,
                           perm.word[:m], perm.backend, perm.cfg)
            ops.check(f"perm m={m} = Catalan",
                      lambda p: p.coeffs == (refs.catalan(m // 2),), poly)

        ten = st["tensor"]
        g = ten.backend.S["g"]
        gg = [(g if i % 2 == 0 else g.star(), H1) for i in range(self.TOP)]
        for m in evens:
            poly = ops.run("moment.tensor", f"tensor m={m}", moments.moment,
                           gg[:m], ten.backend, ten.cfg)
            ops.check(f"tensor m={m}: Catalan at q=0, (m/2)! at q=1",
                      lambda p: p.eval(0) == refs.catalan(m // 2)
                      and p.eval(1) == refs.half_factorial(m), poly)

        for m in short:
            rc = ops.run("q_matrix_moment", f"cli Q-matrix m={m}", _cli,
                         "moment", "--scenario", self.cli_qmat[m], "--out", out)
            ops.check(f"one-colour Q-matrix m={m} = TR(q0)", lambda rc: rc == 0 and
                      F(_read_json(out)["value"]) ==
                      refs.evaluate(refs.touchard_riordan(m // 2), self.q0), rc)
        Q2 = self.Q2
        for colors, want in (([0, 1, 0, 1], Q2[0][1]), ([0, 0, 1, 1], 1),
                             ([0, 1, 1, 0], 1)):
            val = ops.run("q_matrix_moment", f"two-colour {colors}",
                          moments.q_matrix_moment, free.word[:4], colors, Q2,
                          free.backend, free.cfg)
            ops.check(f"two-colour {colors}", lambda v: v == want, val)

    def probe(self):
        backend = FreeHaarBackend(RUNG_CAP // 2)
        cfg = FockConfig(1, max_degree=RUNG_CAP // 2)
        u = backend.S["u"]
        word = [(u if i % 2 == 0 else u.star(), H1) for i in range(RUNG_CAP)]
        return ladder(range(2, RUNG_CAP + 1, 2),
                      lambda m: moments.moment(word[:m], backend, cfg),
                      lambda m, p: p.coeffs == (refs.catalan(m // 2),))


# ---------------------------------------------------------------------------


def _dims_within_bound(rows) -> bool:
    return [r["k"] for r in rows] == [0, 1, 2, 3] and all(
        1 <= r["dim_scalar"] <= r["bound"] for r in rows)


def _wick_family(gens, max_m):
    """(sigma, xs, hs) for every pair-singleton partition of m <= max_m
    points and every word over gens."""
    out = []
    for m in range(1, max_m + 1):
        for sigma in partitions.enumerate_pair_singleton(m):
            for xs in product(gens, repeat=m):
                out.append((sigma, xs, (H1,) * m))
    return out


class ReducedCoefficients(Workload):
    """Span dimensions, projections, Wick Gram matrices, certificates and
    the verification suites: the copies layer through expect, relabel and
    star, and exact elimination."""

    name = "reduced_coefficients"
    PROJECTION_MAX_M = 5   # the 1,034 cases of acceptance criterion 5
    WICK_MAX_M = 3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        # distinct values, so that every seed makes the same number of checks
        self.qs = sorted(F(k, 9) for k in rng.sample(range(-8, 9), 3))
        self.cs = sorted(F(k, 9) for k in rng.sample(range(1, 9), 2)) + [F(1)]
        self.dims = {
            "perm": self.write("dims_perm.json", {
                "backend": {"kind": "perm_group", "d": 1, "window": 6},
                "dims": {"k_max": 3, "max_m_offset": 2}}),
            "free": self.write("dims_free.json", {
                "backend": {"kind": "free_haar", "window": 6},
                "dims": {"k_max": 3, "max_m_offset": 2}}),
        }

    def setup(self):
        # the dims scenarios are loaded by `qgauss dims` itself, in the round
        self.state = {"free": FreeHaarBackend(6), "perm": PermGroupBackend(1, 4),
                      "cfg": FockConfig(1, max_degree=4)}

    def round(self, ops):
        st = self.state
        out = self.path("out.json")
        for kind, p in self.dims.items():
            rc = ops.run("dims", f"cli dims {kind}", _cli,
                         "dims", "--scenario", p, "--out", out)
            ops.check(f"dims {kind} within dim_bound", lambda rc: rc == 0 and
                      _dims_within_bound(_read_json(out)["rows"]), rc)

        self._projections(ops)

        cfg = st["cfg"]
        free, perm = st["free"], st["perm"]
        u = free.S["u"]
        grams = [self._wick_gram(ops, "free", free, [free.A_one, u], cfg),
                 self._wick_gram(ops, "perm", perm, [perm.A_one, perm.S["u01"]], cfg)]
        ops.check("Wick Gram = trace-pairing Gram on both families",
                  lambda *g: all(a == b for a, b in g), *grams,
                  known_fault=WICK_SINGLETON_FAULT)
        self._certificates(ops, free, cfg)

        vout = self.path("verify.txt")
        rc = ops.run("verify", "cli verify all", _cli, "verify", "all", "--out", vout)
        ops.check("verify all exits 0", lambda rc: rc == 0 and all(
            line["ok"] for line in _read_json_lines(vout)), rc)

    def _projections(self, ops):
        """Structural expect against the generic conditional expectation."""
        backends = {}
        for m in range(1, self.PROJECTION_MAX_M + 1):
            for sigma in partitions.enumerate_pair_singleton(m):
                s, p = sigma.num_singletons, sigma.num_pairs
                window = max(s + p, 1)
                if window not in backends:
                    backends[window] = ops.run("projection", f"perm window {window}",
                                               PermGroupBackend, 1, window)
                backend = backends[window]
                if backend is FAILED:
                    continue
                phi = partitions.encoding_map(sigma)
                for xs in product([backend.A_one, backend.S["u01"]], repeat=m):
                    def pi_word():
                        prod = backend.one()
                        for pos in range(1, m + 1):
                            prod = prod * backend.pi(phi[pos], xs[pos - 1])
                        return prod
                    prod = ops.run("projection", "pi word", pi_word)
                    fast = ops.run("projection", "structural expect",
                                   lambda x: backend.expect(range(1, s + 1), x), prod)
                    slow = ops.run("projection", "generic projection",
                                   lambda x: algebra.conditional_expectation(
                                       x, backend.subalgebra_spec(range(1, s + 1))),
                                   prod)
                    ops.check(f"projection {sigma}", lambda a, b: a == b, fast, slow)

    def _wick_gram(self, ops, name, backend, gens, cfg):
        """The Gram matrix of a word family by wick_inner_product and by
        trace_pairing; the first must be PSD at every sample q."""
        words = [ops.run("wick_gram", "reduce", moments.reduce, sigma, xs, hs,
                         backend, cfg)
                 for sigma, xs, hs in _wick_family(gens, self.WICK_MAX_M)]
        wick = [[ops.run("wick_gram", "wick_inner_product",
                         moments.wick_inner_product, w1, w2) for w2 in words]
                for w1 in words]
        pairing = [[ops.run("wick_gram", "trace_pairing", moments.trace_pairing,
                            w1, w2) for w2 in words] for w1 in words]
        for q in self.qs:
            def min_eig():
                g = np.array([[float(x.eval(q)) for x in row] for row in wick])
                return float(np.linalg.eigvalsh(g)[0]), max(1.0, float(np.abs(g).max()))
            eig = ops.run("wick_gram", f"{name} Gram eigenvalues q={q}", min_eig)
            ops.check(f"{name} Wick Gram PSD at q={q}",
                      lambda e: e[0] >= -1e-9 * e[1], eig)
        return wick, pairing

    def _certificates(self, ops, backend, cfg):
        u = backend.S["u"]
        for s in (1, 2, 3):
            sigma = Partition12.make(s, [], range(1, s + 1))
            w = ops.run("wick_gram", "reduce", moments.reduce, sigma, [u] * s,
                        [H1] * s, backend, cfg)
            tests = [ops.run("wick_gram", "reduce", moments.reduce, sigma, xs,
                             [H1] * s, backend, cfg)
                     for xs in product([u, u.star()], repeat=s)]
            base = ops.run("wick_gram", "trace_pairing", moments.trace_pairing,
                           w, tests[0])
            ops.check(f"certificate s={s} is not vacuous",
                      lambda b: not b.is_zero(), base)
            for c in self.cs:
                rep = ops.run("wick_gram", f"rotation certificate s={s} c={c}",
                              semigroup.alpha_theta_projected_moment, w, c, tests)
                ops.check(f"rotation certificate s={s} c={c}",
                          lambda r: r["certified"] and r["factor"] == c ** s
                          and r["pairings_checked"] == len(tests), rep)

    def probe(self):
        backend = FreeHaarBackend(RUNG_CAP // 2)
        return ladder(range(1, RUNG_CAP, 2),
                      lambda m: dimensions.span_Dk(backend, 1, m),
                      lambda m, r: 1 <= r.dim_scalar <= r.bound)


WORKLOAD_CLASSES = {w.name: w for w in (LimitWords, ReducedCoefficients)}
