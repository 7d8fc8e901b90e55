"""Span tracing of qgauss from the benchmark's side.

Public functions and methods are wrapped at the names their callers look
up (for example ``moments.enumerate_pair_partitions``, which ``moment``
calls, rather than ``partitions.enumerate_pair_partitions``), so no file
under ``src/`` changes.  Each call records a span (name, start, end,
parent) in flat arrays that stay in memory until the run ends; counters
read from return values ride along.  ``metrics`` turns the spans of one
set-up and N rounds into per-round layer figures.
"""

from __future__ import annotations

import inspect
import json
import time
import weakref
from array import array
from collections import Counter

import numpy as np

BACKENDS = ("free_haar", "perm_group", "tensor")
LAYERS = ("partitions", "qpoly", "qfock", "algebra", "copies", "moments",
          "dimensions", "semigroup", "matmodel", "scenario", "cli")


def group_of(name: str) -> str:
    """The span group whose outermost spans a timing metric sums."""
    layer = name.split(".")[0]
    if layer == "partitions":
        return "partitions.enum"
    if layer == "qpoly":
        return "qpoly"
    return name


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._group_ids: dict[str, int] = {}
        self._group_of_name: list[int] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.outer = array("b")  # 1 when no enclosing span has the same group
        self._stack = [-1]
        self._depth: list[int] = []
        self.counters: Counter = Counter()
        self._patches: list = []
        self._algebra_backend = weakref.WeakKeyDictionary()

    # -- recording ------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            group = group_of(name)
            gid = self._group_ids.setdefault(group, len(self._group_ids))
            self._group_of_name.append(gid)
            self._depth.extend([0] * (len(self._group_ids) - len(self._depth)))
        return nid

    def _spanned(self, fn, name_of, post):
        """fn wrapped so every call records a span; name_of(args) -> name id."""
        start, end, names, parent, outer = (self.start, self.end, self.name,
                                            self.parent, self.outer)
        stack, depth, gof = self._stack, self._depth, self._group_of_name
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            nid = name_of(args)
            gid = gof[nid]
            sid = len(names)
            names.append(nid)
            parent.append(stack[-1])
            d = depth[gid]
            outer.append(d == 0)
            depth[gid] = d + 1
            stack.append(sid)
            end.append(0.0)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
                depth[gid] -= 1
            if post is not None:
                post(result, args)
            return result

        return wrapper

    def _spanned_generator(self, fn, nid, counter):
        """A generator function wrapped so each step is a span; items are
        counted under counter."""
        start, end, names, parent, outer = (self.start, self.end, self.name,
                                            self.parent, self.outer)
        stack, depth = self._stack, self._depth
        gid = self._group_of_name[nid]
        clock = time.perf_counter
        counters = self.counters

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sid = len(names)
                names.append(nid)
                parent.append(stack[-1])
                d = depth[gid]
                outer.append(d == 0)
                depth[gid] = d + 1
                stack.append(sid)
                end.append(0.0)
                start.append(clock())
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    end[sid] = clock()
                    stack.pop()
                    depth[gid] -= 1
                counters["partitions.enumerated"] += 1
                if counter:
                    counters[counter] += 1
                yield item

        return wrapper

    def _patch(self, owner, attr, wrapped_fn):
        raw = vars(owner)[attr]
        self._patches.append((owner, attr, raw))
        if isinstance(raw, staticmethod):
            wrapped_fn = staticmethod(wrapped_fn)
        setattr(owner, attr, wrapped_fn)

    def wrap(self, owner, attr, name, post=None):
        raw = vars(owner)[attr]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        nid = self._id(name)
        self._patch(owner, attr, self._spanned(fn, lambda args: nid, post))

    def wrap_enumerator(self, owner, attr, counter=None):
        """Partition enumerators: lists are counted on return, generators
        item by item."""
        fn = vars(owner)[attr]
        nid = self._id("partitions." + fn.__name__)
        if inspect.isgeneratorfunction(fn):
            self._patch(owner, attr, self._spanned_generator(fn, nid, counter))
            return
        counters = self.counters

        def count(result, args):
            counters["partitions.enumerated"] += len(result)

        self._patch(owner, attr, self._spanned(fn, lambda args: nid, count))

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- the qgauss call sites ----------------------------------------------

    def install(self):
        from qgauss import (algebra, cli, copies, dimensions, matmodel,
                            moments, partitions, qfock, qpoly, scenario,
                            semigroup)

        c = self.counters
        for owner in (partitions, moments, dimensions, matmodel):
            for attr in ("enumerate_pair_partitions", "enumerate_pair_singleton",
                         "enumerate_set_partitions"):
                if attr in vars(owner):
                    self.wrap_enumerator(
                        owner, attr,
                        "matmodel.set_partitions" if owner is matmodel else None)

        for attr, op in (("__add__", "add"), ("__radd__", "add"),
                         ("__mul__", "mul"), ("__rmul__", "mul"),
                         ("scale", "scale"), ("monomial", "monomial")):
            self.wrap(qpoly.QPoly, attr, "qpoly." + op)

        backend_of = self._algebra_backend
        classes = ((copies.FreeHaarBackend, "free_haar"),
                   (copies.PermGroupBackend, "perm_group"),
                   (copies.TensorBackend, "tensor"))
        for cls, b in classes:
            def register(result, args, b=b):
                backend = args[0]
                for alg in (getattr(backend, "D", None), getattr(backend, "A", None)):
                    if alg is not None:
                        backend_of[alg] = b

            def nonzero(result, args, b=b):
                if result:
                    c["copies.trace.nonzero." + b] += 1

            self.wrap(cls, "__init__", "copies.build." + b, post=register)
            self.wrap(cls, "trace", "copies.trace." + b, post=nonzero)
            for meth in ("pi", "expect", "relabel"):
                self.wrap(cls, meth, f"copies.{meth}.{b}")
        self.wrap(copies.FreeWordElement, "__mul__", "copies.mul.free_haar")
        mul_ids = {b: self._id("copies.mul." + b) for b in BACKENDS}
        other = self._id("copies.mul.other")
        self._patch(algebra.AlgebraElement, "__mul__", self._spanned(
            vars(algebra.AlgebraElement)["__mul__"],
            lambda args: mul_ids.get(backend_of.get(args[0].parent), other),
            None))
        self.wrap(cli, "axiom_check", "copies.axiom_check")

        self.wrap(algebra, "conditional_expectation", "algebra.conditional_expectation")
        self.wrap(algebra.SubalgebraSpec, "__post_init__", "algebra.subalgebra_spec")

        def terms_out(result, args):
            c["qfock.terms_out"] += len(result.terms)

        self.wrap(qfock, "apply_field", "qfock.apply_field", post=terms_out)
        self.wrap(qfock, "vacuum_moment", "qfock.vacuum_moment")

        for attr in ("moment", "finite_n_moment", "q_matrix_moment",
                     "trace_of_partition_term", "reduce", "wick_inner_product",
                     "trace_pairing"):
            self.wrap(moments, attr, "moments." + attr)
        self.wrap(matmodel, "q_matrix_moment", "moments.q_matrix_moment")
        for attr in ("wick_inner_product", "trace_pairing"):
            self.wrap(semigroup, attr, "moments." + attr)

        def span_report(result, args):
            c["dimensions.words_considered"] += result.generators_considered
            c["dimensions.vectors_kept"] += len(result.vectors)

        self.wrap(dimensions, "span_Dk", "dimensions.span_Dk", post=span_report)
        self.wrap(dimensions, "growth_report", "dimensions.growth_report")

        def pairings(result, args):
            c["semigroup.pairings_checked"] += result["pairings_checked"]

        self.wrap(semigroup, "alpha_theta_projected_moment",
                  "semigroup.alpha_theta_projected_moment", post=pairings)
        self.wrap(matmodel, "mc_moment", "matmodel.mc_moment")
        self.wrap(matmodel, "model_moment_exact", "matmodel.model_moment_exact")
        self.wrap(scenario.Scenario, "load", "scenario.load")
        self.wrap(cli, "main", "cli.main")

    # -- results ----------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """A boundary between phases: the span index and a counter snapshot."""
        return len(self.name), Counter(self.counters)

    def save(self, path: str):
        np.savez(path, start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 names=np.array(json.dumps(self.names)))

    def _phase(self, lo: int, hi: int):
        """Per span group: calls and outermost time; per layer: self time;
        and the summed duration of top-level spans, over spans lo..hi-1."""
        start = np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        end = np.frombuffer(self.end, dtype=np.float64)[lo:hi]
        nid = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        outer = np.frombuffer(self.outer, dtype=np.int8)[lo:hi].astype(bool)
        n_names = len(self.names)
        dur = end - start
        inner = parent >= lo
        child = np.bincount(parent[inner] - lo, weights=dur[inner],
                            minlength=hi - lo)
        self_time = dur - child
        calls = np.bincount(nid, minlength=n_names)
        outer_time = np.bincount(nid[outer], weights=dur[outer], minlength=n_names)
        by_name_self = np.bincount(nid, weights=self_time, minlength=n_names)
        out_calls, out_time, out_self = Counter(), Counter(), Counter()
        for i, name in enumerate(self.names):
            out_calls[name] += int(calls[i])
            out_time[group_of(name)] += float(outer_time[i])
            out_self[name.split(".")[0]] += float(by_name_self[i])
        top = float(dur[~inner].sum())
        # time in model_moment_exact / q_matrix_moment below mc_moment
        mc = self._ids.get("matmodel.mc_moment")
        targets = {self._ids.get(k) for k in ("matmodel.model_moment_exact",
                                              "moments.q_matrix_moment")}
        exact = 0.0
        if mc is not None:
            for sid in np.flatnonzero(np.isin(nid, list(targets - {None}))):
                p = parent[sid]
                while p >= lo:
                    if self.name[p] == mc:
                        exact += float(dur[sid])
                        break
                    p = self.parent[p]
        return out_calls, out_time, out_self, top, exact

    def metrics(self, setup: tuple, rounds: tuple, n_rounds: int,
                round_walls: list, untraced_round_s: float) -> dict:
        """Per-layer figures for one set-up plus one average round.

        setup = (lo, hi, counters_before, counters_after) and rounds likewise;
        counts from identical rounds divide exactly.
        """
        s_calls, s_time, s_self, _, s_exact = self._phase(setup[0], setup[1])
        r_calls, r_time, r_self, r_top, r_exact = self._phase(rounds[0], rounds[1])
        s_count = setup[3] - setup[2]
        r_count = rounds[3] - rounds[2]
        n = n_rounds

        def calls(name):
            return s_calls[name] + r_calls[name] / n

        def time_of(group):
            return s_time[group] + r_time[group] / n

        def count(key):
            return s_count[key] + r_count[key] / n

        def ratio(a, b):
            return a / b if b else 0.0

        m = {}
        m["partitions.enumerated"] = (count("partitions.enumerated"), "count")
        m["partitions.enum_s"] = (time_of("partitions.enum"), "s")
        qpoly_ops = sum(calls(k) for k in self.names if k.startswith("qpoly."))
        m["qpoly.ops"] = (qpoly_ops, "count")
        m["qpoly_s"] = (time_of("qpoly"), "s")
        for b in BACKENDS:
            trace_calls = calls("copies.trace." + b)
            m["copies.pi.calls." + b] = (calls("copies.pi." + b), "count")
            m["copies.pi_s." + b] = (time_of("copies.pi." + b), "s")
            m["copies.mul.calls." + b] = (calls("copies.mul." + b), "count")
            m["copies.mul_s." + b] = (time_of("copies.mul." + b), "s")
            m["copies.trace.calls." + b] = (trace_calls, "count")
            m["copies.trace.nonzero_ratio." + b] = (
                ratio(count("copies.trace.nonzero." + b), trace_calls), "ratio")
            m["copies.expect.calls." + b] = (calls("copies.expect." + b), "count")
            m["copies.expect_s." + b] = (time_of("copies.expect." + b), "s")
            m["copies.relabel.calls." + b] = (calls("copies.relabel." + b), "count")
            m["copies.build_s." + b] = (time_of("copies.build." + b), "s")
        m["algebra.projection.calls"] = (calls("algebra.conditional_expectation"), "count")
        m["algebra.projection_s"] = (time_of("algebra.conditional_expectation"), "s")
        m["algebra.subalgebra_spec_s"] = (time_of("algebra.subalgebra_spec"), "s")
        m["qfock.apply_field.calls"] = (calls("qfock.apply_field"), "count")
        m["qfock.apply_field_s"] = (time_of("qfock.apply_field"), "s")
        m["qfock.vacuum_moment.calls"] = (calls("qfock.vacuum_moment"), "count")
        m["qfock.terms_out"] = (count("qfock.terms_out"), "count")
        m["moments.partition_terms"] = (calls("moments.trace_of_partition_term"), "count")
        m["moments.reduce.calls"] = (calls("moments.reduce"), "count")
        m["moments.wick_ip_s"] = (time_of("moments.wick_inner_product"), "s")
        m["moments.trace_pairing_s"] = (time_of("moments.trace_pairing"), "s")
        considered = count("dimensions.words_considered")
        kept = count("dimensions.vectors_kept")
        m["dimensions.words_considered"] = (considered, "count")
        m["dimensions.vectors_kept"] = (kept, "count")
        m["dimensions.kept_ratio"] = (ratio(kept, considered), "ratio")
        m["dimensions.span_s"] = (time_of("dimensions.span_Dk"), "s")
        m["semigroup.pairings_checked"] = (count("semigroup.pairings_checked"), "count")
        m["semigroup.certificate_s"] = (
            time_of("semigroup.alpha_theta_projected_moment"), "s")
        exact = s_exact + r_exact / n
        m["matmodel.exact_target_s"] = (exact, "s")
        m["matmodel.kernel_s"] = (time_of("matmodel.mc_moment") - exact, "s")
        m["matmodel.set_partitions"] = (count("matmodel.set_partitions"), "count")
        m["scenario.load_s"] = (time_of("scenario.load"), "s")
        m["cli.s"] = (s_self["cli"] + r_self["cli"] / n, "s")
        for layer in LAYERS:
            m["self_s." + layer] = (s_self[layer] + r_self[layer] / n, "s")
        m["self_s.bench"] = (sum(round_walls) / n - r_top / n, "s")
        m["trace.spans"] = ((setup[1] - setup[0]) + (rounds[1] - rounds[0]) / n, "count")
        traced = float(np.median(round_walls))
        m["trace.overhead_s"] = (traced - untraced_round_s, "s")
        return m
