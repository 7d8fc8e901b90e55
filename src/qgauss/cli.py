"""Command-line front end: scenario-driven moments, dimension reports, and
the verification suites, with machine-readable output.

Exit codes: 0 success, 1 failed verification, 2 invalid scenario or
violated precondition.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from functools import lru_cache
from statistics import NormalDist

from . import dimensions, matmodel, moments, qfock, semigroup
from .copies import FreeHaarBackend, PermGroupBackend, TensorBackend, axiom_check
from .algebra import cyclic_group, group_algebra
from .errors import QGaussError
from .partitions import Partition12
from .qpoly import QPoly
from .scenario import Scenario, ScenarioError, _frac


def _emit(doc: str, out_path):
    if out_path:
        with open(out_path, "w") as f:
            f.write(doc)
    else:
        sys.stdout.write(doc)


def _json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_moment(args) -> int:
    sc = Scenario.load(args.scenario, "moment")
    if args.q:
        sc.q_values = [_frac(x, "--q") for x in args.q.split(",")]
    result = {"word_length": len(sc.word), "backend": sc.backend.name}
    if sc.Q is not None:
        if sc.q_values:
            raise ScenarioError("q_values: a Q-matrix moment has no q to "
                                "evaluate; give q_values (or --q) or Q")
        value = moments.q_matrix_moment(sc.word, sc.colors, sc.Q,
                                        sc.backend, sc.cfg)
        result["value"] = str(value)
        result["kind"] = "q_matrix"
    else:
        if sc.n is not None:
            poly = moments.finite_n_moment(sc.word, sc.backend, sc.n, sc.cfg)
            result["n"] = sc.n
            result["kind"] = "finite_n"
        else:
            poly = moments.moment(sc.word, sc.backend, sc.cfg)
            result["kind"] = "limit"
        result["qpoly"] = poly.to_strings()
        result["evaluations"] = {str(q): str(poly.eval(q))
                                 for q in sc.q_values}
    _emit(_json(result), args.out)
    return 0


def cmd_dims(args) -> int:
    sc = Scenario.load(args.scenario, "dims")
    report = dimensions.growth_report(sc.backend, sc.k_max,
                                      max_m_offset=sc.max_m_offset)
    fields = ("k", "dim_scalar", "bound", "stabilized_at_m")
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(fields)
        writer.writerows(report["rows"])
        _emit(buf.getvalue(), args.out)
    else:
        _emit(_json(dict(report, rows=[dict(zip(fields, r))
                                       for r in report["rows"]])), args.out)
    return 0


# ---------------------------------------------------------------------
# verification suites


def _suite_oracle():
    """Engine vs Fock oracle on short pure words."""
    from itertools import product
    backend = FreeHaarBackend(3)
    cfg = qfock.FockConfig(dim_H=2, max_degree=3)
    checks = []
    basis = [cfg.basis_vector(b) for b in range(2)]
    for m in (2, 3, 4):
        for vecs in product(basis, repeat=m):
            word = [(backend.A_one, h) for h in vecs]
            ok = moments.moment(word, backend, cfg) == \
                qfock.vacuum_moment(list(vecs), cfg)
            checks.append({"check": f"oracle m={m}", "ok": ok})
            if not ok:
                return checks
    return checks


def _suite_axioms():
    checks = []
    backends = [
        ("tensor(Z2,Z2)", TensorBackend(
            group_algebra(cyclic_group(2)), group_algebra(cyclic_group(2)), 3)),
        ("perm_group(d=1)", PermGroupBackend(1, 3)),
        ("free_haar", FreeHaarBackend(3)),
    ]
    for name, backend in backends:
        report = axiom_check(backend, word_len=3)
        for ax in ("axiom1", "axiom2", "axiom3", "axiom4", "axiom5"):
            check = {"check": f"{name}:{ax}", "ok": report[ax]["ok"],
                     "witness": report[ax]["witness"]}
            if report[ax].get("by_construction"):
                check["by_construction"] = True
            checks.append(check)
    return checks


def _suite_semigroup():
    checks = []
    backend = FreeHaarBackend(4)
    cfg = qfock.FockConfig(dim_H=1, max_degree=4)
    u = backend.S["u"]
    h = (Fraction(1),)
    for s in (1, 2):
        sigma = Partition12.make(s, [], range(1, s + 1))
        w = moments.reduce(sigma, [u] * s, [h] * s, backend, cfg)
        tests = [moments.reduce(sigma, [u] * s, [h] * s, backend, cfg)]
        for c in (Fraction(1), Fraction(3, 5), Fraction(1, 2)):
            rep = semigroup.alpha_theta_projected_moment(w, c, tests)
            checks.append({"check": f"alpha_theta deg={s} c={c}",
                           "ok": rep["certified"]})
    return checks


#: The chance that correct code fails the matmodel suite.  Its four
#: estimates share one Gaussian draw and are correlated, so each two-sided
#: check gets a quarter of it (the Bonferroni bound, which holds under any
#: correlation): |z| <= Phi^-1(1 - 10^-3 / 8) = 3.66.
MATMODEL_ALARM_RATE = 1e-3
MATMODEL_Z = NormalDist().inv_cdf(1 - MATMODEL_ALARM_RATE / 8)


def _suite_matmodel(seed, samples):
    labels = ("-1", "0", "1/2", "1")
    word = [(None, (Fraction(1),))] * 4
    estimates = matmodel.mc_moment(word, [[[Fraction(q)]] for q in labels],
                                   n=8, samples=samples, seed=seed)
    return [{"check": f"mc s^4 Q={label}", "ok": abs(est.z) <= MATMODEL_Z,
             "mean": est.mean, "target": est.target, "z": est.z}
            for label, est in zip(labels, estimates)]


def cmd_verify(args) -> int:
    suites = {"oracle": _suite_oracle, "axioms": _suite_axioms,
              "semigroup": _suite_semigroup,
              "matmodel": lambda: _suite_matmodel(args.seed, args.samples)}
    names = list(suites) if args.suite == "all" else [args.suite]
    lines = []
    failed = False
    for name in names:
        for check in suites[name]():
            check["suite"] = name
            lines.append(json.dumps(check, sort_keys=True))
            failed = failed or not check["ok"]
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if failed else 0


# ---------------------------------------------------------------------


def _sample_count(text: str) -> int:
    """A Monte Carlo sample count: a standard error needs at least two."""
    if not text.isdigit() or int(text) < 2:
        raise argparse.ArgumentTypeError(
            f"needs an integer of at least 2, got {text!r}")
    return int(text)


def _seed(text: str) -> int:
    """A Philox key: an integer in [0, 2^128)."""
    if not text.isdigit() or int(text) >= 2 ** 128:
        raise argparse.ArgumentTypeError(
            f"needs an integer in [0, 2^128), got {text!r}")
    return int(text)


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged, so every call of main shares it."""
    parser = argparse.ArgumentParser(
        prog="qgauss",
        description="Exact moments, Wick-word algebra, dimension growth, "
                    "and stochastic checks for generalized q-gaussian "
                    "structures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_m = sub.add_parser("moment", help="compute a moment from a scenario")
    p_m.add_argument("--scenario", required=True)
    p_m.add_argument("--q", help="comma-separated rational q values")
    p_m.add_argument("--out")
    p_m.set_defaults(func=cmd_moment)

    p_d = sub.add_parser("dims", help="dimension growth report")
    p_d.add_argument("--scenario", required=True)
    p_d.add_argument("--format", choices=("json", "csv"), default="json")
    p_d.add_argument("--out")
    p_d.set_defaults(func=cmd_dims)

    p_v = sub.add_parser("verify", help="run a verification suite")
    p_v.add_argument("suite", choices=("oracle", "axioms", "semigroup",
                                       "matmodel", "all"))
    p_v.add_argument("--seed", type=_seed, default=42)
    p_v.add_argument("--samples", type=_sample_count, default=2000)
    p_v.add_argument("--out")
    p_v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, QGaussError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
