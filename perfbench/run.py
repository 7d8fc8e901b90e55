"""qgauss benchmark: one workload per process, run from the repository root.

    python3 perfbench/run.py --workload limit_words --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# Single-threaded numerics, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

#: Set-up is timed in batches of at least SETUP_BATCH_S, so that a set-up
#: of a millisecond is not lost in timer noise; batches repeat until both
#: minimums are reached, or SETUP_MAX times.
SETUP_BATCH_S = 0.05
SETUP_MIN = 3
SETUP_MIN_S = 1.0
SETUP_MAX = 15

OUT_DIR = ".perfbench"
WORKLOADS = ("limit_words", "reduced_coefficients")

#: Per-layer metrics read from the untraced round of a traced run:
#: (metric, Ops group).
GROUP_METRICS = (
    ("moment_s.free_haar", "moment.free_haar"),
    ("moment_s.perm_group", "moment.perm_group"),
    ("moment_s.tensor", "moment.tensor"),
    ("q_matrix_moment_s", "q_matrix_moment"),
    ("dims_s", "dims"),
    ("projection_s", "projection"),
    ("wick_gram_s", "wick_gram"),
    ("verify_s", "verify"),
)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rounds(workload, ops, seconds: float, clock=None) -> tuple[list[float], float]:
    """Wall times of whole rounds, run while the next one is expected to
    end within seconds (at least one), and the peak RSS after the first:
    later rounds raise it by how freed memory happens to be reused, so it
    would otherwise depend on how many rounds fit.  A HostClock, if given,
    takes slices around and inside the rounds, left out of their times."""
    walls = []
    t_start = time.perf_counter()
    while True:
        if clock is None:
            t0 = time.perf_counter()
            workload.round(ops)
            walls.append(time.perf_counter() - t0)
        else:
            walls.append(clock.measure(workload.round, ops)[1])
        if len(walls) == 1:
            rss = _peak_rss_mb()
        if time.perf_counter() - t_start + max(walls) > seconds:
            return walls, rss


def _setup_batch(workload) -> float:
    """Seconds per set-up over a batch of at least SETUP_BATCH_S."""
    n = 0
    t0 = time.perf_counter()
    while True:
        workload.setup()
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= SETUP_BATCH_S:
            return elapsed / n


def _setups(workload, clock) -> list[float]:
    times = []
    while len(times) < SETUP_MAX and (len(times) < SETUP_MIN
                                      or sum(times) < SETUP_MIN_S):
        workload.state = None  # the previous set-up is freed off the clock
        times.append(clock.measure(_setup_batch, workload)[0])
    return times


def measure(workload, seconds: float):
    """The end-to-end metrics: set-up, the longest_word ladder, rounds.
    Times are scaled to the reference host speed (see hostspeed.py)."""
    from hostspeed import HostClock
    from workloads import Ops

    clock = HostClock()
    ops = Ops(between=clock.maybe_sample)
    setup = _setups(workload, clock)
    longest, wrong = workload.probe()
    if wrong:
        ops.wrong += len(wrong)
        print(f"perfbench: longest_word ladder: wrong result at {wrong}",
              file=sys.stderr)
    walls, rss = _rounds(workload, ops, seconds, clock)
    scale = clock.scale()
    print(f"perfbench: {workload.name}: {len(setup)} set-up batches of "
          f"{statistics.median(setup):.6f} s, {len(walls)} rounds of "
          f"{[round(w, 3) for w in walls]} s wall, host scale {scale:.4f} "
          f"from {len(clock.samples)} slices", file=sys.stderr)
    # The scale is a mean over the run, so the rounds are averaged too: a
    # swing of the host's speed within the run then weighs the same in both.
    return ops, {"setup_s": (statistics.median(setup) * scale, "s"),
                 "round_s": (statistics.fmean(walls) * scale, "s"),
                 "peak_rss_mb": (rss, "MB"),
                 "longest_word": (longest, "letters")}


def measure_traced(workload, seconds: float, trace_path: str):
    from spans import Tracer
    from workloads import Ops

    ops = Ops()
    workload.setup()
    t0 = time.perf_counter()
    workload.round(ops)
    untraced = time.perf_counter() - t0
    groups = dict(ops.group_s)
    workload.state = None

    tracer = Tracer()
    tracer.install()
    try:
        s0 = tracer.mark()
        workload.setup()
        s1 = tracer.mark()
        walls, _ = _rounds(workload, ops, seconds - untraced)
        r1 = tracer.mark()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics((s0[0], s1[0], s0[1], s1[1]),
                             (s1[0], r1[0], s1[1], r1[1]),
                             len(walls), walls, untraced)
    tracer.save(trace_path)
    for name, group in GROUP_METRICS:
        metrics[name] = (groups.get(group, 0.0), "s")
    print(f"perfbench: {workload.name}: untraced round {untraced:.3f} s, "
          f"{len(walls)} traced rounds of {[round(w, 3) for w in walls]} s, "
          f"spans in {trace_path}", file=sys.stderr)
    return ops, metrics


def _expected(root: str, traced: bool) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if traced else "end_to_end"]}


def run_one(args, root: str) -> int:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qgauss", "__init__.py")):
        print("perfbench: no qgauss sources under ./src; run from the root of "
              "a qgauss checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import qgauss
    if not os.path.abspath(qgauss.__file__).startswith(src + os.sep):
        print(f"perfbench: imported qgauss from {qgauss.__file__}, not ./src",
              file=sys.stderr)
        return 2
    import refs
    from workloads import WORKLOAD_CLASSES

    bad = refs.self_check()
    if bad:
        print(f"perfbench: closed forms disagree with hand values: {bad}",
              file=sys.stderr)
        return 1
    expected = _expected(root, args.trace)

    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        workload = WORKLOAD_CLASSES[args.workload](args.seed, workdir)
        if args.trace:
            trace_path = os.path.join(out_dir, f"trace-{args.workload}.npz")
            ops, metrics = measure_traced(workload, args.seconds, trace_path)
        else:
            ops, metrics = measure(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != expected:
        print(f"perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(got.items()) ^ set(expected.items()))}", file=sys.stderr)
        return 1
    result = {
        "correct": ops.wrong == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        print(json.dumps({"workload": name, "exit": proc.returncode,
                          "result": json.loads(last[0]) if proc.returncode == 0 else None}))
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, os.getcwd())


if __name__ == "__main__":
    sys.exit(main())
