"""Benchmark of hypoco: three closed-loop workloads, checked and timed.

    python3 perfbench/run.py --workload sweep_1d --seed 0 --seconds 15 --trace 0

runs whole passes of the workload until ``--seconds`` have elapsed (at least
one), checks every pass, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` every public
function of each layer is wrapped in a span and the metrics are per layer.
The line before it holds the details: environment, pass times, the tail
percentile and every failed check.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import workloads  # noqa: E402  (needs HERE on the path)

#: (name, unit) of every end-to-end metric, in report order
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("point_p50_s", "s"),
    ("point_tail_s", "s"),
]
#: fresh interpreters timed for setup_s; the median is reported
SETUP_REPEATS = 3
#: a tail percentile needs at least this many points beyond it
TAIL_BEYOND = 10


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail_point(samples, beyond=TAIL_BEYOND):
    """(value, percentile) of the highest percentile with ``beyond`` points above.

    With n sorted points that is the (n - beyond)-th, at percentile
    100 (n - beyond) / n; with 28 points, the 18th at p64.3.  With fewer than
    beyond + 1 points no percentile qualifies and the maximum is returned,
    at percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n > beyond:
        return xs[n - beyond - 1], 100.0 * (n - beyond) / n
    return xs[-1], 100.0


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _blas_libraries():
    """Thread count and build string of each OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({line.split()[-1] for line in handle
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        found.append(entry)
    return found


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    """What results from different machines must not be compared without."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS, if any)

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": _blas_libraries(),
        "blas_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": _cpu_model(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# setup
# ---------------------------------------------------------------------------


def _import_program():
    sys.path.insert(0, SRC)
    import hypoco

    where = os.path.dirname(os.path.abspath(hypoco.__file__))
    if where != os.path.join(SRC, "hypoco"):
        raise SystemExit(f"hypoco was imported from {where}, not from {SRC}")
    # every layer, as a user of the package would import it
    import hypoco.cli  # noqa: F401


def set_up(workload: str, seed: int, workdir: str):
    """From a fresh interpreter to ready: hypoco imported, inputs built."""
    _import_program()
    return workloads.make_inputs(workload, seed, ROOT, workdir)


def time_setup(workload: str, seed: int) -> list[float]:
    """Wall time of SETUP_REPEATS fresh interpreters that only set up."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # no timeout: with one, subprocess polls the child every 50 ms
        subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-only",
                        "--workload", workload, "--seed", str(seed)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def run_passes(inputs, seconds: float, trace: bool):
    """Whole passes until ``seconds`` have elapsed; (wall, ops, layer metrics) each."""
    from spans import Tracer

    import layers

    passes = []
    start = time.perf_counter()
    while True:
        tracer = Tracer(probes=layers.PROBES) if trace else None
        with tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            ops = workloads.PASSES[inputs.workload](inputs)
            wall = time.perf_counter() - t0
        per_layer = (layers.per_layer_metrics(tracer.spans, wall)
                     if tracer is not None else None)
        passes.append((wall, ops, per_layer))
        if time.perf_counter() - start >= seconds:
            return passes


def evaluate(args, params, passes, setup_times):
    """The result line and the detail line of a run."""
    import checks
    import layers

    reference = checks.load_reference().get(args.workload) if args.seed == 0 else None
    problems, attempted, failed = [], 0, 0
    fingerprints = set()
    for index, (_, ops, _) in enumerate(passes):
        found = checks.check_pass(args.workload, args.seed, params, ops, reference)
        fingerprint = checks.pass_fingerprint(args.workload, ops)
        if fingerprint is not None:
            fingerprints.add(fingerprint)
            if len(fingerprints) > 1:
                found.append(("pass", "CLI output differs from an earlier pass"))
        attempted += len(ops)
        failed += len({name for name, _ in found})
        problems += [f"pass {index}: {name}: {msg}" for name, msg in found]

    walls = [wall for wall, _, _ in passes]
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "passes": len(passes),
              "pass_wall_s": walls, "environment": environment()}
    if args.trace:
        per_pass = [m for _, _, (m, _) in passes]
        metrics = {name: {"value": statistics.median(m[name] for m in per_pass),
                          "unit": unit} for name, unit in layers.PER_LAYER}
        coverage = layers.coverage_problems(args.workload, *passes[0][2])
        problems += coverage
        detail["coverage_ok"] = not coverage
    else:
        # point statistics per pass, then the median over passes, so that the
        # tail percentile does not depend on how many passes fit
        points = [workloads.point_seconds(args.workload, ops) for _, ops, _ in passes]
        tails = [tail_point(p) for p in points]
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "point_p50_s": statistics.median(statistics.median(p) for p in points),
            "point_tail_s": statistics.median(value for value, _ in tails),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        n = len(points[0])
        detail.update(setup_s_runs=setup_times, point_s=points, points_per_pass=n,
                      point_tail_percentile=round(tails[0][1], 2),
                      point_tail_beyond=TAIL_BEYOND if n > TAIL_BEYOND else 0)
    detail["problems"] = problems
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, detail


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this workload's seed-0 values in reference.json")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.write_reference and (args.seed != 0 or args.trace):
        parser.error("--write-reference needs --seed 0 --trace 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = workloads.BLAS_THREADS[args.workload]
    if threads is not None:
        # read once, when numpy and scipy load their BLAS below
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(threads)
    missing = [p for p in (os.path.join(SRC, "hypoco", "__init__.py"),
                           *(os.path.join(ROOT, c) for c in workloads.CONFIGS))
               if not os.path.isfile(p)]
    if missing:
        sys.stderr.write(f"hypoco sources not found: {', '.join(missing)}\n")
        return 2
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        if args.setup_only:
            set_up(args.workload, args.seed, work)
            return 0
        setup_times = [] if args.trace else time_setup(args.workload, args.seed)
        inputs = set_up(args.workload, args.seed, work)
        passes = run_passes(inputs, args.seconds, bool(args.trace))
    if args.write_reference:
        return write_reference(args.workload, inputs.params, passes[0][1])
    result, detail = evaluate(args, inputs.params, passes, setup_times)
    for line in detail["problems"]:
        sys.stderr.write(line + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def write_reference(workload, params, ops) -> int:
    """Store a seed-0 pass's values, once it passes every other check."""
    import checks

    problems = checks.invariant_problems(workload, 0, params, ops)
    if problems:
        sys.stderr.write("".join(f"{name}: {msg}\n" for name, msg in problems))
        return 1
    try:
        stored = checks.load_reference()
    except FileNotFoundError:
        stored = {}
    stored[workload] = checks.reference_values(workload, ops)
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(stored, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
