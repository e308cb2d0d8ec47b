"""Benchmark of cold ``solve`` and ``decide`` calls, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tree-large --seed 1 --seconds 55 --trace 0

Workloads (inputs from ``gen.py``, seeded by ``--seed``):

``tree-large``
    ``solve`` on tree-like cacti of 1000, 2000, 4000 and 2000 vertices in
    turn, 40 points of 8 locations, about 35% of them inside edges.
``rings-many-points``
    ``solve`` on six hinged rings of 60 vertices, 40 to 80 points of 4 vertex
    locations, each point on one ring.  Not listed in ``BENCHMARK.json``:
    across ten seeds its end-to-end figures spread by 27-39% (a third of
    its solves take the optimizer's wide fallback search, which doubles
    them), more than the bounds allow; it serves ``--trace 1`` layer splits.
``decide-cold``
    one ``decide`` per fresh rings instance, at ``L + f (U - L)`` for f in
    0.25, 0.5, 0.75, 1 (L: largest weighted median value, U: one-center
    radius, both found untimed when the instance is first used).

One process and one thread run one op at a time in a closed loop for
``--seconds``; each op parses a fresh instance and is checked after its
timed section.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced ops on the same inputs and prints the
per-layer split of the traced ones, plus the tracing overhead.  The last
line of output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit code is 0 when the run completed, 2 when it could
not start (for example, no package source under ``src/``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# numpy, ucactus and the benchmark modules that use them are imported inside
# main(), after pin_environment() and once src/ is on the path
SETUP_REPEATS = 3  # set-up runs per process; setup_s is their median


def pin_environment() -> str | None:
    """One BLAS/OpenMP thread, and no ``UCACTUS_EPS`` (it silently changes
    results).  Returns the ignored ``UCACTUS_EPS`` value, if any.  Must run
    before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return os.environ.pop("UCACTUS_EPS", None)


def import_seconds() -> float:
    """Time ``import ucactus`` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import ucactus; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def tail(times: list[float], percentile: float) -> tuple[float, int]:
    """The sample at ``percentile`` and how many samples lie above it."""
    ordered = sorted(times)
    k = min(len(ordered) - 1, int(percentile / 100.0 * len(ordered)))
    return ordered[k], len(ordered) - 1 - k


def end_to_end(run, setup: list[float], tail_percentile: float) -> tuple[dict, list[str]]:
    value, beyond = tail(run.times, tail_percentile)
    metrics = {
        "op_p50_s": (statistics.median(run.times), "s"),
        "op_tail_s": (value, "s"),
        "ops_per_s": (len(run.times) / sum(run.times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    notes = [
        f"op_tail_s is p{tail_percentile:g} of {len(run.times)} timed ops, "
        f"{beyond} beyond it" + ("" if beyond >= 10 else " (fewer than 10)"),
        f"fail_ratio {len(run.failures) / run.attempted:.4f} "
        f"({len(run.failures)} of {run.attempted} ops)",
        "setup_s runs " + ", ".join(f"{s:.4f}" for s in setup),
    ]
    return metrics, notes


def environment(ignored_eps: str | None) -> dict:
    import numpy
    import scipy

    import ucactus.plf
    from ucactus.uncertain import instance_eps

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "eps": instance_eps(None),
        "ignored_UCACTUS_EPS": ignored_eps,
        "compiled_kernel": ucactus.plf.HAVE_COMPILED_KERNEL,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ignored_eps = pin_environment()
    if not (SRC / "ucactus" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'ucactus'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]

    import ucactus

    if Path(ucactus.__file__).resolve().parent != SRC / "ucactus":
        print(f"error: imported ucactus from {ucactus.__file__}", file=sys.stderr)
        return 2
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    setup = []
    for imported in imports:
        t = time.perf_counter()
        workload = workloads.build(args.workload, args.seed)
        setup.append(imported + time.perf_counter() - t)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(environment(ignored_eps)))
    if args.trace:
        tracer = layers.LayerTracer()
        run = workloads.measure(workload, args.seconds, tracer)
        metrics, notes = layers.per_layer(tracer, run)
    else:
        run = workloads.measure(workload, args.seconds)
        metrics, notes = end_to_end(run, setup, workload.tail_percentile)
    for line in notes:
        print(line)
    for failure in run.failures[:20]:
        print("FAILED " + failure)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not run.failures,
                "attempted": run.attempted,
                "failed": len(run.failures),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
