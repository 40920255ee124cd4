"""Benchmark of the cylwidth command line and its layers.

Run from the repository root::

    python3 perfbench/run.py --workload refine --seed 1 --seconds 20 --trace 0

One client runs the workload's operations back to back (a closed loop) in
this process, with BLAS pinned to ``BLAS_THREADS`` threads, and repeats the
whole workload while the next repetition fits in ``--seconds`` (at least
once).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once traced and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (the
environment, output digests, spans) go to ``perfbench/out/``.
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
from importlib.util import find_spec
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
REFERENCE = ROOT / "perfbench" / "reference.json"

BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 12

# per-layer counters reported next to each layer's self time
LAYER_COUNTERS = {
    "kernels.anneal_best": ("calls", "moves"),
    "kernels.altmax_best": ("calls", "starts", "iters"),
    "kernels.greedy_pack": ("calls", "candidates", "kept"),
    "nets.sphere_net": ("calls",),
    "tnorm.t_norm_subspace_bound": ("calls",),
    "measures.dyadic_alt_measure": ("calls", "blocks", "cert_attempts"),
    "tnorm.t_norm_batch": ("calls", "rows", "bytes_computed"),
    "width.width_altmax": ("calls",),
    "lowerbound.adversarial_min_width": ("calls", "evaluations"),
    "vectors.orthonormalize": ("calls",),
    "groups.enumerate_orbit": ("calls", "points"),
    "width.width_orbit": ("calls", "points"),
    "rip.select_columns": ("calls", "svd_count"),
    "lowerbound.selberg_check": ("calls",),
}
SUBCOMMANDS = ("tnorm", "scaling", "lowerbound", "realize", "selberg-fuzz", "rip-fuzz")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("refine", "certify", "adversary", "orbit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "numba": find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }


def measure_setup(repeats):
    """Seconds for fresh interpreters to start and import ``cylwidth.cli``."""
    cmd = [sys.executable, "-c", "import cylwidth.cli"]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        # no timeout: with one, the wait polls and rounds times up to 50 ms steps
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def layer_metrics(tracer, traced_s, untraced_s):
    metrics = {}
    for layer, counters in LAYER_COUNTERS.items():
        metrics[f"{layer}.self_s"] = (tracer.self_s[layer], "s")
        for counter in counters:
            value = tracer.calls[layer] if counter == "calls" else tracer.counters[layer][counter]
            unit = "bytes" if counter.startswith("bytes") else "count"
            metrics[f"{layer}.{counter}"] = (value, unit)
    for sub in SUBCOMMANDS:
        name = "cli." + sub
        metrics[name + ".wall_s"] = (tracer.total_s[name], "s")
    metrics["trace.coverage"] = (tracer.top_level_s() / traced_s, "share")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cylwidth" / "__init__.py").is_file():
        print("error: the cylwidth sources (src/cylwidth) are missing", file=sys.stderr)
        return 2
    # thread counts are read when numpy loads, so pin them before any import
    for var in THREAD_VARIABLES:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    import cylwidth

    if Path(cylwidth.__file__).resolve().parent != SRC / "cylwidth":
        print(f"error: imported cylwidth from {cylwidth.__file__}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    env = environment()
    # half the set-up samples before the timed loop and half after it, so
    # that their median spans the run rather than one phase of the machine
    setup = [] if args.trace else measure_setup(SETUP_REPEATS // 2)
    # a relative input path keeps the CLI's echoed config, and so the output
    # digests, the same in every checkout
    os.chdir(ROOT)
    workdir = OUT.relative_to(ROOT) / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    plan = workloads.build(args.workload, args.seed, workdir)

    iterations, times = [], []
    tracer = None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        iterations.append(workloads.run_iteration(plan))
        times.append(time.perf_counter() - t0)
        if args.trace or time.perf_counter() - start + times[-1] > args.seconds:
            break
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            iterations.append(workloads.run_iteration(plan, tracer))
            traced_s = time.perf_counter() - t0
        finally:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        setup += measure_setup(SETUP_REPEATS - len(setup))

    brute = workloads.brute_values(plan.grid)
    result = workloads.check(plan, iterations, brute)
    exact_share = result["exact"] / result["grid_size"]
    reference = {}
    if REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    reference = reference.get(args.workload, {}).get(str(args.seed))
    digest_status = {
        label: ("no reference" if reference is None
                else "match" if reference["digests"].get(label) == value else "changed")
        for label, value in result["digests"].items()
    }
    shift = None
    if reference is not None and result["scaling"]:
        shift = workloads.mean_shift_se(result["scaling"], reference["scaling"])
    correct = result["failed"] == 0 and result["reproducible"]

    q1, median, q3 = quartiles(times)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "iteration_s": times,
        "setup_s": setup,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_share": result["failed"] / result["attempted"],
        "reproducible": result["reproducible"],
        "exact": f"{result['exact']}/{result['grid_size']}",
        "digests": result["digests"],
        "digest_status": digest_status,
        "scaling": result["scaling"],
        "mean_shift_se": shift,
    }
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(times)} untraced iteration(s), "
          f"median {median:.4f} s, quartiles {q1:.4f} / {q3:.4f} s")
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed "
          f"(failed_share {detail['failed_share']:.4g}); "
          f"byte-identical reruns: {result['reproducible']}")
    print(f"exact_share: {detail['exact']} grid instances match brute force "
          f"within {workloads.EXACT_TOL}")
    for label, value in result["digests"].items():
        print(f"sha256 {label}: {value} ({digest_status[label]})")
    print(f"mean_shift_se: {'no reference' if shift is None else f'{shift:.4g}'}")

    if args.trace:
        metrics = layer_metrics(tracer, traced_s, times[0])
        ranked = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])
        detail["self_time_ranking"] = ranked
        detail["traced_s"] = traced_s
        print("self time, largest first: " + ", ".join(
            f"{name} {value:.3f} s ({value / traced_s:.1%})" for name, value in ranked[:5]))
        print(f"traced iteration {traced_s:.4f} s against untraced {times[0]:.4f} s; "
              f"top-level spans cover {metrics['trace.coverage'][0]:.1%} of it")
        tracer.write_spans(OUT / f"{args.workload}-{args.seed}.spans.jsonl")
    else:
        metrics = {
            "wall_s": (median, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "exact_share": (exact_share, "share"),
        }
    detail["metrics"] = {name: value for name, (value, _) in metrics.items()}
    (OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
