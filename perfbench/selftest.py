"""Self-test of the benchmark's layer wrappers and counters.

Runs every workload at a tiny size, once untraced and twice traced, and
checks that:

- every layer span the workload exercises fires, and the layers it bypasses
  show zero calls;
- every traced layer fires in at least one workload, and every CLI
  subcommand runs in at least one;
- tracing leaves the outputs byte-identical;
- the counters repeat exactly between the two traced runs;
- removing the wrappers restores every original binding.

Run from the repository root (takes a few seconds)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# (spans that must fire, layers that must stay at zero calls)
EXPECTED = {
    "refine": (
        ("kernels.anneal_best", "kernels.altmax_best", "width.width_altmax",
         "measures.dyadic_alt_measure", "tnorm.t_norm_subspace_bound",
         "nets.sphere_net", "vectors.orthonormalize", "cli.scaling"),
        ("kernels.greedy_pack", "groups.enumerate_orbit", "lowerbound.adversarial_min_width"),
    ),
    "certify": (
        ("kernels.greedy_pack", "nets.sphere_net", "tnorm.t_norm_subspace_bound",
         "tnorm.t_norm_batch", "measures.dyadic_alt_measure", "width.width_altmax",
         "kernels.anneal_best", "cli.scaling"),
        ("groups.enumerate_orbit", "lowerbound.adversarial_min_width"),
    ),
    "adversary": (
        ("lowerbound.adversarial_min_width", "kernels.altmax_best", "width.width_altmax",
         "vectors.orthonormalize", "cli.lowerbound"),
        ("kernels.anneal_best", "nets.sphere_net", "kernels.greedy_pack"),
    ),
    "orbit": (
        ("groups.enumerate_orbit", "width.width_orbit", "rip.select_columns",
         "lowerbound.selberg_check", "tnorm.t_norm_batch", "vectors.orthonormalize",
         "cli.realize", "cli.rip-fuzz", "cli.selberg-fuzz", "cli.tnorm"),
        ("kernels.altmax_best", "kernels.anneal_best", "width.width_altmax"),
    ),
}


def traced_run(plan):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outputs, _ = workloads.run_iteration(plan, tracer)
    finally:
        tracer.uninstall()
    counters = {name: dict(c) for name, c in tracer.counters.items()}
    return tracer, outputs, (dict(tracer.calls), counters)


def main():
    problems = []
    fired = set()
    with tempfile.TemporaryDirectory(dir=ROOT / "perfbench") as tmp:
        for workload, (fires, zero) in EXPECTED.items():
            plan = workloads.build(workload, 7, Path(tmp), tiny=True)
            plain, _ = workloads.run_iteration(plan)
            tracer, traced, counts = traced_run(plan)
            _, _, counts_again = traced_run(plan)
            fired |= {name for name, calls in tracer.calls.items() if calls}
            problems += [f"{workload}: {name} never fired"
                         for name in fires if not tracer.calls[name]]
            problems += [f"{workload}: {name} fired but should be bypassed"
                         for name in zero if tracer.calls[name]]
            if plain != traced:
                problems.append(f"{workload}: tracing changed the outputs")
            if counts != counts_again:
                problems.append(f"{workload}: counters differ between identical runs")
            print(f"{workload}: {sum(tracer.calls.values())} spans, "
                  f"{len([n for n in tracer.calls if tracer.calls[n]])} layers fired")
    problems += [f"layer {name} fired in no workload"
                 for _, _, name, _ in tracing.LAYERS if name not in fired]
    problems += [f"subcommand {cmd} ran in no workload"
                 for cmd in run.SUBCOMMANDS if "cli." + cmd not in fired]
    for module_name, attr, name, _ in tracing.LAYERS:
        if hasattr(getattr(sys.modules[module_name], attr), "__wrapped__"):
            problems.append(f"{name} is still wrapped after uninstall")
    for problem in problems:
        print("FAIL", problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
