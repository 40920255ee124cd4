"""The four benchmark workloads: inputs from the seed, operations, checks.

A workload is a fixed list of operations built from ``--seed``: CLI
invocations through ``cylwidth.cli.main`` and a grid of brute-checkable
width instances evaluated with the width method the workload relies on.
One iteration runs every operation once.  Inputs (bases, vectors, group
JSON, base points) are generated here, before any timing starts.

Why each workload exists:

- ``refine``: annealed refinement (``width_altmax`` with ``refine="auto"``)
  on a brute-checkable real grid, then ``scaling --d 256 --k 2``.
- ``certify``: ``scaling --d 16 --k 4`` certifies one k=4 dyadic block,
  which builds the k=4 sphere net with the greedy packer.
- ``adversary``: ``lowerbound`` makes about 12,000 small ascent calls with
  ``refine="none"``; it bypasses the anneal and the nets.
- ``orbit``: ``realize`` on two 46,080-point signed-permutation orbits, plus
  ``rip-fuzz``, ``selberg-fuzz`` and a large ``tnorm`` batch; it bypasses
  the ascent and the anneal.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cylwidth import cli, groups, measures, width

EXACT_TOL = 1e-9


@dataclass(frozen=True)
class Grid:
    """Brute-checkable real width instances and the method that solves them.

    ``method`` is ``"auto"`` or ``"none"`` (the ``refine`` argument of
    ``width_altmax``) or ``"orbit"`` (enumerate the orbit of ``vector``
    under ``group`` and take ``width_orbit``).  Each instance is a
    ``(basis, vector, estimator seed)`` triple.
    """

    method: str
    restarts: int
    instances: tuple
    group: object = None
    vector: object = None


@dataclass(frozen=True)
class Plan:
    grid: Grid
    commands: tuple  # (label, argv) pairs
    orbit_size: int = 0  # expected ``realize`` orbit size, 0 when unused


def _altmax_grid(seed, method, restarts, dims, reps):
    instances = []
    for d in dims:
        for k in range(1, d):
            for rep in range(reps):
                basis = measures.sample_uniform(k, d, "real", seed=[seed, 101, d, k, rep])
                v = np.random.default_rng([seed, 102, d, k, rep]).standard_normal(d)
                instances.append((basis, v, [seed, 103, d, k, rep]))
    return Grid(method, restarts, tuple(instances))


def _signed_permutation_group(d, rng):
    """A conjugate of the standard signed-permutation generators.

    Conjugating by a random signed permutation keeps the generated group the
    whole signed-permutation group, so a base point with distinct nonzero
    moduli has an orbit of exactly ``2^d d!`` points.
    """
    flip = np.eye(d)
    flip[0, 0] = -1.0
    swap = np.eye(d)[[1, 0, *range(2, d)]]
    cycle = np.roll(np.eye(d), 1, axis=1)
    p = np.zeros((d, d))
    p[np.arange(d), rng.permutation(d)] = rng.choice([-1.0, 1.0], size=d)
    gens = [p @ g @ p.T for g in (flip, swap, cycle)]
    return {
        "d": d,
        "kind": "explicit",
        "generators": [[[[float(x), 0.0] for x in row] for row in g] for g in gens],
    }


def _base_point(d, rng):
    mags = (np.arange(1, d + 1) + rng.uniform(0.0, 0.5, size=d)) / d
    return rng.permutation(mags) * rng.choice([-1.0, 1.0], size=d)


def _seed_args(seed):
    return ["--seed", str(seed)]


def build(workload, seed, workdir: Path, tiny=False) -> Plan:
    """Generate the inputs of ``workload`` from ``seed``.

    ``tiny`` shrinks every operation so that all layer spans fire within
    seconds; the self-test uses it.
    """
    s = _seed_args(seed)
    if workload == "refine":
        grid = _altmax_grid(
            seed, "auto", 20, range(3, 5) if tiny else range(3, 8), 1 if tiny else 5
        )
        scaling = ["--d", "16", "--restarts", "2"] if tiny else ["--d", "256"]
        commands = [("scaling", ["scaling", *s, *scaling, "--k", "2", "--trials", "2"])]
        return Plan(grid, tuple(commands))
    if workload == "certify":
        grid = _altmax_grid(seed, "auto", 20, range(3, 4) if tiny else range(3, 6), 1)
        scaling = ["--k", "3", "--restarts", "2"] if tiny else ["--k", "4"]
        commands = [("scaling", ["scaling", *s, "--d", "16", *scaling, "--trials", "2"])]
        return Plan(grid, tuple(commands))
    if workload == "adversary":
        grid = _altmax_grid(
            seed, "none", 6, range(3, 5) if tiny else range(3, 7), 1 if tiny else 60
        )
        search = (
            ["--d", "8", "--k", "1", "--k", "2", "--restarts", "1", "--steps", "10"]
            if tiny
            else ["--d", "16", "--k", "1", "--k", "2", "--k", "4",
                  "--restarts", "12", "--steps", "333"]
        )
        commands = [("lowerbound", ["lowerbound", *s, *search])]
        return Plan(grid, tuple(commands))
    if workload == "orbit":
        return _build_orbit(seed, workdir, tiny)
    raise ValueError(f"unknown workload {workload!r}")


def _build_orbit(seed, workdir, tiny):
    rng = np.random.default_rng([seed, 201])
    d = 4 if tiny else 6
    group_path = workdir / "group.json"
    group_path.write_text(json.dumps(_signed_permutation_group(d, rng)), encoding="utf-8")
    commands = []
    for point in range(2):
        base = ",".join(repr(float(x)) for x in _base_point(d, rng))
        # the "=" form keeps a leading minus sign from reading as an option
        realize = ["realize", *_seed_args(seed), "--group", str(group_path), f"--base-point={base}"]
        commands += [
            (f"realize-p{point}-k{k}", [*realize, "--k", str(k), "--max-orbit", "50000"])
            for k in range(1, d // 2 + 1)
        ]
    ks = ["--k", "1", "--k", "4"] if tiny else ["--k", "1", "--k", "2", "--k", "3", "--k", "4"]
    commands += [
        ("rip-fuzz", ["rip-fuzz", *_seed_args(seed), *ks, "--trials", "1" if tiny else "10"]),
        ("selberg-fuzz", ["selberg-fuzz", *_seed_args(seed), "--trials", "3" if tiny else "300"]),
        ("tnorm", ["tnorm", *_seed_args(seed), "--d", "64" if tiny else "4096",
                   "--trials", "8" if tiny else "2048"]),
    ]
    # exactness check: the orbit of a generic point under a generated
    # signed-permutation group, against brute force on the same point
    grid_d = 3 if tiny else 5
    grid_group = groups.group_from_dict(_signed_permutation_group(grid_d, rng))
    v = _base_point(grid_d, rng)
    bases = [
        (measures.sample_uniform(k, grid_d, "real", seed=[seed, 202, k, rep]), v, None)
        for k in range(1, grid_d)
        for rep in range(1 if tiny else 5)
    ]
    grid = Grid("orbit", 0, tuple(bases), grid_group, v)
    return Plan(grid, tuple(commands), 2**d * math.factorial(d))


def run_cli(argv):
    """Run one CLI invocation in-process; return (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, out.getvalue()


def evaluate_grid(grid):
    """The workload's width method on every grid instance, in order."""
    if grid.method == "orbit":
        orbit = groups.enumerate_orbit(grid.group, grid.vector)
        return [width.width_orbit(basis, orbit).value for basis, _, _ in grid.instances]
    return [
        width.width_altmax(basis, v, restarts=grid.restarts, seed=s, refine=grid.method).value
        for basis, v, s in grid.instances
    ]


def brute_values(grid):
    return [width.width_brute_signed_perm(basis, v).value for basis, v, _ in grid.instances]


def run_iteration(plan, tracer=None):
    """Run every operation once; return ``{label: (exit code, output)}``.

    The grid's output is the ``repr`` of its values, one per line, so its
    digest pins every bit of every value.
    """
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    values = evaluate_grid(plan.grid)
    outputs = {"grid": (0, "\n".join(repr(v) for v in values) + "\n")}
    for label, argv in plan.commands:
        with span("cli." + argv[0]):
            outputs[label] = run_cli(argv)
    return outputs, values


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _row_failures(plan, label, code, text):
    """Failed-operation count of one CLI output: exit code and row flags."""
    if code != 0:
        return 1
    rows = json.loads(text)["rows"]
    bad = any(row.get("ok") is False or row.get("holds") is False for row in rows)
    if label.startswith("realize") and rows[0]["orbit_size"] != plan.orbit_size:
        bad = True
    return int(bad)


def check(plan, iterations, brute):
    """Verify every iteration's outputs.

    An operation is one CLI invocation or one grid instance.  It fails on a
    non-zero exit, on a row whose ``ok``/``holds`` flag is false, or on a
    width above brute force by more than ``EXACT_TOL``.  Every iteration
    must also reproduce the first iteration's output bytes.
    """
    attempted = failed = 0
    first = iterations[0][0]
    reproducible = True
    for outputs, values in iterations:
        reproducible &= outputs == first
        for label, _ in plan.commands:
            code, text = outputs[label]
            attempted += 1
            failed += _row_failures(plan, label, code, text)
        attempted += len(values)
        failed += sum(v > b + EXACT_TOL for v, b in zip(values, brute))
    values = iterations[0][1]
    exact = sum(abs(v - b) <= EXACT_TOL for v, b in zip(values, brute))
    return {
        "attempted": attempted,
        "failed": failed,
        "reproducible": reproducible,
        "exact": exact,
        "grid_size": len(values),
        "digests": {label: digest(text) for label, (_, text) in first.items()},
        "scaling": [
            row
            for label, (code, text) in first.items()
            if label == "scaling" and code == 0
            for row in json.loads(text)["rows"]
        ],
    }


def mean_shift_se(rows, reference_rows):
    """Largest ``|mean - reference mean| / reference stderr`` over the rows."""
    worst = 0.0
    for row, ref in zip(rows, reference_rows, strict=True):
        for kind in ("random", "witness"):
            shift = abs(row[f"mean_sup2_{kind}"] - ref[f"mean_sup2_{kind}"])
            se = ref[f"stderr_{kind}"]
            worst = max(worst, shift / se if se > 0 else (math.inf if shift else 0.0))
    return worst
