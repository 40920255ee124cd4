"""Command-line front end.

Subcommands::

    tnorm         Gaussian norm-ratio statistics over a dimension grid
    scaling       dyadic-measure width integrals across (d, k) pairs
    lowerbound    minimal width against the harmonic witness (exact at k = 1)
    realize       complex-to-real reduction on an enumerated group orbit
    selberg-fuzz  randomized checks of the Gram row-sum bound
    rip-fuzz      randomized checks of greedy/exhaustive column selection

Every subcommand requires ``--seed``, a non-negative integer; identical
invocations produce byte-identical output.  Reports are JSON (versioned
envelope with ``schema``, ``command``, ``config`` and ``rows``) or CSV
(header plus rows, column order as documented in each subcommand's help).
Exit codes: 0 success, 2 invalid configuration or input (an input too
large to allocate included), 3 a theoretical guarantee was missed: a
certification failed, or some row's ``ok`` or ``holds`` is false, in which
case the report is still written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import _fork
from .errors import (
    CertificationFailedError,
    CylwidthError,
    EmptyDyadicIndexError,
    GuaranteeMissedError,
)
from .groups import enumerate_orbit, group_dimension, group_from_dict, read_group_json
from .lowerbound import adversarial_min_width, selberg_check, witness_vector
from .measures import (
    desk_scale_j_min,
    dyadic_alt_measure,
    sample_uniform,
)
from .rip import C_RIP, realize_real_subspace, select_columns
from .tnorm import gaussian_tnorm_statistics, lipschitz_bound
from .vectors import _conformed, _scaled
from .width import altmax_evaluator, estimate_f_integral, width_altmax, width_orbit

SCHEMA_VERSION = 1
REALIZE_RATIO_CAP = 2.0 + 1e-6
LOWERBOUND_FLOOR = 0.1

COLUMNS = {
    "tnorm": [
        "d",
        "trials",
        "mean_ratio",
        "max_ratio",
        "q50_ratio",
        "q90_ratio",
        "q99_ratio",
        "mean_ratio_sum_zero",
        "max_ratio_sum_zero",
        "q50_ratio_sum_zero",
        "q90_ratio_sum_zero",
        "q99_ratio_sum_zero",
        "lipschitz_bound",
    ],
    "scaling": [
        "d",
        "k",
        "j_count",
        "trials",
        "mean_sup2_random",
        "stderr_random",
        "normalized_random",
        "mean_sup2_witness",
        "stderr_witness",
        "normalized_witness",
    ],
    "lowerbound": [
        "d",
        "k",
        "restarts",
        "steps",
        "min_width",
        "normalized",
        "ok",
    ],
    "realize": [
        "d",
        "k",
        "orbit_size",
        "draws",
        "complex_width",
        "real_width",
        "ratio",
        "selected_columns",
        "s_2k",
        "achieved",
        "target",
        "ok",
    ],
    "selberg-fuzz": [
        "trial",
        "family",
        "m",
        "d",
        "lhs",
        "rhs",
        "margin",
        "holds",
    ],
    "rip-fuzz": [
        "k",
        "trial",
        "achieved",
        "target",
        "ratio",
        "greedy_achieved",
        "exhaustive_achieved",
        "ok",
    ],
}


def _at_least(low: int):
    """argparse type for integers of at least ``low``; argparse names the
    flag in the error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}"
            ) from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_count = _at_least(1)
_seed = _at_least(0)  # numpy derives streams from non-negative integers only


def _desk_j_min(rank: int, k: int, delta: int) -> int:
    """``desk_scale_j_min(rank, delta)``, refused when the smallest block
    ``2^j_min`` cannot hold a ``rank``-dimensional sum-free subspace.

    ``k`` and ``delta`` are the values of ``--k`` and ``--delta``, which the
    message names.
    """
    j_min = desk_scale_j_min(rank, delta)
    if j_min < rank.bit_length():  # 2^j_min - 1 < rank
        raise ValueError(
            f"--delta {delta} is too small for --k {k}: the smallest dyadic "
            f"block cannot hold the subspace; pass --delta "
            f"{delta + rank.bit_length() - j_min} or more"
        )
    return j_min


def _epilog(command: str) -> str:
    return "CSV column order: " + ", ".join(COLUMNS[command])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylwidth",
        description=(
            "Empirical width experiments: tail-weighted norms, dyadic "
            "subspace measures, adversarial lower bounds, and the "
            "complex-to-real reduction."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=_seed, required=True, help="master seed (non-negative)"
    )
    common.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="report format (default json)",
    )
    common.add_argument(
        "--out", default=None, help="output path (default: stdout)"
    )

    p = sub.add_parser(
        "tnorm",
        parents=[common],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        help="Gaussian norm-ratio statistics",
        epilog=_epilog("tnorm"),
    )
    p.add_argument(
        "--d", action="append", type=int, required=True, help="dimension (repeatable)"
    )
    p.add_argument(
        "--trials",
        type=_count,
        default=200,
        help="Gaussian draws per row; their blocks are spread over one process "
        "per usable CPU, and the output does not depend on how many",
    )

    p = sub.add_parser(
        "scaling",
        parents=[common],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        help="dyadic measure width integrals",
        epilog=_epilog("scaling"),
    )
    p.add_argument("--d", action="append", type=int, required=True)
    p.add_argument("--k", action="append", type=int, default=None)
    p.add_argument(
        "--trials",
        type=_count,
        default=200,
        help="width trials per column; they are spread over one process per "
        "usable CPU, and the output does not depend on how many",
    )
    p.add_argument(
        "--delta",
        type=int,
        default=1,
        help="scale-window offset: j_min = ceil(log2(2k)) + delta",
    )
    p.add_argument(
        "--restarts",
        type=_count,
        default=20,
        help="ascent starts per width for k >= 2 (a line's width is exact)",
    )

    p = sub.add_parser(
        "lowerbound",
        parents=[common],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        help="adversarial minimal width",
        description=(
            "Least width of a real k-frame against the harmonic witness.\n"
            "k = 1 is exact: min over m of the sum of the m largest witness\n"
            "coordinates over sqrt(m).  k >= 2 runs a random search."
        ),
        epilog=_epilog("lowerbound"),
    )
    p.add_argument("--d", action="append", type=int, default=None)
    p.add_argument("--k", action="append", type=int, default=None)
    p.add_argument(
        "--restarts",
        type=_count,
        default=10,
        help="search restarts (k >= 2 only); each search runs its restarts in "
        "one process, the searches are spread over the usable CPUs, and the "
        "output does not depend on how many",
    )
    p.add_argument(
        "--steps", type=_count, default=2000, help="steps per restart (k >= 2 only)"
    )
    p.add_argument(
        "--inner-restarts",
        type=_count,
        default=6,
        help="ascent starts per candidate (k >= 2 only)",
    )

    p = sub.add_parser(
        "realize",
        parents=[common],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        help="complex-to-real reduction on a group orbit",
        epilog=_epilog("realize"),
    )
    p.add_argument("--group", required=True, help="group JSON file")
    p.add_argument(
        "--base-point",
        required=True,
        help="comma-separated real coordinates of the orbit base point",
    )
    p.add_argument("--k", type=int, default=1, help="real target dimension")
    p.add_argument("--draws", type=_count, default=32)
    p.add_argument("--delta", type=int, default=1)
    p.add_argument("--max-orbit", type=_count, default=5000)

    p = sub.add_parser(
        "selberg-fuzz",
        parents=[common],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        help="randomized Gram row-sum checks",
        epilog=_epilog("selberg-fuzz"),
    )
    p.add_argument("--trials", type=_count, default=1000)

    p = sub.add_parser(
        "rip-fuzz",
        parents=[common],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        help="randomized column-selection checks",
        epilog=_epilog("rip-fuzz"),
    )
    p.add_argument("--k", action="append", type=int, default=None)
    p.add_argument("--trials", type=_count, default=100)

    return parser


def _cmd_tnorm(args):
    rows = []
    for d in args.d:
        if d < 2:
            raise ValueError("tnorm needs d >= 2 (sum-zero conditioning)")
        plain = gaussian_tnorm_statistics(d, args.trials, False, seed=[args.seed, 31, d])
        zero = gaussian_tnorm_statistics(d, args.trials, True, seed=[args.seed, 32, d])
        rows.append(
            {
                "d": d,
                "trials": args.trials,
                "mean_ratio": plain.mean_ratio,
                "max_ratio": plain.max_ratio,
                "q50_ratio": plain.q50_ratio,
                "q90_ratio": plain.q90_ratio,
                "q99_ratio": plain.q99_ratio,
                "mean_ratio_sum_zero": zero.mean_ratio,
                "max_ratio_sum_zero": zero.max_ratio,
                "q50_ratio_sum_zero": zero.q50_ratio,
                "q90_ratio_sum_zero": zero.q90_ratio,
                "q99_ratio_sum_zero": zero.q99_ratio,
                "lipschitz_bound": lipschitz_bound(d),
            }
        )
    return rows


def _cmd_scaling(args):
    ks = args.k if args.k else [1]
    # every (d, k) is checked before the first measure is built
    j_mins = {}
    for d in args.d:
        for k in ks:
            if 4 * k > d:
                raise ValueError(
                    f"scaling requires k <= d/4, got k={k}, d={d}"
                )
            j_min = _desk_j_min(k, k, args.delta)
            excess = j_min - math.floor(math.log2(d))
            if excess > 0:
                raise ValueError(
                    f"--delta {args.delta} is too large for --d {d} and --k {k}: "
                    f"the smallest dyadic block would be larger than --d; pass --delta "
                    f"{args.delta - excess} or less"
                )
            j_mins[d, k] = j_min
    rows = []
    for d in args.d:
        for k in ks:
            mu = dyadic_alt_measure(
                k,
                d,
                j_min_override=j_mins[d, k],
                seed=[args.seed, 11, d, k],
            )
            wit = witness_vector(d, k).unit
            est_w = estimate_f_integral(
                mu,
                altmax_evaluator(wit, restarts=args.restarts),
                args.trials,
                seed=[args.seed, 12, d, k],
            )

            def random_eval(basis, rng, _d=d):
                v = rng.standard_normal(_d) + 1j * rng.standard_normal(_d)
                v /= np.linalg.norm(v)
                return width_altmax(
                    basis, v, restarts=args.restarts, seed=rng
                ).value

            est_r = estimate_f_integral(
                mu, random_eval, args.trials, seed=[args.seed, 13, d, k]
            )
            scale = math.log(d / k)
            rows.append(
                {
                    "d": d,
                    "k": k,
                    "j_count": len(mu.j_values),
                    "trials": args.trials,
                    "mean_sup2_random": est_r.mean,
                    "stderr_random": est_r.stderr,
                    "normalized_random": est_r.mean * scale,
                    "mean_sup2_witness": est_w.mean,
                    "stderr_witness": est_w.stderr,
                    "normalized_witness": est_w.mean * scale,
                }
            )
    return rows


def _cmd_lowerbound(args):
    ds = args.d if args.d else [16]
    ks = args.k if args.k else [1, 2, 4]
    # every (d, k) is checked, by building its witness, before the first fork
    witnesses = [witness_vector(d, k) for d in ds for k in ks]

    def search(wit):
        return adversarial_min_width(
            wit.d,
            wit.k,
            wit.unit,
            restarts=args.restarts,
            steps=args.steps,
            seed=[args.seed, 21, wit.d, wit.k],
            inner_restarts=args.inner_restarts,
        )

    # lines are exact and cheap, so they run here; the searches are spread
    # over the CPUs, each whole in one process
    searched = [wit for wit in witnesses if wit.k >= 2]
    found = iter(_fork.map_forked(lambda i: search(searched[i]), len(searched)))
    rows = []
    for wit in witnesses:
        d, k = wit.d, wit.k
        res = search(wit) if k == 1 else next(found)
        normalized = res.min_value * math.sqrt(math.log(2 * d / k))
        rows.append(
            {
                "d": d,
                "k": k,
                "restarts": res.restarts,
                "steps": res.steps,
                "min_width": res.min_value,
                "normalized": normalized,
                "ok": bool(normalized >= LOWERBOUND_FLOOR),
            }
        )
    return rows


def _least_orbit_width(bases, orbit):
    """Index and orbit width of the first basis of least width.

    Each basis is measured with the least width so far as its ceiling, so a
    wider one stops after the first block of orbit points that proves it
    wider; only a strictly smaller width replaces the best, which is
    ``np.argmin``'s first-minimum rule over the full widths.
    """
    best, best_width = 0, math.inf
    for i, basis in enumerate(bases):
        w = width_orbit(basis, orbit, best_width).value
        if w < best_width:
            best, best_width = i, w
    return best, best_width


def _cmd_realize(args):
    obj = read_group_json(args.group)
    try:
        coords = [float(t) for t in args.base_point.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse base point: {exc}") from exc
    base = _conformed(coords, "base point coordinates")
    # checked before the group's d x d generators are built
    d = group_dimension(obj)
    if base.shape[0] != d:
        raise ValueError(
            f"base point has {base.shape[0]} coordinates, group acts on "
            f"dimension {d}"
        )
    # scaled to about unit norm first, so that its norm neither overflows
    # nor underflows to zero; a power of two changes no bit of base / norm
    base, _ = _scaled(base)
    norm = float(np.linalg.norm(base))
    if norm == 0.0:
        raise ValueError("base point must be nonzero")
    base = base / norm
    k = args.k
    if k < 1 or 2 * k > d:
        raise ValueError(f"need 1 <= k <= d/2 for the reduction, got k={k}, d={d}")
    j_min = _desk_j_min(2 * k, k, args.delta)
    orbit = enumerate_orbit(group_from_dict(obj), base, max_size=args.max_orbit)

    candidates = [
        sample_uniform(2 * k, d, "complex", [args.seed, 41, i])
        for i in range(args.draws)
    ]
    try:
        mu = dyadic_alt_measure(
            2 * k,
            d,
            j_min_override=j_min,
            seed=[args.seed, 42],
        )
        candidates.extend(
            mu.sample([args.seed, 43, i]) for i in range(args.draws)
        )
    except (EmptyDyadicIndexError, CertificationFailedError):
        pass  # dyadic construction infeasible at this (2k, d); uniform only

    best, complex_width = _least_orbit_width(candidates, orbit)
    rep = realize_real_subspace(candidates[best])
    real_width = width_orbit(rep.basis, orbit).value
    ratio = real_width / complex_width if complex_width > 0 else math.inf
    # each inner product of a unit orbit point with a unit column rounds by
    # about d eps, so widths that small are noise and their ratio means
    # nothing: the cap is checked up to that rounding bound
    slack = d * np.finfo(np.float64).eps
    return [
        {
            "d": d,
            "k": k,
            "orbit_size": orbit.n,
            "draws": len(candidates),
            "complex_width": complex_width,
            "real_width": real_width,
            "ratio": ratio,
            "selected_columns": "|".join(str(i) for i in rep.selection.indices),
            "s_2k": rep.s_2k,
            "achieved": rep.selection.achieved,
            "target": rep.selection.target,
            "ok": bool(real_width <= REALIZE_RATIO_CAP * complex_width + slack),
        }
    ]


def _cmd_selberg_fuzz(args):
    rows = []
    families = ("complex_gaussian", "near_parallel", "rank_one")
    for trial in range(args.trials):
        rng = np.random.default_rng([args.seed, 51, trial])
        family = families[trial % 3]
        m = int(rng.integers(2, 21))
        d = int(rng.integers(2, 31))
        if family == "complex_gaussian":
            x = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
        elif family == "near_parallel":
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            v /= np.linalg.norm(v)
            eps = 10.0 ** rng.uniform(-8, -1)
            x = v[None, :] * rng.standard_normal((m, 1)) + eps * (
                rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
            )
        else:
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            x = v[None, :] * rng.standard_normal((m, 1))
        rep = selberg_check(x)
        rows.append(
            {
                "trial": trial,
                "family": family,
                "m": m,
                "d": d,
                "lhs": rep.lhs,
                "rhs": rep.rhs,
                "margin": rep.margin,
                "holds": rep.holds,
            }
        )
    return rows


def _cmd_rip_fuzz(args):
    ks = args.k if args.k else [1, 2, 3]
    rows = []
    for k in ks:
        if k < 1:
            raise ValueError("k must be positive")
        for trial in range(args.trials):
            rng = np.random.default_rng([args.seed, 61, k, trial])
            m = rng.standard_normal((2 * k, 4 * k))
            sel = select_columns(m, k, c_rip=0.0)
            rows.append(
                {
                    "k": k,
                    "trial": trial,
                    "achieved": sel.achieved,
                    "target": sel.target,
                    "ratio": sel.ratio,
                    "greedy_achieved": sel.greedy_achieved,
                    "exhaustive_achieved": (
                        sel.exhaustive_achieved
                        if sel.exhaustive_achieved is not None
                        else ""
                    ),
                    "ok": bool(sel.achieved >= C_RIP * sel.target),
                }
            )
    return rows


HANDLERS = {
    "tnorm": _cmd_tnorm,
    "scaling": _cmd_scaling,
    "lowerbound": _cmd_lowerbound,
    "realize": _cmd_realize,
    "selberg-fuzz": _cmd_selberg_fuzz,
    "rip-fuzz": _cmd_rip_fuzz,
}


def _render(command: str, args, rows, fmt: str) -> str:
    if fmt == "json":
        config = {
            key: value
            for key, value in vars(args).items()
            if key not in ("command", "format", "out")
        }
        doc = {
            "schema": SCHEMA_VERSION,
            "command": command,
            "config": config,
            "rows": rows,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=COLUMNS[command], lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rows = HANDLERS[args.command](args)
        text = _render(args.command, args, rows, args.format)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (GuaranteeMissedError, CertificationFailedError) as exc:
        print(f"guarantee missed: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError, CylwidthError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # a row whose check failed still goes out, and the process signals it
    missed = any(row.get("ok") is False or row.get("holds") is False for row in rows)
    return 3 if missed else 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
