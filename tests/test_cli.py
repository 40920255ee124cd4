"""Command-line interface: report schemas, determinism, exit codes."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import cylwidth._fork as _fork
import cylwidth.cli as cli
import cylwidth.lowerbound as lowerbound
from cylwidth.groups import GroupPresentation, enumerate_orbit
from cylwidth.measures import sample_uniform
from cylwidth.width import width_orbit


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tnorm_json_schema(tmp_path, capsys):
    code, out, err = run(["tnorm", "--d", "16", "--trials", "5", "--seed", "1"], capsys)
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["command"] == "tnorm"
    assert doc["config"]["seed"] == 1
    assert doc["config"]["d"] == [16]
    assert len(doc["rows"]) == 1
    assert set(doc["rows"][0]) == set(cli.COLUMNS["tnorm"])

    # every handler builds its rows in the documented column order; the JSON
    # report sorts the keys, so the order is checked on the handler's rows
    gfile = tmp_path / "sp3.json"
    gfile.write_text('{"d": 3, "kind": "SIGNED_PERMUTATIONS"}')
    tiny = {
        "tnorm": ["--d", "8", "--trials", "2"],
        "scaling": ["--d", "16", "--k", "1", "--trials", "2", "--restarts", "2"],
        "lowerbound": ["--d", "6", "--k", "1", "--restarts", "1", "--steps", "5"],
        "realize": ["--group", str(gfile), "--base-point", "3,2,1", "--draws", "1"],
        "selberg-fuzz": ["--trials", "3"],
        "rip-fuzz": ["--k", "1", "--trials", "1"],
    }
    assert set(tiny) == set(cli.COLUMNS)
    for command, argv in tiny.items():
        args = cli.build_parser().parse_args([command, *argv, "--seed", "1"])
        rows = cli.HANDLERS[command](args)
        assert rows
        for row in rows:
            assert list(row) == cli.COLUMNS[command], command
        doc = json.loads(cli._render(command, args, rows, "json"))
        for row in doc["rows"]:
            assert list(row) == sorted(cli.COLUMNS[command]), command


def test_csv_header_matches_documented_columns(capsys):
    code, out, _ = run(
        ["tnorm", "--d", "8", "--trials", "3", "--seed", "2", "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0] == ",".join(cli.COLUMNS["tnorm"])


def test_help_documents_csv_columns(capsys):
    for command in cli.COLUMNS:
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        assert ", ".join(cli.COLUMNS[command]) in help_text


def test_reruns_are_byte_identical(tmp_path, monkeypatch):
    # the later runs spread their trials, blocks or searches over several
    # processes; each search runs whole in one of them, whatever the CPUs
    first = tmp_path / "a.json"
    later = tmp_path / "b.json"
    for argv, cpus in (
        (["selberg-fuzz", "--trials", "12", "--seed", "9"], (3,)),
        (["tnorm", "--d", "4096", "--d", "64", "--trials", "131", "--seed", "9"], (3,)),
        (["scaling", "--d", "16", "--k", "1", "--k", "2", "--trials", "5",
          "--restarts", "4", "--seed", "9"], (3,)),
        (["lowerbound", "--d", "8", "--k", "1", "--k", "2", "--restarts", "4",
          "--steps", "40", "--seed", "9"], (3,)),
        (["lowerbound", "--d", "8", "--k", "1", "--k", "2", "--k", "4",
          "--restarts", "4", "--steps", "40", "--seed", "9"], (2, 3, 4)),
    ):
        monkeypatch.setattr(_fork, "_usable_cpus", lambda: 1)
        assert cli.main(argv + ["--out", str(first)]) == 0
        for n in cpus:
            monkeypatch.setattr(_fork, "_usable_cpus", lambda n=n: n)
            assert cli.main(argv + ["--out", str(later)]) == 0
            assert first.read_bytes() == later.read_bytes(), (argv[0], n)


def test_scaling_runs_every_width_trial_in_one_map(tmp_path, monkeypatch):
    # both vectors' trials of every row go through one fork map, whose rows
    # do not depend on how many processes share it; each trial is dealt out
    # by the nonzero rows of its dyadic block
    argv = ["scaling", "--d", "16", "--d", "32", "--k", "2", "--trials", "3",
            "--restarts", "2", "--seed", "4"]
    real_map = _fork.map_forked
    maps = []

    def counted(func, n_items, costs=None):
        maps.append((n_items, sorted(set(costs))))
        return real_map(func, n_items, costs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cylwidth" and getattr(module, "map_forked", None) is real_map:
            monkeypatch.setattr(module, "map_forked", counted)
    reports = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(_fork, "_usable_cpus", lambda n=cpus: n)
        maps.clear()
        out = tmp_path / f"{cpus}.json"
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert maps == [(2 * 2 * 3, [8, 16, 32])], cpus
        reports.append(out.read_bytes())
    assert len(json.loads(reports[0])["rows"]) == 2
    assert reports[1] == reports[0] and reports[2] == reports[0]


@pytest.mark.parametrize("ks, cpus, layout", [
    # two searches on 2 CPUs: one whole search per process
    ((2, 4), 2, [[5], [5]]),
    # a lone search runs all its restarts in the calling process
    ((2,), 2, [[5]]),
    # two searches on 4 CPUs still run one whole search per process
    ((2, 4), 4, [[5], [5]]),
])
def test_lowerbound_searches_share_out_the_cpus(tmp_path, monkeypatch, ks, cpus,
                                                layout):
    log = tmp_path / "searches.txt"
    real_search = lowerbound._search

    def search(v, v_desc, d, k, restarts, *args):
        with open(log, "a") as fh:  # one short appended line per call
            fh.write(f"{k} {os.getpid()} {restarts}\n")
        return real_search(v, v_desc, d, k, restarts, *args)

    monkeypatch.setattr(lowerbound, "_search", search)
    monkeypatch.setattr(_fork, "_usable_cpus", lambda: cpus)
    argv = ["lowerbound", "--d", "8", "--restarts", "5", "--steps", "5", "--seed", "1"]
    for k in ks:
        argv += ["--k", str(k)]
    assert cli.main(argv + ["--out", str(tmp_path / "out.json")]) == 0
    calls = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    # each search is one lockstep call over all its restarts
    for k, want in zip(ks, layout):
        assert [n for kk, _, n in calls if kk == k] == want, k
    pids = [pid for _, pid, _ in calls]
    assert len(set(pids)) == len(ks)
    if len(ks) == 1:
        assert pids == [os.getpid()]


class SearchFailed(Exception):
    pass


def test_search_worker_failure_is_raised_and_every_worker_reaped(tmp_path, monkeypatch):
    # on 2 or more CPUs the k = 4 search runs in a forked worker and the k = 2
    # search in this process; either failure comes back with its own type
    real_draw = lowerbound._stacked_starts
    argv = ["lowerbound", "--d", "8", "--k", "2", "--k", "4", "--restarts", "3",
            "--steps", "20", "--seed", "1", "--out", str(tmp_path / "out.json")]
    for failing in (2, 4):
        def draw(cols, v, restarts, rngs, failing=failing):
            if cols.shape[2] == failing:
                raise SearchFailed(f"ascent failed in the k = {failing} search")
            return real_draw(cols, v, restarts, rngs)

        monkeypatch.setattr(lowerbound, "_stacked_starts", draw)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(_fork, "_usable_cpus", lambda n=cpus: n)
            with pytest.raises(SearchFailed, match=f"k = {failing} search"):
                cli.main(argv)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)


# sha256 of the JSON report at seeds 1 and 3; a change that moves any output
# value, even by one ulp, must update this table and say why.  `scaling --k 3`
# builds and packs a k = 3 sphere net; no command reaches the k = 2 or k = 3
# sweeps of `width_altmax`, which the perfbench grid digests cover
OUTPUT_PINS = {
    ("tnorm", "--d", "64", "--trials", "8"): (
        "e00a724de84a6821938dec3590625a77dde920550279214a9a65b9227ff5f0cb",
        "b7608ccce11904958167dae78d35c13853e63c177e31d7dc00157c05ec910401",
    ),
    ("scaling", "--d", "16", "--k", "1", "--k", "2", "--k", "3", "--k", "4",
     "--trials", "2", "--restarts", "2"): (
        "0d692c640ba78a39d24d8945a1b7897a5d43314eedb2407e2d46984f8b006cec",
        "ad170401c24f83c8d0c64069697051d11cb0405dee61f4991f797816e78d70bd",
    ),
    ("lowerbound", "--d", "8", "--k", "1", "--k", "2", "--restarts", "1",
     "--steps", "10"): (
        "abe2e6430a8baa23ed1d4990459a9a099cf5ab69847b2a0f4a87c6ae0e763d5d",
        "0c6c8667123271a0696ea6301361e5623e6d4d6976acaa55c7f7a13e1cd3841f",
    ),
    # several restarts per worker share, split unevenly, and a k = 4 search
    ("lowerbound", "--d", "12", "--k", "2", "--k", "4", "--restarts", "5",
     "--steps", "40"): (
        "330f4fa2b7182939b140dd74cac66a363098b60aa9165d8b7f8cafeea1a87901",
        "6c73f56d44830c131a7bc8179e2bd26dbd892062a42ca002f0cc276eaaa0307c",
    ),
    ("realize", "--group", "sp4.json", "--base-point", "4,3,2,1", "--k", "1"): (
        "dcf56e499e6ff9fc0d675b6def999779816ec7953ae8833b319f823e16aa5806",
        "d503e5a5d80497e50ef28e7b3b0d0b61800351a6246802aa4bac41d32ddb31e8",
    ),
    ("realize", "--group", "sp4.json", "--base-point", "4,3,2,1", "--k", "2"): (
        "2c6d9f76158e9cbbfdd9f608ef60b3da7f6f6b8a81d1af22d7d94c021dd65c74",
        "ddfdd54360fee0453250737aabfa958b63159817c6cddbf50ae3c1db0e949464",
    ),
    ("selberg-fuzz", "--trials", "3"): (
        "fdc2a97b3da37b9beb6f244abefd3179cebd01c7fcbc0437d110dd8889e7b87f",
        "e7542f2260348cced4606353a76afc90f2e1eb66305fb626423eff0cd91d9f10",
    ),
    ("rip-fuzz", "--k", "1", "--k", "4", "--trials", "1"): (
        "4718ce60916307b7286cd65b6f018a5b81a2a1bb1ae12841cec85b4ea45b5ddb",
        "0e3a6d73ef37dc5dffbfa757488da8d8057c1402259e3f2fc998aa7403ef44c0",
    ),
}


def test_output_bytes_are_pinned(tmp_path, monkeypatch):
    # the group file goes by a relative name, so the report's config is the
    # same in every directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sp4.json").write_text('{"d": 4, "kind": "SIGNED_PERMUTATIONS"}')
    assert {argv[0] for argv in OUTPUT_PINS} == set(cli.COLUMNS)
    out = tmp_path / "out.json"
    for argv, digests in OUTPUT_PINS.items():
        for seed, digest in zip((1, 3), digests):
            assert cli.main([*argv, "--seed", str(seed), "--out", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (argv, seed)


def _strict_json(text):
    """``json.loads`` that refuses the NaN, Infinity and -Infinity tokens,
    which Python writes but JSON does not have."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_reports_are_strict_json(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sp4.json").write_text('{"d": 4, "kind": "SIGNED_PERMUTATIONS"}')
    out = tmp_path / "out.json"
    for argv in OUTPUT_PINS:
        for seed in ("1", "3"):
            assert cli.main([*argv, "--seed", seed, "--out", str(out)]) == 0
            _strict_json(out.read_text())

    # a least complex width of exactly 0 has no ratio: the group cycles
    # coordinates 8..15 and fixes 0..7, and the j = 3 dyadic block it
    # draws is orthogonal to the orbit of e_8
    cycle = np.eye(16)
    cycle[8:, 8:] = np.roll(np.eye(8), 1, axis=1)
    pairs = np.stack([cycle, np.zeros_like(cycle)], axis=-1)
    (tmp_path / "cycle.json").write_text(
        json.dumps({"d": 16, "kind": "explicit", "generators": [pairs.tolist()]})
    )
    argv = ["realize", "--group", "cycle.json", "--base-point",
            ",".join("1" if i == 8 else "0" for i in range(16)),
            "--seed", "1", "--k", "1", "--draws", "4"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    (row,) = _strict_json(out.read_text())["rows"]
    assert row["complex_width"] == row["real_width"] == 0.0
    assert row["ratio"] is None and row["ok"] is True
    # an empty CSV cell, as for rip-fuzz's exhaustive_achieved
    code, text, _ = run([*argv, "--format", "csv"], capsys)
    assert code == 0
    assert next(csv.DictReader(io.StringIO(text)))["ratio"] == ""


def test_out_file_matches_stdout(tmp_path, capsys):
    argv = ["rip-fuzz", "--k", "1", "--trials", "3", "--seed", "4", "--format", "csv"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    path = tmp_path / "r.csv"
    assert cli.main(argv + ["--out", str(path)]) == 0
    capsys.readouterr()
    assert path.read_text() == out


def test_validation_exit_codes(tmp_path, capsys):
    code, _, err = run(
        ["scaling", "--d", "16", "--k", "8", "--trials", "2", "--seed", "1"], capsys
    )
    assert code == 2
    assert "k <= d/4" in err

    code, _, err = run(
        ["realize", "--group", "/no/such/file.json", "--base-point", "1,0", "--seed", "1"],
        capsys,
    )
    assert code == 2

    # json reads the NaN token as a float; the generator must be rejected
    gfile = tmp_path / "nan.json"
    gfile.write_text('{"d": 2, "kind": "explicit", "generators": '
                     '[[[[NaN, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}')
    code, _, err = run(
        ["realize", "--group", str(gfile), "--base-point", "1,0", "--seed", "1"],
        capsys,
    )
    assert code == 2
    assert "finite" in err

    # finite, but g g* overflows to NaN, which a `deviation > tol` check passes
    gfile.write_text('{"d": 2, "kind": "explicit", "generators": '
                     '[[[[1e200, 1e200], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}')
    code, _, err = run(
        ["realize", "--group", str(gfile), "--base-point", "1,0", "--seed", "1"],
        capsys,
    )
    assert code == 2
    assert "not unitary" in err

    code, _, err = run(["tnorm", "--d", "1", "--trials", "2", "--seed", "1"], capsys)
    assert code == 2

    code, _, err = run(
        ["lowerbound", "--d", "4", "--k", "9", "--restarts", "1", "--steps", "5", "--seed", "1"],
        capsys,
    )
    assert code == 2
    assert err == "error: need 1 <= k <= 4, got k=9\n"

    # every (d, k) is checked before the first search forks
    real_fork = os.fork
    forks = []

    def fork():
        forks.append(1)
        return real_fork()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", fork)
        for cpus in (1, 3):
            mp.setattr(_fork, "_usable_cpus", lambda n=cpus: n)
            code, _, err = run(
                ["lowerbound", "--d", "4", "--k", "2", "--k", "9", "--k", "10",
                 "--restarts", "3", "--steps", "5", "--seed", "1"],
                capsys,
            )
            assert code == 2
            assert err == "error: need 1 <= k <= 4, got k=9\n"
    assert forks == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

    # a count below one would run nothing and report a vacuous pass
    for argv, flag in (
        (["lowerbound", "--restarts", "0"], "--restarts"),
        (["selberg-fuzz", "--trials", "0"], "--trials"),
        (["rip-fuzz", "--trials", "-5"], "--trials"),
        (["realize", "--group", "g.json", "--base-point", "1", "--draws", "0"], "--draws"),
        (["lowerbound", "--steps", "0"], "--steps"),
        (["lowerbound", "--steps", "-5"], "--steps"),
        (["realize", "--group", "g.json", "--base-point", "1", "--max-orbit", "0"],
         "--max-orbit"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--seed", "1"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    # k is checked before the orbit is enumerated, so the cap is never reached
    gfile = tmp_path / "sp6.json"
    gfile.write_text('{"d": 6, "kind": "SIGNED_PERMUTATIONS"}')
    code, _, err = run(
        ["realize", "--group", str(gfile), "--base-point", "6,5,4,3,2,1",
         "--k", "0", "--max-orbit", "1", "--seed", "1"],
        capsys,
    )
    assert code == 2
    assert "1 <= k <= d/2" in err

    # a negative --delta leaves the smallest dyadic block too small for 2k
    # columns; that is bad input, not an infeasible construction to skip.
    # The message names the flags as given and no block 2^-3
    realize = ["realize", "--group", str(gfile), "--base-point", "1,0,0,0,0,0"]
    for argv, k, delta in (
        (realize + ["--k", "1"], "1", "-1"),
        (realize + ["--k", "1"], "1", "-5"),
        (["scaling", "--d", "16", "--k", "2", "--trials", "2"], "2", "-1"),
        (["scaling", "--d", "16", "--k", "2", "--trials", "2"], "2", "-5"),
    ):
        code, _, err = run([*argv, "--delta", delta, "--seed", "1"], capsys)
        assert code == 2
        assert err == (f"error: --delta {delta} is too small for --k {k}: the smallest "
                       "dyadic block cannot hold the subspace; pass --delta 0 or more\n")

    # a --delta past floor(log2 d) leaves the scale window empty; the message
    # names the flags and the largest valid --delta, not the library's j_min
    scaling = ["scaling", "--d", "16", "--k", "2", "--trials", "2", "--seed", "1"]
    for delta in ("3", "5", "99999999999999999999"):
        code, _, err = run([*scaling, "--delta", delta], capsys)
        assert code == 2
        assert err == (f"error: --delta {delta} is too large for --d 16 and --k 2: "
                       "the smallest dyadic block would be larger than --d; "
                       "pass --delta 2 or less\n")
    # every (d, k) is checked before any measure is built
    code, out, err = run(["scaling", "--d", "1024", "--d", "16", "--k", "1",
                          "--delta", "4", "--trials", "2", "--seed", "1"], capsys)
    assert (code, out) == (2, "")
    assert "--delta 4 is too large for --d 16 and --k 1" in err
    assert "pass --delta 3 or less" in err

    # numpy rejects a negative seed only deep inside a command
    with pytest.raises(SystemExit) as exc:
        cli.main(["tnorm", "--d", "4", "--trials", "2", "--seed", "-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err

    # a d that is not an integer: int() would overflow on 1e400 and truncate 3.7
    for text in ("1e400", "3.7"):
        gfile = tmp_path / "d.json"
        gfile.write_text('{"d": %s, "kind": "signed_permutations"}' % text)
        code, _, err = run(
            ["realize", "--group", str(gfile), "--base-point", "3,2,1", "--seed", "1"],
            capsys,
        )
        assert code == 2
        assert "group d" in err

    # an unwritable --out is reported like any other bad input
    code, out, err = run(
        ["tnorm", "--d", "4", "--trials", "2", "--seed", "1",
         "--out", str(tmp_path / "no" / "such" / "x.json")],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_unallocatable_input_exits_2():
    # each command asks numpy for a terabyte-sized array; under a 1 GiB
    # address-space cap, with BLAS on one thread, nothing that large is ever
    # allocated, and the failure is reported like any other bad input
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
              "from cylwidth.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for argv in (["tnorm", "--d", "100000000000", "--trials", "1"],
                 ["scaling", "--d", "100000000000"],
                 ["lowerbound", "--d", "100000000000", "--k", "1"]):
        proc = subprocess.run([sys.executable, "-c", script, *argv, "--seed", "1"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert proc.stderr.startswith("error: Unable to allocate"), (argv, proc.stderr)
        assert proc.stdout == ""


def test_missing_required_seed_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["tnorm", "--d", "8", "--trials", "2"])
    assert exc.value.code == 2


def test_guarantee_missed_exit_code(monkeypatch, capsys):
    # force the floor out of reach; the report is still written but the
    # process signals the miss
    monkeypatch.setattr(cli, "LOWERBOUND_FLOOR", 1e6)
    code, out, _ = run(
        ["lowerbound", "--d", "4", "--k", "1", "--restarts", "1", "--steps", "20", "--seed", "3"],
        capsys,
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["rows"][0]["ok"] is False


def test_realize_missed_ratio_exit_code(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "REALIZE_RATIO_CAP", 0.0)
    gfile = tmp_path / "group.json"
    gfile.write_text(json.dumps({"d": 3, "kind": "signed_permutations"}))
    code, out, _ = run(["realize", "--group", str(gfile), "--base-point", "0.9,0.4,0.1",
                        "--draws", "2", "--seed", "2"], capsys)
    assert code == 3
    assert json.loads(out)["rows"][0]["ok"] is False


def _all_ones_orbit_group(tmp_path, d=8):
    # a swap and a d-cycle, no sign flips: the all-ones point is fixed, and it
    # is orthogonal to every sum-free dyadic block, so both widths are 0
    def perm_matrix(p):
        m = [[[0.0, 0.0] for _ in range(d)] for _ in range(d)]
        for i, j in enumerate(p):
            m[j][i] = [1.0, 0.0]
        return m

    gfile = tmp_path / "perm.json"
    gfile.write_text(json.dumps({"d": d, "kind": "explicit", "generators": [
        perm_matrix([1, 0, *range(2, d)]), perm_matrix([(i + 1) % d for i in range(d)])]}))
    return ["realize", "--group", str(gfile), "--base-point", ",".join(["1"] * d),
            "--draws", "2", "--seed", "21"]


def test_realize_rounding_noise_is_not_a_missed_ratio(tmp_path, capsys):
    code, out, _ = run(_all_ones_orbit_group(tmp_path), capsys)
    row = json.loads(out)["rows"][0]
    assert code == 0 and row["ok"] is True
    # widths of a few ulps; their ratio is noise
    assert 0.0 < row["complex_width"] < 1e-15 and 0.0 < row["real_width"] < 1e-15
    assert row["ratio"] > cli.REALIZE_RATIO_CAP


def test_realize_misses_a_ratio_beyond_the_rounding_slack(tmp_path, monkeypatch, capsys):
    # the real width is made to exceed the cap by twice the slack, d eps at d = 8
    slack = 8 * np.finfo(np.float64).eps
    complex_widths = []

    def orbit_width(basis, orbit, *ceiling):
        rep = width_orbit(basis, orbit, *ceiling)
        if ceiling:  # a complex draw of the pick
            complex_widths.append(rep.value)
            return rep
        return replace(rep, value=cli.REALIZE_RATIO_CAP * min(complex_widths) + 2 * slack)

    monkeypatch.setattr(cli, "width_orbit", orbit_width)
    code, out, _ = run(_all_ones_orbit_group(tmp_path), capsys)
    assert code == 3
    assert json.loads(out)["rows"][0]["ok"] is False


def test_rip_fuzz_missed_target_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(cli, "C_RIP", 1e6)
    code, out, _ = run(["rip-fuzz", "--k", "1", "--trials", "2", "--seed", "2"], capsys)
    assert code == 3
    assert [row["ok"] for row in json.loads(out)["rows"]] == [False, False]


def test_selberg_fuzz_missed_bound_exit_code(monkeypatch, capsys):
    # one failing trial among passing ones is enough
    real_check = cli.selberg_check
    calls = []

    def fail_second(x):
        calls.append(x)
        rep = real_check(x)
        return replace(rep, holds=False) if len(calls) == 2 else rep

    monkeypatch.setattr(cli, "selberg_check", fail_second)
    code, out, _ = run(["selberg-fuzz", "--trials", "3", "--seed", "2"], capsys)
    assert code == 3
    assert [row["holds"] for row in json.loads(out)["rows"]] == [True, False, True]


def test_lowerbound_small_grid(capsys):
    code, out, _ = run(
        ["lowerbound", "--d", "6", "--k", "1", "--restarts", "1", "--steps", "40", "--seed", "2"],
        capsys,
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["ok"] is True
    assert row["normalized"] == pytest.approx(
        row["min_width"] * np.sqrt(np.log(12.0))
    )


def test_lowerbound_rows_report_the_search_that_ran(capsys):
    # k = 1 is solved exactly, with no search; k = 2 runs the requested one
    code, out, _ = run(
        ["lowerbound", "--d", "4", "--k", "1", "--k", "2", "--restarts", "2",
         "--steps", "3", "--seed", "5"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["k"], r["restarts"], r["steps"]) for r in rows] == [(1, 0, 0), (2, 2, 3)]


def test_realize_round_trip(tmp_path, capsys):
    gfile = tmp_path / "group.json"
    gfile.write_text(json.dumps({"d": 3, "kind": "signed_permutations"}))
    code, out, _ = run(
        [
            "realize",
            "--group",
            str(gfile),
            "--base-point",
            "0.9,0.4,0.1",
            "--k",
            "1",
            "--draws",
            "6",
            "--seed",
            "2",
        ],
        capsys,
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["orbit_size"] == 48
    assert row["ok"] is True
    assert row["ratio"] <= 2.0 + 1e-6
    assert row["s_2k"] >= 1.0 / np.sqrt(2.0) - 1e-9


def test_realize_picks_the_first_least_width_in_one_pass():
    # with 2k = d the complex subspace is the whole space, so every width is
    # the orbit's norm up to rounding and the candidates tie to within ulps
    orbit = enumerate_orbit(GroupPresentation.signed_permutations(6),
                            np.array([0.9, 0.5, 0.3, 0.2, 0.1, 0.05]), max_size=50_000)
    bases = [sample_uniform(6, 6, "complex", [44, i]) for i in range(10)]
    widths = [width_orbit(b, orbit).value for b in bases]
    assert len(set(widths)) > 1
    best = int(np.argmin(widths))
    assert cli._least_orbit_width(bases, orbit) == (best, widths[best])


def test_realize_rejects_bad_base_point(tmp_path, capsys):
    gfile = tmp_path / "group.json"
    gfile.write_text(json.dumps({"d": 3, "kind": "signed_permutations"}))
    for bad in ("1,0", "0,0,0", "a,b,c", "nan,0.5,0.1", "inf,0.5,0.1"):
        code, _, err = run(
            ["realize", "--group", str(gfile), "--base-point", bad, "--seed", "1"],
            capsys,
        )
        assert code == 2
    # a group dimension that does not match is reported before the group's
    # d x d generators are built
    gfile.write_text(json.dumps({"d": 1_000_000_000, "kind": "SIGNED_PERMUTATIONS"}))
    code, out, err = run(
        ["realize", "--group", str(gfile), "--base-point", "0.9,0.4,0.1", "--seed", "1"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert "dimension 1000000000" in err


def test_realize_scales_a_base_point_out_of_range(tmp_path, capsys):
    # a finite point whose squared norm overflows or underflows float64 is
    # shifted by a power of two before it is normalized, so it gives the
    # rows of the same direction in range
    gfile = tmp_path / "sp4.json"
    gfile.write_text('{"d": 4, "kind": "SIGNED_PERMUTATIONS"}')

    def rows(point, k):
        code, out, err = run(["realize", "--group", str(gfile), "--base-point", point,
                              "--k", str(k), "--seed", "3"], capsys)
        assert (code, err) == (0, ""), point
        return json.loads(out)["rows"]

    assert rows("1e200,1e200,0,0", 2) == rows("1,1,0,0", 2)
    assert rows("1e-320,0,0,0", 1) == rows("1,0,0,0", 1)
    # coordinates far apart in size
    assert rows("1e308,2e307,1.0,0", 1)[0]["ok"] is True


def test_scaling_row_content(capsys):
    code, out, _ = run(
        ["scaling", "--d", "64", "--k", "1", "--trials", "6", "--restarts", "6", "--seed", "8"],
        capsys,
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["d"] == 64
    assert row["k"] == 1
    assert row["j_count"] == 5
    assert row["normalized_witness"] == pytest.approx(
        row["mean_sup2_witness"] * np.log(64.0)
    )
    assert 0.0 < row["mean_sup2_witness"] <= 1.0 + 1e-9
    assert 0.0 < row["mean_sup2_random"] <= 1.0 + 1e-9


def test_selberg_fuzz_reports_all_families(capsys):
    code, out, _ = run(["selberg-fuzz", "--trials", "9", "--seed", "6"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 9
    assert {r["family"] for r in rows} == {
        "complex_gaussian",
        "near_parallel",
        "rank_one",
    }
    assert all(r["holds"] for r in rows)


def test_rip_fuzz_row_shape(capsys):
    code, out, _ = run(["rip-fuzz", "--trials", "4", "--seed", "3"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 12  # default grid k in {1, 2, 3}
    assert {r["k"] for r in rows} == {1, 2, 3}
    assert all(r["ok"] for r in rows)
    assert all(r["ratio"] >= 0.1 for r in rows)
