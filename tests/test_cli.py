"""Command-line interface: report schemas, determinism, exit codes."""

import json

import numpy as np
import pytest

import cylwidth._fork as _fork
import cylwidth.cli as cli
from cylwidth.groups import GroupPresentation, enumerate_orbit
from cylwidth.measures import sample_uniform
from cylwidth.width import width_orbit


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tnorm_json_schema(capsys):
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
    # the second run spreads its trials, blocks or restarts over 3 processes
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for argv in (
        ["selberg-fuzz", "--trials", "12", "--seed", "9"],
        ["tnorm", "--d", "4096", "--d", "64", "--trials", "131", "--seed", "9"],
        ["scaling", "--d", "16", "--k", "1", "--k", "2", "--trials", "5",
         "--restarts", "4", "--seed", "9"],
        ["lowerbound", "--d", "8", "--k", "1", "--k", "2", "--restarts", "4",
         "--steps", "40", "--seed", "9"],
    ):
        monkeypatch.setattr(_fork, "_usable_cpus", lambda: 1)
        assert cli.main(argv + ["--out", str(first)]) == 0
        monkeypatch.setattr(_fork, "_usable_cpus", lambda: 3)
        assert cli.main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), argv[0]


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
    # finite coordinates whose norm overflows: normalizing would zero them
    code, out, err = run(
        ["realize", "--group", str(gfile), "--base-point", "1e308,2e307,1.0",
         "--k", "1", "--seed", "1"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert "norm must be finite" in err
    # a group dimension that does not match is reported before the group's
    # d x d generators are built
    gfile.write_text(json.dumps({"d": 1_000_000_000, "kind": "SIGNED_PERMUTATIONS"}))
    code, out, err = run(
        ["realize", "--group", str(gfile), "--base-point", "0.9,0.4,0.1", "--seed", "1"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert "dimension 1000000000" in err


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
