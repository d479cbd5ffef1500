"""Command line behavior: computed values, sweeps, exit codes, output routing."""

import json
import os
import subprocess
import sys

import pytest

from supercatalan import cli, sums, supercat, verifier
from supercatalan.cli import main
from supercatalan.verifier import REGISTRY, IdentitySpec, register


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, expected", [
    (("compute", "super-catalan", "--n", "4", "--l", "2"), "28"),
    (("compute", "catalan", "--n", "5"), "42"),
    (("compute", "psi", "--n", "8", "--m", "1", "--l", "2"), "8624"),
    (("compute", "psi", "--n", "2", "--m", "3", "--l", "0"), "-20"),
    (("compute", "psi-t", "--n", "4", "--t", "1", "--l", "0"), "-8"),
    (("compute", "phi", "--n", "2", "--l", "1", "--t", "1"), "-8"),
    (("compute", "p", "--n", "2", "--t", "0", "--l", "0"), "4"),
    (("compute", "r", "--n", "2", "--t", "0", "--l", "0"), "4"),
    (("compute", "r-prime", "--n", "2", "--t", "0", "--l", "1"), "10/3"),
    (("compute", "r-dprime", "--n", "2", "--t", "0", "--l", "0"), "2"),
    (("compute", "t-sum", "--n", "2", "--t", "0", "--l", "0"), "8"),
    (("compute", "d-sum", "--n", "4", "--j", "1", "--t", "0", "--l", "0"), "84"),
    (("compute", "q", "--n", "1", "--s", "0", "--l", "0"), "-1"),
    (("compute", "q", "--n", "1", "--s", "1", "--l", "0"), "2"),
    (("compute", "q", "--n", "4", "--s", "2", "--l", "1"), "108/7"),
])
def test_compute_values(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, expected + "\n", "")


@pytest.mark.parametrize("argv, value, digits", [
    (("compute", "psi", "--n", "200", "--m", "75", "--l", "0"),
     lambda: sums.psi(200, 75, 0), 4539),
    (("compute", "catalan", "--n", "20000"), lambda: supercat.catalan(20000), 12035),
])
def test_compute_prints_values_past_the_int_digit_limit(capsys, full_str, argv, value,
                                                         digits):
    # str() refuses more than 4,300 digits under Python's default limit
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, full_str(value()) + "\n", "")
    assert len(out) == digits + 1


@pytest.mark.parametrize("argv, fragment", [
    (("compute", "psi", "--n", "2", "--l", "0"), "requires --m"),
    (("compute", "catalan", "--n", "3", "--l", "1"), "does not take --l"),
    (("compute", "psi", "--n", "2", "--m", "0", "--l", "0"), "power must be positive"),
    (("compute", "psi-t", "--n", "4", "--t", "3", "--l", "0"), "0 <= 2t <= n"),
    (("verify", "--id", "thm99", "--n-max", "2"), "unknown identity"),
    (("verify", "--all", "--id", "thm1", "--n-max", "2"), "not both"),
    (("verify", "--n-max", "2"), "select identities"),
    (("verify", "--all", "--default-grid", "--n-max", "3"), "excludes explicit bounds"),
    (("verify", "--all", "--n-max", "-1"), "must be non-negative"),
    (("verify", "--all", "--n-max", "2", "--jobs", "0"), "at least 1"),
    (("sweep", "--all"), "at least one explicit grid bound"),
    (("compute", "q", "--n", "4", "--s", "5", "--l", "1"), "0 <= s <= n"),
])
def test_usage_errors_exit_2(capsys, argv, fragment):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert fragment in err


def test_argparse_level_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as wrapped:
        main(["compute", "no-such-kind", "--n", "1"])
    assert wrapped.value.code == 2
    with pytest.raises(SystemExit) as wrapped:
        main(["sweep", "--all", "--n-max", "2", "--format", "human"])
    assert wrapped.value.code == 2
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as wrapped:
        main(["--version"])
    assert wrapped.value.code == 0
    out = capsys.readouterr().out.strip()
    assert out and all(part.isdigit() for part in out.split("."))


def test_verify_human_summary(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--id", "thm1", "--n-max", "2", "--l-max", "2")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0].split() == ["identity", "points", "pass", "fail", "skip"]
    assert any(line.startswith("thm1") and " 9 " in line for line in lines)
    assert "grid: n<=2, l<=2, t<=n, m<=5" in out
    assert "runtime:" in out


def test_verify_no_timestamp_is_reproducible(capsys):
    argv = ("verify", "--id", "thm1", "--n-max", "2", "--no-timestamp")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    assert "runtime:" not in first and "generated:" not in first


def test_verify_default_grid_all_green(capsys):
    code, out, _ = run_cli(capsys, "verify", "--all", "--default-grid",
                           "--no-timestamp")
    assert code == 0
    assert "grid: n<=10, l<=6, t<=n, m<=5" in out
    total = next(line for line in out.splitlines() if line.startswith("total"))
    assert total.split() == ["total", "8607", "8607", "0", "0"]


def test_sweep_json_records(capsys):
    code, out, err = run_cli(capsys, "sweep", "--id", "eq20", "--n-max", "4",
                             "--l-max", "1")
    assert code == 0
    assert err == ""
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 20
    assert all(row["status"] == "pass" for row in rows)
    assert all(row["lhs"] == "0" for row in rows)
    assert rows[0] == {"identity": "eq20", "n": 1, "l": 0, "t": 0, "m": None,
                       "lhs": "0", "rhs": "0", "status": "pass", "reason": ""}


def test_sweep_csv_records(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--id", "thm1", "--n-max", "1",
                           "--l-max", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "identity,n,l,t,m,lhs,rhs,status,reason",
        "thm1,0,0,,,1,1,pass,",
        "thm1,0,1,,,4,4,pass,",
        "thm1,1,0,,,4,4,pass,",
        "thm1,1,1,,,8,8,pass,",
    ]


@pytest.mark.parametrize("write_slice", [cli._WRITE_SLICE, 7])
def test_sweep_output_file_matches_stdout(capsys, tmp_path, monkeypatch, write_slice):
    # a slice of 7 characters splits every record, and ends mid-record
    monkeypatch.setattr(cli, "_WRITE_SLICE", write_slice)
    grid = verifier.GridBounds(n_max=3, l_max=2)
    expected = verifier.to_jsonl(verifier.sweep(["thm2"], grid))
    argv = ("sweep", "--id", "thm2", "--n-max", "3", "--l-max", "2")
    _, streamed, _ = run_cli(capsys, *argv)
    path = tmp_path / "report.jsonl"
    code, out, _ = run_cli(capsys, *argv, "--output", str(path))
    assert code == 0
    assert out == ""
    assert streamed == expected
    assert path.read_bytes() == expected.encode("utf-8")


def test_unwritable_output_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "x.jsonl"
    code, out, err = run_cli(capsys, "sweep", "--id", "thm1", "--n-max", "1",
                             "--output", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ")
    assert "No such file or directory" in err
    assert "Traceback" not in err


def test_unwritable_output_fails_before_the_sweep(capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(verifier, "sweep", lambda *a, **kw: calls.append(a))
    path = tmp_path / "missing" / "x.jsonl"
    code, out, err = run_cli(capsys, "sweep", "--all", "--n-max", "20",
                             "--output", str(path))
    assert (code, out, calls) == (2, "", [])
    assert err.startswith(f"error: cannot write {path}: ")


def test_failed_sweep_leaves_output_path_as_it_was(capsys, tmp_path):
    kept = tmp_path / "kept.jsonl"
    kept.write_bytes(b"earlier report\n")
    absent = tmp_path / "absent.jsonl"
    for path in (kept, absent):
        code, out, err = run_cli(capsys, "sweep", "--id", "thm1", "--n-max", "1",
                                 "--jobs", "0", "--output", str(path))
        assert (code, out) == (2, "")
        assert "at least 1" in err
    assert kept.read_bytes() == b"earlier report\n"
    assert not absent.exists()


def test_sweep_jobs_do_not_change_bytes(capsys):
    argv = ("sweep", "--id", "thm3", "--id", "eq18", "--n-max", "5",
            "--l-max", "2")
    _, solo, _ = run_cli(capsys, *argv, "--jobs", "1")
    _, pooled, _ = run_cli(capsys, *argv, "--jobs", "2")
    assert solo == pooled


def test_failed_check_exits_1(capsys):
    register(IdentitySpec("broken-fixture", "failure-path fixture", ("n",),
                          lambda n, l, t, m: True,
                          lambda n, l, t, m: (0, 1)))
    try:
        code, out, _ = run_cli(capsys, "verify", "--id", "broken-fixture",
                               "--n-max", "1")
        assert code == 1
        assert "failures:" in out
        assert "broken-fixture at n=0: lhs=0 rhs=1" in out
    finally:
        REGISTRY.pop("broken-fixture")


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "supercatalan", "compute", "super-catalan",
         "--n", "4", "--l", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "28\n"
    assert proc.stderr == ""


@pytest.mark.parametrize("argv", [
    ("compute", "psi", "--n", "80", "--m", "8", "--l", "20"),
    ("verify", "--id", "thm1", "--n-max", "2"),
    ("sweep", "--id", "thm1", "--n-max", "2"),
])
def test_a_stdout_reader_that_has_gone_exits_2_without_a_traceback(argv):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "supercatalan", *argv],
                              stdout=write, stderr=subprocess.PIPE, text=True,
                              timeout=60)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write standard output: Broken pipe\n"


def test_records_are_the_same_under_python_oo():
    # -OO strips docstrings and asserts; no record may depend on either
    argv = ["-m", "supercatalan", "verify", "--all", "--default-grid",
            "--format", "json", "--no-timestamp"]
    plain, stripped = (subprocess.run([sys.executable, *flags, *argv], capture_output=True,
                                      text=True, timeout=300)
                       for flags in ([], ["-OO"]))
    assert plain.returncode == stripped.returncode == 0, stripped.stderr
    assert plain.stdout and stripped.stdout == plain.stdout


def test_verify_json_format_available(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "eq33", "--l-max", "3",
                           "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [row["l"] for row in rows] == [1, 2, 3]
    assert verifier.to_jsonl  # same serializer drives both subcommands
