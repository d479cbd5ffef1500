"""Command line behavior: computed values, sweeps, exit codes, output routing."""

import errno
import hashlib
import json
import multiprocessing
import os
import stat
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
    # the checks come before the CSV header
    (("sweep", "--format", "csv", "--id", "thm99", "--n-max", "2"), "unknown identity"),
    (("sweep", "--format", "csv", "--all", "--n-max", "2", "--jobs", "0"), "at least 1"),
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
    # records carry no timestamp, so sweep has no flag to drop one
    with pytest.raises(SystemExit) as wrapped:
        main(["sweep", "--all", "--n-max", "2", "--no-timestamp"])
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
    # the two timed lines come once each, after the table
    assert [line.split(":")[0] for line in lines[-2:]] == ["runtime", "generated"]
    assert out.count("runtime:") == out.count("generated:") == 1


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


@pytest.mark.parametrize("write_slice", [1 << 20, 7])
def test_sweep_output_file_matches_stdout(capsys, tmp_path, monkeypatch, write_slice):
    # the output file takes each piece in slices; a slice of 7 characters
    # splits every record, and ends mid-record
    write = cli._OutputFile.write

    def sliced(self, text):
        for start in range(0, len(text), write_slice):
            write(self, text[start:start + write_slice])

    monkeypatch.setattr(cli._OutputFile, "write", sliced)
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


def test_unwritable_output_exits_2(capsys, tmp_path, monkeypatch):
    # the empty PATH fails as open("", "w") does, and leaves the working
    # directory, which realpath("") names, as it was
    monkeypatch.chdir(tmp_path)
    for path in (tmp_path / "missing" / "x.jsonl", ""):
        code, out, err = run_cli(capsys, "sweep", "--id", "thm1", "--n-max", "1",
                                 "--output", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ")
        assert "No such file or directory" in err
        assert "Traceback" not in err
    assert os.listdir(tmp_path) == []


def test_unwritable_output_fails_before_the_sweep(capsys, tmp_path, monkeypatch):
    # every sweep, streamed or through verifier.sweep, runs _batches
    calls = []
    monkeypatch.setattr(verifier, "_batches", lambda *a, **kw: calls.append(a))
    for path in (tmp_path / "missing" / "x.jsonl", ""):
        code, out, err = run_cli(capsys, "sweep", "--all", "--n-max", "20",
                                 "--output", str(path))
        assert (code, out, calls) == (2, "", [])
        assert err.startswith(f"error: cannot write {path}: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("bounds, fails_in_write", [
    (("--n-max", "3"), False),
    (("--n-max", "20", "--l-max", "10"), True),
])
def test_a_full_output_device_exits_2(capsys, monkeypatch, bounds, fails_in_write):
    # 28 records stay in the file's buffer until it closes; 231 overflow it
    # in a write
    raised = []
    write = cli._OutputFile.write

    def recording(self, text):
        try:
            write(self, text)
        except cli._UsageError:
            raised.append(text)
            raise

    monkeypatch.setattr(cli._OutputFile, "write", recording)
    code, out, err = run_cli(capsys, "sweep", "--id", "thm1", *bounds,
                             "--output", "/dev/full")
    assert (code, out) == (2, "")
    assert err == f"error: cannot write /dev/full: {os.strerror(errno.ENOSPC)}\n"
    assert bool(raised) == fails_in_write


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


@pytest.mark.parametrize("interrupt", [RuntimeError, KeyboardInterrupt])
def test_a_sweep_that_raises_midway_leaves_output_path_as_it_was(tmp_path, monkeypatch,
                                                                  interrupt):
    # eq18's records and eq22's block at n = 0 are written before eq22 raises
    # at n = 1
    swept = []

    def second_raises(spec, grid):
        swept.append(spec.name)
        for n, block in enumerate(sweep_identity(spec, grid)):
            if len(swept) == 2 and n == 1:
                raise interrupt("stopped mid-sweep")
            yield block

    sweep_identity = verifier._sweep_identity
    monkeypatch.setattr(verifier, "_sweep_identity", second_raises)
    kept = tmp_path / "kept.jsonl"
    kept.write_bytes(b"earlier report\n")
    absent = tmp_path / "absent.jsonl"
    for path in (kept, absent):
        swept.clear()
        with pytest.raises(interrupt):
            main(["sweep", "--id", "thm1", "--id", "eq18", "--id", "eq22",
                  "--n-max", "3", "--output", str(path)])
        assert swept == ["eq18", "eq22"]
    assert kept.read_bytes() == b"earlier report\n"
    assert sorted(os.listdir(tmp_path)) == ["kept.jsonl"]


def test_output_is_written_as_open_for_writing_would(capsys, tmp_path):
    argv = ("sweep", "--id", "thm1", "--n-max", "1", "--l-max", "1", "--output")
    # through a symlink to the file it names, which keeps its permission bits
    target = tmp_path / "target.jsonl"
    target.write_bytes(b"earlier report\n")
    target.chmod(0o640)
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    assert run_cli(capsys, *argv, str(link)) == (0, "", "")
    expected = verifier.to_jsonl(verifier.sweep(["thm1"], verifier.GridBounds(1, 1)))
    assert link.is_symlink() and target.read_text() == expected
    assert target.stat().st_mode & 0o777 == 0o640
    # a new file gets the mode open(path, "w") gives one
    made = tmp_path / "made.jsonl"
    assert run_cli(capsys, *argv, str(made)) == (0, "", "")
    reference = tmp_path / "reference"
    reference.open("w").close()
    assert made.stat().st_mode == reference.stat().st_mode
    # a path that is not a regular file, such as the null device, is written
    # directly. A pipe in tmp_path stands in for it, so that code which
    # replaced the path would replace nothing outside tmp_path; its reader
    # is open first, so neither open blocks
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run_cli(capsys, *argv, str(pipe)) == (0, "", "")
        assert stat.S_ISFIFO(pipe.stat().st_mode)
        assert os.read(reader, 1 << 16) == expected.encode("utf-8")
    finally:
        os.close(reader)
    assert sorted(os.listdir(tmp_path)) == ["link.jsonl", "made.jsonl", "pipe",
                                            "reference", "target.jsonl"]


def _traced_main(path, argv, setup=""):
    # main(argv + ["--output", path]) in a fresh interpreter, after the code
    # setup: its exit status and its tracemalloc peak in bytes
    code = ("import sys, tracemalloc\n"
            "from supercatalan.cli import main\n"
            f"{setup}"
            "tracemalloc.start()\n"
            "status = main(sys.argv[2:] + ['--output', sys.argv[1]])\n"
            "print(status, tracemalloc.get_traced_memory()[1])\n")
    proc = subprocess.run([sys.executable, "-c", code, str(path), *argv],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return tuple(map(int, proc.stdout.split()))


# sha256 of the n <= 20, l <= 10 sweep's JSONL and of its --no-timestamp
# table, the bytes the benchmark's sweep_wide pins and the table of that grid
WIDE_JSONL_SHA256 = "13d279f6051a7155c1ccb1ce371fb4571b44dbb0a3b3dd8ff26e7f4303b89dbc"
WIDE_TABLE_SHA256 = "a5a3bc72bf3a03004827cba14140b77e4b70b391e64da1bb838d99f15e59b3e6"


@pytest.mark.parametrize("argv, bound_mb, holds, sha256", [
    # 43,245 records; the whole report and its JSONL text peaked near 23 MB
    pytest.param(["sweep", "--all", "--n-max", "20", "--l-max", "10"], 12,
                 lambda text: text.count("\n") == 43245, WIDE_JSONL_SHA256, id="jsonl"),
    # the table written from the whole report peaked near 14 MB
    pytest.param(["verify", "--all", "--n-max", "20", "--l-max", "10", "--no-timestamp"], 8,
                 lambda text: ["total", "43245", "43245", "0", "0"]
                 in map(str.split, text.splitlines()), WIDE_TABLE_SHA256, id="human"),
    # 5,456 records of one identity; written as one batch it peaked near 3.6 MiB
    pytest.param(["sweep", "--id", "dlevel1", "--n-max", "30", "--l-max", "10",
                  "--format", "csv"], 2,
                 lambda text: text.count("\n") == 5457 and text.count("identity,") == 1,
                 None, id="n-blocks"),
    # the pool's parent: it peaked near 5.7 MiB on both when it unpickled
    # the records and formatted them, and holds rendered blocks now
    pytest.param(["sweep", "--all", "--n-max", "20", "--l-max", "10", "--jobs", "2"], 4.5,
                 lambda text: text.count("\n") == 43245, WIDE_JSONL_SHA256,
                 id="pooled-jsonl"),
    pytest.param(["verify", "--all", "--n-max", "20", "--l-max", "10", "--no-timestamp",
                  "--jobs", "2"], 4.5,
                 lambda text: ["total", "43245", "43245", "0", "0"]
                 in map(str.split, text.splitlines()), WIDE_TABLE_SHA256,
                 id="pooled-human"),
])
def test_a_streamed_sweep_holds_one_batch_and_the_tally_not_the_report(tmp_path, argv,
                                                                        bound_mb, holds,
                                                                        sha256):
    # cpu_count is pinned to 2 so a --jobs 2 sweep pools on a one-CPU
    # machine too. A forked worker would inherit tracemalloc and run traced,
    # which slows it and adds nothing to the parent's peak, so it stops
    # tracing as it starts
    path = tmp_path / "wide.out"
    status, peak = _traced_main(path, argv, "import os\nos.cpu_count = lambda: 2\n"
                                "os.register_at_fork(after_in_child=tracemalloc.stop)\n")
    assert status == 0
    assert holds(path.read_text())
    if sha256 is not None:
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256
    assert peak <= bound_mb * 2**20, peak / 2**20


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_record_stream_counts_its_fail_rows_and_keeps_none(tmp_path, fmt):
    # 35,301 fail rows: kept for their count, they peaked near 8 MiB in
    # n-blocks and near 17 MiB in one batch; one n-block's records and text
    # fit in 2 MiB
    setup = ("from supercatalan import verifier\n"
             "def fails(n, l, t, m):\n"
             "    return n, -1\n"
             "verifier.register(verifier.IdentitySpec(\n"
             "    'fails', 'fixture', ('n', 'l', 't'), verifier._any, fails))\n")
    path = tmp_path / "failing.out"
    status, peak = _traced_main(path, ["sweep", "--id", "fails", "--n-max", "40",
                                       "--l-max", "20", "--format", fmt], setup)
    assert status == 1
    assert path.read_text().count("\n") == 35301 + (fmt == "csv")
    assert peak <= 2 * 2**20, peak / 2**20


@pytest.mark.parametrize("argv", [
    ("verify", "--all", "--default-grid"),
    ("verify", "--all", "--default-grid", "--format", "csv"),
    ("sweep", "--all", "--n-max", "2"),
])
def test_a_closed_stdout_fails_before_the_sweep(capsys, monkeypatch, argv):
    def entered(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(verifier, "_batches", entered)
    monkeypatch.setattr(sys, "stdout", None)
    code = main(list(argv))
    assert code == 2
    assert capsys.readouterr().err == \
        f"error: cannot write standard output: {os.strerror(errno.EBADF)}\n"


def test_a_pooled_sweep_whose_writer_fails_midway_exits_2_and_ends_its_pool(capsys,
                                                                           monkeypatch):
    # the probe passes and the first batch's write fails while the pool runs;
    # cpu_count is pinned to 2 so the pool runs on a one-CPU machine too
    texts = []

    def failing(text):
        texts.append(text)
        if text:
            raise cli._UsageError("cannot write standard output: No space left on device")

    monkeypatch.setattr(verifier.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_write_stdout", failing)
    code, out, err = run_cli(capsys, "sweep", "--all", "--n-max", "20", "--l-max", "10",
                             "--jobs", "2")
    assert code == 2
    assert texts[0] == "" and len(texts) == 2
    assert err == "error: cannot write standard output: No space left on device\n"
    assert out == ""
    assert multiprocessing.active_children() == []


def test_cli_bytes_are_the_same_under_every_start_method(tmp_path):
    # a fresh interpreter, so the start method can be set before any pool;
    # cpu_count is pinned to 2 so the pool runs on a one-CPU machine too.
    # Each worker renders its blocks in the format it is sent. parity-nonzero
    # fails at every point, so the human table's fail rows cross the pool
    # too; it is registered after import, so a spawn or forkserver worker
    # has it only from its pickled spec
    code = (
        "import multiprocessing, os, sys\n"
        "from supercatalan import verifier\n"
        "from supercatalan.cli import main\n"
        "os.cpu_count = lambda: 2\n"
        "verifier.register(verifier.IdentitySpec(\n"
        "    'parity-nonzero', 'parity, asserted unequal', ('n', 'l'), verifier._any,\n"
        "    verifier._check_parity, 'remainder-nonzero'))\n"
        "path = os.path.join(sys.argv[1], 'out')\n"
        "def run(fmt, jobs):\n"
        "    status = main(['verify', '--all', '--n-max', '6', '--l-max', '3',\n"
        "                   '--no-timestamp', '--format', fmt, '--jobs', jobs,\n"
        "                   '--output', path])\n"
        "    with open(path, 'rb') as fh:\n"
        "        return status, fh.read()\n"
        "formats = ('json', 'csv', 'human')\n"
        "serial = {fmt: run(fmt, '1') for fmt in formats}\n"
        "assert all(status == 1 for status, _ in serial.values())\n"
        "for method in ('spawn', 'forkserver', 'fork'):\n"
        "    if method in multiprocessing.get_all_start_methods():\n"
        "        multiprocessing.set_start_method(method, force=True)\n"
        "        print(method, *(run(fmt, '2') == serial[fmt] for fmt in formats))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and all(line.endswith(" True True True") for line in lines), lines
    if sys.platform.startswith("linux"):
        assert [line.split()[0] for line in lines] == ["spawn", "forkserver", "fork"]


@pytest.mark.parametrize("argv, records", [
    (("--id", "eq33", "--id", "symmetry"), ["symmetry,0,0,,,1,1,pass,"]),
    (("--id", "eq33"), []),
    (("--id", "eq33", "--id", "symmetry", "--jobs", "2"), ["symmetry,0,0,,,1,1,pass,"]),
    (("--id", "eq33", "--jobs", "2"), []),
])
def test_a_csv_stream_has_one_header_whatever_its_batches_hold(capsys, argv, records):
    # eq33 has no point at l = 0, so its batch is empty; at --jobs 2 the
    # eq33 + symmetry sweep runs in the pool with that empty batch first
    code, out, _ = run_cli(capsys, "sweep", *argv, "--l-max", "0", "--n-max", "0",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["identity,n,l,t,m,lhs,rhs,status,reason", *records]


def _raises_with_a_comma(n, l, t, m):
    raise ValueError(f"at n={n}, in a fixture")


def test_a_csv_stream_joins_template_and_csv_writer_batches(capsys):
    # eq33 and thm1 fill the line template; the fixture's reasons need quotes
    register(IdentitySpec("has-comma-reason", "csv quoting fixture", ("n",),
                          verifier._any, _raises_with_a_comma))
    names = ["thm1", "has-comma-reason", "eq33"]
    grid = verifier.GridBounds(n_max=2, l_max=2)
    try:
        expected = verifier.to_csv(verifier.sweep(names, grid))
        code, out, _ = run_cli(capsys, "sweep", *(f"--id={name}" for name in names),
                               "--n-max", "2", "--l-max", "2", "--format", "csv")
    finally:
        REGISTRY.pop("has-comma-reason")
    assert code == 1
    assert '"ValueError: at n=0, in a fixture"' in out
    assert out == expected


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("names, grid, status", [
    pytest.param(("thm1", "has-comma-reason", "eq33"), verifier.GridBounds(n_max=2, l_max=2),
                 1, id="failures"),
    # eq33 has no point at l = 0, so its batch is empty and its row all zeros
    pytest.param(("eq33", "symmetry"), verifier.GridBounds(n_max=1, l_max=0), 0,
                 id="empty-batch"),
    pytest.param(("eq33",), verifier.GridBounds(n_max=1, l_max=0), 0, id="only-empty"),
    # remark4 has its one point at n = 4, so its blocks at n = 0..3 are empty
    pytest.param(("remark4", "thm1"), verifier.GridBounds(n_max=5, l_max=2), 0,
                 id="empty-leading-blocks"),
])
def test_the_human_table_is_written_from_the_batches(capsys, names, grid, status, jobs):
    register(IdentitySpec("has-comma-reason", "csv quoting fixture", ("n",),
                          verifier._any, _raises_with_a_comma))
    try:
        expected = verifier.to_human(verifier.sweep(names, grid), show_timestamp=False)
        report = verifier.sweep(names, grid, int(jobs))
        code, out, err = run_cli(capsys, "verify", *(f"--id={name}" for name in names),
                                 "--n-max", str(grid.n_max), "--l-max", str(grid.l_max),
                                 "--no-timestamp", "--jobs", jobs)
    finally:
        REGISTRY.pop("has-comma-reason")
    assert (code, out, err) == (status, expected, "")
    table = out.split("\ngrid: ")[0].split("\n\nfailures:\n")
    rows = [line.split() for line in table[0].splitlines()[1:]]
    # a sweep makes no skipped row, but the column stays; each identity is
    # listed once, however many blocks it has
    assert report.identities == tuple(sorted(names))
    assert verifier.to_human(report, show_timestamp=False) == expected
    assert [row[0] for row in rows] == [*sorted(names), "total"]
    assert all(row[4] == "0" for row in rows)
    if grid.l_max == 0:
        assert rows[sorted(names).index("eq33")] == ["eq33", "0", "0", "0", "0"]
    if "remark4" in names:
        assert rows[0] == ["remark4", "1", "1", "0", "0"]
    if status:
        assert "  has-comma-reason at n=0: lhs= rhs= (ValueError: at n=0, in a fixture)" \
            in table[1].splitlines()


WITNESS_IDS = ("thm3", "dlevel1", "eq104")
WITNESS_BOUNDS = ("--n-max", "40", "--l-max", "20", "--m-max", "8")


@pytest.fixture(scope="module")
def witness_report():
    return verifier.sweep(WITNESS_IDS, verifier.GridBounds(n_max=40, l_max=20, m_max=8))


def test_witness_csv_bytes_are_pinned(witness_report):
    # the bytes the benchmark's witness_deep pins
    assert hashlib.sha256(verifier.to_csv(witness_report).encode()).hexdigest() == \
        "7081b9c340ebdb050bda5f7261c777e90c0885a347f65d0c563841238d2a98b8"


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
def test_cli_bytes_equal_the_serialized_report(capsys, tmp_path, witness_report,
                                               fmt, jobs):
    expected = {"json": verifier.to_jsonl, "csv": verifier.to_csv,
                "human": lambda r: verifier.to_human(r, show_timestamp=False)}[fmt]
    path = tmp_path / "out"
    code, out, err = run_cli(capsys, "verify", *(f"--id={name}" for name in WITNESS_IDS),
                             *WITNESS_BOUNDS, "--format", fmt, "--no-timestamp",
                             "--jobs", jobs, "--output", str(path))
    assert (code, out, err) == (0, "", "")
    assert path.read_bytes() == expected(witness_report).encode("utf-8")


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


# one of each subcommand, each writing to standard output
STDOUT_ARGVS = [
    ("compute", "psi", "--n", "80", "--m", "8", "--l", "20"),
    ("verify", "--id", "thm1", "--n-max", "2"),
    ("sweep", "--id", "thm1", "--n-max", "2"),
]


@pytest.mark.parametrize("argv", STDOUT_ARGVS)
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


@pytest.mark.parametrize("argv", STDOUT_ARGVS)
@pytest.mark.parametrize("redirect, error", [
    pytest.param(">/dev/full", errno.ENOSPC, id="full"),
    pytest.param(">&-", errno.EBADF, id="closed"),
])
def test_a_stdout_that_cannot_be_written_exits_2_without_a_traceback(argv, redirect,
                                                                     error):
    if redirect == ">/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    proc = subprocess.run(["sh", "-c", f'"$@" {redirect}', "sh",
                           sys.executable, "-m", "supercatalan", *argv],
                          stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write standard output: {os.strerror(error)}\n"


def test_a_stdout_reader_that_leaves_midway_exits_2_without_a_traceback():
    # the default grid's records are far more than a pipe buffers
    proc = subprocess.Popen([sys.executable, "-m", "supercatalan", "sweep", "--all",
                             "--n-max", "10", "--l-max", "6"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    with proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.wait(timeout=60) == 2
    assert err == "error: cannot write standard output: Broken pipe\n"


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
    assert out == verifier.to_jsonl(verifier.sweep(["eq33"], verifier.GridBounds(l_max=3)))
