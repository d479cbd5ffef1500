"""Registry contents, point checks, sweeps, and report serialization."""

import concurrent.futures
import csv
import enum
import hashlib
import io
import itertools
import json
import pickle
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from supercatalan import dsums, exactnum, sums, supercat, verifier
from supercatalan.exactnum import memo_scope, memoized
from supercatalan.verifier import (
    REGISTRY,
    CheckResult,
    GridBounds,
    IdentitySpec,
    get_identity,
    register,
    registry_ids,
    run_check,
    sweep,
    to_csv,
    to_human,
    to_jsonl,
)

import _oracle


class _Small(enum.IntEnum):
    # an int subclass whose members pass isinstance(value, int)
    TWO = 2


REQUIRED_IDS = {
    "vonszily", "symmetry", "parity", "thm1", "eq2", "eq3", "thm2", "eq8",
    "eq9", "eq18", "eq20", "eq22", "eq28", "eq29", "eq33", "eq47", "eq51",
    "eq58", "lemma1", "lemma2", "lemma3", "lemma4", "eq64phi", "eq12",
    "eq13", "eq17", "eq94", "eq104", "thm3", "remark1", "remark2",
    "remark3", "remark4", "dlevel1",
}

# exhaustive point counts on the default grid (n<=10, l<=6, t<=n, m<=5)
DEFAULT_GRID_COUNTS = {
    "dlevel1": 462, "eq104": 77, "eq12": 308, "eq13": 231, "eq17": 252,
    "eq18": 462, "eq2": 11, "eq20": 385, "eq22": 77, "eq28": 462,
    "eq29": 462, "eq3": 11, "eq33": 6, "eq47": 210, "eq51": 252,
    "eq53": 252, "eq58": 462, "eq64phi": 385, "eq8": 66, "eq9": 66,
    "eq94": 462, "lemma1": 385, "lemma2": 462, "lemma3": 385, "lemma4": 385,
    "parity": 77, "remark1": 77, "remark2": 66, "remark3": 330,
    "remark4": 1, "symmetry": 77, "thm1": 77, "thm2": 462, "thm3": 385,
    "vonszily": 77,
}

# sha256 of the default-grid record streams; any change to a record or
# column shows here
DEFAULT_GRID_JSONL_SHA256 = "567ef750ad8317ab9299ac3a3928f75085c83e10f987d68b1581b7d18012c431"
DEFAULT_GRID_CSV_SHA256 = "b1136fd84a340d5668f44437867e320d329e8871f25257deeacef23354db68b3"

GOLDEN_THM1_JSONL = (
    '{"identity":"thm1","n":0,"l":0,"t":null,"m":null,'
    '"lhs":"1","rhs":"1","status":"pass","reason":""}\n'
    '{"identity":"thm1","n":0,"l":1,"t":null,"m":null,'
    '"lhs":"4","rhs":"4","status":"pass","reason":""}\n'
    '{"identity":"thm1","n":1,"l":0,"t":null,"m":null,'
    '"lhs":"4","rhs":"4","status":"pass","reason":""}\n'
    '{"identity":"thm1","n":1,"l":1,"t":null,"m":null,'
    '"lhs":"8","rhs":"8","status":"pass","reason":""}\n'
)

GOLDEN_THM1_CSV = (
    "identity,n,l,t,m,lhs,rhs,status,reason\n"
    "thm1,0,0,,,1,1,pass,\n"
    "thm1,0,1,,,4,4,pass,\n"
    "thm1,1,0,,,4,4,pass,\n"
    "thm1,1,1,,,8,8,pass,\n"
)


def test_registry_is_complete():
    ids = registry_ids()
    assert REQUIRED_IDS <= set(ids)
    assert len(ids) == 35
    assert list(ids) == sorted(ids)


def test_get_identity():
    spec = get_identity("thm1")
    assert spec.name == "thm1"
    assert spec.params == ("n", "l")
    with pytest.raises(ValueError):
        get_identity("no-such-identity")


def test_run_check_single_point():
    result = run_check("thm1", n=1, l=1)
    assert result == CheckResult("thm1", 1, 1, None, None, "8", "8", "pass")


def test_a_record_is_its_row_in_column_order():
    assert CheckResult._fields == verifier._COLUMNS
    result = run_check("thm1", n=1, l=1)
    assert tuple(result) == ("thm1", 1, 1, None, None, "8", "8", "pass", "")
    with pytest.raises(AttributeError):
        result.status = "fail"
    results = sweep(["thm1", "eq33"], GridBounds(n_max=2, l_max=2)).results
    assert pickle.loads(pickle.dumps(results)) == results


def test_run_check_ignores_unused_parameters():
    result = run_check("thm1", n=1, l=1, t=9, m=9)
    assert result.t is None and result.m is None
    assert result.status == "pass"


def test_run_check_fractional_rendering():
    # (n+l+1) r' == r clears exactly, both sides render as plain integers
    result = run_check("eq29", n=1, l=1, t=0)
    assert (result.lhs, result.rhs, result.status) == ("10", "10", "pass")


def test_run_check_nondivisibility_point():
    result = run_check("remark4", n=4, l=2, m=1)
    assert result.status == "pass"
    assert (result.lhs, result.rhs) == ("14", "0")


def test_run_check_skips_outside_domain():
    # eq33 needs l >= 1; the others lie below the grid every sweep starts at
    for name, point in [("eq33", {"l": 0}), ("thm3", {"n": 2, "l": 1, "m": 0}),
                        ("thm1", {"n": -1, "l": 0}), ("eq20", {"n": 0, "l": 0, "t": -1})]:
        result = run_check(name, **point)
        assert result.status == "skipped", result
        assert result.reason == f"point outside domain of {name}"


def test_run_check_skips_on_missing_parameters():
    result = run_check("thm1", n=3)
    assert result.status == "skipped"
    assert result.reason == "missing parameter(s): l"


def test_run_check_unknown_identity():
    with pytest.raises(ValueError):
        run_check("thm99", n=1, l=1)


def test_sweep_empty_selection():
    report = sweep([])
    assert report.results == ()
    assert report.passed == report.failed == report.skipped == 0


def test_sweep_thm1_golden_jsonl_and_csv():
    report = sweep(["thm1"], GridBounds(n_max=1, l_max=1))
    assert len(report.results) == 4
    assert to_jsonl(report) == GOLDEN_THM1_JSONL
    assert to_csv(report) == GOLDEN_THM1_CSV


def test_sweep_deduplicates_and_sorts_selection():
    report = sweep(["thm1", "eq33", "thm1"], GridBounds(n_max=1, l_max=2))
    assert report.identities == ("eq33", "thm1")
    assert [r.identity for r in report.results] == ["eq33"] * 2 + ["thm1"] * 6


def test_sweep_eq33_row_count():
    report = sweep(["eq33"], GridBounds(n_max=0, l_max=64))
    assert len(report.results) == 64
    assert report.failed == 0


def test_sweep_vanishing_rows_record_zero():
    report = sweep(["eq20"], GridBounds(n_max=6, l_max=2))
    assert report.failed == 0
    assert all(r.lhs == "0" and r.rhs == "0" for r in report.results)


def test_sweep_parallel_is_byte_identical():
    grid = GridBounds(n_max=6, l_max=3)
    names = ["thm1", "thm3", "eq18", "eq13"]
    solo = sweep(names, grid, jobs=1)
    pooled = sweep(names, grid, jobs=3)
    assert to_jsonl(solo) == to_jsonl(pooled)
    assert to_csv(solo) == to_csv(pooled)


@pytest.fixture
def serial_pool(monkeypatch):
    """Stand in for ProcessPoolExecutor; returns what the pools were given.

    Each pool records its size and the first iterable of each map, runs
    the worker initializer and maps in process.
    """
    seen = {"sizes": [], "mapped": []}

    class SerialPool:
        def __init__(self, max_workers, initializer=None):
            assert initializer is not None
            seen["sizes"].append(max_workers)
            self.initializer = initializer

        def __enter__(self):
            # the initializer opens a scope for the worker's life; here the
            # worker is this process, so the scope closes with the pool
            self.initializer()
            return self

        def __exit__(self, *exc):
            memo_scope.__exit__(*exc)
            return False

        def map(self, fn, *iterables, chunksize=1):
            assert chunksize == 1
            first = list(iterables[0])
            seen["mapped"].append(first)
            return map(fn, first, *iterables[1:])

    # sweep imports the pool class from its module only when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return seen


# a task is one identity, so the cap is the identity count or the CPUs
@pytest.mark.parametrize("cpus, pool_sizes", [(4, [3]), (None, []), (2, [2])])
def test_sweep_caps_workers_at_cpus_and_tasks(monkeypatch, serial_pool,
                                              cpus, pool_sizes):
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: cpus)
    grid = GridBounds(n_max=3, l_max=2)
    names = ["thm1", "eq18", "eq33"]
    pooled = sweep(names, grid, jobs=10**6)
    assert to_jsonl(pooled) == to_jsonl(sweep(names, grid, jobs=1))
    sweep(["thm1"], GridBounds(n_max=0, l_max=1), jobs=10**6)  # one identity
    assert serial_pool["sizes"] == pool_sizes


def test_parallel_sweep_maps_each_identity_once_in_name_order(monkeypatch,
                                                              serial_pool):
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: 2)
    grid = GridBounds(n_max=4, l_max=2)
    sweep(["thm3", "eq18", "thm1", "eq18"], grid, jobs=2)
    # the pool maps resolved specs, each pickled once with its name; no
    # worker looks a name up again
    assert [[name for name, _ in tasks] for tasks in serial_pool["mapped"]] \
        == [["eq18", "thm1", "thm3"]]
    assert [pickle.loads(data) for _, data in serial_pool["mapped"][0]] \
        == [REGISTRY[name] for name in ("eq18", "thm1", "thm3")]
    # one identity is one unit of work: it runs here, with no pool
    solo = sweep(["eq13"], grid, jobs=2)
    assert serial_pool["sizes"] == [2]
    assert to_jsonl(solo) == to_jsonl(sweep(["eq13"], grid, jobs=1))


def test_a_parallel_sweep_rejects_a_spec_that_does_not_pickle(monkeypatch,
                                                              serial_pool):
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: 2)
    grid = GridBounds(n_max=2, l_max=1)
    register(IdentitySpec("lambda-domain", "unpicklable fixture", ("n",),
                          lambda n, l, t, m: True, verifier._check_eq2))
    try:
        # with or without a second identity, so the CPU count cannot decide
        for names in (["lambda-domain", "thm1"], ["lambda-domain"]):
            with pytest.raises(ValueError, match="identity 'lambda-domain'"):
                sweep(names, grid, jobs=2)
        assert serial_pool["sizes"] == []
        report = sweep(["lambda-domain"], grid, jobs=1)
        assert (report.passed, report.failed) == (3, 0)
    finally:
        REGISTRY.pop("lambda-domain")


def test_sweep_bytes_are_the_same_under_every_start_method():
    # a fresh interpreter, so the start method can be set before any pool;
    # cpu_count is pinned to 2 so the pool runs on a one-CPU machine too.
    # thm1-again is registered after import: a spawn or forkserver worker
    # never runs that line, so only the pickled spec carries it there
    code = (
        "import multiprocessing, os\n"
        "from supercatalan import verifier\n"
        "from supercatalan.verifier import (GridBounds, IdentitySpec, register,\n"
        "                                   registry_ids, sweep, to_jsonl)\n"
        "os.cpu_count = lambda: 2\n"
        "register(IdentitySpec('thm1-again', 'thm1 registered at runtime', ('n', 'l'),\n"
        "                      verifier._any, verifier._check_thm1))\n"
        "grid = GridBounds(n_max=6, l_max=3)\n"
        "serial = to_jsonl(sweep(registry_ids(), grid, jobs=1))\n"
        "for method in ('spawn', 'forkserver', 'fork'):\n"
        "    if method in multiprocessing.get_all_start_methods():\n"
        "        multiprocessing.set_start_method(method, force=True)\n"
        "        pooled = to_jsonl(sweep(registry_ids(), grid, jobs=2))\n"
        "        print(method, pooled == serial)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and all(line.endswith(" True") for line in lines), lines
    if sys.platform.startswith("linux"):
        assert lines == ["spawn True", "forkserver True", "fork True"]


def test_a_worker_names_a_spec_it_cannot_load():
    # mine_domain pickles by reference to __main__, where a fork worker finds
    # it; a spawn or forkserver worker starts a fresh __main__ without it
    code = (
        "import multiprocessing, os\n"
        "from supercatalan import verifier\n"
        "from supercatalan.verifier import (GridBounds, IdentitySpec, register,\n"
        "                                   sweep, to_jsonl)\n"
        "os.cpu_count = lambda: 2\n"
        "if __name__ == '__main__':\n"
        "    def mine_domain(n, l, t, m):\n"
        "        return True\n"
        "    register(IdentitySpec('mine', 'thm1 with a __main__ domain', ('n', 'l'),\n"
        "                          mine_domain, verifier._check_thm1))\n"
        "    grid = GridBounds(n_max=2, l_max=3)\n"
        "    serial = to_jsonl(sweep(['mine', 'thm1'], grid, jobs=1))\n"
        "    for method in ('spawn', 'forkserver', 'fork'):\n"
        "        if method in multiprocessing.get_all_start_methods():\n"
        "            multiprocessing.set_start_method(method, force=True)\n"
        "            try:\n"
        "                report = sweep(['mine', 'thm1'], grid, jobs=2)\n"
        "            except ValueError as exc:\n"
        "                print(method, exc)\n"
        "            else:\n"
        "                print(method, report.passed, to_jsonl(report) == serial)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = dict(line.split(" ", 1) for line in proc.stdout.splitlines())
    for method in ("spawn", "forkserver"):
        if method in lines:
            assert lines[method].startswith(
                "identity 'mine' cannot be loaded in a worker process: "), lines
    if "fork" in lines:
        assert lines["fork"] == "24 True"
    if sys.platform.startswith("linux"):
        assert sorted(lines) == ["fork", "forkserver", "spawn"]


def test_cold_start_does_not_load_the_process_pool():
    code = ("import sys\n"
            "import supercatalan, supercatalan.cli\n"
            "print(sorted(m for m in ('concurrent.futures', 'dataclasses',\n"
            "                         'multiprocessing') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_results_come_in_key_order(jobs):
    # sweep does not sort: identities go in name order, each with its
    # points in key order, and the batches are joined in that order
    names = ["thm3", "parity", "eq13", "thm1", "eq18"]
    report = sweep(names, GridBounds(n_max=5, l_max=2), jobs=jobs)
    keys = [(r.identity, *(-1 if x is None else x for x in (r.n, r.l, r.t, r.m)))
            for r in report.results]
    assert len(set(r.identity for r in report.results)) == len(names)
    assert keys == sorted(keys)


def test_sweep_rejects_bad_arguments(monkeypatch, serial_pool):
    with pytest.raises(ValueError):
        sweep(["thm99"])
    with pytest.raises(ValueError):
        sweep(["thm1"], jobs=0)
    # each name is resolved before any two are compared by the sort
    with pytest.raises(ValueError, match="unknown identity 1"):
        sweep(["thm1", 1])
    # a tuple passes every bound check but has no t_max to read mid-sweep
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: 2)
    for grid in [(2, 1, None, 1), (2, 1)]:
        with pytest.raises(TypeError) as exc:
            sweep(["thm1", "eq33"], grid, jobs=2)
        assert str(exc.value) == f"grid must be a GridBounds, got {grid!r}"
    assert serial_pool["sizes"] == []


def test_sweep_rejects_a_bare_string():
    # a str is an iterable of characters, not of identity names
    with pytest.raises(TypeError, match="not the str 'thm1'"):
        sweep("thm1")


@pytest.fixture(scope="module")
def default_report():
    return sweep(registry_ids())


def test_default_grid_is_exhaustive_and_green(default_report):
    report = default_report
    counts = Counter(r.identity for r in report.results)
    assert dict(counts) == DEFAULT_GRID_COUNTS
    assert len(report.results) == 8607
    assert report.failed == 0
    assert report.skipped == 0
    assert report.passed == 8607


def test_default_grid_record_bytes_are_pinned(default_report):
    jsonl = to_jsonl(default_report).encode()
    csv_bytes = to_csv(default_report).encode()
    assert hashlib.sha256(jsonl).hexdigest() == DEFAULT_GRID_JSONL_SHA256
    assert hashlib.sha256(csv_bytes).hexdigest() == DEFAULT_GRID_CSV_SHA256


# every kind of text json.dumps escapes, plus the edge cases by name
_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=())),
    st.sampled_from(["", '"', "\\", "\x00", "\x1f", "\x7f", "\u2028",
                     "\u00e9", "\U0001F600", "\ud800", '\\"\n\t', ",", "\r",
                     "\r\n"]),
)
_POINT = st.one_of(st.none(), st.integers(),
                   st.integers(min_value=-2**200, max_value=2**200),
                   st.sampled_from([2**64, -2**64 - 1, 0, -1]))
_RESULT = st.builds(CheckResult, identity=_TEXT, n=_POINT, l=_POINT, t=_POINT,
                    m=_POINT, lhs=_TEXT, rhs=_TEXT, status=_TEXT, reason=_TEXT)


def _report(*results):
    return verifier.Report(results, (), GridBounds(), 0, 0, 0, 0.0, "")


@given(st.lists(_RESULT, max_size=5))
def test_jsonl_template_equals_json_dumps(results):
    report = _report(*results)
    reference = "".join(
        json.dumps(dict(zip(verifier._COLUMNS, r)),
                   separators=(",", ":")) + "\n"
        for r in results)
    assert to_jsonl(report) == reference


def _csv_writer_text(report):
    # the reference: csv.writer itself, under the dialect to_csv documents
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(verifier._COLUMNS)
    writer.writerows(report.results)
    return buf.getvalue()


def _text_or_error(write, report):
    # csv.writer refuses a NUL before Python 3.11; to_csv must refuse it too
    try:
        return write(report)
    except csv.Error:
        return csv.Error


def _fail_row(reason):
    return CheckResult("thm3", 1, 0, None, 2, "", "", "fail", reason)


@given(st.lists(_RESULT, max_size=5))
@example([_fail_row("at n=1,j=0")])
@example([_fail_row('at n=1"j=0')])
@example([_fail_row("at n=1\rj=0")])
@example([_fail_row("at n=1\nj=0")])
@example([_fail_row("at n=1\r\nj=0")])
@example([_fail_row("at n=1\0j=0")])
def test_csv_template_equals_csv_writer(results):
    report = _report(*results)
    assert _text_or_error(to_csv, report) == _text_or_error(_csv_writer_text, report)


def test_csv_is_csv_writer_text_on_swept_reports():
    _with_temporary_identity("has,comma", lambda n, l, t, m: (n, n))
    try:
        comma_name = sweep(["has,comma"], GridBounds(n_max=2, l_max=0))
    finally:
        REGISTRY.pop("has,comma")
    fractions = sweep(["eq58"], GridBounds(n_max=2, l_max=2))
    assert "10/3" in {r.lhs for r in fractions.results}
    for report in [sweep(["thm3"], GridBounds(n_max=4, l_max=2, m_max=3)),
                   comma_name, fractions, sweep([])]:
        assert to_csv(report) == _csv_writer_text(report)


class _WriterCalled(Exception):
    pass


@pytest.mark.parametrize("char", [",", '"', "\r", "\n", "\0"])
def test_csv_writer_runs_only_for_text_it_would_quote(monkeypatch, char):
    def refuse(*args, **kwargs):
        raise _WriterCalled

    monkeypatch.setattr(verifier.csv, "writer", refuse)
    assert to_csv(sweep(["thm1"], GridBounds(n_max=1, l_max=1))) == GOLDEN_THM1_CSV
    with pytest.raises(_WriterCalled):
        to_csv(_report(_fail_row(f"at n=1{char}j=0")))


def test_grid_bounds_validation_and_description(monkeypatch, serial_pool):
    assert GridBounds().describe() == "n<=10, l<=6, t<=n, m<=5"
    assert GridBounds(n_max=3, l_max=2, t_max=1, m_max=4).describe() == \
        "n<=3, l<=2, t<=1, m<=4"
    # a GridBounds checks nothing when built, by any route; sweep checks it
    # before the pool that two identities and two jobs would start
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: 2)
    for grid, name in [(GridBounds(n_max=-1), "n_max"), (GridBounds(t_max=-2), "t_max"),
                       (GridBounds()._replace(n_max=-1), "n_max"),
                       (GridBounds._make([2, 1, None, -1]), "m_max")]:
        with pytest.raises(ValueError) as exc:
            sweep(["thm1", "eq33"], grid, jobs=2)
        assert str(exc.value) == f"{name} must be non-negative"
    assert serial_pool["sizes"] == []


@pytest.mark.parametrize("bounds", [GridBounds(n_max=2.5), GridBounds(n_max=True),
                                    GridBounds(l_max="3"), GridBounds(t_max=False),
                                    GridBounds()._replace(l_max=True),
                                    GridBounds(n_max=_Small.TWO, l_max=1)])
def test_grid_bounds_reject_non_int(monkeypatch, serial_pool, bounds):
    # a float used to fail later, as a TypeError from range inside the sweep
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: 2)
    with pytest.raises(TypeError, match="must be an int"):
        sweep(["thm1", "eq33"], bounds, jobs=2)
    assert serial_pool["sizes"] == []


@pytest.mark.parametrize("jobs", [True, 2.0, "2", _Small.TWO])
def test_sweep_rejects_non_int_jobs(monkeypatch, serial_pool, jobs):
    # True used to run serially, 2.0 reached the pool and "2" failed a
    # comparison; the text is the one a bound or a point value gets
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: 2)
    with pytest.raises(TypeError) as exc:
        sweep(["thm1", "eq33"], GridBounds(n_max=2, l_max=1), jobs=jobs)
    assert str(exc.value) == f"jobs must be an int, got {jobs!r}"
    assert serial_pool["sizes"] == []


@pytest.mark.parametrize("point", [{"n": True, "l": 1}, {"n": 2, "l": 1.0},
                                   {"n": 2, "l": "1"}, {"n": _Small.TWO, "l": 1}])
def test_run_check_rejects_non_int_points(point):
    # a record's point columns are ints or null, as to_jsonl assumes
    with pytest.raises(TypeError, match="must be an int"):
        run_check("thm1", **point)


def test_register_rejects_duplicates_and_bad_relations():
    spec = get_identity("thm1")
    with pytest.raises(ValueError):
        register(spec)
    with pytest.raises(ValueError):
        register(IdentitySpec("fresh-name", "", ("n",),
                              lambda n, l, t, m: True,
                              lambda n, l, t, m: (0, 0),
                              relation="approximately-equal"))
    assert "fresh-name" not in REGISTRY


class _Name(str):
    pass


@pytest.mark.parametrize("name", [1, None, b"thm1-bytes", _Name("str-subclass")])
def test_register_rejects_a_name_that_is_not_a_str(name):
    # such a name could not be sorted among the others by registry_ids,
    # sweep or verify --all
    before = dict(REGISTRY)
    with pytest.raises(TypeError) as exc:
        register(IdentitySpec(name, "", ("n",), verifier._any, verifier._check_eq2))
    assert str(exc.value) == f"identity name must be a str, got {name!r}"
    assert REGISTRY == before
    assert registry_ids() == tuple(sorted(before))


@pytest.mark.parametrize("name", [["thm1"], {"thm1": 1}, {"thm1"}])
def test_an_unhashable_name_is_an_unknown_identity(name):
    message = f"unknown identity {name!r}"
    for call in (lambda: get_identity(name), lambda: run_check(name, n=1),
                 lambda: sweep([name, "thm1"])):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


def test_run_check_and_sweep_agree_at_every_point():
    # one path from a point to its row: run_check gives the sweep's row
    # where the sweep has one, and skips every other point of the grid
    grid = GridBounds(n_max=5, l_max=3, m_max=4)
    rows = {(r.identity, *r[1:5]): r for r in sweep(registry_ids(), grid).results}
    assert {r.status for r in rows.values()} == {"pass"}
    calls = 0
    for name in registry_ids():
        for point in itertools.product(*verifier._axes(REGISTRY[name], grid)):
            given = {p: v for p, v in zip("nltm", point) if v is not None}
            result = run_check(name, **given)
            calls += 1
            if (name, *point) in rows:
                assert result == rows.pop((name, *point))
            else:
                assert result.status == "skipped", result
    assert not rows
    assert calls == 3256


@pytest.mark.parametrize("params", [("n", "k"), ("n", "n"), ("j",)])
def test_register_rejects_bad_params(params):
    # a param outside (n, l, t, m) has no column: sweep would drop it
    before = dict(REGISTRY)
    with pytest.raises(ValueError, match="params must be distinct names"):
        register(IdentitySpec("bad", "", params, lambda n, l, t, m: True,
                              lambda n, l, t, m: (0, 0)))
    assert REGISTRY == before


def _with_temporary_identity(name, check, relation="equal"):
    register(IdentitySpec(name, "failure-path fixture", ("n",),
                          lambda n, l, t, m: True, check, relation))


def test_failing_identity_is_recorded_not_raised():
    _with_temporary_identity("always-wrong", lambda n, l, t, m: (n, n + 1))
    try:
        report = sweep(["always-wrong"], GridBounds(n_max=2, l_max=0))
        assert report.failed == 3
        assert all(r.status == "fail" for r in report.results)
        human = to_human(report)
        assert "failures:" in human
        assert "always-wrong at n=0: lhs=0 rhs=1" in human
    finally:
        REGISTRY.pop("always-wrong")


def test_raising_check_becomes_failure_with_reason():
    def explode(n, l, t, m):
        raise ValueError("synthetic breakage")

    _with_temporary_identity("always-raises", explode)
    try:
        report = sweep(["always-raises"], GridBounds(n_max=0, l_max=0))
        (result,) = report.results
        assert result.status == "fail"
        assert result.reason == "ValueError: synthetic breakage"
        assert result.lhs == result.rhs == ""
    finally:
        REGISTRY.pop("always-raises")


def _raises_at_2(n, l, t, m):
    # a module-level domain, so a pool worker can load it; it raises at n = 2
    return 1 // (n - 2) >= 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_raising_domain_fails_its_point(monkeypatch, serial_pool, jobs):
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: 2)
    register(IdentitySpec("raising-domain", "domain fixture", ("n",),
                          _raises_at_2, verifier._check_eq2))
    try:
        report = sweep(["raising-domain", "thm1"], GridBounds(n_max=3, l_max=1),
                       jobs=jobs)
        assert serial_pool["sizes"] == ([2] if jobs == 2 else [])
        reason = "ZeroDivisionError: integer division or modulo by zero"
        # n = 0 and 1 are outside the domain; n = 2 fails in key order, and
        # the sweep goes on to n = 3 and to the next identity
        assert report.results[0] == CheckResult("raising-domain", 2, None, None, None,
                                                "", "", "fail", reason)
        assert report.results[1] == run_check("raising-domain", n=3)
        assert [r.identity for r in report.results[2:]] == ["thm1"] * 8
        assert (report.passed, report.failed) == (9, 1)
        assert run_check("raising-domain", n=2) == report.results[0]
        assert run_check("raising-domain", n=1).status == "skipped"
    finally:
        REGISTRY.pop("raising-domain")


def test_unexpected_exception_becomes_failure_with_reason():
    def explode(n, l, t, m):
        raise KeyError("synthetic")

    _with_temporary_identity("raises-keyerror", explode)
    try:
        (result,) = sweep(["raises-keyerror"], GridBounds(n_max=0, l_max=0)).results
        assert result.status == "fail"
        assert result.reason == "KeyError: 'synthetic'"
    finally:
        REGISTRY.pop("raises-keyerror")


@pytest.mark.parametrize("name, n", [("eq12", 200), ("thm3", 100)])
def test_sides_past_the_int_digit_limit_are_recorded(full_str, name, n):
    # both left sides are psi(200, 75, 0), 4,539 digits: str() refuses
    # them under Python's default limit of 4,300
    result = run_check(name, n=n, l=0, m=75)
    assert (result.status, result.reason) == ("pass", "")
    assert result.lhs == result.rhs == full_str(sums.psi(200, 75, 0))
    assert len(result.lhs) == 4539


def test_a_side_that_cannot_be_written_is_a_failed_row(monkeypatch):
    def refuse(value):
        raise ValueError("synthetic writer failure")

    monkeypatch.setattr(exactnum, "decimal_text", refuse)
    result = run_check("symmetry", n=3, l=2)
    assert (result.status, result.lhs, result.rhs) == ("fail", "", "")
    assert result.reason == "ValueError: synthetic writer failure"


def test_run_check_deep_witness_does_not_raise():
    # a fresh interpreter, so no earlier sweep has warmed the witness rows:
    # the 3000-level lift must not recurse once per level
    code = ("from supercatalan.verifier import run_check\n"
            "r = run_check('thm3', n=3, l=1, m=3000)\n"
            "print(r.status, r.reason)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "pass \n"


def test_memo_is_empty_after_every_scope_closes():
    # a fresh interpreter, so every table starts empty and the cold m=3000
    # lift is really cold; each step must leave every table empty again
    code = (
        "import os\n"
        "from supercatalan import exactnum\n"
        "from supercatalan.dsums import psi_quotient_witness\n"
        "from supercatalan.verifier import GridBounds, registry_ids, run_check, sweep\n"
        "os.cpu_count = lambda: 2\n"
        "def empty():\n"
        "    return exactnum._depth == 0 and not any(exactnum._tables)\n"
        "print(psi_quotient_witness(3, 3000, 1) % 2, empty())\n"
        "r = run_check('thm3', n=3, l=1, m=3000)\n"
        "print(r.status, r.reason, empty())\n"
        "grid = GridBounds(n_max=5, l_max=2)\n"
        "for jobs in (1, 2):\n"
        "    print(sweep(registry_ids(), grid, jobs=jobs).failed, empty())\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 True", "pass  True", "0 True", "0 True"]


def test_cold_deep_witness_peaks_below_one_megabyte():
    # a fresh interpreter, so the lift starts cold: it keeps one row in
    # locals, not one row per level
    code = ("import tracemalloc\n"
            "from supercatalan.verifier import run_check\n"
            "tracemalloc.start()\n"
            "r = run_check('thm3', n=3, l=1, m=3000)\n"
            "print(r.status, tracemalloc.get_traced_memory()[1] < 10 ** 6)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "pass True\n"


def _rows_in(value):
    # every tuple held in a memo value, nested ones and dict values included
    if isinstance(value, dict):
        value = tuple(value.values())
    if isinstance(value, (tuple, list)):
        if isinstance(value, tuple):
            yield value
        for item in value:
            yield from _rows_in(item)


def _level_row(n, l, level):
    # D(2n, j, level) / S(n, l), j = 0..n, by the oracle's direct sums
    return tuple(_oracle.d_direct(_oracle.F_psi, 2 * n, j, level, l) // _oracle.S(n, l)
                 for j in range(n + 1))


def test_a_thm3_sweep_holds_the_lift_vectors_of_one_n(memo_oracle):
    grid = GridBounds(n_max=6, l_max=3, m_max=8)
    # n >= 2 and level >= 1, where no Pascal row or weight vector equals a
    # lift vector or a row of D values
    vectors = {n: {dsums._lift(n, level) for level in range(1, 7)} for n in range(2, 7)}
    rows = {_level_row(n, l, level)
            for n in range(2, 7) for l in range(4) for level in range(1, 7)}
    with memo_scope:
        verifier._sweep_identity(get_identity("thm3"), grid)
        held = [row for table in exactnum._tables for value in table.values()
                for row in _rows_in(value)]
        assert [n for n in vectors if any(c in held for c in vectors[n])] == [6]
        n, levels = dsums._slot("lift")[0]
        assert n == 6 and sorted(levels) == list(range(7))  # m = 2..8
        assert all(c in held for c in vectors[6])
        assert not any(row in held for row in rows)
        assert dsums._level1_weights.cache_info().currsize == 7 * 4  # one per (n, l)
        assert dsums.q_scaled.cache_info().currsize == 0


def test_run_check_evaluates_inside_a_memo_scope(monkeypatch):
    depths = []
    psi_t = sums.psi_t
    monkeypatch.setattr(sums, "psi_t",
                        lambda *args: depths.append(exactnum._depth) or psi_t(*args))
    assert run_check("eq18", n=4, l=2, t=1).status == "pass"
    assert depths == [1]
    assert exactnum._depth == 0 and not any(exactnum._tables)


def test_drift_beneath_a_memoized_route_fails_its_rows(monkeypatch):
    # r_sum drifts beneath its own memo; the sweep's memo is on throughout,
    # and psi_t, p_sum and r_prime_sum share r_sum's arguments
    original = sums.r_sum
    depths = set()

    def drifted(n, t, l):
        depths.add(exactnum._depth)
        return original(n, t, l) + 1

    monkeypatch.setattr(sums, "r_sum", memoized(drifted))
    grid = GridBounds(n_max=5, l_max=3)
    users = {"lemma3", "eq29"}
    report = sweep(["eq18", "eq28", "eq29", "eq58", "lemma1", "lemma3"], grid)
    assert depths == {1}
    by_status = Counter((r.identity in users, r.status) for r in report.results)
    assert by_status[(True, "pass")] == 0
    assert by_status[(True, "fail")] > 0
    assert by_status[(False, "fail")] == 0
    assert by_status[(False, "pass")] > 0
    monkeypatch.setattr(sums, "r_sum", original)
    assert sweep(sorted(users), grid).failed == 0


def test_vonszily_rows_fail_when_the_factorial_route_drifts(monkeypatch):
    factorial = supercat.super_catalan_factorial
    monkeypatch.setattr(supercat, "super_catalan_factorial",
                        lambda n, l: factorial(n, l) + 1)
    result = run_check("vonszily", n=3, l=2)
    assert result.status == "fail"
    assert result.reason == ("IntegrityError: factorial route disagrees at n=3, l=2: "
                             "13 vs ratio 12")
    report = sweep(["vonszily"], GridBounds(n_max=4, l_max=3))
    assert {r.status for r in report.results} == {"fail"}
    monkeypatch.setattr(supercat, "super_catalan_factorial", factorial)
    assert sweep(["vonszily"], GridBounds(n_max=4, l_max=3)).failed == 0


def test_witness_rows_fail_when_the_level1_route_drifts(monkeypatch):
    # entry 0 of the level-1 weights off by one: of the level-1 cofactors
    # only j = 0 reads w[0], every lift vector has d_L[0] = 1, so every thm3
    # row with m >= 2 reads it, and eq104 reaches q_scaled by its own walk
    weights = dsums._level1_weights
    monkeypatch.setattr(dsums, "_level1_weights",
                        lambda n, l: (weights(n, l)[0] + 1,) + weights(n, l)[1:])
    result = run_check("dlevel1", n=3, l=2, t=0)
    assert result.status == "fail"
    assert result.reason.startswith("IntegrityError: closed level-1 form disagrees "
                                    "at n=3, j=0, l=2")
    names = ["dlevel1", "eq104", "thm3"]
    grid = GridBounds(n_max=4, l_max=2, m_max=5)
    report = sweep(names, grid)
    for r in report.results:
        drifted = (r.identity, r.t) == ("dlevel1", 0) or r.identity == "thm3" and r.m >= 2
        assert r.status == ("fail" if drifted else "pass"), r
    # j = 0, and m = 2..5, at each of the 15 (n, l)
    assert report.failed == 15 + 15 * 4
    monkeypatch.setattr(dsums, "_level1_weights", weights)
    assert sweep(names, grid).failed == 0


def test_witness_fails_when_the_lift_step_drifts(monkeypatch):
    # entry n of every lift step off by one: m = 2 reads d_0 = e_0 and takes
    # no step, while dlevel1 and eq104 read no lift vector. A step maps e_n
    # to binomial(2n, n) e_n, so the witness moves by a positive multiple of
    # w[n] = (-1)^n binomial(2n, n) S(n, l), which is never 0; entry 0 would
    # move it by w[0] at m = 3, which is 0 at (n, l) = (1, 1)
    step = dsums._lift_step
    monkeypatch.setattr(dsums, "_lift_step",
                        lambda *args: (lambda d: d[:-1] + (d[-1] + 1,))(step(*args)))
    names = ["dlevel1", "eq104", "thm3"]
    grid = GridBounds(n_max=4, l_max=2, m_max=5)
    report = sweep(names, grid)
    for r in report.results:
        drifted = r.identity == "thm3" and r.m >= 3
        assert r.status == ("fail" if drifted else "pass"), r
    # m = 3, 4 and 5 at each of the 15 (n, l)
    assert report.failed == 15 * 3
    monkeypatch.setattr(dsums, "_lift_step", step)
    assert sweep(names, grid).failed == 0


def _drift_entry_0(monkeypatch, name):
    # the row builder's entry 0 off by one; returns the builder
    build = getattr(dsums, name)
    monkeypatch.setattr(dsums, name,
                        lambda *args: (lambda row: (row[0] + 1,) + row[1:])(build(*args)))
    return build


_DIRECT_READERS = ["dlevel1", "eq12", "eq13", "eq17"]
_DIRECT_GRID = GridBounds(n_max=4, l_max=2, m_max=5)  # levels 0..3 in eq12


def test_every_direct_sum_moves_when_its_weight_row_drifts(monkeypatch):
    # entry 0 of Q(n, j, t) moves D(n, j, t) by f(n, j, l), which is never 0
    # for either summand, so every direct sum moves: the right sides of
    # eq12, eq13 and eq17 and the direct side of dlevel1. eq13's left side
    # reads the drifted level below through the step weights P(n, j); it
    # moves by sum_u P(n, j)[u] f(n, j+u, l), which equals f(n, j, l) only
    # for n < 2, where P(n, 0) = (1,)
    weights = _drift_entry_0(monkeypatch, "_direct_weights")
    report = sweep(_DIRECT_READERS, _DIRECT_GRID)
    for r in report.results:
        drifted = r.identity != "eq13" or r.n >= 2
        assert r.status == ("fail" if drifted else "pass"), r
        if r.identity == "dlevel1":
            assert r.reason.startswith(f"IntegrityError: closed level-1 form disagrees "
                                       f"at n={r.n}, j={r.t}, l={r.l}"), r
    by_status = Counter((r.identity, r.status) for r in report.results)
    assert by_status == {("dlevel1", "fail"): 45, ("eq12", "fail"): 60,
                         ("eq13", "fail"): 27, ("eq13", "pass"): 18, ("eq17", "fail"): 27}
    monkeypatch.setattr(dsums, "_direct_weights", weights)
    assert sweep(_DIRECT_READERS, _DIRECT_GRID).failed == 0


def test_only_eq13_rows_fail_when_the_step_row_drifts(monkeypatch):
    # entry 0 of P(n, j) moves d_sum_step by D(n, j, t-1), which is positive
    # for the unit summand; no other identity takes a step
    weights = _drift_entry_0(monkeypatch, "_step_weights")
    report = sweep(_DIRECT_READERS, _DIRECT_GRID)
    for r in report.results:
        assert r.status == ("fail" if r.identity == "eq13" else "pass"), r
    assert report.failed == 45  # every eq13 point
    monkeypatch.setattr(dsums, "_step_weights", weights)
    assert sweep(_DIRECT_READERS, _DIRECT_GRID).failed == 0


def test_a_sweep_holds_the_summand_and_weight_rows_of_one_n():
    # dlevel1 sums at lengths 2n <= 12, then eq13 at n <= 6: only the rows
    # of length 6 outlive the identity that built them
    last, C, fs = 6, _oracle.binom, (_oracle.F_psi, _oracle.F_one)

    def rows(n):
        # the summand, Q, P and D rows of n with three or more entries, where
        # none equals a Pascal row or a level-1 weight vector
        summand = {tuple(f(n, k, l) for k in range(n + 1))
                   for f in fs for l in range(3)}
        direct = {tuple(C(n - j, u) * C(n - j, j + u) * C(n, j + u) ** t
                        for u in range(n - 2 * j + 1))
                  for j in range(n // 2 + 1) for t in range(4)}
        step = {tuple(C(n, j + u) * C(n - j, u) for u in range((n - 2 * j) // 2 + 1))
                for j in range(n // 2 + 1)}
        level = {tuple(_oracle.d_direct(f, n, j, t, l) for j in range(n // 2 + 1))
                 for f in fs for l in range(3) for t in range(3)}
        return {row for row in summand | direct | step | level if len(row) >= 3}

    other = set().union(*(rows(n) for n in range(13) if n != last))
    with memo_scope:
        assert sweep(["dlevel1", "eq13"], GridBounds(n_max=last, l_max=2)).failed == 0
        held = {row for table in exactnum._tables for value in table.values()
                for row in _rows_in(value) if all(type(x) is int for x in row)}
        kinds = ("summand", "direct", "step", "level")
        assert {dsums._slot(kind)[0][0] for kind in kinds} == {last}
        assert rows(last) <= held
        assert not held & other


def test_thm2_and_eq18_rows_fail_when_phi_drifts(monkeypatch):
    # phi is the right side of thm2 and eq18, and both sides of eq64phi; a
    # uniform drift of 1 moves eq64phi only where the two cleared
    # coefficients differ
    phi = supercat.phi
    monkeypatch.setattr(supercat, "phi", lambda n, l, t: phi(n, l, t) + 1)
    names = ["eq18", "eq22", "eq64phi", "thm2"]
    grid = GridBounds(n_max=4, l_max=2)
    report = sweep(names, grid)
    for r in report.results:
        n, l, t = r.n, r.l, r.t
        if r.identity == "eq64phi":
            drifted = 2 * (2 * n + 1 - 2 * t) * (2 * n + 1) != (2 * n + 2 + l - t) * (2 * l + 1)
        else:
            drifted = r.identity != "eq22"
        assert r.status == ("fail" if drifted else "pass"), r
    by_status = Counter((r.identity, r.status) for r in report.results)
    assert by_status[("thm2", "fail")] == by_status[("eq18", "fail")] == 45
    assert by_status[("eq22", "pass")] == 15
    monkeypatch.setattr(supercat, "phi", phi)
    assert sweep(names, grid).failed == 0


def test_psi_t_rows_fail_when_psi_t_drifts(monkeypatch):
    # eq18 and eq20 set psi_t against phi and 0; eq28 reads it on the right
    # only, times n - t, so its full window n = t holds; thm2 reads a_t
    psi_t = sums.psi_t
    monkeypatch.setattr(sums, "psi_t", lambda n, t, l: psi_t(n, t, l) + 1)
    names = ["eq18", "eq20", "eq28", "thm2"]
    grid = GridBounds(n_max=4, l_max=2)
    report = sweep(names, grid)
    for r in report.results:
        drifted = r.identity in ("eq18", "eq20") or r.identity == "eq28" and r.n != r.t
        assert r.status == ("fail" if drifted else "pass"), r
    by_status = Counter((r.identity, r.status) for r in report.results)
    assert by_status == {("eq18", "fail"): 45, ("eq20", "fail"): 30, ("eq28", "fail"): 30,
                         ("eq28", "pass"): 15, ("thm2", "pass"): 45}
    monkeypatch.setattr(sums, "psi_t", psi_t)
    assert sweep(names, grid).failed == 0


def test_only_eq104_rows_fail_when_q_scaled_drifts(monkeypatch):
    # eq104 reads q_scaled(n, 0, l); thm3 and dlevel1 take the level-1
    # weights, which walk the cofactor vector without q_scaled
    q_scaled = dsums.q_scaled
    monkeypatch.setattr(dsums, "q_scaled", lambda n, s, l: q_scaled(n, s, l) + 1)
    names = ["dlevel1", "eq104", "thm3"]
    grid = GridBounds(n_max=4, l_max=2, m_max=4)
    report = sweep(names, grid)
    for r in report.results:
        assert r.status == ("fail" if r.identity == "eq104" else "pass"), r
    assert report.failed == 15  # every (n, l)
    monkeypatch.setattr(dsums, "q_scaled", q_scaled)
    assert sweep(names, grid).failed == 0


def test_thm2_and_eq17_rows_fail_when_a_t_drifts(monkeypatch):
    # thm2 reads a_t against phi; eq17 reads it in the windowed regrouping,
    # which d_sum_base sets against the expanded one; eq18 takes psi_t and
    # no a_t
    a_t = dsums.a_t
    monkeypatch.setattr(dsums, "a_t", lambda f, n, t, l: a_t(f, n, t, l) + 1)
    names = ["eq17", "eq18", "thm2"]
    grid = GridBounds(n_max=4, l_max=2)
    report = sweep(names, grid)
    by_status = Counter((r.identity, r.status) for r in report.results)
    assert by_status == {("thm2", "fail"): 45, ("eq17", "fail"): 27, ("eq18", "pass"): 45}
    assert all(r.reason.startswith("IntegrityError: base-layer regroupings disagree")
               for r in report.results if r.identity == "eq17")
    monkeypatch.setattr(dsums, "a_t", a_t)
    assert sweep(names, grid).failed == 0


def _drift_unit_summand_at_j1(monkeypatch, name):
    # the route returns its value + 1 for unit_summand at window offset 1 only
    original = getattr(dsums, name)

    def drifted(f, n, j, *rest):
        value = original(f, n, j, *rest)
        return value + 1 if f is dsums.unit_summand and j == 1 else value

    monkeypatch.setattr(dsums, name, drifted)
    return original


def test_eq13_records_the_first_mismatching_pair(monkeypatch):
    step = _drift_unit_summand_at_j1(monkeypatch, "d_sum_step")
    n, l, level = 5, 2, 2
    result = run_check("eq13", n=n, l=l, t=level)
    assert result.status == "fail"
    assert (result.lhs, result.rhs) == (
        str(step(dsums.unit_summand, n, 1, level, l) + 1),
        str(dsums.d_sum_direct(dsums.unit_summand, n, 1, level, l)))
    # the psi-summand j=0 pair is recorded when no window offset 1 exists
    report = sweep(["eq13"], GridBounds(n_max=3, l_max=1))
    assert {r.status for r in report.results if r.n >= 2} == {"fail"}
    assert {r.status for r in report.results if r.n < 2} == {"pass"}


def test_eq17_records_the_first_mismatching_pair(monkeypatch):
    base = _drift_unit_summand_at_j1(monkeypatch, "d_sum_base")
    n, l = 5, 2
    result = run_check("eq17", n=n, l=l, t=1)
    assert result.status == "fail"
    assert (result.lhs, result.rhs) == (
        str(base(dsums.unit_summand, n, 1, l) + 1),
        str(dsums.d_sum_direct(dsums.unit_summand, n, 1, 0, l)))
    report = sweep(["eq17"], GridBounds(n_max=4, l_max=1))
    assert {r.status for r in report.results if r.t == 1} == {"fail"}
    assert {r.status for r in report.results if r.t != 1} == {"pass"}


def test_human_report_shape():
    report = sweep(["thm1", "eq33"], GridBounds(n_max=2, l_max=2))
    text = to_human(report)
    lines = text.splitlines()
    assert lines[0].split() == ["identity", "points", "pass", "fail", "skip"]
    assert any(line.startswith("eq33") for line in lines)
    assert any(line.startswith("total") for line in lines)
    assert "grid: n<=2, l<=2, t<=n, m<=5" in text
    assert "runtime:" in text and "generated:" in text
    bare = to_human(report, show_timestamp=False)
    assert "runtime:" not in bare and "generated:" not in bare
    # dropping the timestamp only trims the tail, nothing else moves
    assert text.startswith(bare)


def test_results_are_sorted_by_identity_then_point():
    report = sweep(["thm2"], GridBounds(n_max=3, l_max=1))
    points = [(r.n, r.l, r.t) for r in report.results]
    assert points == sorted(points)
