"""Registry contents, point checks, sweeps, and report serialization."""

import concurrent.futures
import hashlib
import json
import pickle
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given
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


@pytest.mark.parametrize("cpus, pool_sizes", [(4, [4, 2]), (None, [])])
def test_sweep_caps_workers_at_cpus_and_tasks(monkeypatch, cpus, pool_sizes):
    sizes = []

    class SerialPool:
        # stands in for ProcessPoolExecutor: records its size, runs the
        # worker initializer and maps in process
        def __init__(self, max_workers, initializer=None):
            assert initializer is not None
            sizes.append(max_workers)
            self.initializer = initializer

        def __enter__(self):
            # the initializer opens a scope for the worker's life; here the
            # worker is this process, so the scope closes with the pool
            self.initializer()
            return self

        def __exit__(self, *exc):
            memo_scope.__exit__(*exc)
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    # sweep imports the pool class from its module only when jobs > 1
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: cpus)
    grid = GridBounds(n_max=3, l_max=2)
    pooled = sweep(["thm1", "eq18"], grid, jobs=10**6)
    assert to_jsonl(pooled) == to_jsonl(sweep(["thm1", "eq18"], grid, jobs=1))
    sweep(["thm1"], GridBounds(n_max=0, l_max=1), jobs=10**6)  # two tasks
    assert sizes == pool_sizes


def test_sweep_bytes_are_the_same_under_every_start_method():
    # a fresh interpreter, so the start method can be set before any pool;
    # cpu_count is pinned to 2 so the pool runs on a one-CPU machine too
    code = (
        "import multiprocessing, os\n"
        "from supercatalan.verifier import GridBounds, registry_ids, sweep, to_jsonl\n"
        "os.cpu_count = lambda: 2\n"
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


def test_cold_start_does_not_load_the_process_pool():
    code = ("import sys\n"
            "import supercatalan, supercatalan.cli\n"
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing')\n"
            "             if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_results_come_in_key_order(jobs):
    # sweep does not sort: tasks are enumerated in key order and kept in it
    names = ["thm3", "parity", "eq13", "thm1", "eq18"]
    report = sweep(names, GridBounds(n_max=5, l_max=2), jobs=jobs)
    keys = [(r.identity, *(-1 if x is None else x for x in (r.n, r.l, r.t, r.m)))
            for r in report.results]
    assert len(set(r.identity for r in report.results)) == len(names)
    assert keys == sorted(keys)


def test_sweep_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sweep(["thm99"])
    with pytest.raises(ValueError):
        sweep(["thm1"], jobs=0)


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
                     "\u00e9", "\U0001F600", "\ud800", '\\"\n\t']),
)
_POINT = st.one_of(st.none(), st.integers(),
                   st.integers(min_value=-2**200, max_value=2**200),
                   st.sampled_from([2**64, -2**64 - 1, 0, -1]))
_RESULT = st.builds(CheckResult, identity=_TEXT, n=_POINT, l=_POINT, t=_POINT,
                    m=_POINT, lhs=_TEXT, rhs=_TEXT, status=_TEXT, reason=_TEXT)


@given(st.lists(_RESULT, max_size=5))
def test_jsonl_template_equals_json_dumps(results):
    report = verifier.Report(tuple(results), (), GridBounds(), 0, 0, 0, 0.0, "")
    reference = "".join(
        json.dumps(dict(zip(verifier._COLUMNS, r)),
                   separators=(",", ":")) + "\n"
        for r in results)
    assert to_jsonl(report) == reference


def test_grid_bounds_validation_and_description():
    assert GridBounds().describe() == "n<=10, l<=6, t<=n, m<=5"
    assert GridBounds(n_max=3, l_max=2, t_max=1, m_max=4).describe() == \
        "n<=3, l<=2, t<=1, m<=4"
    with pytest.raises(ValueError):
        GridBounds(n_max=-1)
    with pytest.raises(ValueError):
        GridBounds(t_max=-2)


@pytest.mark.parametrize("bounds", [{"n_max": 2.5}, {"n_max": True},
                                    {"l_max": "3"}, {"t_max": False}])
def test_grid_bounds_reject_non_int(bounds):
    # a float used to fail later, as a TypeError from range inside the sweep
    with pytest.raises(TypeError, match="must be an int"):
        GridBounds(**bounds)


@pytest.mark.parametrize("point", [{"n": True, "l": 1}, {"n": 2, "l": 1.0},
                                   {"n": 2, "l": "1"}])
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
