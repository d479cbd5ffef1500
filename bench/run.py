"""Benchmark harness for supercatalan.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all          # every workload, one table each

Run it from the root of a source checkout; the package is imported from
``src/``. Each run of a workload is a fresh interpreter (bench/child.py),
started one after another from this process: a closed loop with one
client. Untraced runs repeat for ``--seconds`` and give the end-to-end
metrics; with ``--trace 1`` one more, traced, in-process run follows and
gives the per-layer metrics. Every run's output is checked against the
digests pinned in bench/digests.json. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; a
results file with quartiles, every run and the provenance is written to
bench/out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "out"
CHILD = [sys.executable, str(HERE / "child.py")]

BUDGET_S = 170.0  # the whole invocation must end within 180 s
CHILD_TIMEOUT_S = 120.0
# Fresh interpreters per run that only import, for setup_s: a few before
# the first untraced run, the rest spread over the untraced runs.
PROBES_FIRST, PROBES_SPREAD = 3, 6
# With --trace 1, time kept for the serial and traced runs, in multiples of
# the longest untraced run (tracing costs up to about 3x).
TRACE_RESERVE = 3.5

# The reference loop's time (child.reference_s) in one process on the
# 2-vCPU machine the baseline was taken on, in the faster of the two speeds
# it switches between. Each run's times are also reported scaled by REF_S
# over the reference time measured around that run, which takes out the
# machine's speed of the moment; see bench/README.md.
REF_S = 0.015

END_TO_END = {"wall_s_scaled": "s", "points_per_s_scaled": "1/s", "cpu_s_scaled": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}
# Reported with the end-to-end metrics in the table and the results file.
RAW = {"wall_s": "s", "points_per_s": "1/s", "cpu_s": "s", "ref_ms": "ms"}
_COUNT, _S, _RATIO = "count", "s", "ratio"
PER_LAYER = {
    "exactnum.binomial.calls": _COUNT, "exactnum.central_binomial.calls": _COUNT,
    "exactnum.exact_div.calls": _COUNT, "exactnum.self_s": _S,
    "supercat.super_catalan.calls": _COUNT, "supercat.super_catalan.hit_ratio": _RATIO,
    "supercat.super_catalan.entries": _COUNT, "supercat.phi.calls": _COUNT,
    "supercat.self_s": _S,
    "sums.self_s": _S, "sums.terms": _COUNT, "sums.psi.incl_s": _S,
    "sums.psi_t.incl_s": _S, "sums.rational.incl_s": _S,
    "sums.L400_s": _S, "sums.L800_s": _S, "sums.L1600_s": _S,
    "dsums.self_s": _S, "dsums.d_sum_direct.calls": _COUNT,
    "dsums.d_sum_direct.incl_s": _S, "dsums.d_sum_step.incl_s": _S,
    "dsums.d_sum_base.incl_s": _S, "dsums.d_psi_level1.incl_s": _S,
    "dsums.psi_quotient_witness.incl_s": _S, "dsums.summand.calls": _COUNT,
    "dsums.q_scaled.calls": _COUNT, "dsums.q_scaled.hit_ratio": _RATIO,
    "dsums.q_scaled.entries": _COUNT,
    "verifier.sweep.incl_s": _S, "verifier.self_s": _S, "verifier.points": _COUNT,
    "verifier.to_jsonl_s": _S, "verifier.to_csv_s": _S, "verifier.to_human_s": _S,
    "verifier.output_bytes": "bytes", "verifier.serial_wall_s": _S,
    "verifier.worker_cpu_s": _S, "verifier.parallel_efficiency": _RATIO,
    "cli.interpreter_s": _S, "cli.import_s": _S, "cli.main_s": _S,
    "trace.overhead_ratio": _RATIO,
}


# ---------------------------------------------------------------------------
# child processes


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def spawn(argv: list[str], timeout: float) -> dict:
    """Run one child in its own session and reap it.

    On timeout the whole session is killed, so nothing the child started
    outlives this call.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    err_path = WORK / "child.stderr"
    t_spawn = time.perf_counter()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
    killer = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
    killer.start()
    try:
        _, status = os.waitpid(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        os.waitpid(proc.pid, 0)
        raise
    finally:
        killer.cancel()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    t_end = time.perf_counter()
    _kill_group(proc.pid)
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    return {"code": code, "t_spawn": t_spawn, "t_end": t_end, "stderr": stderr[-2000:]}


def run_child(mode: str, name: str, seed: int, jobs: int,
              timeout: float) -> tuple[dict, dict | None]:
    """Spawn bench/child.py; returns the process record and its result, or None."""
    result_path = WORK / f"{mode}.json"
    if result_path.exists():
        result_path.unlink()
    proc = spawn(CHILD + [mode, name, str(seed), str(result_path), str(jobs)], timeout)
    result = None
    if proc["code"] == 0 and result_path.exists():
        result = json.loads(result_path.read_text(encoding="utf-8"))
    return proc, result


# ---------------------------------------------------------------------------
# correctness


def judge(name: str, result: dict | None, proc: dict, pinned: dict) -> tuple[int, int, list]:
    """(attempted, failed, problems) of one run against the pinned digests.

    A run that raised, exited nonzero or timed out counts every point it
    should have checked as failed. A sweep whose output differs from its
    digest counts all of its points as failed; a kernel draw that differs
    from its digest, or fails one of its independent routes, counts all of
    its calls as failed.
    """
    expected = workloads.expected_points(name, pinned)
    if result is None:
        tail = proc["stderr"].strip().splitlines()[-1:] or [""]
        return expected, expected, [f"run exited {proc['code']}: {tail[0]}"]
    if name == workloads.KERNEL:
        failed, problems = 0, []
        per_draw = len(workloads.KERNEL_CALLS)
        for draw in result["draws"]:
            digest_ok = pinned[workloads.KERNEL].get(draw["key"]) == draw["digest"]
            if draw["routes_failed"] or not digest_ok:
                failed += per_draw
                problems.append(f"draw {draw['key']}: digest "
                                f"{'ok' if digest_ok else 'MISMATCH'}, routes failed "
                                f"{draw['routes_failed']}")
        missing = expected - per_draw * len(result["draws"])
        return expected, failed + max(missing, 0), problems
    pin = pinned[name]
    if result["digest"] != pin["digest"] or result["points"] != pin["points"]:
        return expected, max(expected, result["points"]), [
            f"output digest mismatch ({result['points']} records, {result['fail_rows']} fail rows)"]
    return expected, result["fail_rows"], []


# ---------------------------------------------------------------------------
# statistics and provenance


def summary(values: list[float]) -> dict:
    """Median with first and third quartile, as statistics.quantiles gives them."""
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance() -> dict:
    h = hashlib.sha256()
    for path in sorted((SRC / "supercatalan").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = _git_commit()
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
        "git_commit": commit,
        "git_commit_note": None if commit else "not a git checkout; see src_sha256",
        "src_sha256": h.hexdigest(),
    }


# ---------------------------------------------------------------------------
# one workload


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Set-up probes, untraced runs for ``seconds``, then the traced run if asked.

    With trace, the traced run (and for a parallel workload one untraced
    serial run) is budgeted inside ``seconds``, so a traced invocation
    takes about as long as an untraced one.
    """
    deadline = time.perf_counter() + BUDGET_S
    pinned = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    jobs = workloads.SWEEPS[name][2] if name in workloads.SWEEPS else 1
    prov = provenance()
    tally = {"attempted": 0, "failed": 0}
    problems: list[str] = []
    setups, imports, bare, probes = [], [], [], []

    def timeout() -> float:
        return min(CHILD_TIMEOUT_S, deadline - time.perf_counter())

    def checked(mode: str, run_jobs: int) -> tuple[dict, dict | None, int, int]:
        proc, res = run_child(mode, name, seed, run_jobs, timeout())
        n_att, n_fail, why = judge(name, res, proc, pinned)
        tally["attempted"] += n_att
        tally["failed"] += n_fail
        problems.extend(f"{mode}: {p}" for p in why)
        return proc, res, n_att, n_fail

    def probe(interpreter_too: bool) -> None:
        probes.append(time.perf_counter())
        if interpreter_too:
            proc = spawn([sys.executable, "-c", "pass"], timeout())
            bare.append(proc["t_end"] - proc["t_spawn"])
        proc, res = run_child("probe", name, seed, 1, timeout())
        if res is None:
            problems.append(f"set-up probe exited {proc['code']}: "
                            f"{proc['stderr'].strip()[-300:]}")
            return
        setups.append(res["t_imported"] - proc["t_spawn"])
        imports.append(res["t_imported"] - res["t_start"])

    # The first import writes the bytecode cache and is not counted. Every
    # untraced run imports the same way and adds a set-up sample; the extra
    # probes are spread over the run, so a slow spell of the machine weighs
    # on few of them.
    run_child("probe", name, seed, 1, timeout())
    for _ in range(PROBES_FIRST):
        probe(interpreter_too=True)
    reps: list[dict] = []
    start_method = None
    loop_start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if len(reps) >= (2 if trace else 1):
            elapsed = [r["elapsed_s"] for r in reps]
            reserve = (TRACE_RESERVE + (jobs > 1) * 1.5) * max(elapsed) if trace else 0.0
            if now + statistics.median(elapsed) / 2 + reserve >= loop_start + seconds:
                break
            if now + max(elapsed) + reserve > deadline:
                problems.append("stopped early to stay within the time budget")
                break
        if len(probes) < PROBES_FIRST + PROBES_SPREAD * min((now - loop_start) / seconds, 1):
            probe(interpreter_too=False)
            continue
        proc, res, n_att, n_fail = checked("rep", jobs)
        rep = {"ok": res is not None and not n_fail, "points": n_att, "failed": n_fail,
               "elapsed_s": proc["t_end"] - proc["t_spawn"]}
        if res is not None:
            start_method = res["start_method"]
            setups.append(res["t_imported"] - proc["t_spawn"])
            rep.update({k: res[k] for k in ("wall_s", "cpu_s", "worker_cpu_s", "peak_rss_mb",
                                            "ref_s")})
            rep.update(wall_s_scaled=res["wall_s"] * REF_S / res["ref_s"],
                       cpu_s_scaled=res["cpu_s"] * REF_S / res["ref_s"])
        reps.append(rep)

    good = [r for r in reps if r["ok"]]
    e2e = {
        "wall_s_scaled": summary([r["wall_s_scaled"] for r in good]),
        "points_per_s_scaled": summary([r["points"] / r["wall_s_scaled"] for r in good]),
        "cpu_s_scaled": summary([r["cpu_s_scaled"] for r in good]),
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in good]),
        "setup_s": summary(setups),
        "wall_s": summary([r["wall_s"] for r in good]),
        "points_per_s": summary([r["points"] / r["wall_s"] for r in good]),
        "cpu_s": summary([r["cpu_s"] for r in good]),
        "ref_ms": summary([r["ref_s"] * 1e3 for r in good]),
    }
    for metric, unit in {**END_TO_END, **RAW}.items():
        e2e[metric].update(unit=unit, jobs=jobs)

    out = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "jobs": jobs, "start_method": start_method, "closed_loop_clients": 1,
        "end_to_end": e2e, "runs": reps,
        "probes": {"setup_s": setups, "import_s": imports, "interpreter_s": bare},
    }
    if trace:
        serial = None
        if jobs > 1:
            _, res, _, n_fail = checked("rep", 1)
            if res is not None and not n_fail:
                serial = res["wall_s"] * REF_S / res["ref_s"]
        _, res, _, _ = checked("traced", 1)
        if res is not None:
            spans = WORK / "traced.spans.csv"
            if spans.exists():
                spans.replace(WORK / f"spans_{name}_seed{seed}.csv")
            out["traced"] = {k: v for k, v in res.items() if k != "draws"}
        worker_cpu = summary([r["worker_cpu_s"] for r in good])["median"]
        out["per_layer"] = per_layer(name, jobs, res, e2e["wall_s_scaled"]["median"],
                                     serial, worker_cpu, imports, bare)

    attempted, failed = tally["attempted"], tally["failed"]
    prov.update(loadavg_end=os.getloadavg(), start_method=start_method,
                jobs_of_parallel_numbers={name: jobs} if jobs > 1 else {})
    out.update(provenance=prov, attempted=attempted, failed=failed,
               failed_ratio=failed / attempted if attempted else 1.0,
               correct=bool(good) and bool(setups) and failed == 0,
               problems=problems)
    return out


def per_layer(name: str, jobs: int, traced: dict | None, wall: float,
              serial_wall: float | None, worker_cpu: float, imports: list,
              bare: list) -> dict:
    """Every per-layer metric as {value, unit}, or value 0 with an absent reason.

    wall and serial_wall are scaled wall times, like wall_s_scaled.
    """
    metrics: dict[str, dict] = {}

    def put(metric: str, value=None, absent: str | None = None) -> None:
        entry = {"value": float(value) if absent is None else 0.0,
                 "unit": PER_LAYER[metric]}
        if absent is not None:
            entry["absent"] = absent
        metrics[metric] = entry

    if traced is None:
        for metric in PER_LAYER:
            put(metric, absent="the traced run failed")
        return metrics

    fns = traced["functions"]

    def fn(metric: str, field: str, *names: str) -> None:
        missing = [n for n in names if n not in fns]
        if missing:
            put(metric, absent=f"{', '.join(missing)} is not a public function")
        else:
            put(metric, sum(fns[n][field] for n in names))

    def memo(metric: str, memo_name: str, field: str) -> None:
        info = traced["memos"][memo_name]
        if "absent" in info:
            put(metric, absent=info["absent"])
        else:
            put(metric, info[field])

    layer_self = traced["layer_self_s"]
    fn("exactnum.binomial.calls", "calls", "exactnum.binomial")
    fn("exactnum.central_binomial.calls", "calls", "exactnum.central_binomial")
    fn("exactnum.exact_div.calls", "calls", "exactnum.exact_div")
    put("exactnum.self_s", layer_self["exactnum"])
    fn("supercat.super_catalan.calls", "calls", "supercat.super_catalan")
    memo("supercat.super_catalan.hit_ratio", "supercat.super_catalan", "hit_ratio")
    memo("supercat.super_catalan.entries", "supercat.super_catalan", "entries")
    fn("supercat.phi.calls", "calls", "supercat.phi")
    put("supercat.self_s", layer_self["supercat"])
    put("sums.self_s", layer_self["sums"])
    put("sums.terms", traced["sums_terms"])
    fn("sums.psi.incl_s", "incl_s", "sums.psi")
    fn("sums.psi_t.incl_s", "incl_s", "sums.psi_t")
    fn("sums.rational.incl_s", "incl_s", "sums.r_sum", "sums.r_prime_sum",
       "sums.r_dprime_sum", "sums.t_sum")
    for length in workloads.LENGTHS:
        metric = f"sums.L{length}_s"
        if name == workloads.KERNEL:
            put(metric, traced["sums_by_length"].get(str(length), 0.0))
        else:
            put(metric, absent="lengths 400-1600 are reached by kernel_large_n only")
    put("dsums.self_s", layer_self["dsums"])
    fn("dsums.d_sum_direct.calls", "calls", "dsums.d_sum_direct")
    for short in ("d_sum_direct", "d_sum_step", "d_sum_base", "d_psi_level1",
                  "psi_quotient_witness"):
        fn(f"dsums.{short}.incl_s", "incl_s", f"dsums.{short}")
    fn("dsums.summand.calls", "calls", "dsums.psi_summand", "dsums.unit_summand")
    fn("dsums.q_scaled.calls", "calls", "dsums.q_scaled")
    memo("dsums.q_scaled.hit_ratio", "dsums.q_scaled", "hit_ratio")
    memo("dsums.q_scaled.entries", "dsums.q_scaled", "entries")
    fn("verifier.sweep.incl_s", "incl_s", "verifier.sweep")
    put("verifier.self_s", layer_self["verifier"])
    fn("verifier.to_jsonl_s", "incl_s", "verifier.to_jsonl")
    fn("verifier.to_csv_s", "incl_s", "verifier.to_csv")
    fn("verifier.to_human_s", "incl_s", "verifier.to_human")
    if name == workloads.KERNEL:
        for metric in ("verifier.points", "verifier.output_bytes",
                       "verifier.serial_wall_s", "verifier.worker_cpu_s"):
            put(metric, absent="kernel_large_n makes no verifier calls")
    else:
        put("verifier.points", traced["points"])
        put("verifier.output_bytes", traced["output_bytes"])
        put("verifier.serial_wall_s", serial_wall if jobs > 1 else wall)
    if jobs > 1:
        put("verifier.worker_cpu_s", worker_cpu)
        put("verifier.parallel_efficiency", (serial_wall or 0.0) / (jobs * wall) if wall else 0.0)
    else:
        if name != workloads.KERNEL:
            put("verifier.worker_cpu_s", absent="serial workload: no worker processes")
        put("verifier.parallel_efficiency", absent="serial workload")
    put("cli.interpreter_s", statistics.median(bare))
    put("cli.import_s", statistics.median(imports))
    fn("cli.main_s", "incl_s", "cli.main")
    base = serial_wall if jobs > 1 else wall
    traced_wall = traced["wall_s"] * REF_S / traced["ref_s"]
    put("trace.overhead_ratio", traced_wall / base if base else 0.0)
    return {metric: metrics[metric] for metric in PER_LAYER}


# ---------------------------------------------------------------------------
# command line


def _print_table(res: dict) -> None:
    print(f"== {res['workload']}  seed {res['seed']}  jobs {res['jobs']}  "
          f"runs {len(res['runs'])}  trace {res['trace']}")
    for metric, st in res["end_to_end"].items():
        print(f"  {metric:<20} {st['median']:>12.6g} {st['unit']:<4} "
              f"q1 {st['q1']:.6g}  q3 {st['q3']:.6g}  n {st['n']}")
    print(f"  {'failed_ratio':<20} {res['failed_ratio']:>12.6g}      "
          f"({res['failed']} of {res['attempted']} points)")
    for metric, entry in res.get("per_layer", {}).items():
        note = f"  absent: {entry['absent']}" if "absent" in entry else ""
        print(f"  {metric:<36} {entry['value']:>14.6g} {entry['unit']}{note}")
    for problem in res["problems"]:
        print(f"  problem: {problem}")


def _metrics(res: dict, prefix: str = "") -> dict:
    if res["trace"]:
        return {prefix + k: {"value": v["value"], "unit": v["unit"]}
                for k, v in res["per_layer"].items()}
    return {prefix + k: {"value": res["end_to_end"][k]["median"], "unit": unit}
            for k, unit in END_TO_END.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)  # run_seconds in BENCHMARK.json
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an interrupt, so spawn() kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "supercatalan" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'supercatalan'}; run from the root "
              "of a supercatalan checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        path = WORK / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")
        _print_table(res)
        print(f"  results: {path.relative_to(ROOT)}")
        results.append(res)
    prefix = len(results) > 1
    metrics = {}
    for res in results:
        metrics.update(_metrics(res, f"{res['workload']}." if prefix else ""))
    correct = all(res["correct"] for res in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(res["attempted"] for res in results),
                      "failed": sum(res["failed"] for res in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
