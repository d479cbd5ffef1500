"""One fresh-interpreter run of a benchmark workload.

    python3 bench/child.py MODE WORKLOAD SEED RESULT_PATH [JOBS]

MODE is ``probe`` (import only), ``rep`` (untraced run with JOBS workers)
or ``traced`` (in-process traced run). The package is imported first, so
the import-done time that setup_s is measured to includes nothing of the
benchmark's own. The result is written as JSON to RESULT_PATH; a run that
raises leaves no result file and exits nonzero, which the harness counts
as a run whose every point failed.
"""

import time

T_START = time.perf_counter()
import supercatalan as sc  # noqa: E402
import supercatalan.cli  # noqa: E402,F401  (what the supercatalan command loads)

T_IMPORTED = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

import workloads  # noqa: E402

# Per-layer metrics read from cache_info() of these public lru_cache functions.
MEMOS = ("supercat.super_catalan", "dsums.q_scaled")


def _reference() -> int:
    # Fixed work of the same kind as the package's (binomials, bignum
    # products, Fractions, tuple-keyed dicts), from the standard library
    # alone, so no change to the package can make it faster or slower.
    acc, table = Fraction(0), {}
    for k in range(1, 160):
        c = math.comb(320, k)
        table[(k, k % 7)] = c * c
        acc += Fraction(c, k + 1)
    return sum(v // (k + j + 1) for (k, j), v in table.items()) + acc.numerator


_start_together = None  # a Barrier shared by the reference processes of reference_s


def _share_barrier(barrier) -> None:
    global _start_together
    _start_together = barrier


def _reference_s(_=None) -> float:
    # median seconds of 3 timings of 15 calls, after one untimed call
    _reference()  # the first call in a fresh interpreter is slower
    if _start_together is not None:
        _start_together.wait()
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(15):
            _reference()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def reference_s(jobs: int) -> float:
    """The machine's speed now, with ``jobs`` processes busy as in the workload.

    For a sweep with workers, the reference runs in as many processes at
    once, so it meets the same contention between CPUs as the workers do.
    """
    if jobs == 1:
        return _reference_s()
    # fork, as the sweep's own pool does: this process has no threads here,
    # and a spawn pool would leave a resource-tracker process behind.
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(jobs, _share_barrier, (ctx.Barrier(jobs),)) as pool:
        return statistics.mean(pool.map(_reference_s, range(jobs), chunksize=1))


def _cpu_s() -> tuple[float, float]:
    """(own, reaped children's) user plus system seconds so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def _run(name: str, seed: int, jobs: int, work_dir: str) -> tuple[dict, dict]:
    """Run the workload; returns what it cost and what to check.

    Wall time runs from just before the first call to the return of the
    last one (a sweep's output is written by then). CPU time and peak RSS
    include the pool workers, which the sweep has joined on return. The
    reference is timed just before and just after, outside that span; its
    own processes are forks of this one that do little, so they never hold
    the peak RSS.
    """
    ref_before = reference_s(jobs)
    draws = out_path = None
    if name == workloads.KERNEL:
        draws = workloads.kernel_draws(seed)
    else:
        out_path = os.path.join(work_dir, f"{name}.{os.getpid()}.out")
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    if draws is not None:
        raw = {"draws": draws, "values": workloads.run_kernel(sc, draws)}
    else:
        raw = {"fmt": workloads.SWEEPS[name][1], "out_path": out_path,
               "status": workloads.run_sweep(sc, name, jobs, out_path)}
    wall = time.perf_counter() - t0
    cpu1 = _cpu_s()
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    cost = {"wall_s": wall, "cpu_s": sum(cpu1) - sum(cpu0),
            "worker_cpu_s": cpu1[1] - cpu0[1], "peak_rss_mb": rss_kb / 1024.0,
            "ref_s": (ref_before + reference_s(jobs)) / 2}
    return cost, raw


def _check(name: str, raw: dict) -> dict:
    """Digest the outputs of _run, outside every timed region."""
    if name == workloads.KERNEL:
        checked = workloads.check_kernel(sc, raw["draws"], raw["values"])
        return {"points": len(checked) * len(workloads.KERNEL_CALLS), "draws": checked,
                "output_bytes": 0}
    with open(raw["out_path"], "rb") as fh:
        data = fh.read()
    os.remove(raw["out_path"])
    out = workloads.digest_output(raw["fmt"], data)
    out.update(cli_status=raw["status"], output_bytes=len(data))
    return out


def _memo(tracer, name: str) -> dict:
    fn = tracer.originals.get(name)
    if fn is None:
        return {"absent": f"{name} is no longer a public function"}
    if not hasattr(fn, "cache_info"):
        return {"absent": f"{name} has no cache_info(); its memo is not an lru_cache"}
    info = fn.cache_info()
    looked_up = info.hits + info.misses
    return {"hits": info.hits, "misses": info.misses, "entries": info.currsize,
            "hit_ratio": info.hits / looked_up if looked_up else 0.0}


def _traced(name: str, seed: int, work_dir: str, spans_path: str) -> dict:
    from tracer import LAYERS, Tracer

    tracer = Tracer(sc)
    tracer.install()
    try:
        cost, raw = _run(name, seed, 1, work_dir)
    finally:
        tracer.uninstall()
    memos = {memo: _memo(tracer, memo) for memo in MEMOS}
    out = _check(name, raw)
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write("span,name,start_s,end_s,parent\n")
        for span, fname, start, end, parent in tracer.spans:
            fh.write(f"{span},{fname},{start - T_IMPORTED:.9f},{end - T_IMPORTED:.9f},"
                     f"{'' if parent is None else parent}\n")
    out.update(
        wall_s=cost["wall_s"], ref_s=cost["ref_s"],
        functions={fname: {"calls": st[0], "incl_s": st[1], "self_s": st[2]}
                   for fname, st in sorted(tracer.stats.items())},
        layer_self_s={layer: tracer.self_time(layer) for layer in LAYERS},
        sums_terms=tracer.sums_terms,
        sums_by_length={str(k): v for k, v in sorted(tracer.sums_by_length.items())},
        memos=memos,
        spans=len(tracer.spans),
    )
    return out


def main(argv: list[str]) -> int:
    mode, name, seed, result_path = argv[:4]
    jobs = int(argv[4]) if len(argv) > 4 else 1
    seed = int(seed)
    work_dir = os.path.dirname(result_path)
    out = {"t_start": T_START, "t_imported": T_IMPORTED,
           "start_method": multiprocessing.get_start_method()}
    if mode == "rep":
        cost, raw = _run(name, seed, jobs, work_dir)
        out.update(_check(name, raw), **cost, jobs=jobs)
    elif mode == "traced":
        out.update(_traced(name, seed, work_dir, result_path[:-len(".json")] + ".spans.csv"),
                   jobs=1)
    elif mode != "probe":
        raise SystemExit(f"unknown mode {mode!r}")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
