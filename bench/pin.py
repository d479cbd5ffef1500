"""Write bench/digests.json: the pinned outputs every benchmark run must match.

    PYTHONPATH=src python3 bench/pin.py

Run it only when a change is meant to alter the output bytes of a
workload; the digests are the correctness gate of every benchmark run,
so re-pinning to make a run pass hides the defect the gate is there for.
It sweeps each fixed workload once at jobs=1 and evaluates every (L, l, t)
that kernel_large_n can draw, checking each by its independent routes.
"""

import json
import os
import sys

import supercatalan as sc
import supercatalan.cli  # noqa: F401

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    pinned = {}
    tmp = os.path.join(HERE, "out", "pin.out")
    os.makedirs(os.path.dirname(tmp), exist_ok=True)
    for name, (_, fmt, _) in workloads.SWEEPS.items():
        workloads.run_sweep(sc, name, 1, tmp)
        with open(tmp, "rb") as fh:
            got = workloads.digest_output(fmt, fh.read())
        os.remove(tmp)
        if got["fail_rows"]:
            raise SystemExit(f"{name}: {got['fail_rows']} fail rows; refusing to pin")
        pinned[name] = {"digest": got["digest"], "points": got["points"]}
        print(name, got, flush=True)
    kernel = {}
    for draw in workloads.kernel_space():
        (checked,) = workloads.check_kernel(sc, [draw], workloads.run_kernel(sc, [draw]))
        if checked["routes_failed"]:
            raise SystemExit(f"{checked['key']}: {checked['routes_failed']}; refusing to pin")
        kernel[checked["key"]] = checked["digest"]
        print(checked["key"], checked["digest"], flush=True)
    pinned[workloads.KERNEL] = kernel
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
