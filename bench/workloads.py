"""The four benchmark workloads and how their outputs are digested.

Every workload is run in a fresh interpreter that has just imported
``supercatalan``, so module-level memo tables start empty as they do for a
CLI user. The package is driven only through its public API and CLI, and
every call goes through the ``supercatalan`` namespaces at call time, so
the tracer's wrappers see it.

Three workloads are fixed sweeps through ``supercatalan.cli.main``; their
output bytes are the product and are digested whole (the human table
without its runtime and generated lines). The fourth makes library calls
at large lengths on (l, t) draws taken from the seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random

# name -> (CLI argv without --jobs/--output, output format, worker count)
SWEEPS = {
    "verify_default": (["verify", "--all", "--default-grid", "--format", "human"],
                       "human", 1),
    "sweep_wide": (["sweep", "--all", "--n-max", "20", "--l-max", "10",
                    "--m-max", "5", "--format", "json"], "json", 2),
    "witness_deep": (["sweep", "--id", "thm3", "--id", "dlevel1", "--id", "eq104",
                      "--n-max", "40", "--l-max", "20", "--m-max", "8",
                      "--format", "csv"], "csv", 1),
}

KERNEL = "kernel_large_n"
WORKLOADS = tuple(SWEEPS) + (KERNEL,)

# kernel_large_n draw space. The cost of a draw hardly depends on l but
# grows steeply with the window length L - 2t, so the two draws of one
# length take mirrored window offsets: every seed then does about the same
# work, and every (L, l, t) a seed can draw has a pinned digest.
LENGTHS = (400, 800, 1600)
L_VALUES = (0, 1, 3, 7, 15, 31, 63, 127)
T_PAIRS = ((1, 3), (2, 2), (3, 1))  # window offsets in sixteenths of L
KERNEL_CALLS = ("psi1", "psi2", "psi3", "psi_t", "p_sum", "r_sum", "r_prime_sum",
                "r_dprime_sum", "t_sum", "phi")


def kernel_draws(seed: int) -> list[tuple[int, int, int]]:
    """(L, l, t) triples for one seed: two per length, distinct l, mirrored t."""
    rng = random.Random(f"{KERNEL}:{seed}")
    draws = []
    for length in LENGTHS:
        ls = rng.sample(L_VALUES, 2)
        ts = rng.choice(T_PAIRS)
        draws += [(length, l, length * t // 16) for l, t in zip(ls, ts)]
    return draws


def kernel_space() -> list[tuple[int, int, int]]:
    """Every (L, l, t) that kernel_draws can return."""
    ts = sorted({t for pair in T_PAIRS for t in pair})
    return [(length, l, length * t // 16)
            for length in LENGTHS for l in L_VALUES for t in ts]


def expected_points(name: str, pinned: dict) -> int:
    """Points one run attempts: records for a sweep, kernel calls otherwise."""
    if name == KERNEL:
        return len(LENGTHS) * 2 * len(KERNEL_CALLS)
    return pinned[name]["points"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_output(fmt: str, data: bytes) -> dict:
    """Digest, record count and fail-row count of one sweep's output bytes."""
    text = data.decode("utf-8")
    if fmt == "human":
        kept = [line for line in text.splitlines(keepends=True)
                if not line.startswith(("runtime:", "generated:"))]
        total = next(line for line in kept if line.startswith("total ")).split()
        return {"digest": _sha("".join(kept).encode("utf-8")),
                "points": int(total[1]), "fail_rows": int(total[3])}
    if fmt == "json":
        rows = [json.loads(line) for line in text.splitlines()]
        statuses = [row["status"] for row in rows]
    else:
        rows = list(csv.DictReader(io.StringIO(text)))
        statuses = [row["status"] for row in rows]
    return {"digest": _sha(data), "points": len(statuses),
            "fail_rows": statuses.count("fail")}


def run_sweep(sc, name: str, jobs: int, out_path: str) -> int:
    """Run one sweep workload through the CLI; returns the exit status."""
    argv, _, _ = SWEEPS[name]
    return sc.cli.main(argv + ["--jobs", str(jobs), "--output", out_path])


def run_kernel(sc, draws) -> list[list]:
    """Evaluate every kernel call of every draw; returns the values per draw."""
    values = []
    for length, l, t in draws:
        values.append([sc.psi(length, 1, l), sc.psi(length, 2, l), sc.psi(length, 3, l),
                       sc.psi_t(length, t, l), sc.p_sum(length, t, l),
                       sc.r_sum(length, t, l), sc.r_prime_sum(length, t, l),
                       sc.r_dprime_sum(length, t, l), sc.t_sum(length, t, l),
                       sc.phi(length // 2, l, t)])
    return values


def check_kernel(sc, draws, values) -> list[dict]:
    """Digest each draw and check it by routes independent of the sums.

    - phi(L/2, l, t) equals psi_t(L, t, l);
    - psi(2n, 1, l) equals S(n, l) S(n+l, n) with n = L/2;
    - (n+l+1) r_prime_sum(2n, t, l) equals r_sum(2n, t, l).
    """
    S = sc.super_catalan
    out = []
    for (length, l, t), v in zip(draws, values):
        got = dict(zip(KERNEL_CALLS, v))
        n = length // 2
        routes = {
            "phi_vs_psi_t": got["phi"] == got["psi_t"],
            "psi1_vs_product": got["psi1"] == S(n, l) * S(n + l, n),
            "r_prime_vs_r": (n + l + 1) * got["r_prime_sum"] == got["r_sum"],
        }
        out.append({"key": f"{length}/{l}/{t}",
                    "digest": _sha("\n".join(map(str, v)).encode("ascii")),
                    "routes_failed": sorted(k for k, ok in routes.items() if not ok)})
    return out
