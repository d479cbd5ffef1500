"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_bench.py

They check that an aborted run is counted, not fatal; that a wrong output
fails its run; that tracing does not change outputs; and that a memo with
no cache_info() is reported absent rather than raising.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import supercatalan as sc  # noqa: E402
import supercatalan.cli  # noqa: E402,F401

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

PINNED = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))

# Behaves as bench/child.py, except that every untraced run raises midway.
ABORTING_CHILD = [sys.executable, "-c", (
    "import runpy, sys\n"
    f"sys.path.insert(0, {str(HERE)!r})\n"
    "if sys.argv[1] == 'rep':\n"
    "    import supercatalan\n"
    "    raise RuntimeError('injected abort')\n"
    f"sys.argv[0] = {str(HERE / 'child.py')!r}\n"
    "runpy.run_path(sys.argv[0], run_name='__main__')\n")]


def test_injected_abort_counts_every_point_failed(monkeypatch, capsys):
    monkeypatch.setattr(run, "CHILD", ABORTING_CHILD)
    status = run.main(["--workload", "verify_default", "--seconds", "1"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert status == 1
    assert result["correct"] is False
    assert result["attempted"] >= PINNED["verify_default"]["points"]
    assert result["failed"] == result["attempted"]
    assert any("injected abort" in line for line in lines)


def test_wrong_output_fails_the_whole_run():
    proc = {"code": 0, "stderr": ""}
    wrong = {"digest": "0" * 64, "points": 8607, "fail_rows": 0}
    attempted, failed, problems = run.judge("verify_default", wrong, proc, PINNED)
    assert attempted == failed == 8607 and problems
    draws = [{"key": "400/0/25", "digest": "0" * 64, "routes_failed": []}]
    attempted, failed, _ = run.judge(workloads.KERNEL, {"draws": draws}, proc, PINNED)
    assert failed == attempted == workloads.expected_points(workloads.KERNEL, PINNED)


def test_every_kernel_draw_is_pinned():
    for seed in range(50):
        for length, l, t in workloads.kernel_draws(seed):
            assert f"{length}/{l}/{t}" in PINNED[workloads.KERNEL]


def test_tracing_leaves_outputs_unchanged():
    grid = sc.GridBounds(n_max=4, l_max=2, m_max=3)
    names = ["thm3", "eq13", "eq29", "dlevel1"]
    plain = sc.to_jsonl(sc.sweep(names, grid))
    original = sc.supercat.super_catalan
    tracer = Tracer(sc)
    tracer.install()
    try:
        assert sc.sums.super_catalan is not original
        traced = sc.to_jsonl(sc.sweep(names, grid))
    finally:
        tracer.uninstall()
    assert traced == plain
    assert sc.sums.super_catalan is original and sc.dsums.super_catalan is original
    calls = {name: st[0] for name, st in tracer.stats.items()}
    assert calls["sums.psi"] > 0 and calls["dsums.d_sum_step"] > 0
    assert tracer.stats["verifier.sweep"][1] >= tracer.self_time("verifier") > 0
    assert any(name.startswith("sums.") for _, name, *_ in tracer.spans)


def test_memo_without_cache_info_is_absent():
    tracer = Tracer(sc)
    tracer.originals["supercat.super_catalan"] = sc.supercat.super_catalan_ratio
    assert "absent" in child._memo(tracer, "supercat.super_catalan")
    assert "absent" in child._memo(tracer, "dsums.q_scaled")
    tracer.originals["dsums.q_scaled"] = sc.dsums.q_scaled
    assert set(child._memo(tracer, "dsums.q_scaled")) >= {"hit_ratio", "entries"}
