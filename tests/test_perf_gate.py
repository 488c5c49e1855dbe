"""The perf-gate harness: schema, parity, and regression gating logic.

The gate's *timings* are machine-bound and deliberately not asserted
here; what is pinned is everything that must hold for the committed
``BENCH_core.json`` to be trustworthy — the suites run, assert naive/
plan parity internally, emit the declared schema, and the comparison
logic flags exactly the speedup regressions it claims to.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.analysis.perf_gate import (
    EXIT_REGRESSION,
    SCHEMA,
    compare,
    run_suites,
)

REPO = Path(__file__).resolve().parent.parent


def test_quick_suites_emit_the_declared_schema():
    doc = run_suites(quick=True)
    assert doc["schema"] == SCHEMA
    assert doc["mode"] == "quick"
    suites = doc["suites"]
    assert set(suites) == {
        "e9_reconstruct_n64",
        "e9_batch_reveal_n64",
        "e17_row_check_n64",
        "e17_batch_rows_n64",
        "rs_decode_n8",
        "e19_vss_coin",
        "sim_round_loop_n32",
        "dispatch_overhead",
        "telemetry_overhead",
        "cost_dispatch_mixed_n",
        "dispatch_wire_n64",
    }
    for name in ("e9_reconstruct_n64", "e17_row_check_n64"):
        suite = suites[name]
        assert suite["parity"] is True
        assert suite["naive_s"] >= 0 and suite["plan_s"] >= 0
        assert suite["speedup"] > 0
    for name in ("e9_batch_reveal_n64", "e17_batch_rows_n64"):
        suite = suites[name]
        assert suite["parity"] is True
        assert suite["engine"] in ("numpy", "columns")
        assert suite["plan_s"] >= 0 and suite["batch_s"] >= 0
        assert suite["batch_us_per_op"] >= 0
        assert suite["speedup"] > 0  # gated like the other kernels
    decode = suites["rs_decode_n8"]
    assert decode["parity"] is True
    assert decode["solve_s"] >= 0 and decode["windows_s"] >= 0
    assert decode["speedup"] > 0  # gated like the other kernels
    assert suites["sim_round_loop_n32"]["parity"] is True
    assert "speedup" not in suites["sim_round_loop_n32"]  # not gated
    assert suites["e19_vss_coin"]["seconds"] > 0
    dispatch = suites["dispatch_overhead"]
    assert dispatch["parity"] is True
    assert dispatch["dispatch_us_per_unit"] >= 0
    assert "speedup" not in dispatch  # trend-only, never gated
    telemetry = suites["telemetry_overhead"]
    assert telemetry["parity"] is True
    assert telemetry["overhead_fraction"] >= 0
    assert telemetry["span_us_per_unit"] >= 0
    assert "speedup" not in telemetry  # trend-only, never gated
    cost = suites["cost_dispatch_mixed_n"]
    assert cost["parity"] is True
    assert cost["uniform_makespan_s"] > 0 and cost["cost_makespan_s"] > 0
    assert cost["cost_units"] != cost["uniform_units"]  # geometry moved
    assert cost["speedup"] > 0  # gated: mixed-n makespan must not regress
    wire = suites["dispatch_wire_n64"]
    assert wire["parity"] is True  # both depths matched serial, bit for bit
    assert wire["depth1_s"] > 0 and wire["depth4_s"] > 0
    assert wire["depth1_units_per_s"] > 0 and wire["depth4_units_per_s"] > 0
    assert wire["wire_bytes"] > 0
    # The pipelined lane must have had more than one unit in flight.
    assert wire["inflight_peak"] > 1
    assert wire["speedup"] > 0  # gated: pipelining win must not regress


def test_compare_flags_only_real_speedup_regressions():
    baseline = {
        "suites": {
            "a": {"speedup": 10.0},
            "b": {"speedup": 8.0},
            "wall_only": {"seconds": 1.0},
        }
    }
    current = {
        "suites": {
            "a": {"speedup": 9.0},   # -10%: within the 25% budget
            "b": {"speedup": 4.0},   # -50%: regression
            "wall_only": {"seconds": 99.0},  # never gated
        }
    }
    problems = compare(current, baseline, max_regression=0.25)
    assert len(problems) == 1 and problems[0].startswith("b:")
    assert compare(current, baseline, max_regression=0.9) == []
    # A suite that lost its speedup field entirely is also flagged.
    del current["suites"]["b"]["speedup"]
    assert any("missing" in p for p in compare(current, baseline))


def test_committed_baseline_is_valid_and_fresh_run_passes_quickly():
    """BENCH_core.json parses, matches the schema, and records the
    acceptance-criterion speedup (>= 5x on a reconstruction suite)."""
    with open(REPO / "BENCH_core.json") as f:
        baseline = json.load(f)
    assert baseline["schema"] == SCHEMA
    reconstruction_speedups = [
        suite["speedup"]
        for name, suite in baseline["suites"].items()
        if "speedup" in suite
    ]
    assert max(reconstruction_speedups) >= 5.0


def test_gate_script_runs_from_a_checkout(tmp_path):
    """benchmarks/perf_gate.py works as a plain script (the CI entry)."""
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO / "benchmarks" / "perf_gate.py"),
            "--quick",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["schema"] == SCHEMA


def test_gate_soft_fails_on_fabricated_regression(tmp_path):
    """Exit code 3 (soft fail) when the baseline claims a speedup the
    current run cannot match."""
    impossible = {
        "schema": SCHEMA,
        "suites": {"e9_reconstruct_n64": {"speedup": 1e9}},
    }
    fake = tmp_path / "impossible.json"
    fake.write_text(json.dumps(impossible))
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO / "benchmarks" / "perf_gate.py"),
            "--quick",
            "--out",
            "-",
            "--baseline",
            str(fake),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == EXIT_REGRESSION
    assert "PERF REGRESSION" in proc.stderr
