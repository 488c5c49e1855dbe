"""The perf-gate harness: row shape, parity, and baseline gating.

The gate's timings are machine-bound and deliberately not asserted
here; what is pinned is everything that must hold for the committed
``BENCH_core.json`` to be trustworthy — the suites run, assert parity
internally, emit the declared row shape, describe the same measurements
as the committed baseline, and the comparison fails a stale baseline
(exit 1) apart from a ratio regression (exit 3).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import perf_gate
from repro.analysis.perf_gate import (
    EXIT_REGRESSION,
    EXIT_STALE,
    SCHEMA,
    compare,
)
from repro.cli import build_parser
from repro.crypto.field import DEFAULT_FIELD
from repro.crypto.kernels import batch_engine

REPO = Path(__file__).resolve().parent.parent
BATCH_SUITES = {"e9_batch_reveal_n64", "e17_batch_rows_n64"}


def _committed():
    with open(REPO / "BENCH_core.json") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def gate_run(tmp_path_factory):
    """One run of ``benchmarks/perf_gate.py`` against a baseline that
    regresses: the committed one claiming ten times every ratio, with
    this host's batch engine.  Returns the process and the document it
    wrote."""
    tmp = tmp_path_factory.mktemp("perf_gate")
    baseline = _committed()
    for row in baseline["suites"].values():
        row["ratio"] *= 10
        if "engine" in row:
            row["engine"] = batch_engine(DEFAULT_FIELD)
    fake = tmp / "regressed.json"
    fake.write_text(json.dumps(baseline))
    out = tmp / "bench.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO / "benchmarks" / "perf_gate.py"),
            "--out",
            str(out),
            "--baseline",
            str(fake),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.exists(), proc.stderr
    return proc, json.loads(out.read_text())


def test_suites_emit_the_declared_schema(gate_run):
    _, doc = gate_run
    assert doc["schema"] == SCHEMA
    assert doc["pairs"] == perf_gate.PAIRS
    assert len(doc["suites"]) == 10
    for name, row in doc["suites"].items():
        fields = {"desc", "ratio", "q1", "q3"}
        if name in BATCH_SUITES:
            fields.add("engine")
            assert row["engine"] == batch_engine(DEFAULT_FIELD)
        assert set(row) == fields, name
        assert 0 < row["q1"] <= row["ratio"] <= row["q3"], name


def test_suites_match_the_committed_baseline(gate_run):
    """A suite renamed, added, removed or re-described must come with a
    regenerated BENCH_core.json."""
    _, doc = gate_run

    def descs(document):
        return {name: row["desc"] for name, row in document["suites"].items()}

    assert descs(doc) == descs(_committed())


def test_committed_baseline_is_valid_and_fresh_run_passes_quickly():
    """BENCH_core.json has the current schema and row shape, was
    measured on the numpy batch engine, and records the acceptance
    criterion (>= 5x on a reconstruction suite)."""
    baseline = _committed()
    assert baseline["schema"] == SCHEMA
    for name, row in baseline["suites"].items():
        assert {"desc", "ratio", "q1", "q3"} <= set(row), name
        assert row.get("engine") == ("numpy" if name in BATCH_SUITES else None)
    assert baseline["suites"]["e9_reconstruct_n64"]["ratio"] >= 5.0


def _doc(**suites):
    return {"schema": SCHEMA, "suites": suites}


def _row(ratio, desc="d", **extra):
    return {"desc": desc, "ratio": ratio, "q1": ratio, "q3": ratio, **extra}


def test_compare_flags_only_real_speedup_regressions():
    baseline = _doc(a=_row(10.0), b=_row(8.0), c=_row(0.5))
    current = _doc(
        a=_row(9.0),   # -10%: within the 25% budget
        b=_row(4.0),   # -50%: regression
        c=_row(0.9),   # faster: never flagged
    )
    code, problems = compare(current, baseline)
    assert code == EXIT_REGRESSION
    assert len(problems) == 1 and problems[0].startswith("b:")
    assert compare(baseline, baseline) == (0, [])


def test_compare_fails_a_stale_baseline():
    current = _doc(
        kept=_row(2.0),
        batch=_row(3.0, engine="numpy"),
    )

    def gated(baseline):
        return compare(current, baseline)[0]

    assert gated(current) == 0
    # A renamed suite used to drop its gate without a word.
    code, problems = compare(_doc(renamed=_row(0.1)), _doc(gone=_row(1.0)))
    assert code == EXIT_STALE and len(problems) == 2
    assert gated(_doc(kept=_row(2.0))) == EXIT_STALE  # row missing
    assert gated(
        _doc(**current["suites"], extra=_row(1.0))
    ) == EXIT_STALE  # row added
    assert gated(
        _doc(kept=_row(2.0, desc="edited"), batch=current["suites"]["batch"])
    ) == EXIT_STALE
    assert gated(
        _doc(kept=_row(2.0), batch=_row(3.0, engine="columns"))
    ) == EXIT_STALE
    assert gated(
        {"schema": "repro-perf-gate/1", "suites": current["suites"]}
    ) == EXIT_STALE
    assert gated(
        _doc(kept=_row(4.0), batch=current["suites"]["batch"])
    ) == EXIT_REGRESSION  # one ratio doubled


def test_gate_script_runs_from_a_checkout(gate_run):
    """benchmarks/perf_gate.py works as a plain script (the CI entry)
    and writes the document it measured."""
    proc, doc = gate_run
    assert "wrote" in proc.stdout
    assert doc["schema"] == SCHEMA


def test_gate_soft_fails_on_fabricated_regression(gate_run):
    """Exit code 3 (soft fail) when the baseline claims ratios the
    current run cannot match."""
    proc, _ = gate_run
    assert proc.returncode == EXIT_REGRESSION, proc.stderr
    assert "PERF REGRESSION" in proc.stderr


def test_bench_accepts_the_gate_flags():
    """``repro bench``, which the script runs, takes two flags."""
    parser = build_parser()
    args = parser.parse_args(
        ["bench", "--out", "out.json", "--baseline", "BENCH_core.json"]
    )
    assert (args.out, args.baseline) == ("out.json", "BENCH_core.json")
    for removed in (["--quick"], ["--json"], ["--max-regression", "0.25"]):
        with pytest.raises(SystemExit):
            parser.parse_args(["bench", *removed])
