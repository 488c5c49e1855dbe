"""Self-checks of the end-to-end benchmark (about 10 s).

    python3 benchmarks/e2e/selfcheck.py
    PYTHONPATH=src python -m pytest benchmarks/e2e/selfcheck.py -q

The file name keeps these checks out of the repository's own test
collection (``test_*.py``); they test the benchmark, not the program.
Every workload runs in-process at smoke scale (two trials, sixteen
units for the distributed one), untraced and traced.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layertrace  # noqa: E402
import workloads  # noqa: E402
from run import DEFAULT_SECONDS  # noqa: E402


def _smoke(workload: workloads.Workload) -> workloads.Workload:
    trials = 16 if workload.backend == "distributed" else 2
    return dataclasses.replace(
        workload, batch_trials=trials, min_batches=1, warmup_trials=1
    )


def _benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_tables():
    doc = _benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == [
        w.name for w in workloads.WORKLOADS
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == [
        tuple(row) for row in workloads.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(row) for row in workloads.PER_LAYER
    ]
    assert doc["run_seconds"] == DEFAULT_SECONDS
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(bounds[name] < 0.01 for name in workloads.COUNT_METRICS)


def test_smoke_every_metric_is_emitted():
    """Each workload at smoke scale yields every metric BENCHMARK.json
    names (run.py prints them with the units of the same tables)."""
    doc = _benchmark_json()
    # setup_s is the median run.py takes over the set-up samples.
    e2e = {m["name"] for m in doc["end_to_end"]} - {"setup_s"}
    layers = {m["name"] for m in doc["per_layer"]}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "trace.json"
        for workload in workloads.WORKLOADS:
            session = workloads.Session(_smoke(workload), seed=7)
            try:
                session.open()
                loop = workloads.timed_loop(session, 0.0)
                counted = session.counted_sweep()
                errors = workloads.check(session, loop, counted)
                metrics = workloads.end_to_end(session, loop, counted)
                _, layer_metrics, trace_errors = workloads._trace_run(
                    session, 0.0, str(out)
                )
            finally:
                session.close()
            metrics["peak_rss_mb"] = session.peak_rss_mb()
            assert loop.failed == 0 and not errors + trace_errors, (
                workload.name, errors + trace_errors,
            )
            assert set(metrics) == e2e, workload.name
            assert set(layer_metrics) == layers, workload.name
            assert all(v > 0 for k, v in metrics.items()), metrics
            trace = json.loads(out.read_text())
            assert trace["workload"] == workload.name
            assert any(s["name"] == "batch" for s in trace["spans"])


def test_wrappers_restore_the_originals():
    from repro.engine.registry import get_runner

    session = workloads.Session(_smoke(workloads.WORKLOADS[2]), seed=1)
    tracer = layertrace.Tracer()
    try:
        session.open()
        scenario = get_runner(session.workload.runner)
        tracer.install(scenario_names=(session.workload.runner,))
        patched = tracer.patched()
        assert patched
        assert all(vars(owner)[attr] is not original
                   for owner, attr, original in patched)
        assert get_runner(session.workload.runner) is not scenario
        session.run_batch(0)
    finally:
        tracer.uninstall()
        session.close()
    assert all(vars(owner)[attr] is original
               for owner, attr, original in patched)
    assert get_runner(session.workload.runner) is scenario
    assert tracer.patched() == []


def test_self_time_arithmetic_on_a_synthetic_trace():
    tracer = layertrace.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.01))
    last = tracer.wrap("last", lambda: time.sleep(0.01))

    def middle():
        time.sleep(0.005)
        inner()
        inner()

    middle_w = tracer.wrap("middle", middle)

    def outer():
        time.sleep(0.005)
        middle_w()
        last()

    tracer.wrap("net.step", outer)()  # a span-keeping name
    # Another thread's calls are never this thread's children.
    worker = threading.Thread(target=inner)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()

    main = tracer.totals(thread="MainThread")
    assert main["inner"]["calls"] == 2
    assert tracer.totals()["inner"]["calls"] == 3
    o, m = main["net.step"], main["middle"]
    i, lt = main["inner"], main["last"]
    eps = 1e-9
    assert abs(i["self_s"] - i["total_s"]) < eps
    assert abs(m["self_s"] - (m["total_s"] - i["total_s"])) < eps
    assert abs(o["self_s"] - (o["total_s"] - m["total_s"] - lt["total_s"])) < eps
    assert 0.004 < o["self_s"] < 0.02 and 0.004 < m["self_s"] < 0.02
    (span,) = tracer.spans()
    assert span["name"] == "net.step" and span["parent"] is None
    assert abs((span["end"] - span["start"]) - o["total_s"]) < 1e-6


def test_seed_changes_every_spec_seed():
    for workload in workloads.WORKLOADS:
        a = workloads.Session(workload, seed=1).spec(0, 2)
        b = workloads.Session(workload, seed=2).spec(0, 2)
        again = workloads.Session(workload, seed=1).spec(0, 2)
        assert a.seed != b.seed and a.seed == again.seed
        assert a.seed != workloads.Session(workload, seed=1).spec(1, 2).seed
        # The counted sweep's seed ignores --seed.
        counted = [
            workloads.Session(workload, seed=s).spec("counted", 2, "counted")
            for s in (1, 2)
        ]
        assert counted[0].seed == counted[1].seed
    names = [w.name for w in workloads.WORKLOADS]
    assert len({workloads.spec_seed(1, n, 0) for n in names}) == len(names)


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    start = time.perf_counter()
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} checks passed in {time.perf_counter() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
