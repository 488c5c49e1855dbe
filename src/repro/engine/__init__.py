"""repro.engine — declarative scenarios on sharded, parallel backends.

The engine turns every benchmark- and example-style workload into data:
a spec names a registered *scenario* (typed parameter schema + metric
contract + execution mode), and pluggable backends execute its trials:

    from repro.engine import Engine, ExperimentSpec

    spec = ExperimentSpec(
        runner="everywhere-ba", n=27, trials=32, seed=7,
        params={"corrupt": 0.1},
    )
    result = Engine("process").run(spec)
    print(result.to_table().to_text())

Layers (see ENGINE.md for the architecture notes):

* :mod:`repro.engine.spec` — :class:`ExperimentSpec` /
  :class:`TrialResult`, deterministic per-trial seed derivation, and
  the versioned JSON wire format with which specs and results cross
  process and host boundaries.
* :mod:`repro.engine.scenario` — :class:`Param` schemas: typed,
  validated, self-documenting experiment parameters.
* :mod:`repro.engine.registry` — named, picklable :class:`Scenario`
  objects; built-ins register from :mod:`repro.engine.scenarios`.
* :mod:`repro.engine.dispatch` — the transport-agnostic dispatch
  plane: :class:`DispatchPlan` unit geometry, the :class:`Transport`
  seam, the submit/retry/merge collect loop, and the one spawn-safe
  worker entry (:func:`run_unit`).
* :mod:`repro.engine.costplan` — the one unit-size rule
  (:func:`plan_specs`): per-spec predicted trial costs
  (:func:`spec_trial_cost`, from the plain-Python models of
  :mod:`repro.analysis.costmodel`) sized into multi-spec unit plans
  (:func:`plan_grid`) so mixed-size grids balance predicted work, with
  the same geometry on every host.
* :mod:`repro.engine.backends` — :class:`SerialBackend` and
  :class:`ShardedBackend` behind one :class:`ExecutionBackend` API;
  :class:`ProcessPoolBackend` is the sharded backend over a
  ``multiprocessing`` pool.
* :mod:`repro.engine.batch` — :class:`BatchBackend`, multiplexing many
  independent protocol instances (sync rounds or async deliveries)
  over one breadth-first step loop.
* :mod:`repro.engine.distributed` — :class:`DistributedBackend` /
  :class:`SocketTransport` / :class:`WorkerServer`, the same units
  dispatched to ``repro worker serve`` hosts over TCP.
* :mod:`repro.engine.aggregate` — ledger merging, percentiles, failure
  counts, and tables for :mod:`repro.analysis.reporting`.

All backends are bit-identical for the same spec; only wall-clock and
memory profiles differ.
"""

from .aggregate import (
    ExperimentResult,
    merge_ledger_stats,
    percentile,
)
from .backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    ShardedBackend,
    default_worker_count,
    make_context,
    run_one_trial,
)
from .batch import BatchBackend
from .costplan import plan_grid, plan_specs, spec_trial_cost
from .dispatch import (
    DispatchError,
    DispatchPlan,
    Envelope,
    InlineTransport,
    PoolTransport,
    Transport,
    WorkUnit,
    run_unit,
    run_unit_timed,
    run_units,
    total_capacity,
)
from .distributed import (
    DistributedBackend,
    SocketTransport,
    WorkerServer,
    parse_hosts,
)
from .engine import BACKEND_NAMES, Engine, get_backend, run_experiment
from .registry import (
    BatchInstance,
    Scenario,
    drive_instance,
    get_runner,
    get_scenario,
    load_builtin_scenarios,
    register,
    runner_names,
    scenario_names,
)
from .scenario import Param, ScenarioError
from .spec import (
    EngineError,
    ExperimentSpec,
    LedgerStats,
    STATS_VERSION,
    TrialContext,
    TrialResult,
    UnitStats,
    WIRE_VERSION,
    WireFormatError,
    result_from_wire,
    result_to_wire,
    spec_from_wire,
    spec_to_wire,
    stats_from_wire,
    stats_to_wire,
)
from .telemetry import (
    LaneReport,
    RunReport,
    RunTelemetry,
    SweepMonitor,
    UnitRecord,
    load_report,
    report_from_wire,
    report_to_wire,
    write_report,
)

__all__ = [
    "BACKEND_NAMES",
    "STATS_VERSION",
    "WIRE_VERSION",
    "BatchBackend",
    "BatchInstance",
    "DispatchError",
    "DispatchPlan",
    "DistributedBackend",
    "Engine",
    "EngineError",
    "Envelope",
    "ExecutionBackend",
    "ExperimentResult",
    "ExperimentSpec",
    "InlineTransport",
    "LaneReport",
    "LedgerStats",
    "Param",
    "PoolTransport",
    "ProcessPoolBackend",
    "RunReport",
    "RunTelemetry",
    "Scenario",
    "ScenarioError",
    "SerialBackend",
    "ShardedBackend",
    "SocketTransport",
    "SweepMonitor",
    "Transport",
    "TrialContext",
    "TrialResult",
    "UnitRecord",
    "UnitStats",
    "WireFormatError",
    "WorkUnit",
    "WorkerServer",
    "default_worker_count",
    "drive_instance",
    "get_backend",
    "get_runner",
    "get_scenario",
    "load_builtin_scenarios",
    "load_report",
    "make_context",
    "merge_ledger_stats",
    "parse_hosts",
    "percentile",
    "plan_grid",
    "plan_specs",
    "register",
    "report_from_wire",
    "report_to_wire",
    "result_from_wire",
    "result_to_wire",
    "run_experiment",
    "run_one_trial",
    "run_unit",
    "run_unit_timed",
    "run_units",
    "runner_names",
    "scenario_names",
    "spec_from_wire",
    "spec_trial_cost",
    "spec_to_wire",
    "stats_from_wire",
    "stats_to_wire",
    "total_capacity",
    "write_report",
]
