"""The Engine: run a spec on a backend, get an aggregated result.

Thin by design — the spec layer owns determinism, backends own
execution, the aggregate layer owns statistics.  The engine wires them
together, keeps the timing honest, and guarantees that a backend's
held resources (pools, sockets) are released when a run dies on an
error path.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Optional, Sequence, Union

from .aggregate import ExperimentResult
from .backends import ExecutionBackend, ProcessPoolBackend, SerialBackend
from .batch import BatchBackend
from .distributed import DistributedBackend
from .registry import get_runner
from .spec import EngineError, ExperimentSpec

#: Names accepted by :func:`get_backend` (and the CLI / conftest flags).
BACKEND_NAMES = ("serial", "process", "batch", "distributed")


def get_backend(
    name: str,
    workers: Optional[int] = None,
    unit_size: Optional[int] = None,
    hosts: Optional[Sequence[str]] = None,
    lane_depth: Optional[int] = None,
) -> ExecutionBackend:
    """Construct a backend from its CLI name.

    ``unit_size`` (trials per dispatched unit) applies to both sharded
    backends — process and distributed; ``lane_depth`` is the
    distributed transport's pipelined in-flight window per lane
    (``--lane-depth``).  Backends ignore what does not apply to them.
    """
    if name == "serial":
        return SerialBackend()
    if name == "process":
        return ProcessPoolBackend(workers=workers, unit_size=unit_size)
    if name == "batch":
        return BatchBackend()
    if name == "distributed":
        if not hosts:
            raise EngineError(
                "distributed backend needs worker hosts "
                "(--hosts host:port[,host:port...])"
            )
        kwargs = {} if lane_depth is None else {"lane_depth": lane_depth}
        return DistributedBackend(hosts=hosts, unit_size=unit_size, **kwargs)
    raise EngineError(
        f"unknown backend {name!r} (choose from {', '.join(BACKEND_NAMES)})"
    )


class Engine:
    """Runs experiment specs on a pluggable backend.

    Also a context manager: ``with Engine("distributed", ...) as eng``
    closes the backend (idempotently) on exit, releasing pools and
    sockets deterministically.
    """

    def __init__(
        self, backend: Union[str, ExecutionBackend, None] = None
    ) -> None:
        if backend is None:
            backend = SerialBackend()
        elif isinstance(backend, str):
            backend = get_backend(backend)
        self.backend = backend

    def run(self, spec: ExperimentSpec) -> ExperimentResult:
        """Execute every trial of ``spec`` and aggregate the results.

        The spec's parameters are validated against the scenario's
        declared schema before anything runs: unknown keys, ill-typed
        values and cross-field violations (the scenario's ``check``
        hook, run against the spec's ``n``) raise
        :class:`~repro.engine.scenario.ScenarioError` (coercion never
        touches trial seeds, which derive from the master seed and
        trial index alone).

        If the backend raises mid-run, its resources are released
        (``backend.close()``, idempotent) before the error propagates —
        no orphaned pools or half-open worker sockets on error paths.
        """
        runner = get_runner(spec.runner)
        validated = runner.validate(spec.param_dict(), n=spec.n)
        if validated != spec.param_dict():
            spec = dataclasses.replace(spec, params=validated)
        start = time.perf_counter()
        try:
            trials = self.backend.run_trials(spec)
        except BaseException:
            self.backend.close()
            raise
        elapsed = time.perf_counter() - start
        # Freeze the backend's telemetry (if it kept any) into the
        # result's mergeable report; custom backends without the
        # attribute simply yield report=None.
        telemetry = getattr(self.backend, "telemetry", None)
        report = telemetry.report(trials) if telemetry is not None else None
        return ExperimentResult(
            spec=spec,
            backend=self.backend.name,
            trials=trials,
            elapsed_seconds=elapsed,
            report=report,
        )

    def run_grid(
        self, specs: Sequence[ExperimentSpec]
    ) -> List[ExperimentResult]:
        """Execute several specs as one sweep; one result per spec.

        Validation is exactly :meth:`run`'s, per spec.  Execution goes
        through the backend's ``run_grid`` — for the sharded backends
        a *fused* sweep in which every spec's units share one
        transport, sized by predicted per-trial cost when every spec
        has a cost model and the backend fixes no unit size (uniform
        geometry otherwise).  Results are bit-identical to running the
        specs one at a time; ``elapsed_seconds`` and the telemetry
        report are whole-grid figures, repeated on each result, because
        the fused sweep has no per-spec clock.
        """
        validated_specs: List[ExperimentSpec] = []
        for spec in specs:
            runner = get_runner(spec.runner)
            validated = runner.validate(spec.param_dict(), n=spec.n)
            if validated != spec.param_dict():
                spec = dataclasses.replace(spec, params=validated)
            validated_specs.append(spec)
        start = time.perf_counter()
        try:
            per_spec = self.backend.run_grid(validated_specs)
        except BaseException:
            self.backend.close()
            raise
        elapsed = time.perf_counter() - start
        telemetry = getattr(self.backend, "telemetry", None)
        merged = [r for trials in per_spec for r in trials]
        report = (
            telemetry.report(merged) if telemetry is not None else None
        )
        return [
            ExperimentResult(
                spec=spec,
                backend=self.backend.name,
                trials=trials,
                elapsed_seconds=elapsed,
                report=report,
            )
            for spec, trials in zip(validated_specs, per_spec)
        ]

    def close(self) -> None:
        """Release the backend's resources (idempotent)."""
        self.backend.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def run_experiment(
    spec: ExperimentSpec,
    backend: Union[str, ExecutionBackend, None] = None,
) -> ExperimentResult:
    """One-call convenience: ``Engine(backend).run(spec)``."""
    return Engine(backend).run(spec)
