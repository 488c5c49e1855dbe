"""Async backend: many asynchronous protocol instances, one step loop.

The asynchronous analogue of :mod:`repro.engine.batch`: scenarios that
declare ``build_async_instance`` hand back a ready
:class:`~repro.asynchrony.scheduler.AsyncNetwork` plus a collector, and
this backend drives many of them *breadth-first* — delivery step 1 of
every live instance, then step 2, and so on — closing the ROADMAP open
item of driving the asynchronous scheduler behind the same
:class:`~repro.engine.backends.ExecutionBackend` seam.

Determinism is inherited, not re-implemented: every per-trial random
choice (scheduler order, private coins, oracle bits) forks from the
trial seed that :class:`~repro.engine.spec.ExperimentSpec` derives, and
each instance owns its scheduler, adversary, and ledger.  Interleaving
delivery steps of mutually independent networks cannot change any
network's delivery sequence, so async-backend results are bit-identical
to the serial path (``run_trial`` derived from the same builder) — the
same argument, and the same tests, as the batch backend.

Scenarios without an async builder fall back to serial execution trial
by trial, mirroring :class:`~repro.engine.batch.BatchBackend`.

:func:`run_wave` is the wave driver behind the dispatch plane's
unified worker entry (:func:`~repro.engine.dispatch.run_unit`, mode
``wave``), which the sharded backends execute on their workers: it
rebuilds the scenario *by name* from the registry (so it works under
the ``spawn`` start method — and on remote hosts — which inherit
nothing from the parent) and drives one wave of trial indices through
a local breadth-first step loop.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from .backends import ExecutionBackend, make_context, run_one_trial
from .batch import _prepare_wave
from .registry import AsyncInstance, resolve_cached
from .spec import EngineError, ExperimentSpec, TrialResult


def _failed_result(
    spec: ExperimentSpec, trial_index: int, exc: Exception
) -> TrialResult:
    """The same crash containment :func:`run_one_trial` applies."""
    return TrialResult(
        trial_index=trial_index,
        seed=spec.trial_seed(trial_index),
        metrics=(),
        ok=False,
        failure=f"{type(exc).__name__}: {exc}",
    )


class AsyncBackend(ExecutionBackend):
    """Multiplex independent trials of scheduler-driven scenarios.

    ``max_live`` bounds how many instances are resident at once (memory
    control for large sweeps), exactly as in the batch backend.
    """

    name = "async"

    def __init__(self, max_live: int = 64) -> None:
        if max_live < 1:
            raise ValueError("max_live must be >= 1")
        self.max_live = max_live

    def run_trials(self, spec: ExperimentSpec) -> List[TrialResult]:
        runner = resolve_cached(spec.runner)
        telemetry = self._begin_telemetry(spec.trials)
        results: List[TrialResult] = []
        if runner.build_async_instance is None:
            for i in range(spec.trials):
                with telemetry.span(self.name, 1):
                    results.append(run_one_trial(spec, i))
        else:
            # One span per max_live window — the same granularity the
            # sharded backends observe per wave unit.
            for start in range(0, spec.trials, self.max_live):
                window = range(
                    start, min(start + self.max_live, spec.trials)
                )
                with telemetry.span(self.name, len(window), mode="wave"):
                    results.extend(self.run_indices(spec, window))
        telemetry.finish()
        return results

    def run_indices(
        self, spec: ExperimentSpec, indices: Iterable[int]
    ) -> List[TrialResult]:
        """Drive the given trial indices, ``max_live`` at a time.

        The unit the sharded backends ship: a wave of trial indices of
        one spec, multiplexed breadth-first, returned in index order.
        Requires an asynchronous scenario.  Resolution is memoised per
        process, so a pool worker driving many waves of the same spec
        resolves the scenario name exactly once.
        """
        runner = resolve_cached(spec.runner)
        if runner.build_async_instance is None:
            raise EngineError(
                f"scenario {spec.runner!r} declares no async builder"
            )
        ordered = sorted(indices)
        results: List[TrialResult] = []
        for start in range(0, len(ordered), self.max_live):
            window = ordered[start : start + self.max_live]
            instances: Dict[int, AsyncInstance] = {}
            for i in window:
                # One trial's broken construction must not kill the
                # sweep (or skew its wave-mates, which hold independent
                # networks).
                try:
                    instances[i] = runner.build_async_instance(
                        make_context(spec, i)
                    )
                except Exception as exc:
                    results.append(_failed_result(spec, i, exc))
            instances = _prepare_wave(runner, spec, instances, results)
            results.extend(self._drive_wave(spec, instances))
        results.sort(key=lambda r: r.trial_index)
        return results

    def _drive_wave(
        self, spec: ExperimentSpec, instances: Dict[int, AsyncInstance]
    ) -> List[TrialResult]:
        """Breadth-first delivery loop over one wave of live instances."""
        live = dict(instances)
        finished: Dict[int, TrialResult] = {}
        while live:
            done: List[int] = []
            for index in sorted(live):
                instance = live[index]
                network = instance.network
                try:
                    # begin() is idempotent; calling it before the step-
                    # cap check keeps a zero-step instance identical to
                    # the serial path (run() starts processes even when
                    # it delivers nothing).
                    network.begin()
                    over = (
                        network.steps >= instance.max_steps
                        or not network.advance()
                    )
                    if over:
                        finished[index] = instance.collect(
                            network.result(), instance.ctx
                        )
                        done.append(index)
                except Exception as exc:
                    finished[index] = _failed_result(spec, index, exc)
                    done.append(index)
            for index in done:
                del live[index]
        return [finished[index] for index in sorted(finished)]


def run_wave(
    spec: ExperimentSpec,
    indices: Sequence[int],
    max_live: Optional[int] = None,
) -> List[TrialResult]:
    """Wave driver: rebuild the scenario by name, drive one wave.

    This is what the dispatch plane's worker entry
    (:func:`~repro.engine.dispatch.run_unit`) executes for ``wave``
    work units — on a pool worker or a remote ``repro worker
    serve`` host alike.  ``spec`` crosses the boundary as plain data;
    the scenario is resolved from the registry *inside the worker*
    (:func:`~repro.engine.registry.get_runner` loads the built-ins on
    first lookup), so the function is start-method and host agnostic —
    ``spawn`` workers, which inherit no parent state, run it
    identically to ``fork`` workers.  Trial seeds derive from the spec
    alone, so the wave's results are bit-identical to the serial path
    regardless of which worker runs which wave.

    ``max_live`` bounds resident instances within the wave; ``None``
    multiplexes the whole wave at once.
    """
    live = max_live if max_live is not None else max(1, len(indices))
    return AsyncBackend(max_live=live).run_indices(spec, indices)
