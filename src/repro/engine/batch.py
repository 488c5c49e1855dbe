"""Batch backend: many protocol instances over one breadth-first loop.

Monte-Carlo trials of the simulator-backed protocols are dominated by
per-step Python overhead (inbox rebuilds, adversary views, ledger
ticks) rather than by per-message arithmetic.  The batch backend builds
every trial's network up front and drives them *breadth-first*: step 1
of every live instance, then step 2, and so on — one shared loop
instead of ``trials`` nested ones.  A step is a synchronous round of a
:class:`~repro.net.simulator.SyncNetwork` or one delivery of an
:class:`~repro.asynchrony.scheduler.AsyncNetwork`; both expose the same
``steps`` / ``advance()`` / ``result()`` primitives, so one loop
serves both.

Isolation is structural: each instance owns its protocols, its
adversary, and its ledger, so corruption or flooding in one trial cannot
leak into another's accounting (guarded by ``tests/test_engine.py``).

Because instances are mutually independent, interleaving their steps
cannot change any instance's state sequence — each instance runs
exactly the loop its network's ``run(cap)`` runs, so batch results are
bit-identical to serial ones.
"""

from __future__ import annotations

from typing import Dict, List

from .backends import ExecutionBackend
from .dispatch import crashed_trial, make_context, run_one_trial
from .registry import BatchInstance, get_runner
from .spec import ExperimentSpec, TrialResult


class BatchBackend(ExecutionBackend):
    """Multiplex independent trials of a scenario with a builder.

    ``max_live`` bounds how many instances are resident at once (memory
    control for large sweeps); each window of ``max_live`` trials is one
    wave.  Scenarios without a builder fall back to serial execution
    trial by trial.
    """

    name = "batch"

    def __init__(self, max_live: int = 64) -> None:
        if max_live < 1:
            raise ValueError("max_live must be >= 1")
        self.max_live = max_live

    def run_trials(self, spec: ExperimentSpec) -> List[TrialResult]:
        runner = get_runner(spec.runner)
        telemetry = self._begin_telemetry(spec.trials)
        results: List[TrialResult] = []
        if not runner.batchable:
            for i in range(spec.trials):
                with telemetry.span(self.name, 1):
                    results.append(run_one_trial(spec, i))
            telemetry.finish()
            return results
        for start in range(0, spec.trials, self.max_live):
            window = range(
                start, min(start + self.max_live, spec.trials)
            )
            with telemetry.span(self.name, len(window)):
                instances: Dict[int, BatchInstance] = {}
                for i in window:
                    # Same crash containment as run_one_trial: one
                    # trial's broken construction must not kill the
                    # sweep (or skew its wave-mates, which hold
                    # independent networks).
                    try:
                        instances[i] = runner.build_instance(
                            make_context(spec, i)
                        )
                    except Exception as exc:
                        results.append(crashed_trial(spec, i, exc))
                if runner.prepare_wave is not None and instances:
                    try:
                        runner.prepare_wave(list(instances.values()))
                    except Exception as exc:
                        # The hook may have mutated any instance, so
                        # none can be trusted to step.
                        results.extend(
                            crashed_trial(spec, i, exc) for i in instances
                        )
                        instances = {}
                results.extend(self._drive_wave(spec, instances))
        results.sort(key=lambda r: r.trial_index)
        telemetry.finish()
        return results

    def _drive_wave(
        self, spec: ExperimentSpec, instances: Dict[int, BatchInstance]
    ) -> List[TrialResult]:
        """Breadth-first step loop over one wave of live instances.

        Each pass gives every live instance one iteration of the loop
        ``network.run(cap)`` runs: advance while under the cap, else
        finish through ``result()``.
        """
        live = dict(instances)
        finished: List[TrialResult] = []
        while live:
            for index, instance in list(live.items()):
                network = instance.network
                try:
                    if network.steps < instance.max_steps and (
                        network.advance()
                    ):
                        continue
                    finished.append(
                        instance.collect(network.result(), instance.ctx)
                    )
                except Exception as exc:
                    finished.append(crashed_trial(spec, index, exc))
                del live[index]
        return finished
