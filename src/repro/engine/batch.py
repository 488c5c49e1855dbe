"""Batch backend: many protocol instances over one simulated round loop.

Monte-Carlo trials of the simulator-backed protocols are dominated by
per-round Python overhead (inbox rebuilds, adversary views, ledger
ticks) rather than by per-message arithmetic.  The batch backend builds
every trial's :class:`~repro.net.simulator.SyncNetwork` up front and
drives them *breadth-first*: round 1 of every live instance, then round
2, and so on — one shared loop instead of ``trials`` nested ones.  This
is the sharding/batching seam from the ROADMAP: the same breadth-first
schedule is what an async or vectorised backend would consume, with the
per-round barrier already explicit.

Isolation is structural: each instance owns its protocols, its
adversary, and its ledger, so corruption or flooding in one trial cannot
leak into another's accounting (guarded by ``tests/test_engine.py``).

Because instances are mutually independent, interleaving their rounds
cannot change any instance's state sequence — each instance sees exactly
the step sequence :meth:`SyncNetwork.run` would have given it, so batch
results are bit-identical to serial ones.
"""

from __future__ import annotations

from typing import Dict, List

from .backends import ExecutionBackend, make_context, run_one_trial
from .registry import BatchInstance, get_runner
from .spec import ExperimentSpec, TrialResult


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


def _prepare_wave(runner, spec: ExperimentSpec, instances, results):
    """Run the scenario's wave-bulk hook over one wave's instances.

    Shared by the batch and async backends: the hook sees the wave's
    instances in trial-index order, after construction and before the
    first step.  A hook exception fails the whole wave (the hook may
    have mutated any instance, so none can be trusted to step).
    """
    if runner.prepare_wave is None or not instances:
        return instances
    try:
        runner.prepare_wave(
            [instances[i] for i in sorted(instances)]
        )
    except Exception as exc:
        for i in sorted(instances):
            results.append(_failed_result(spec, i, exc))
        return {}
    return instances


class BatchBackend(ExecutionBackend):
    """Multiplex independent trials of a batchable runner.

    ``max_live`` bounds how many instances are resident at once (memory
    control for large sweeps); runners without a batch builder fall back
    to serial execution trial by trial.
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
            with telemetry.span(self.name, len(window), mode="wave"):
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
                        results.append(_failed_result(spec, i, exc))
                instances = _prepare_wave(
                    runner, spec, instances, results
                )
                results.extend(self._drive_wave(spec, instances))
        results.sort(key=lambda r: r.trial_index)
        telemetry.finish()
        return results

    def _drive_wave(
        self, spec: ExperimentSpec, instances: Dict[int, BatchInstance]
    ) -> List[TrialResult]:
        """Breadth-first round loop over one wave of live instances."""
        live = dict(instances)
        rounds_done = {index: 0 for index in live}
        finished: Dict[int, TrialResult] = {}
        while live:
            done: List[int] = []
            for index in sorted(live):
                instance = live[index]
                network = instance.network
                round_no = rounds_done[index] + 1
                try:
                    network.step(round_no)
                    rounds_done[index] = round_no
                    halted = network.all_good_decided()
                    if halted or round_no >= instance.max_rounds:
                        finished[index] = instance.collect(
                            network.collect_result(round_no, halted),
                            instance.ctx,
                        )
                        done.append(index)
                except Exception as exc:
                    finished[index] = _failed_result(spec, index, exc)
                    done.append(index)
            for index in done:
                del live[index]
        return [finished[index] for index in sorted(finished)]
