"""Tests for Algorithm 5 over the async engine (sparse synchronizer)."""

import hashlib
import json

import pytest

from repro.asynchrony import RandomScheduler, TargetedDelayScheduler
from repro.asynchrony.sparse_aeba import (
    OracleCoinView,
    run_async_sparse_aeba,
)
from repro.asynchrony.scheduler import AsyncAdversary
from repro.engine import ExperimentSpec, SerialBackend, result_to_wire


def test_oracle_coin_is_shared_and_stable():
    coin = OracleCoinView(seed=1)
    assert coin.view(3, 0) == coin.view(3, 7)
    assert coin.view(3, 0) in (0, 1)
    bits = {coin.view(r, 0) for r in range(32)}
    assert bits == {0, 1}


def test_unanimous_inputs_agree_fault_free():
    n = 30
    outcome = run_async_sparse_aeba(n, [1] * n, graph_seed=1)
    assert outcome.agreed_bit == 1
    assert outcome.agreement_fraction == 1.0


def test_split_inputs_converge_with_good_coins():
    n = 30
    inputs = [i % 2 for i in range(n)]
    outcome = run_async_sparse_aeba(
        n, inputs, coin_seed=2, graph_seed=2,
        scheduler=RandomScheduler(2),
    )
    assert outcome.agreed_bit in (0, 1)
    assert outcome.almost_everywhere


def test_random_scheduling_does_not_break_agreement():
    n = 24
    for seed in range(3):
        outcome = run_async_sparse_aeba(
            n, [1] * n, graph_seed=seed,
            scheduler=RandomScheduler(seed),
        )
        assert outcome.agreed_bit == 1
        assert outcome.agreement_fraction == 1.0


def test_starvation_tolerated():
    n = 24
    outcome = run_async_sparse_aeba(
        n, [1] * n, graph_seed=3,
        scheduler=TargetedDelayScheduler(victims={0, 1}, seed=3),
    )
    assert outcome.agreed_bit == 1
    assert outcome.agreement_fraction == 1.0


def test_per_processor_cost_is_subquadratic():
    """The headline: degree x rounds envelopes per processor, not n."""
    n = 40
    outcome = run_async_sparse_aeba(n, [1] * n, graph_seed=4)
    per_round_messages = outcome.degree
    # Each processor sends at most (rounds + 2) * degree envelopes; the
    # whole-run bit count divided by rounds must be O(degree), far
    # below n - 1 messages per round of an all-to-all synchronizer.
    sent = outcome.result.ledger.total_messages() / n
    assert sent <= (outcome.num_rounds + 3) * per_round_messages
    assert outcome.degree < n - 1


def test_cost_scales_with_degree_not_n():
    costs = {}
    for n in (24, 48):
        outcome = run_async_sparse_aeba(
            n, [1] * n, degree=8, num_rounds=8, graph_seed=5
        )
        costs[n] = outcome.max_bits_per_processor
        assert outcome.agreed_bit == 1
    # Doubling n with fixed degree/rounds leaves per-processor cost flat
    # (within envelope-size noise).
    assert costs[48] <= costs[24] * 1.5


class AsyncCrashSome(AsyncAdversary):
    """Crashes a fixed set from the start (silent corruption)."""

    def __init__(self, n, crashed):
        super().__init__(n, budget=len(crashed))
        self._crashed = set(crashed)

    def select_corruptions(self, step):
        return self._crashed

    def on_deliver(self, step, delivered):
        return []


def test_crashes_within_neighborhood_slack_tolerated():
    n = 30
    crashed = {27, 28, 29}
    outcome = run_async_sparse_aeba(
        n, [1] * n, degree=12, num_rounds=8, graph_seed=6,
        adversary=AsyncCrashSome(n, crashed),
        sync_fault_bound=4,
    )
    assert outcome.agreed_bit == 1
    assert outcome.agreement_fraction >= 0.9


def test_input_validation():
    with pytest.raises(ValueError):
        run_async_sparse_aeba(5, [1, 0])


#: sha256 of the serial ``result_to_wire`` envelopes of four
#: ``async-sparse-aeba`` trials (n=24, degree 6, seed 29) per delivery
#: order, recorded before Algorithm 5's processors kept one outbox per
#: vote: the synchronizer wraps those outboxes in envelopes, and the
#: scheduler decides which envelopes a round waits for.
SCHEDULER_DIGESTS = {
    "fifo": "c9209324fd64f4655e2fef9e2c5f5feeda962220453b0bae33f257ddae1bd1c8",
    "random": (
        "99c779eeb1ea35f83fa46cf62705565d0ab3ac7f8b4bd4f0758536db4868438c"
    ),
}


@pytest.mark.parametrize("scheduler", sorted(SCHEDULER_DIGESTS))
def test_scheduler_outcomes_are_pinned(scheduler):
    spec = ExperimentSpec(
        runner="async-sparse-aeba", n=24, trials=4, seed=29,
        params={"degree": 6, "scheduler": scheduler},
    )
    trials = SerialBackend().run_trials(spec)
    wire = json.dumps([result_to_wire(t) for t in trials], sort_keys=True)
    assert hashlib.sha256(wire.encode()).hexdigest() == (
        SCHEDULER_DIGESTS[scheduler]
    )
