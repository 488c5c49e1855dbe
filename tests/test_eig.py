"""Tests for the EIG baseline."""

import hashlib
import json
from collections import Counter

import pytest

from repro.adversary.behaviors import EquivocatingBehavior, SilentBehavior
from repro.adversary.static import StaticByzantineAdversary
from repro.baselines.eig import (
    EIGProcessor,
    EIGRelayAdversary,
    eig_fault_bound,
    run_eig,
)
from repro.engine import ExperimentSpec, SerialBackend
from repro.engine.spec import result_to_wire
from repro.net.simulator import AdversaryView


class TestFaultBound:
    def test_thirds(self):
        assert eig_fault_bound(3) == 0
        assert eig_fault_bound(4) == 1
        assert eig_fault_bound(7) == 2
        assert eig_fault_bound(10) == 3


class TestFaultFree:
    def test_unanimous(self):
        for bit in (0, 1):
            result = run_eig(7, [bit] * 7)
            assert set(result.good_outputs().values()) == {bit}

    def test_split_agrees(self):
        result = run_eig(7, [p % 2 for p in range(7)])
        assert len(set(result.good_outputs().values())) == 1

    def test_zero_fault_trivial(self):
        result = run_eig(3, [1, 1, 0])
        assert len(set(result.good_outputs().values())) == 1


class TestByzantine:
    def test_tolerates_t_silent(self):
        n, t = 7, 2
        adversary = StaticByzantineAdversary(
            n, targets=set(range(t)), behavior=SilentBehavior(), seed=1
        )
        result = run_eig(n, [1] * n, adversary=adversary)
        assert set(result.good_outputs().values()) == {1}

    def test_tolerates_equivocators(self):
        n, t = 7, 2
        adversary = EIGRelayAdversary(
            n,
            targets=set(range(t)),
            behavior=EquivocatingBehavior(),
            seed=2,
            t=t,
        )
        result = run_eig(n, [1] * n, adversary=adversary)
        assert set(result.good_outputs().values()) == {1}
        silent = StaticByzantineAdversary(
            n, targets=set(range(t)), behavior=SilentBehavior()
        )
        # Good processors relay what they heard from the equivocators.
        assert result.ledger.total_bits() > (
            run_eig(n, [1] * n, adversary=silent).ledger.total_bits()
        )

    def test_relays_the_paths_a_good_processor_relays(self):
        n, t = 5, 1
        adversary = EIGRelayAdversary(
            n, targets={0}, behavior=EquivocatingBehavior(), t=t
        )

        def relays(round_no):
            view = AdversaryView(round_no, {0}, [], n)
            return [
                (m.recipient, m.tag, tuple(m.payload[0]), m.payload[1])
                for m in adversary.act(view)
            ]

        assert relays(1) == [(r, "eig", (), r % 2) for r in range(1, 5)]
        assert relays(2) == [
            (r, "eig", (p,), r % 2)
            for r in range(1, 5)
            for p in range(1, 5)
        ]
        assert relays(3) == []  # past round t + 1 no good processor relays


BEHAVIORS = (
    "silent", "fixed0", "fixed1", "random", "equivocate",
    "anti_majority", "keep_split",
)


def _eig_trials(behavior, inputs, seed):
    spec = ExperimentSpec(
        runner="eig", n=7, trials=4, seed=seed,
        params={"corrupt": 0.15, "inputs": inputs, "behavior": behavior},
    )
    return SerialBackend().run_trials(spec)


def _digest(results):
    wire = json.dumps([result_to_wire(r) for r in results], sort_keys=True)
    return hashlib.sha256(wire.encode()).hexdigest()


class TestScenarioAdversary:
    """The eig scenario's corrupted processor speaks EIG, so each
    behaviour reaches the protocol (n=7, t=2, one corrupted)."""

    @pytest.mark.parametrize("behavior", BEHAVIORS)
    def test_agreement_and_validity_under_every_behavior(self, behavior):
        for seed in range(6):
            assert all(r.ok for r in _eig_trials(behavior, "split", seed))
            for r in _eig_trials(behavior, "ones", seed):
                assert r.ok and dict(r.metrics)["value"] == 1.0

    def test_behaviors_change_the_outcome(self):
        silent = _digest(_eig_trials("silent", "split", 5))
        # Corrupted processors that say nothing send what they always did.
        assert silent == (
            "407b87346c5072a58d0a4abb61b8aac9f4dd61a1f180381827530695377e63e2"
        )
        for behavior in ("fixed0", "fixed1", "equivocate"):
            assert _digest(_eig_trials(behavior, "split", 5)) != silent
        fixed0 = _eig_trials("fixed0", "split", 5)
        assert [dict(r.metrics)["value"] for r in fixed0] == [0.0] * 4


class TestAntiMajorityReadsTheRelays:
    def test_each_push_opposes_the_rounds_relayed_majority(
        self, monkeypatch
    ):
        """Anti-majority tallies the values relayed to the corrupted
        processor in each round and pushes the other bit, one bit per
        round (n=7, t=2, one corrupted, split inputs), and EIG still
        agrees."""
        rounds = []
        act = EIGRelayAdversary.act

        def watched(adversary, view):
            messages = act(adversary, view)
            relayed = Counter(
                m.payload[1] for m in view.inbound
                if m.tag == "eig" and len(m.payload[0]) == view.round_no - 1
            )
            rounds.append((relayed, {m.payload[1] for m in messages}))
            return messages

        monkeypatch.setattr(EIGRelayAdversary, "act", watched)
        for seed in range(6):
            for r in _eig_trials("anti_majority", "split", seed):
                assert r.ok and dict(r.metrics)["value"] in (0.0, 1.0)
        opposed = 0
        for relayed, pushed in rounds:
            if not relayed:
                assert pushed == set()
                continue
            assert len(pushed) == 1
            if relayed[0] != relayed[1]:
                majority = 0 if relayed[0] > relayed[1] else 1
                assert pushed == {1 - majority}
                opposed += 1
        # Three relay rounds per trial, 24 trials.
        assert sum(1 for relayed, _ in rounds if relayed) == 72
        assert opposed > 0


class TestExponentialCost:
    def test_message_volume_explodes(self):
        """The reason EIG died: per-processor bits grow super-quadratically
        with n at full resilience."""
        costs = {}
        for n in (4, 7, 10):
            result = run_eig(n, [1] * n)
            costs[n] = result.ledger.max_bits_per_processor()
        assert costs[7] > 4 * costs[4]
        assert costs[10] > 4 * costs[7]

    def test_rounds_are_t_plus_one(self):
        result = run_eig(7, [1] * 7)
        assert result.rounds == eig_fault_bound(7) + 2  # + resolve round


class TestValidation:
    def test_input_length(self):
        with pytest.raises(ValueError):
            run_eig(4, [1])

    def test_tree_pruning(self):
        """Paths never repeat a relayer."""
        proc = EIGProcessor(0, 5, 1, t=2)
        messages = proc.on_round(1, [])
        for m in messages:
            path, _value = m.payload
            assert 0 not in path
