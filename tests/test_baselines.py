"""Tests for the baseline agreement protocols (benchmark E12 comparators)."""

import random

import pytest

from repro.adversary.behaviors import (
    AntiMajorityBehavior,
    EquivocatingBehavior,
    SilentBehavior,
)
from repro.adversary.static import StaticByzantineAdversary
from repro.baselines.benor import benor_fault_bound, run_benor
from repro.baselines.phase_king import (
    phase_king_fault_bound,
    run_phase_king,
)
from repro.baselines.rabin import run_rabin


class TestPhaseKing:
    def test_fault_bound(self):
        assert phase_king_fault_bound(4) == 0
        assert phase_king_fault_bound(5) == 1
        assert phase_king_fault_bound(20) == 4

    def test_fault_free_unanimous(self):
        for bit in (0, 1):
            result = run_phase_king(12, [bit] * 12)
            values = set(result.good_outputs().values())
            assert values == {bit}

    def test_fault_free_split_agrees(self):
        result = run_phase_king(12, [p % 2 for p in range(12)])
        values = set(result.good_outputs().values())
        assert len(values) == 1

    def test_tolerates_byzantine_minority(self):
        n = 21
        f = phase_king_fault_bound(n)
        adversary = StaticByzantineAdversary(
            n, targets=set(range(f)), behavior=EquivocatingBehavior(),
            seed=1,
        )
        result = run_phase_king(n, [1] * n, adversary=adversary)
        good_values = set(result.good_outputs().values())
        assert good_values == {1}  # validity + agreement

    def test_anti_majority_adversary(self):
        n = 21
        f = phase_king_fault_bound(n)
        adversary = StaticByzantineAdversary(
            n, targets=set(range(f)), behavior=AntiMajorityBehavior(),
            seed=2,
        )
        result = run_phase_king(n, [p % 2 for p in range(n)], adversary=adversary)
        assert len(set(result.good_outputs().values())) == 1

    def test_scenario_adversary_speaks_the_protocols_vote_tag(self):
        """The phase-king scenario's static adversary must send what
        the protocol reads: ``fixed0`` drives every split-input trial
        to 0, which a silent (crash) adversary does not."""
        from repro.engine import ExperimentSpec, SerialBackend

        def decided(behavior):
            spec = ExperimentSpec(
                runner="phase-king", n=16, trials=20, seed=5,
                params={
                    "behavior": behavior, "corrupt": 0.3, "inputs": "split",
                },
            )
            trials = SerialBackend().run_trials(spec)
            assert all(trial.ok for trial in trials)
            return [dict(trial.metrics)["value"] for trial in trials]

        silent = decided("silent")
        assert decided("fixed0") == [0.0] * 20
        assert decided("fixed1") == [1.0] * 20
        assert 0.0 in silent and 1.0 in silent

    def test_quadratic_bits(self):
        """Per-processor bits grow ~n^2: the barrier the paper breaks."""
        costs = {}
        for n in (8, 16, 32):
            result = run_phase_king(n, [1] * n)
            costs[n] = result.ledger.max_bits_per_processor()
        # Doubling n should much-more-than-double per-processor bits.
        assert costs[16] > 3 * costs[8]
        assert costs[32] > 3 * costs[16]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            run_phase_king(4, [1, 0])


class TestRabin:
    def test_fault_free_unanimous(self):
        for bit in (0, 1):
            result = run_rabin(16, [bit] * 16, seed=3)
            assert set(result.good_outputs().values()) == {bit}

    def test_split_inputs_converge(self):
        result = run_rabin(16, [p % 2 for p in range(16)], seed=4)
        values = set(result.good_outputs().values())
        assert len(values) == 1

    def test_fast_rounds(self):
        """O(1) expected rounds with the trusted coin."""
        result = run_rabin(32, [p % 2 for p in range(32)], seed=5)
        assert result.rounds < 16

    def test_tolerates_minority(self):
        n = 20
        adversary = StaticByzantineAdversary(
            n, targets=set(range(4)), behavior=AntiMajorityBehavior(),
            seed=6,
        )
        result = run_rabin(n, [1] * n, adversary=adversary, seed=7)
        assert set(result.good_outputs().values()) == {1}

    def test_input_validation(self):
        with pytest.raises(ValueError):
            run_rabin(4, [1])


class TestBenOr:
    def test_fault_bound(self):
        assert benor_fault_bound(5) == 0
        assert benor_fault_bound(6) == 1
        assert benor_fault_bound(26) == 5

    def test_fault_free_unanimous(self):
        for bit in (0, 1):
            result = run_benor(15, [bit] * 15, seed=8)
            assert set(result.good_outputs().values()) == {bit}

    def test_split_inputs_eventually_converge(self):
        result = run_benor(
            15, [p % 2 for p in range(15)], max_phases=128, seed=9
        )
        values = set(result.good_outputs().values())
        assert len(values) == 1

    def test_silent_faults(self):
        n = 16
        adversary = StaticByzantineAdversary(
            n, targets={0, 1}, behavior=SilentBehavior(), seed=10
        )
        result = run_benor(n, [1] * n, adversary=adversary, seed=11)
        assert set(result.good_outputs().values()) == {1}

    def test_slower_than_rabin_on_splits(self):
        """The global coin's value: Rabin converges in O(1) rounds where
        local-coin Ben-Or wanders."""
        n = 20
        rabin_rounds = []
        benor_rounds = []
        for seed in range(5):
            r = run_rabin(n, [p % 2 for p in range(n)], seed=seed)
            b = run_benor(
                n, [p % 2 for p in range(n)], max_phases=256, seed=seed
            )
            rabin_rounds.append(r.rounds)
            benor_rounds.append(b.rounds)
        assert sum(rabin_rounds) <= sum(benor_rounds)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            run_benor(4, [1])
