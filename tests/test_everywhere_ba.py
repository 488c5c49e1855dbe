"""End-to-end tests for Theorem 1's Everywhere Byzantine Agreement."""

import pytest

from repro.adversary.adaptive import BinStuffingAdversary
from repro.core.byzantine_agreement import run_everywhere_ba
from repro.engine import (
    ExperimentSpec,
    LedgerStats,
    SerialBackend,
    TrialContext,
    get_scenario,
)

N = 27


@pytest.fixture(scope="module")
def fault_free():
    return run_everywhere_ba(N, inputs=[1] * N, seed=101)


class TestFaultFree:
    def test_success(self, fault_free):
        assert fault_free.success()

    def test_validity(self, fault_free):
        assert fault_free.bit == 1
        assert fault_free.is_valid()

    def test_coin_subsequence_mostly_good(self, fault_free):
        # Fault-free, every revealed coin word is genuinely random.
        assert fault_free.coin.good_fraction() == 1.0

    def test_everyone_decided(self, fault_free):
        for pid, value in fault_free.ae2e_result.decided.items():
            assert value == fault_free.bit

    def test_bits_accounted_for_both_phases(self, fault_free):
        # Tournament and push-phase traffic both appear per processor.
        assert fault_free.max_bits_per_processor() > 0
        ae_bits = fault_free.ae_result.ledger.sent_bits
        ae2e_bits = fault_free.ae2e_result.sent_bits
        for p in range(N):
            combined = fault_free.bits_per_processor[p]
            assert combined == ae_bits.get(p, 0) + ae2e_bits.get(p, 0)

    def test_rounds_tracked(self, fault_free):
        assert fault_free.total_rounds() > 0


class TestZeroInput:
    def test_agrees_on_zero(self):
        result = run_everywhere_ba(N, inputs=[0] * N, seed=102)
        assert result.bit == 0
        assert result.success()


class TestWithAdversary:
    def test_moderate_adversary_success(self):
        adv = BinStuffingAdversary(N, budget=3, seed=103)
        result = run_everywhere_ba(
            N, inputs=[1] * N, tournament_adversary=adv, seed=104
        )
        # Validity always; agreement among good processors.
        assert result.bit == 1
        good_decided = [
            v
            for p, v in result.ae2e_result.decided.items()
            if p not in result.corrupted
        ]
        agreeing = sum(1 for v in good_decided if v == 1)
        assert agreeing >= 0.9 * len(good_decided)

    def test_no_good_processor_decides_wrong(self):
        """Lemma 7(2) end to end: decide M or stay undecided — never the
        forged message."""
        adv = BinStuffingAdversary(N, budget=4, seed=105)
        result = run_everywhere_ba(
            N, inputs=[1] * N, tournament_adversary=adv, seed=106
        )
        forged = 1 - result.bit
        for p, v in result.ae2e_result.decided.items():
            if p not in result.corrupted:
                assert v != forged


class TestDeterminism:
    def test_reproducible(self):
        a = run_everywhere_ba(N, inputs=[1] * N, seed=107)
        b = run_everywhere_ba(N, inputs=[1] * N, seed=107)
        assert a.bit == b.bit
        assert a.bits_per_processor == b.bits_per_processor


#: Literal per-trial outcomes of three adversarial sweeps.  The first two
#: were recorded before the windowed Reed-Solomon decoder and the
#: per-call decode memo in ``send_down`` landed, and must return exactly
#: what the key-equation solve returned, so these values must never
#: move.  The first spec is the end-to-end benchmark's
#: ``eba-n9-adaptive`` shape; in the second, most decodes still reach
#: the key-equation solve.  The third runs the scenario's smoke size,
#: n=27, under corruption; it was recorded before ``send_down`` grouped
#: dealings by holder structure.  Phase bits (the tournament's phases
#: plus Algorithm 3's ``ae2e_push``) count every sender, corrupted ones
#: included, so under corruption they exceed the good-processor total.
PINNED_SWEEPS = [
    (
        dict(n=9, trials=2, corrupt=0.1),
        [
            LedgerStats(
                10767274, 15257, 1950999, 23,
                (
                    ("ae2e_push", 14008),
                    ("agree_level_2", 1728),
                    ("default", 16920),
                    ("expose_level_2", 1439892),
                    ("output_reveal", 7513044),
                    ("root_agreement", 288),
                    ("root_reveal", 3756522),
                    ("send_up_level_1", 135360),
                    ("send_up_level_2", 360960),
                ),
            ),
            LedgerStats(
                10894268, 15276, 2225902, 23,
                (
                    ("ae2e_push", 14008),
                    ("agree_level_2", 1728),
                    ("default", 16920),
                    ("expose_level_2", 1441396),
                    ("output_reveal", 7451944),
                    ("root_agreement", 288),
                    ("root_reveal", 3725972),
                    ("send_up_level_1", 135360),
                    ("send_up_level_2", 360960),
                ),
            ),
        ],
    ),
    (
        dict(n=12, trials=1, corrupt=0.25),
        [
            LedgerStats(
                44976251, 89127, 6236605, 35,
                (
                    ("ae2e_push", 11187),
                    ("agree_level_2", 3024),
                    ("agree_level_3", 4032),
                    ("default", 42300),
                    ("expose_level_2", 1475424),
                    ("expose_level_3", 23076718),
                    ("output_reveal", 25385452),
                    ("root_agreement", 252),
                    ("root_reveal", 12692726),
                    ("send_up_level_1", 338400),
                    ("send_up_level_2", 1323520),
                    ("send_up_level_3", 1925120),
                ),
            ),
        ],
    ),
    (
        dict(n=27, trials=1, corrupt=0.1),
        [
            LedgerStats(
                144002963, 223243, 8255360, 40,
                (
                    ("ae2e_push", 126502),
                    ("agree_level_2", 18750),
                    ("agree_level_3", 45000),
                    ("default", 95175),
                    ("expose_level_2", 3790644),
                    ("expose_level_3", 50664355),
                    ("output_reveal", 63332594),
                    ("root_agreement", 1500),
                    ("root_reveal", 31666297),
                    ("send_up_level_1", 761400),
                    ("send_up_level_2", 2977920),
                    ("send_up_level_3", 2887680),
                ),
            ),
        ],
    ),
]


def test_phase_bits_sum_to_total_bits_without_corruption():
    """The scenario attributes every bit to a phase: the tournament's
    own phases plus one ``ae2e_push`` entry for Algorithm 3."""
    direct = run_everywhere_ba(9, [p % 2 for p in range(9)], seed=3)
    spec = ExperimentSpec(
        runner="everywhere-ba", n=9, trials=1, params={"inputs": "split"}
    )
    ledger = get_scenario("everywhere-ba").run_trial(
        TrialContext(spec, 0, 3)
    ).ledger
    phases = dict(ledger.phase_bits)
    assert phases.pop("ae2e_push") == 8_136
    assert phases == direct.ae_result.ledger.phase_breakdown()
    assert sum(phases.values()) == 13_157_850
    assert ledger.total_bits == 13_165_986
    assert sum(bits for _, bits in ledger.phase_bits) == ledger.total_bits


@pytest.mark.parametrize("shape, expected", PINNED_SWEEPS)
def test_adversarial_sweep_outcomes_are_pinned(shape, expected):
    spec = ExperimentSpec(
        runner="everywhere-ba", n=shape["n"], trials=shape["trials"],
        seed=11,
        params={
            "adversary": "bin-stuffing",
            "corrupt": shape["corrupt"],
            "inputs": "split",
        },
    )
    trials = SerialBackend().run_trials(spec)
    assert [
        (trial.ok, trial.metrics, trial.ledger) for trial in trials
    ] == [
        (
            True,
            (
                ("agreement", 1.0),
                ("bit", 0.0),
                ("max_bits_per_processor", ledger.max_bits_per_processor),
                ("rounds", ledger.rounds),
                ("valid", 1.0),
            ),
            ledger,
        )
        for ledger in expected
    ]
