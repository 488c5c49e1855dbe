"""Tests for Algorithm 5: AEBA with unreliable global coins (Theorem 5)."""

import random

import pytest

from repro.adversary.behaviors import (
    AntiMajorityBehavior,
    EquivocatingBehavior,
    SilentBehavior,
    behavior_by_name,
)
from repro.adversary.static import StaticByzantineAdversary
from repro.core.coins import perfect_coin_source, unreliable_coin_source
from repro.core.unreliable_coin_ba import (
    SparseAEBAProcessor,
    aeba_vote_update,
    majority_and_fraction,
    run_aeba_dataflow,
    run_unreliable_coin_ba,
    vote_threshold,
)
from repro.net.simulator import SyncNetwork


class TestPureFunctions:
    def test_majority_empty(self):
        assert majority_and_fraction([]) == (0, 0.0)

    def test_majority_basic(self):
        assert majority_and_fraction([1, 1, 0]) == (1, pytest.approx(2 / 3))

    def test_majority_tie_prefers_one(self):
        maj, frac = majority_and_fraction([0, 1])
        assert maj == 1
        assert frac == 0.5

    def test_threshold_formula(self):
        assert vote_threshold(0.1, 0.0) == pytest.approx(2 / 3 + 0.05)
        assert vote_threshold(0.1, 0.1) < vote_threshold(0.1, 0.0)

    def test_update_takes_majority_above_threshold(self):
        votes = [1] * 9 + [0]
        assert aeba_vote_update(0, votes, coin=0, threshold=0.7) == 1

    def test_update_takes_coin_below_threshold(self):
        votes = [1] * 5 + [0] * 5
        assert aeba_vote_update(1, votes, coin=0, threshold=0.7) == 0
        assert aeba_vote_update(0, votes, coin=1, threshold=0.7) == 1


class TestFaultFree:
    def test_validity_unanimous_input(self):
        """All good processors start with b -> all commit b."""
        n = 40
        source = perfect_coin_source(n, 6, random.Random(0))
        for bit in (0, 1):
            result = run_unreliable_coin_ba(
                n, [bit] * n, source, seed=1
            )
            assert result.agreement_fraction() == 1.0
            assert result.agreed_bit() == bit

    def test_split_inputs_converge_with_good_coins(self):
        n = 40
        source = perfect_coin_source(n, 8, random.Random(1))
        result = run_unreliable_coin_ba(
            n, [p % 2 for p in range(n)], source, seed=2
        )
        assert result.agreement_fraction() >= 0.95

    def test_bit_budget_sublinear_total(self):
        """Each processor sends O(log^2 n) bits — degree x rounds votes."""
        n = 60
        source = perfect_coin_source(n, 6, random.Random(2))
        result = run_unreliable_coin_ba(n, [1] * n, source, seed=3)
        # degree ~ 4 log n = 24, 6+1 rounds, ~49 bits/vote message: the
        # budget is polylogarithmic per round, far below all-to-all.
        degree_bound = 4 * 6  # 4 log2(60) rounded up
        assert result.max_bits_per_processor < degree_bound * 7 * 60
        # And strictly below what one all-to-all round would cost.
        assert result.max_bits_per_processor < (n - 1) * 49 * 7


class TestAgainstAdversaries:
    def test_anti_majority_with_good_coins(self):
        n = 60
        source = perfect_coin_source(n, 10, random.Random(3))
        targets = set(range(0, n, 5))  # 20%
        adversary = StaticByzantineAdversary(
            n, targets, AntiMajorityBehavior(), seed=4
        )
        result = run_unreliable_coin_ba(
            n, [p % 2 for p in range(n)], source, adversary=adversary,
            seed=5,
        )
        assert result.agreement_fraction() >= 0.9

    def test_validity_holds_under_attack(self):
        n = 60
        source = perfect_coin_source(n, 8, random.Random(4))
        targets = set(range(12))
        adversary = StaticByzantineAdversary(
            n, targets, EquivocatingBehavior(), seed=5
        )
        result = run_unreliable_coin_ba(
            n, [1] * n, source, adversary=adversary, seed=6
        )
        # All good inputs are 1: the unique valid output is 1.  Theorem 5
        # promises all but C2 n / log n processors agree — at n = 60 that
        # allows a ~log-fraction of stragglers.
        assert result.agreed_bit() == 1
        assert result.agreement_fraction() >= 0.75

    def test_silent_faults_harmless(self):
        n = 40
        source = perfect_coin_source(n, 6, random.Random(5))
        adversary = StaticByzantineAdversary(
            n, set(range(8)), SilentBehavior(), seed=6
        )
        result = run_unreliable_coin_ba(
            n, [0] * n, source, adversary=adversary, seed=7
        )
        assert result.agreed_bit() == 0
        assert result.agreement_fraction() >= 0.95

    def test_unreliable_coins_still_converge(self):
        """Theorem 5: only *some* good coin rounds are needed."""
        n = 60
        source = unreliable_coin_source(
            n, 10, good_round_indices=[3, 5, 7, 9],
            confused_fraction=0.05, rng=random.Random(6),
        )
        adversary = StaticByzantineAdversary(
            n, set(range(10)), AntiMajorityBehavior(), seed=7
        )
        result = run_unreliable_coin_ba(
            n, [p % 2 for p in range(n)], source, adversary=adversary,
            seed=8,
        )
        assert result.agreement_fraction() >= 0.9


def _explicit_graph(n, picks, seed):
    """A seeded symmetric graph built here, without networkx: each
    processor links to ``picks`` random others (so degrees vary)."""
    rng = random.Random(seed)
    adjacency = {p: set() for p in range(n)}
    for p in range(n):
        for q in rng.sample([q for q in range(n) if q != p], picks):
            adjacency[p].add(q)
            adjacency[q].add(p)
    return {p: sorted(adjacency[p]) for p in range(n)}


class TestPinnedAntiMajorityRun:
    """Literal outcome of one rushing anti-majority run on an explicit
    graph: the good processors' final votes, the ledger, the flood and
    the adversary's RNG position.  Every vote costs one bit whichever
    way it goes, so bit ledgers alone cannot see a wrong vote; the
    votes and the RNG probe can."""

    N, ROUNDS = 48, 4
    TARGETS = [0, 2, 5, 9, 16, 31, 36, 37]

    def _run(self, behavior):
        n, rounds = self.N, self.ROUNDS
        graph = _explicit_graph(n, 6, seed=3)
        rng = random.Random(4)
        inputs = [1 if rng.random() < 0.5 else 0 for _ in range(n)]
        source = unreliable_coin_source(
            n, rounds, good_round_indices=[2], confused_fraction=0.4,
            rng=random.Random(5),
        )
        threshold = vote_threshold(1 / 12, 0.05)
        protocols = [
            SparseAEBAProcessor(
                p, inputs[p], graph[p],
                coin_view=lambda idx, p=p: source.view(idx, p),
                num_rounds=rounds, threshold=threshold,
            )
            for p in range(n)
        ]
        targets = set(random.Random(6).sample(range(n), n // 6))
        assert sorted(targets) == self.TARGETS
        adversary = StaticByzantineAdversary(
            n, targets, behavior_by_name(behavior),
            recipients_of=graph, seed=7,
        )
        network = SyncNetwork(protocols, adversary)
        result = network.run(max_rounds=rounds + 2)
        good = [p for p in range(n) if p not in targets]
        ledger = result.ledger
        votes = "".join(str(protocols[p].vote) for p in good)
        metrics = (
            result.rounds,
            ledger.total_bits(),
            ledger.total_messages(),
            ledger.max_bits_per_processor(include=good),
            network.flood_bits,
            adversary.rng.randrange(1 << 30),
        )
        return votes, metrics

    def test_anti_majority_votes_and_metrics_are_pinned(self):
        votes, metrics = self._run("anti_majority")
        assert votes == "1101111011111110101111101111110101011110"
        assert metrics == (5, 88984, 1816, 3528, 24010, 461060838)

    def test_silent_run_is_pinned_and_differs(self):
        votes, metrics = self._run("silent")
        assert votes == "1100000000000000101010100000000001010001"
        assert metrics == (5, 88984, 1816, 3528, 0, 695425564)


class TestDataflowVariant:
    def test_matches_semantics(self):
        """The fast dataflow execution also converges and respects validity."""
        members = list(range(30))
        neighbors = {
            m: [(m + d) % 30 for d in (1, 2, 3, 28, 29, 27)] for m in members
        }
        votes = run_aeba_dataflow(
            members=members,
            inputs={m: 1 for m in members},
            neighbors=neighbors,
            coin_views=lambda r, p: 0,
            num_rounds=5,
            bad_members=set(),
            bad_vote_fn=lambda r, p, v: 0,
            threshold=0.7,
        )
        assert all(v == 1 for v in votes.values())

    def test_traffic_callback_invoked(self):
        members = list(range(6))
        neighbors = {m: [(m + 1) % 6] for m in members}
        calls = []
        run_aeba_dataflow(
            members, {m: 0 for m in members}, neighbors,
            coin_views=lambda r, p: 0, num_rounds=2,
            bad_members=set(), bad_vote_fn=lambda r, p, v: 0,
            threshold=0.7,
            on_traffic=lambda s, r, b: calls.append((s, r, b)),
        )
        assert len(calls) == 6 * 2

    def test_bad_members_excluded_from_output(self):
        members = list(range(10))
        neighbors = {m: [(m + 1) % 10, (m - 1) % 10] for m in members}
        votes = run_aeba_dataflow(
            members, {m: 1 for m in members}, neighbors,
            coin_views=lambda r, p: 0, num_rounds=3,
            bad_members={0, 1}, bad_vote_fn=lambda r, p, v: 0,
            threshold=0.7,
        )
        assert set(votes) == set(range(2, 10))


class TestInputValidation:
    def test_wrong_input_length(self):
        source = perfect_coin_source(4, 2, random.Random(0))
        with pytest.raises(ValueError):
            run_unreliable_coin_ba(4, [1, 0], source)
