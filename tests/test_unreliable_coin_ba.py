"""Tests for Algorithm 5: AEBA with unreliable global coins (Theorem 5)."""

import hashlib
import json
import math
import random
from collections import Counter

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
from repro.engine import ExperimentSpec, get_scenario, make_context
from repro.engine import result_to_wire
from repro.engine.registry import drive_instance
from repro.net.messages import Message
from repro.net.simulator import NullAdversary, SyncNetwork


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

    @pytest.mark.parametrize(
        "votes, majority",
        [([1, 1, 0], 1), ([0, 0, 1], 0), ([1, 1, 1, 0], 1), ([0, 1, 0, 0], 0)],
    )
    def test_update_commits_at_a_fraction_equal_to_the_threshold(
        self, votes, majority
    ):
        """Step 5 reads ``fraction >= threshold``: a fraction exactly at
        the threshold commits to the majority, one ulp above it takes
        the coin."""
        fraction = votes.count(majority) / len(votes)
        coin = 1 - majority
        assert aeba_vote_update(coin, votes, coin, fraction) == majority
        above = math.nextafter(fraction, 1.0)
        assert aeba_vote_update(majority, votes, coin, above) == coin


def _counter_majority_and_fraction(votes):
    """``majority_and_fraction`` with every tally through a Counter, as
    it stood before binary votes were counted with ``count``."""
    if not votes:
        return 0, 0.0
    tally = Counter(votes)
    majority = max(tally, key=lambda b: (tally[b], b))
    return majority, tally[majority] / len(votes)


def _seeded_vote_lists(seed=28, count=400):
    """Listed edge cases, then seeded binary lists, exact binary ties,
    bools mixed with 0/1, and non-binary ints (negatives and 2**61)."""
    cases = [
        [], [0], [1], [True], [False], [7], [-1], [2**61],
        [0, 1], [1, 0], [True, False], [False, 1], [True, 0],
        [0, 0, 1, 1], [1, 1, 0, 0, 2], [-1, 1], [0, 2**61],
        [2**61, -(2**61), 2**61], [True, 1, 0, False, 0],
    ]
    rng = random.Random(seed)
    wide = [-(2**61), -3, -1, 0, 1, 2, 5, 2**61]
    for index in range(count):
        size = rng.randrange(1, 40)
        kind = index % 4
        if kind == 0:
            votes = [rng.randrange(2) for _ in range(size)]
        elif kind == 1:
            votes = [0, 1] * (size // 2 + 1)
            rng.shuffle(votes)
        elif kind == 2:
            votes = [rng.choice((0, 1, True, False)) for _ in range(size)]
        else:
            votes = [rng.choice(wide) for _ in range(size)]
        cases.append(votes)
    return cases


class TestTallyMatchesCounterReference:
    def test_seeded_votes_match_the_counter_reference(self):
        for votes in _seeded_vote_lists():
            want = _counter_majority_and_fraction(votes)
            for given in (votes, tuple(votes)):
                got = majority_and_fraction(given)
                assert got == want, votes
                assert type(got[1]) is float
                if not any(type(v) is bool for v in votes):
                    assert type(got[0]) is type(want[0]), votes

    def test_ties_go_to_the_larger_value(self):
        assert majority_and_fraction([0, 1, 1, 0]) == (1, 0.5)
        assert majority_and_fraction([False, True]) == (1, 0.5)
        assert majority_and_fraction([-1, 2**61]) == (2**61, 0.5)
        assert majority_and_fraction([-3, -1, -3, -1]) == (-1, 0.5)


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


class TestOutboxPerVote:
    """A processor builds its broadcast of a vote once and re-sends that
    list whenever the vote repeats; a changed vote gets its own list."""

    def _network(self, threshold=vote_threshold(1 / 12, 0.05), n=12):
        graph = _explicit_graph(n, 3, seed=1)
        protocols = [
            SparseAEBAProcessor(
                p, p % 2, graph[p], coin_view=lambda idx: idx % 2,
                num_rounds=6, threshold=threshold,
            )
            for p in range(n)
        ]
        return protocols, SyncNetwork(protocols, NullAdversary(n))

    def test_repeated_vote_resends_one_list_and_new_vote_builds_one(self):
        protocols, network = self._network()
        returned = {p.pid: [] for p in protocols}
        for p in protocols:
            def recording(round_no, inbox, p=p, inner=p.on_round):
                outbox = inner(round_no, inbox)
                if outbox:
                    returned[p.pid].append((p.vote, outbox))
                return outbox

            p.on_round = recording
        network.run(max_rounds=8)
        changed = 0
        for p in protocols:
            assert len(returned[p.pid]) == 6
            by_vote = {}
            for vote, outbox in returned[p.pid]:
                assert by_vote.setdefault(vote, outbox) is outbox
                assert [
                    (m.sender, m.recipient, m.tag, m.payload) for m in outbox
                ] == [(p.pid, q, "vote", vote) for q in p.neighbors]
            changed += len(by_vote) == 2
        # Some processors changed their vote, and got a second list.
        assert changed

    def test_alternating_coin_flips_every_vote_and_bits_are_unchanged(self):
        """Above any fraction's reach every update takes the coin, which
        alternates, so each processor uses both outboxes; every round
        still charges one bit-sized vote per edge."""
        protocols, network = self._network(threshold=1.01)
        result = network.run(max_rounds=8)
        assert all(len(p._outboxes) == 2 for p in protocols)
        edges = sum(len(p.neighbors) for p in protocols)
        assert result.ledger.total_messages() == 6 * edges
        vote_bits = Message(0, 1, "vote", 1).bits()
        assert result.ledger.total_bits() == 6 * edges * vote_bits


#: sha256 of four serial trials (seed 29) of ``unreliable-coin-ba`` at
#: n=48, corrupt 0.1, num_rounds 3, per behavior and input pattern:
#: each trial's ``result_to_wire`` envelope, every processor's final
#: vote, the adversary's flood bits and a draw from its RNG.  Recorded
#: before processors kept one outbox per vote.  The degree is 8: at
#: Theorem 5's auto degree (22 at n=48) every trial coalesces and the
#: fourteen digests are all equal, so they could not see a vote change.
BEHAVIOR_DIGESTS = {
    ("silent", "split"): (
        "986227d013a2e0fe6201268b4199d27b8ebf584a447cc32da40753083cfcb52d"
    ),
    ("silent", "ones"): (
        "0badff3a425fcafdd2add25c91e59931c7e7838cf48d5108088a65f007d51bb9"
    ),
    ("fixed0", "split"): (
        "2242804f37d577b586dd7af7e73df66a94d5cbf1a27b16e4f4908ea7be5a1b64"
    ),
    ("fixed0", "ones"): (
        "91b149f624ac00566aee870bbaf44f3fedb1efcce11688b8a2b9fb5b17db2801"
    ),
    ("fixed1", "split"): (
        "419871812fe7de3113131974ad5dc943679617c8ca514aa906b4ecb1adefadb1"
    ),
    ("fixed1", "ones"): (
        "37a8522b2c188aa7d722802ec8af7eaf152f100b10e07fb3d6470450e8d4a2ec"
    ),
    ("random", "split"): (
        "341dc579f0f24520bfdf1527fae516d97ec20ea21f3369b5478b84a61f155d0b"
    ),
    ("random", "ones"): (
        "b40fba281b28022a5f133a0df117c52674bbf530d95cfb27ab0c5123c67fd401"
    ),
    ("equivocate", "split"): (
        "a8fb61e604ca2cbb10c3a5dc3a6983ac224d78ed97361089adcf743fc481011c"
    ),
    ("equivocate", "ones"): (
        "b5464be7e8c709d8d11d7cb77892a078619e9415e1a850fab3486696bb122b71"
    ),
    ("anti_majority", "split"): (
        "e4b2c7156423fd5ba5a99ad4ed4cf69d6b5002a4634591d11a0810837dcd37aa"
    ),
    ("anti_majority", "ones"): (
        "562c795bb509954a83dcdacc8aa7a04082f6e3f74fb60f2dd857c426daa5c08e"
    ),
    ("keep_split", "split"): (
        "a8f5ce80545ee050f76baa5cb2e52c0ee08d07a1b45633fcd27b1596906351b2"
    ),
    ("keep_split", "ones"): (
        "5dc93657f59c0bbe0a2ef1d160c8e47fb4d301b91dc017022c5cbb64b93a1fe8"
    ),
}


def _behavior_digest(behavior, inputs):
    spec = ExperimentSpec(
        runner="unreliable-coin-ba", n=48, trials=4, seed=29,
        params={
            "behavior": behavior, "inputs": inputs, "corrupt": 0.1,
            "num_rounds": 3, "degree": 8,
        },
    )
    scenario = get_scenario(spec.runner)
    rows = []
    for index in range(spec.trials):
        instance = scenario.build_instance(make_context(spec, index))
        trial = drive_instance(instance)
        network = instance.network
        rows.append([
            result_to_wire(trial),
            "".join(str(p.vote) for p in network.protocols),
            network.flood_bits,
            network.adversary.rng.randrange(1 << 30),
        ])
    wire = json.dumps(rows, sort_keys=True)
    return hashlib.sha256(wire.encode()).hexdigest()


@pytest.mark.parametrize(
    "behavior, inputs",
    sorted(BEHAVIOR_DIGESTS),
    ids=[f"{b}-{i}" for b, i in sorted(BEHAVIOR_DIGESTS)],
)
def test_behavior_outcomes_are_pinned(behavior, inputs):
    """``equivocate`` and ``keep_split`` send per-recipient bits, so good
    processors' vote sequences (and the outboxes they reuse) differ by
    behavior; every one must reproduce its recorded outcome."""
    assert _behavior_digest(behavior, inputs) == (
        BEHAVIOR_DIGESTS[behavior, inputs]
    )


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
