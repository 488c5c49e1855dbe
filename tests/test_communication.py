"""Tests for sendSecretUp / sendDown / sendOpen (Lemma 3) and robustness."""

import hashlib
import random

import pytest

from repro.core import communication
from repro.core.communication import (
    CommunicationError,
    TreeCommunicator,
    robust_reconstruct,
)
from repro.crypto import reed_solomon
from repro.crypto.field import PrimeField
from repro.crypto.shamir import ShamirScheme, Share
from repro.engine import ExperimentSpec, SerialBackend
from repro.net.accounting import BitLedger
from repro.net.messages import HEADER_BITS
from repro.topology.links import LinkStructure
from repro.topology.tree import NodeId, TreeTopology

FIELD = PrimeField((1 << 61) - 1)


def build_comm(n=27, q=3, k1=5, uplink=10, ell=5, seed=0, threshold=1 / 3):
    rng = random.Random(seed)
    tree = TreeTopology(n=n, q=q, k1=k1, rng=rng)
    links = LinkStructure(
        tree, uplink_degree=uplink, ell_link_degree=ell, intra_degree=6,
        rng=rng,
    )
    ledger = BitLedger(n)
    comm = TreeCommunicator(
        tree, links, FIELD, ledger, rng=random.Random(seed + 1),
        threshold_fraction=threshold,
    )
    return tree, links, comm


class TestRobustReconstruct:
    def make_shares(self, secret, n_shares, threshold, seed=0):
        scheme = ShamirScheme(n_shares, threshold, field=FIELD)
        return scheme.deal(secret, random.Random(seed))

    def test_clean_pool(self):
        shares = self.make_shares(777, 9, 4)
        value = robust_reconstruct(FIELD, shares, 4)
        assert value == 777

    def test_minority_tampering_corrected(self):
        shares = self.make_shares(777, 9, 4)
        tampered = [
            Share(s.x, (s.value + 1) % FIELD.modulus) if i < 2 else s
            for i, s in enumerate(shares)
        ]
        value = robust_reconstruct(FIELD, tampered, 4)
        assert value == 777

    def test_too_much_tampering_fails_safe(self):
        shares = self.make_shares(777, 9, 4)
        tampered = [
            Share(s.x, (s.value + 1 + i) % FIELD.modulus) if i < 5 else s
            for i, s in enumerate(shares)
        ]
        value = robust_reconstruct(FIELD, tampered, 4)
        # Either fails (None) or — never — returns a wrong value silently.
        assert value in (None, 777) or value is None

    def test_insufficient_shares(self):
        shares = self.make_shares(5, 9, 4)[:3]
        assert robust_reconstruct(FIELD, shares, 4) is None

    def test_duplicate_coordinates_majority(self):
        shares = self.make_shares(123, 7, 3)
        # Duplicate x=1 with one wrong copy and two right copies.
        augmented = shares + [shares[0], Share(shares[0].x, 0)]
        value = robust_reconstruct(FIELD, augmented, 3)
        assert value == 123


class TestInitialShare:
    def test_leaf_members_hold_one_record_each(self):
        tree, links, comm = build_comm()
        comm.initial_share(0, {(0, 0): 42})
        leaf = NodeId(1, 0)
        for member in tree.members(leaf):
            records = comm.records_at(leaf, member, (0, 0))
            assert len(records) == 1
            assert records[0].depth == 1

    def test_group_size_registered(self):
        tree, links, comm = build_comm()
        comm.initial_share(0, {(0, 0): 42})
        assert comm.group_sizes[((0, 0), ((0, 0),))] == len(
            tree.members(NodeId(1, 0))
        )

    def test_ledger_charged(self):
        tree, links, comm = build_comm()
        comm.initial_share(0, {(0, 0): 42})
        assert comm.ledger.bits_sent_by(0) > 0

    def test_one_message_per_share_copy(self):
        tree, links, comm = build_comm()
        comm.initial_share(0, {(0, w): w for w in range(3)})
        members = tree.members(NodeId(1, 0))
        assert comm.ledger.sent_messages[0] == 3 * len(members)
        per_share = FIELD.element_bits + HEADER_BITS
        for member in members:
            assert comm.ledger.received_bits[member] == 3 * per_share

    def test_empty_dealing_leaves_no_ledger_entries(self):
        tree, links, comm = build_comm()
        comm.initial_share(0, {})
        assert not comm.ledger.sent_bits
        assert not comm.ledger.received_bits
        assert not comm.ledger.sent_messages


class TestReadsDoNotGrowState:
    def test_records_at_and_erase_on_untouched_store(self):
        tree, links, comm = build_comm()
        comm.initial_share(0, {(0, 0): 42})
        before = len(comm.stores)
        node = NodeId(2, 0)
        for pid in range(27):
            assert comm.records_at(node, pid, (0, 0)) == []
            comm.erase(node, pid, (0, 0))
        assert not comm.adversary_can_reconstruct((0, 0), {1, 2})
        assert len(comm.stores) == before

    def test_send_secret_up_creates_only_written_stores(self):
        tree, links, comm = build_comm()
        key = (5, 0)
        comm.initial_share(5, {key: 4242})
        leaf = NodeId(1, 5)
        comm.send_secret_up(leaf, [key], corrupted=set())
        parent = tree.parent(leaf)
        # Every parent store was written: it holds a share of the key.
        for node, pid in comm.stores:
            assert node in (leaf, parent)
            if node == parent:
                assert comm.records_at(parent, pid, key)
        # A leaf that holds nothing sends nothing and adds no store.
        before = len(comm.stores)
        comm.send_secret_up(NodeId(1, 6), [(6, 0)], corrupted=set())
        assert len(comm.stores) == before

    def test_group_sizes_is_a_read_only_view(self):
        tree, links, comm = build_comm()
        comm.initial_share(0, {(0, 0): 42})
        with pytest.raises(TypeError):
            comm.group_sizes[((0, 0), ((0, 0),))] = 1


class TestSendSecretUpAndReveal:
    def test_roundtrip_one_level(self):
        tree, links, comm = build_comm()
        key = (5, 0)
        comm.initial_share(5, {key: 4242})
        leaf = NodeId(1, 5)
        comm.send_secret_up(leaf, [key], corrupted=set())
        # Leaf store erased (Definition 1's deletion).
        for member in tree.members(leaf):
            assert comm.records_at(leaf, member, key) == []
        parent = tree.parent(leaf)
        outcome = comm.reveal(parent, [key], corrupted=set())
        # Every leaf node under the parent learns the secret.
        for leaf_node, values in outcome.leaf_values.items():
            assert values[key] == 4242
        # Node members learn it via sendOpen.
        views = [
            outcome.node_views[m][key] for m in tree.members(parent)
        ]
        assert views.count(4242) >= 0.9 * len(views)

    def test_roundtrip_two_levels(self):
        tree, links, comm = build_comm()
        key = (7, 0)
        comm.initial_share(7, {key: 999})
        leaf = NodeId(1, 7)
        comm.send_secret_up(leaf, [key], corrupted=set())
        level2 = tree.parent(leaf)
        comm.send_secret_up(level2, [key], corrupted=set())
        level3 = tree.parent(level2)
        outcome = comm.reveal(level3, [key], corrupted=set())
        correct_views = sum(
            1
            for m in tree.members(level3)
            if outcome.node_views[m][key] == 999
        )
        assert correct_views >= 0.85 * len(tree.members(level3))

    def test_reveal_with_minority_corruption_on_good_path(self):
        """Lemma 3(2): corruption that leaves the path good cannot stop
        the reveal."""
        tree, links, comm = build_comm(seed=3)
        key = (11, 0)
        comm.initial_share(11, {key: 31337})
        leaf = NodeId(1, 11)
        # Corrupt 3 processors that do NOT sit in the owner's leaf
        # committee (the path stays good).
        leaf_members = set(tree.members(leaf))
        pool = [p for p in range(27) if p not in leaf_members]
        corrupted = set(pool[:3])
        comm.send_secret_up(leaf, [key], corrupted=corrupted)
        parent = tree.parent(leaf)
        outcome = comm.reveal(parent, [key], corrupted=corrupted)
        good_members = [
            m for m in tree.members(parent) if m not in corrupted
        ]
        correct = sum(
            1 for m in good_members if outcome.node_views[m][key] == 31337
        )
        assert correct >= 0.75 * len(good_members)

    def test_reveal_through_bad_leaf_fails_safe(self):
        """When the owner's committee is overwhelmed the reveal may fail,
        but it must fail to None — never to a silently wrong value."""
        tree, links, comm = build_comm(seed=3)
        key = (11, 0)
        comm.initial_share(11, {key: 31337})
        leaf = NodeId(1, 11)
        # Corrupt a weighty chunk of the leaf committee itself.
        corrupted = set(list(tree.members(leaf))[:2])
        comm.send_secret_up(leaf, [key], corrupted=corrupted)
        parent = tree.parent(leaf)
        outcome = comm.reveal(parent, [key], corrupted=corrupted)
        for member in tree.members(parent):
            if member in corrupted:
                continue
            assert outcome.node_views[member][key] in (31337, None)

    def test_multiple_secrets_batched(self):
        tree, links, comm = build_comm()
        keys = [(3, w) for w in range(4)]
        comm.initial_share(3, {k: 100 + i for i, k in enumerate(keys)})
        leaf = NodeId(1, 3)
        comm.send_secret_up(leaf, keys, corrupted=set())
        outcome = comm.reveal(tree.parent(leaf), keys, corrupted=set())
        for i, key in enumerate(keys):
            for values in outcome.leaf_values.values():
                assert values[key] == 100 + i


class TestLemma3Secrecy:
    def test_secret_hidden_from_small_coalition(self):
        """Lemma 3(1): no bad node on the path -> adversary learns nothing."""
        tree, links, comm = build_comm(threshold=1 / 2)
        key = (2, 0)
        comm.initial_share(2, {key: 55})
        # Coalition: 25% of processors, chosen before the dealing's node is
        # known to be good.
        rng = random.Random(10)
        coalition = set(rng.sample(range(27), 6))
        leaf = NodeId(1, 2)
        leaf_members = set(tree.members(leaf))
        bad_in_leaf = len(leaf_members & coalition)
        can = comm.adversary_can_reconstruct(key, coalition)
        threshold = comm._threshold(len(leaf_members))
        if bad_in_leaf < threshold:
            assert not can
        else:
            assert can

    def test_secret_revealed_with_majority_coalition(self):
        tree, links, comm = build_comm(threshold=1 / 2)
        key = (4, 0)
        comm.initial_share(4, {key: 66})
        leaf = NodeId(1, 4)
        coalition = set(tree.members(leaf))  # whole committee corrupted
        assert comm.adversary_can_reconstruct(key, coalition)

    def test_secrecy_preserved_after_send_up(self):
        """Re-sharing up a good path must not leak the secret."""
        tree, links, comm = build_comm(threshold=1 / 2)
        key = (6, 0)
        comm.initial_share(6, {key: 77})
        leaf = NodeId(1, 6)
        comm.send_secret_up(leaf, [key], corrupted=set())
        rng = random.Random(11)
        coalition = set(rng.sample(range(27), 5))
        parent = tree.parent(leaf)
        parent_members = tree.members(parent)
        bad_fraction = len(set(parent_members) & coalition) / len(
            parent_members
        )
        if bad_fraction < 1 / 3:
            assert not comm.adversary_can_reconstruct(key, coalition)

    def test_erasure_blocks_late_coalitions(self):
        """After send-up + erasure, corrupting the whole *leaf* gains
        nothing: the shares now live in the parent."""
        tree, links, comm = build_comm(threshold=1 / 2)
        key = (8, 0)
        comm.initial_share(8, {key: 88})
        leaf = NodeId(1, 8)
        comm.send_secret_up(leaf, [key], corrupted=set())
        coalition = set(tree.members(leaf)) - set(
            tree.members(tree.parent(leaf))
        )
        if coalition:
            assert not comm.adversary_can_reconstruct(key, coalition)


class TestLedgerSnapshotPercentiles:
    """Per-processor sent-bit percentiles on :meth:`BitLedger.snapshot`.

    The telemetry bridge reuses these straight from ``as_row()``, so the
    distribution summary and its edge cases are pinned here.
    """

    def test_percentiles_match_distribution(self):
        from repro.net import percentile

        ledger = BitLedger(10)
        for p in range(10):
            ledger.record_abstract(p, ((p + 1) % 10,), 100 * (p + 1))
        snap = ledger.snapshot()
        per_processor = [ledger.bits_sent_by(p) for p in range(10)]
        assert snap.p50_bits_per_processor == percentile(per_processor, 50)
        assert snap.p90_bits_per_processor == percentile(per_processor, 90)
        assert snap.p99_bits_per_processor == percentile(per_processor, 99)
        # Ordered distribution: the summary must be monotone and bounded
        # by the max the ledger already reports.
        assert (
            snap.p50_bits_per_processor
            <= snap.p90_bits_per_processor
            <= snap.p99_bits_per_processor
            <= snap.max_bits_per_processor
        )

    def test_skew_shows_up_in_the_tail(self):
        ledger = BitLedger(20)
        ledger.record_abstract(0, (1,), 10_000)  # one hot processor
        snap = ledger.snapshot()
        assert snap.p50_bits_per_processor == 0
        assert snap.p99_bits_per_processor > snap.p50_bits_per_processor

    def test_empty_ledger_is_all_zero(self):
        snap = BitLedger(5).snapshot()
        assert snap.p50_bits_per_processor == 0
        assert snap.p90_bits_per_processor == 0
        assert snap.p99_bits_per_processor == 0

    def test_as_row_carries_the_percentiles(self):
        ledger = BitLedger(4)
        ledger.record_abstract(2, (3,), 64)
        row = ledger.snapshot().as_row()
        for key in (
            "p50_bits_per_processor",
            "p90_bits_per_processor",
            "p99_bits_per_processor",
        ):
            assert key in row


class TestSendOpenGuards:
    def test_failed_leaves_do_not_elect_adversary_value(self):
        """A leaf whose good members failed to reconstruct must not be
        spoken for by its corrupted minority."""
        tree, links, comm = build_comm()
        key = (1, 0)
        # Fabricate: all leaves failed (None), some corrupted members.
        leaf_values = {
            leaf: {key: None} for leaf in tree.nodes_on_level(1)
        }
        corrupted = set(range(5))
        views = comm.send_open(
            NodeId(2, 0), [key], leaf_values, corrupted,
            bad_value_fn=lambda k, p: 666,
        )
        for member, view in views.items():
            assert view[key] is None


#: sha256 of one reveal cascade's outputs and ledger per (n, q, k1,
#: uplink degree, corrupted fraction), recorded before sendDown grouped
#: frontiers per node and sendSecretUp dealt in batches.  Uplink degree
#: 3 leaves parent members that some child does not cover, and the
#: corrupted fractions make many pools fail to decode.
GOLDEN_REVEALS = [
    (9, 3, 5, 8, 0.0,
     "74e0326e78f31ab68958dcbce8a7a19303797acb0fb5460bf0e1705eb340657c"),
    (9, 3, 5, 8, 0.2,
     "70f76d0cdb473ad9b3c488aaa82fc7cdd5e98a4b2512d3b62005ce2d9500e947"),
    (9, 3, 5, 8, 0.45,
     "e2e15838351982f37d092fa1b4cbd66ed97658c1c022ddb4509fa6c0de9ea7a1"),
    (16, 3, 5, 3, 0.0,
     "4a3ef71a802932ab2189caed657ade795ebe0abf8170898a8fe1aae49ebdbb0f"),
    (16, 3, 5, 3, 0.2,
     "4a8294b5436ec7dbb6ee64347def665ba18cc268c90dcdee747e0a59944a8193"),
    (16, 3, 5, 3, 0.45,
     "274c0822504dff0d1eaeaec4201ec3415f5d0754e3318d07d2bd66bb48846347"),
    (27, 3, 5, 8, 0.0,
     "64461fae5283f4676752eb35eadb4e853a3af2042df5485cc1c0e26668e7a158"),
    (27, 3, 5, 8, 0.2,
     "dc1f305523167b1157bcdb51c884b12a17e10073cd9441547cf2698bcebff1ee"),
    (27, 3, 5, 8, 0.45,
     "6d3e2197bd9247bb9a078863f950a1718c5aebd4ff29d847daa56044d1bc46fd"),
    (27, 3, 4, 3, 0.0,
     "f5aecd6b35fddb9833834a197c974594e581c830bbf5e2c5beef6597f798973c"),
    (27, 3, 4, 3, 0.2,
     "fe4c894409f8aa0e6d6849d1bed05fd6b36b8d73db278e92777afe7869c5d532"),
    (27, 3, 4, 3, 0.45,
     "5fc2631a7569407df6ec5c99830110cd9596dbd1d51fbbc165b03a3739fac9d4"),
    # The simulation shape at n=81 (levels of 6/30/81/81 members), the
    # only rows with five children per node; recorded before shares
    # became integer columns.
    (81, 5, 6, 10, 0.0,
     "17d061eb2ad8fce862ab04d9c0835a6357aec9786367a5745922a3dc089b3a98"),
    (81, 5, 6, 10, 0.2,
     "b78b624cd32010733666defa9ffd448dac7622fe97c7774766de8c8c2f8817ea"),
    (81, 5, 6, 4, 0.2,
     "07a0706a725b996dde5e3291d6de4e4bfadbc6ff9cb676f3857e68d2510f5f9e"),
]


def reveal_cascade_digest(n, q, k1, uplink, fraction):
    """Share two keys each for owners 0 and n-1, send them up level by
    level to the root, reveal there; hash the sorted ``leaf_values`` and
    ``node_views`` and the ledger's per-processor sent bits, received
    bits and sent messages."""
    rng = random.Random(n * 1000 + k1 * 10 + uplink)
    tree = TreeTopology(n=n, q=q, k1=k1, rng=rng)
    links = LinkStructure(
        tree, uplink_degree=uplink, ell_link_degree=5, intra_degree=6,
        rng=rng,
    )
    ledger = BitLedger(n)
    comm = TreeCommunicator(
        tree, links, FIELD, ledger, rng=random.Random(7),
        threshold_fraction=0.5,
    )
    corrupted = set(random.Random(11).sample(range(n), round(fraction * n)))
    owners = (0, n - 1)
    keys = []
    for owner in owners:
        owner_keys = [(owner, 0), (owner, 1)]
        comm.initial_share(
            owner, {key: 1000 * owner + w for w, key in enumerate(owner_keys)}
        )
        keys.extend(owner_keys)
    for level in range(1, tree.lstar):
        for owner in owners:
            node = tree.path_to_root(NodeId(1, owner))[level - 1]
            comm.send_secret_up(
                node, [key for key in keys if key[0] == owner], corrupted
            )
    outcome = comm.reveal(tree.root(), keys, corrupted)
    canonical = (
        sorted(
            ((leaf.level, leaf.index), sorted(values.items()))
            for leaf, values in outcome.leaf_values.items()
        ),
        sorted(
            (pid, sorted(view.items()))
            for pid, view in outcome.node_views.items()
        ),
        sorted(ledger.sent_bits.items()),
        sorted(ledger.received_bits.items()),
        sorted(ledger.sent_messages.items()),
    )
    return hashlib.sha256(repr(canonical).encode()).hexdigest()


@pytest.mark.parametrize("n,q,k1,uplink,fraction,digest", GOLDEN_REVEALS)
def test_reveal_cascade_matches_golden_digest(
    n, q, k1, uplink, fraction, digest
):
    assert reveal_cascade_digest(n, q, k1, uplink, fraction) == digest


@pytest.mark.parametrize("value", [0, 5, FIELD.modulus - 2, FIELD.modulus - 1])
def test_mixed_coordinate_vote_follows_the_plurality_rule(value):
    """Good holders deliver v, corrupted ones v + 1 mod p; the weighted
    vote between them is the plurality of those weighted deliveries,
    ties to the smaller value, also where v + 1 wraps to 0."""
    mod = FIELD.modulus
    for good, bad in [(3, 1), (1, 3), (2, 2), (1, 0), (0, 1)]:
        weights = {value: good, (value + 1) % mod: bad}
        votes = {v: w for v, w in weights.items() if w}
        expected = communication._plurality(votes)
        assert communication._vote(value, good, bad, mod) == expected


def test_frontiers_hold_one_record_per_dealing_and_x(monkeypatch):
    """Every frontier of the golden reveal cascades, the revealing
    node's, each one built on the way down and each leaf's, holds at
    most one record per (dealing, x), and the digests still match."""
    records = []

    def check(frontier):
        for by_dealing in frontier.values():
            for xs, _holders, _values in by_dealing.values():
                assert len(set(xs)) == len(xs)
                records.append(len(xs))

    group = TreeCommunicator._group_frontier
    below = TreeCommunicator._frontier_below

    def checked_group(self, frontier, corrupted):
        check(frontier)
        return group(self, frontier, corrupted)

    def checked_below(self, reverse, grouped, structures, hop):
        frontier = below(self, reverse, grouped, structures, hop)
        check(frontier)
        return frontier

    monkeypatch.setattr(TreeCommunicator, "_group_frontier", checked_group)
    monkeypatch.setattr(TreeCommunicator, "_frontier_below", checked_below)
    for n, q, k1, uplink, fraction, digest in GOLDEN_REVEALS:
        assert reveal_cascade_digest(n, q, k1, uplink, fraction) == digest
    assert sum(records) > 0


def test_a_coordinate_held_twice_raises():
    """A second record of one (dealing, x) in a frontier is a protocol
    violation, not something to group silently."""
    tree, links, comm = build_comm()
    key = (5, 0)
    comm.initial_share(5, {key: 4242})
    leaf = NodeId(1, 5)
    comm.send_secret_up(leaf, [key], corrupted=set())
    parent = tree.parent(leaf)
    first, second = [pid for node, pid in comm.stores if node == parent][:2]
    ids, xs, values = comm.stores[(parent, first)][key]
    copy = comm.stores[(parent, second)][key]
    copy[0].append(ids[0])
    copy[1].append(xs[0])
    copy[2].append(values[0])
    with pytest.raises(CommunicationError, match="twice"):
        comm.send_down(parent, [key], corrupted=set())


#: One everywhere-ba trial shaped like the end-to-end benchmark's W1.
W1_SHAPED = ExperimentSpec(
    runner="everywhere-ba", n=9, trials=1, seed=1,
    params={"adversary": "bin-stuffing", "corrupt": 0.1, "inputs": "split"},
)


def test_w1_shaped_trial_decodes_in_one_batch_per_hop_and_threshold(
    monkeypatch,
):
    """One everywhere-ba trial shaped like the end-to-end benchmark's
    W1 (n=9, bin-stuffing adversary, corrupt 0.1, split inputs).  The
    decoder receives 1,044 pools in 12 calls: at most one per decode
    step (11 node hops and 5 leaf steps), threshold and x grid.  Node
    hops and the leaf step share one memo, so within one ``send_down``
    call no (threshold, grid, values) pool reaches the decoder twice."""
    calls = []
    steps = [0]
    seen = set()
    decode_rows = reed_solomon.berlekamp_welch

    def spy(field, xs, rows, degree_bound, max_errors=None):
        calls.append((steps[0], degree_bound, tuple(xs), len(rows)))
        for values in rows:
            pool = (degree_bound, tuple(xs), tuple(values))
            assert pool not in seen
            seen.add(pool)
        return decode_rows(field, xs, rows, degree_bound, max_errors)

    decode_step = TreeCommunicator._decode

    def counted(self, queued):
        steps[0] += 1
        return decode_step(self, queued)

    send_down = TreeCommunicator.send_down

    def one_call(self, top, keys, corrupted):
        seen.clear()
        return send_down(self, top, keys, corrupted)

    monkeypatch.setattr(reed_solomon, "berlekamp_welch", spy)
    monkeypatch.setattr(communication, "berlekamp_welch", spy)
    monkeypatch.setattr(TreeCommunicator, "_decode", counted)
    monkeypatch.setattr(TreeCommunicator, "send_down", one_call)
    (result,) = SerialBackend().run_trials(W1_SHAPED)
    assert result.ok
    assert sum(size for _step, _t, _xs, size in calls) == 1044
    assert len(calls) == 12
    assert steps[0] == 16
    assert len({call[:3] for call in calls}) == len(calls)


def _reference_points(records, corrupted, weight, mod):
    """The per-coordinate rule sendDown's plans stand for: the leaf
    tally sendDown ran before plans, with each holder weighted as its
    node hops weighed it.

    ``records`` are one pool's (x, holders, value) records.  Each
    holder h delivers the value, plus one when h is corrupted, with
    ``weight(h)`` votes; every x that gets a vote enters the pool with
    its plurality value, ties to the smaller value.
    """
    by_x = {}
    for x, holders, value in records:
        for holder in holders:
            votes_for = weight(holder)
            if not votes_for:
                continue
            delivered = (value + 1) % mod if holder in corrupted else value
            votes = by_x.setdefault(x, {})
            votes[delivered] = votes.get(delivered, 0) + votes_for
    return tuple(communication._majority_points(by_x))


def _reference_node_pools(comm, frontier, corrupted, reverse):
    """(key, dealing) -> the pool a child with uplinks ``reverse``
    builds from a node frontier: each holder weighs as many votes as it
    has recipients in the child."""
    return {
        (key, dealing): (
            comm._threshold(comm._dealings[dealing][4]),
            _reference_points(
                zip(*arrivals), corrupted,
                lambda h: len(reverse.get(h, ())), comm.field.modulus,
            ),
        )
        for key, by_dealing in frontier.items()
        for dealing, arrivals in by_dealing.items()
    }


def _reference_leaf_pools(comm, leaf, frontier, corrupted):
    """key -> a leaf's pool: every record of the key's dealings, tallied
    by x with one vote per holder, at the initial dealing's threshold."""
    pools = {}
    for key, by_dealing in frontier.items():
        root = comm._roots.get(key)
        size = (
            len(comm.tree.members(leaf)) if root is None
            else comm._dealings[root][4]
        )
        records = [
            record for arrivals in by_dealing.values()
            for record in zip(*arrivals)
        ]
        pools[key] = (
            comm._threshold(size),
            _reference_points(
                records, corrupted, lambda h: 1, comm.field.modulus
            ),
        )
    return pools


def _reference_ranks(reverse, holders_column):
    """The REPLICATION_CAP child members sent the most shares of one
    dealing, one share per (record, holder, recipient)."""
    received = {}
    for holders in holders_column:
        for holder in holders:
            for recipient in reverse.get(holder, ()):
                received[recipient] = received.get(recipient, 0) + 1
    ranked = sorted(received, key=lambda m: (-received[m], m))
    return tuple(ranked[: TreeCommunicator.REPLICATION_CAP])


def _hop_pools(structures, grouped, hop, decoded):
    """(key, dealing) -> the pool behind each slot of one hop, as
    (threshold, points)."""
    pools = {
        id(slot): (threshold, tuple(zip(xs, values)))
        for (threshold, xs, values), slot in decoded.items()
    }
    return {
        (key, structures[s].dealings[i][0]): pools[id(hop[s][i])]
        for key, entries in grouped.items()
        for s, i in entries
    }


def _visit_order(tree, top):
    """The nodes ``send_down`` groups, in order: level by level from
    ``top``, each level's nodes in the order their parents list them,
    down to the leaves."""
    order, nodes = [], [top]
    while True:
        order.extend(nodes)
        if nodes[0].level == 1:
            return order
        nodes = [child for node in nodes for child in tree.children(node)]


def test_pools_follow_the_per_coordinate_rule(monkeypatch):
    """Every (child, dealing) pool of every node hop, and every leaf's
    pool per key, of the golden reveal cascades and a W1-shaped trial
    equals the pool the per-coordinate rule builds from the same
    frontier, and the digests still match."""
    state = {}
    checked = []
    send_down = TreeCommunicator.send_down
    group = TreeCommunicator._group_frontier
    pools_down = TreeCommunicator._pools_down

    def traced_send_down(self, top, keys, corrupted):
        state["order"] = iter(_visit_order(self.tree, top))
        return send_down(self, top, keys, corrupted)

    def traced_group(self, frontier, corrupted):
        grouped, structures = group(self, frontier, corrupted)
        state["hop"] = (next(state["order"]), frontier, corrupted, grouped)
        return grouped, structures

    def traced_pools(self, structures, coverages, decoded, queued):
        hops = pools_down(self, structures, coverages, decoded, queued)
        node, frontier, corrupted, grouped = state["hop"]
        if node.level > 1:
            children = self.tree.children(node)
            assert len(hops) == len(children)
            for child, hop in zip(children, hops):
                expected = _reference_node_pools(
                    self, frontier, corrupted,
                    self.links.reverse_uplinks(child),
                )
                actual = _hop_pools(structures, grouped, hop, decoded)
                assert actual == expected
                checked.append(len(actual))
        else:
            (hop,) = hops
            expected = _reference_leaf_pools(self, node, frontier, corrupted)
            actual = _hop_pools(structures, grouped, hop, decoded)
            for key, entries in grouped.items():
                if not entries:
                    assert expected[key][1] == ()
                    continue
                ((s, i),) = entries
                dealing = structures[s].dealings[i][0]
                assert dealing == self._roots[key]
                assert actual[(key, dealing)] == expected[key]
            checked.append(len(actual))
        return hops

    monkeypatch.setattr(TreeCommunicator, "send_down", traced_send_down)
    monkeypatch.setattr(TreeCommunicator, "_group_frontier", traced_group)
    monkeypatch.setattr(TreeCommunicator, "_pools_down", traced_pools)
    for n, q, k1, uplink, fraction, digest in GOLDEN_REVEALS:
        assert reveal_cascade_digest(n, q, k1, uplink, fraction) == digest
    (result,) = SerialBackend().run_trials(W1_SHAPED)
    assert result.ok
    assert sum(checked) > 0


def test_a_shared_structure_plans_like_the_per_coordinate_rule():
    """Three keys whose dealings share one holder structure, with an
    all-corrupted coordinate and two mixed ones that v wins, v + 1 wins
    or tie depending on the child, and values at p - 1, where a tie
    goes to v + 1 = 0.  Each child's pools follow the per-coordinate
    rule, children that weigh every holder alike share them, and the
    forwarding ranks count one share per record."""
    tree, links, comm = build_comm()
    mod = FIELD.modulus
    corrupted = {7, 8}
    # By x: 1 clean, 2 all corrupted, 3 and 4 mixed, 5 and 6 clean.
    xs = [4, 1, 3, 2, 6, 5]
    holders = [(2, 8), (1,), (1, 7), (7, 8), (1,), (2,)]
    values = {
        (0, 0): [mod - 1, 10, 11, 12, 13, 14],
        (0, 1): [20, 21, mod - 1, 22, 23, 24],
        (0, 2): [30, 31, 32, mod - 1, 33, 34],
    }
    frontier, roots = {}, {}
    for key, arrived in values.items():
        root = roots[key] = len(comm._dealings)
        comm._dealings.append((key, -1, 0, 0, 5))
        comm._dealings.append((key, root, 2, 0, 6))
        frontier[key] = {root + 1: (list(xs), list(holders), arrived)}
    reverses = [
        # x=3 goes to v, x=4 ties.
        {1: (10, 11), 2: (12,), 7: (13,), 8: (14,)},
        # x=3 and x=4 go to v + 1; holder 2 does not reach the child.
        {1: (10,), 7: (11, 12), 8: (13,)},
        # x=3 goes to v + 1, x=4 to v; holder 1 does not reach it.
        {2: (10, 11), 7: (12,)},
        # The first child's weights, other recipients.
        {1: (30, 31), 2: (21,), 7: (22,), 8: (23,)},
    ]
    grouped, structures = comm._group_frontier(frontier, corrupted)
    assert len(structures) == 1
    decoded, queued = {}, {}
    hops = comm._pools_down(
        structures,
        [{h: len(r) for h, r in reverse.items()} for reverse in reverses],
        decoded, queued,
    )
    for reverse, hop in zip(reverses, hops):
        assert _hop_pools(structures, grouped, hop, decoded) == (
            _reference_node_pools(comm, frontier, corrupted, reverse)
        )
    assert hops[0][0] is hops[3][0]
    assert len(decoded) == 3 * len(values)
    # The first child's pool of key (0, 0): x=2 is shifted, x=3 keeps v
    # and x=4 ties at v = p - 1, so it goes to v + 1 = 0.
    tie = ((1, 2, 3, 4, 5, 6), (10, 13, 11, 0, 14, 13))
    assert (3, *tie) in decoded
    for slot in decoded.values():
        slot[0] = 1
    for reverse, hop in zip(reverses, hops):
        below = comm._frontier_below(reverse, grouped, structures, hop)
        ranks = _reference_ranks(reverse, holders)
        assert below == {
            key: {root: ([2], [ranks], [1])} for key, root in roots.items()
        }
