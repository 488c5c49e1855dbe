"""Tree communication protocols: sendSecretUp, sendDown, sendOpen.

Paper Section 3.2.3.  Secrets climb the tree as iterated shares
(Definition 1) and are revealed by cascading back down to every leaf of
the subtree, where level-1 committees reconstruct and then report values
straight up to the revealing node over ℓ-links (Lemma 3).

Implementation notes:

* **State as integers.**  Every dealing is one row of a dealing table,
  ``(key, parent dealing id, parent x, dealer, group size)``, and its
  id is the row index; a secret's initial dealing has parent -1.  A
  share is then (dealing id, x, value), and each ``(node, pid)`` store
  holds, per key, three parallel lists of those integers.  A share's
  path (its dealing hops from the initial dealing, Definition 1's
  index) is rebuilt from the table only by the views that show one:
  :meth:`~TreeCommunicator.records_at` and
  :attr:`~TreeCommunicator.group_sizes`.  Only writes create stores.
* **Upward** flows are tracked per processor: ``(node, pid)`` share
  stores, so adversary knowledge (which secrets a corrupted coalition can
  reconstruct — Lemma 1) is exact.  Each holder deals all of its records
  for a call in one batch; the rng stream is the same as dealing them one
  at a time.
* **Downward** reveal pools arriving shares per committee node: once a
  secret is being revealed, secrecy is moot, and the paper itself pools at
  level 1 ("the processors in the 1-node each send each other all their
  shares and reconstruct").  Reconstruction of a (j-1)-share succeeds at a
  child node iff enough shares of that dealing arrive — exactly the
  condition Lemma 3(2) argues holds along good paths.
* **Grouping.**  What a node sends does not depend on the child: its
  frontier is grouped by dealing id once per node (per dealing, each
  coordinate's (holder, delivered value) pairs; each holder's record
  count).  A child then only weighs each holder by how many of its
  members the holder's uplinks reach, and decodes each distinct
  (threshold, points) pool once per call.
* **Holder ranks.**  The members that forward a reconstructed record are
  the (at most ``REPLICATION_CAP``) child members that received the most
  of its shares, ties to the smaller pid.  Those counts depend only on
  the child and the dealing's holders, which every key of an owner
  repeats, so the ranking is memoised per (child, holder signature).
* **Message counts.**  Every transfer is charged to the ledger at word
  granularity, preserving Lemma 5's counting (including the ``d_m^ℓ``
  replication blow-up), with one ledger call per (sender, recipient) per
  call.  The initial dealing and sendSecretUp count one message per
  share copy; the sendDown hops, the level-1 exchange and sendOpen count
  one message per (sender, recipient) pair per call, whatever its word
  count.  Pairs with no words are not charged, so the ledger holds no
  zero entries.
* Corrupted holders contribute *tampered* share values during reveal and
  deal garbage when re-sharing; robustness comes from the same
  majority/threshold structure the paper relies on.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..crypto.field import PrimeField
from ..crypto.reed_solomon import decode_constant
from ..crypto.shamir import ShamirScheme, Share
from ..net.accounting import BitLedger
from ..net.messages import HEADER_BITS
from ..topology.links import LinkStructure
from ..topology.tree import NodeId, TreeTopology

#: Identifies one secret word: (owner processor, word index within array).
SecretKey = Tuple[int, int]

#: One dealing hop: (dealer processor id, x coordinate within the dealing).
PathEntry = Tuple[int, int]

SharePathT = Tuple[PathEntry, ...]

#: One row of the dealing table: (key, parent dealing id or -1, parent
#: x, dealer, group size).
_DealingRow = Tuple[SecretKey, int, int, int, int]

#: The shares one processor holds for one key: parallel lists of
#: dealing id, x and value.
_Columns = Tuple[List[int], List[int], List[int]]

#: One dealing's shares at a node during sendDown: parallel lists of x,
#: holders and value, one entry per record.
_Arrivals = Tuple[List[int], List[Tuple[int, ...]], List[int]]

#: A node's sendDown frontier: key -> dealing id -> its arrivals.
_Frontier = Dict[SecretKey, Dict[int, _Arrivals]]

#: One decoder input: (reconstruction threshold, majority points).
_PoolKey = Tuple[int, Tuple[Tuple[int, int], ...]]

#: One coordinate of a grouped dealing: (x, the decoder point (x, value)
#: when every holder delivers the same value or else None, holders, and
#: only on disagreement each holder's (holder, delivered value) pair).
_Coordinate = Tuple[
    int,
    Optional[Tuple[int, int]],
    Tuple[int, ...],
    Tuple[Tuple[int, int], ...],
]

#: The holders tuple of each record of one dealing, in record order.
_Signature = Tuple[Tuple[int, ...], ...]

#: One dealing of a grouped node frontier: (dealing id, threshold, its
#: coordinates by ascending x, holder signature).
_Dealing = Tuple[int, int, List[_Coordinate], _Signature]


@dataclass(frozen=True)
class ShareRecord:
    """An i-share held by some processor, as
    :meth:`TreeCommunicator.records_at` shows it.

    ``path`` lists the dealing hops from the original level-1 dealing to
    this record; ``len(path)`` is the iteration depth i.
    """

    secret: SecretKey
    path: SharePathT
    value: int

    @property
    def depth(self) -> int:
        """Number of share-tree levels above this record."""
        return len(self.path)


class CommunicationError(RuntimeError):
    """Raised on protocol-flow violations."""


def robust_reconstruct_points(
    field: PrimeField,
    points: Sequence[Tuple[int, int]],
    threshold: int,
) -> Optional[int]:
    """Reconstruct a secret from distinct-coordinate (x, y) points.

    Berlekamp-Welch decoding corrects up to (|pool| - threshold) // 2
    wrong points deterministically (two degree-(threshold-1) polynomials
    agree on <= threshold-1 points, so the decoded one is unique).  A
    pool with a clean window of ``threshold`` consecutive points — every
    clean pool, and most tampered ones — costs one interpolation; see
    :func:`~repro.crypto.reed_solomon.berlekamp_welch`.

    Returns None when no consistent polynomial exists within the decoding
    radius (the caller treats the dealing as unrecoverable, the same as
    receiving too few shares — fail-safe, never fail-wrong).
    """
    return decode_constant(field, points, threshold)


def robust_reconstruct(
    field: PrimeField,
    shares: Sequence[Share],
    threshold: int,
) -> Optional[int]:
    """Share-list front end of :func:`robust_reconstruct_points`.

    Replicated transfers can deliver the same coordinate several times
    (possibly with conflicting values from corrupted holders); the
    majority value per coordinate is taken first.  Decoding is fully
    deterministic, which is what lets every engine backend reproduce a
    trial bit-for-bit from its derived seed alone.
    """
    by_x: Dict[int, Dict[int, int]] = {}
    for share in shares:
        votes = by_x.setdefault(share.x, {})
        votes[share.value] = votes.get(share.value, 0) + 1
    return robust_reconstruct_points(
        field, _majority_points(by_x), threshold
    )


@dataclass
class RevealOutcome:
    """Result of one sendDown + sendOpen reveal.

    Attributes:
        leaf_values: per level-1 node, the value the (good members of the)
            node reconstructed — None when reconstruction failed there.
        node_views: per member of the revealing node, the value it learned
            through sendOpen majorities (None = could not determine).
        true_values_learned: convenience count of node members whose view
            matches ``expected`` when an expected value is supplied.
    """

    leaf_values: Dict[NodeId, Dict[SecretKey, Optional[int]]]
    node_views: Dict[int, Dict[SecretKey, Optional[int]]]


class TreeCommunicator:
    """Executes the three communication protocols over one tree.

    The communicator is the omniscient simulation harness: it stores every
    processor's shares, moves them according to the protocols, charges the
    ledger, and applies the adversary's tampering.  Protocol *decisions*
    (what to share, when to reveal) belong to the tournament in
    :mod:`repro.core.almost_everywhere`.

    Args:
        tree: committee tree.
        links: uplinks / ℓ-links / intra-node graphs.
        field: share arithmetic field.
        ledger: bit ledger charged for every transfer.
        rng: harness RNG (dealer polynomials etc.).  Must be a *seeded*
            ``random.Random``, preferably a labelled child stream of the
            caller's master seed (the tournament passes
            ``child_rng(seed, "comm")``) — required explicitly so no two
            Monte-Carlo trials can silently share dealer randomness, and
            no code path ever falls back to global module randomness.
        threshold_fraction: reconstruction threshold as a fraction of each
            dealing's group (paper: 1/2; "any t in [1/3, 2/3] would work").
    """

    def __init__(
        self,
        tree: TreeTopology,
        links: LinkStructure,
        field: PrimeField,
        ledger: BitLedger,
        rng: random.Random,
        threshold_fraction: float = 0.5,
    ) -> None:
        if not 0.0 < threshold_fraction < 1.0:
            raise CommunicationError("threshold_fraction must be in (0,1)")
        if rng is None:
            raise CommunicationError(
                "TreeCommunicator requires a seeded rng stream "
                "(e.g. child_rng(seed, 'comm'))"
            )
        self.tree = tree
        self.links = links
        self.field = field
        self.ledger = ledger
        self.rng = rng
        self.threshold_fraction = threshold_fraction
        #: (node, pid) -> secret -> (dealing ids, xs, values) held there.
        self.stores: Dict[Tuple[NodeId, int], Dict[SecretKey, _Columns]] = {}
        #: The dealing table; a dealing's id is its row index.
        self._dealings: List[_DealingRow] = []
        #: secret -> id of its initial (level-1) dealing.
        self._roots: Dict[SecretKey, int] = {}
        self.word_bits = field.element_bits

    # -- helpers --------------------------------------------------------------------

    def _threshold(self, group_size: int) -> int:
        return max(1, int(group_size * self.threshold_fraction) + 1)

    def _path(self, dealing: int, x: int) -> SharePathT:
        """The dealing hops of share ``x`` of ``dealing``, oldest first."""
        hops: List[PathEntry] = []
        while dealing >= 0:
            _key, parent, parent_x, dealer, _size = self._dealings[dealing]
            hops.append((dealer, x))
            dealing, x = parent, parent_x
        return tuple(reversed(hops))

    @property
    def group_sizes(self) -> Mapping[Tuple[SecretKey, SharePathT], int]:
        """(secret, dealing path) -> group size of that dealing.

        A read-only view derived from the dealing table; a dealing's
        path is its shares' paths with x = 0 in the last hop.
        """
        return MappingProxyType({
            (row[0], self._path(dealing, 0)): row[4]
            for dealing, row in enumerate(self._dealings)
        })

    def records_at(self, node: NodeId, pid: int, key: SecretKey) -> List[ShareRecord]:
        """Share records a processor holds for a key at a node."""
        columns = self.stores.get((node, pid), {}).get(key)
        if columns is None:
            return []
        return [
            ShareRecord(secret=key, path=self._path(dealing, x), value=value)
            for dealing, x, value in zip(*columns)
        ]

    def erase(self, node: NodeId, pid: int, key: SecretKey) -> None:
        """The paper's mandatory deletion after re-sharing."""
        store = self.stores.get((node, pid))
        if store is not None:
            store.pop(key, None)

    def _deal(
        self,
        node: NodeId,
        dealer: int,
        targets: Sequence[int],
        runs: Sequence[Tuple[SecretKey, Sequence[int], Sequence[int]]],
        values: Sequence[int],
    ) -> None:
        """Deal ``values`` from ``dealer`` to ``targets`` of ``node``.

        ``runs`` lists per key, in ``values`` order, the parent dealing
        ids and parent xs of that key's consecutive records (parent -1:
        an initial dealing).  Each record becomes one dealing-table row
        and ``targets[j]`` stores its share x = j + 1.  The dealer is
        charged one message per share copy, in one ledger call per
        target.
        """
        group = len(targets)
        scheme = ShamirScheme(
            n_players=group, threshold=self._threshold(group), field=self.field
        )
        dealt = scheme.deal_values(values, self.rng)
        table = self._dealings
        spans: List[Tuple[SecretKey, range]] = []
        for key, parents, parent_xs in runs:
            first = len(table)
            table.extend(
                (key, parent, parent_x, dealer, group)
                for parent, parent_x in zip(parents, parent_xs)
            )
            spans.append((key, range(first, len(table))))
        bits = len(dealt) * (self.word_bits + HEADER_BITS)
        for x, (target, shares) in enumerate(zip(targets, zip(*dealt)), 1):
            store = self.stores.get((node, target))
            if store is None:
                store = self.stores[(node, target)] = {}
            start = 0
            for key, ids in spans:
                end = start + len(ids)
                columns = store.get(key)
                if columns is None:
                    columns = store[key] = ([], [], [])
                columns[0].extend(ids)
                columns[1].extend([x] * len(ids))
                columns[2].extend(shares[start:end])
                start = end
            self.ledger.record_abstract(dealer, target, bits, len(dealt))

    # -- initial dealing (Algorithm 2 step 1a) ------------------------------------------

    def initial_share(
        self, owner: int, secrets: Dict[SecretKey, int]
    ) -> None:
        """Processor ``owner`` secret-shares its words with leaf node ``owner``.

        Every word is dealt independently over the leaf committee; member
        j receives the x = j+1 share.
        """
        leaf = NodeId(1, owner)
        first = len(self._dealings)
        self._deal(
            leaf,
            owner,
            sorted(self.tree.members(leaf)),
            [(key, (-1,), (0,)) for key in secrets],
            list(secrets.values()),
        )
        for dealing, key in enumerate(secrets, first):
            self._roots[key] = dealing

    # -- sendSecretUp ----------------------------------------------------------------

    def send_secret_up(
        self,
        child: NodeId,
        keys: Sequence[SecretKey],
        corrupted: Set[int],
    ) -> None:
        """Re-share every record of ``keys`` from ``child`` into its parent.

        Each holder deals each of its records over its uplink targets and
        erases the original (Definition 1's iteration).  Corrupted holders
        deal garbage — the adversary may always destroy what it holds.
        A holder's records are dealt in one batch, in key order, which
        draws the same rng stream as one dealing per record.
        """
        parent = self.tree.parent(child)
        mod = self.field.modulus
        for member in sorted(self.tree.members(child)):
            store = self.stores.get((child, member))
            if not store:
                continue
            targets = sorted(self.links.uplinks(child, member))
            if not targets:
                continue
            runs = []
            values: List[int] = []
            for key in keys:
                columns = store.pop(key, None)
                if columns is not None:
                    runs.append((key, columns[0], columns[1]))
                    values.extend(columns[2])
            if not values:
                continue
            if member in corrupted:
                values = [(value + 1) % mod for value in values]
            self._deal(parent, member, targets, runs, values)

    # -- sendDown + reconstruction ------------------------------------------------------

    def send_down(
        self,
        top: NodeId,
        keys: Sequence[SecretKey],
        corrupted: Set[int],
    ) -> Dict[NodeId, Dict[SecretKey, Optional[int]]]:
        """Cascade shares from ``top`` to all its level-1 descendants.

        Returns the value each level-1 node reconstructs per secret (None
        on failure).  Shares held at ``top`` are consumed (released).
        """
        # Frontier: key -> dealing id -> its records' (x, holders,
        # value).  Records reconstructed on the way down are replicated
        # across several holders (capped), mirroring the paper's fan-out
        # while keeping the state tractable; corrupted holders are then
        # outvoted by the per-coordinate majority at the next hop.
        frontier: _Frontier = {key: {} for key in keys}
        for member in self.tree.members(top):
            store = self.stores.get((top, member))
            if not store:
                continue
            holders = (member,)
            for key in keys:
                columns = store.pop(key, None)
                if columns is None:
                    continue
                by_dealing = frontier[key]
                for dealing, x, value in zip(*columns):
                    arrivals = by_dealing.get(dealing)
                    if arrivals is None:
                        by_dealing[dealing] = ([x], [holders], [value])
                    else:
                        arrivals[0].append(x)
                        arrivals[1].append(holders)
                        arrivals[2].append(value)

        per_node: Dict[NodeId, _Frontier] = {top: frontier}
        # Sibling children often pool the same majority points for a
        # dealing; each distinct (threshold, points) pool decodes once.
        decoded: Dict[_PoolKey, Optional[int]] = {}
        level = top.level
        while level > 1:
            next_per_node: Dict[NodeId, _Frontier] = {}
            for node, node_frontier in per_node.items():
                grouped, holder_records = self._group_frontier(
                    node_frontier, corrupted
                )
                for child in self.tree.children(node):
                    next_per_node[child] = self._transfer_down(
                        child, grouped, holder_records, decoded
                    )
            per_node = next_per_node
            level -= 1

        # Level-1 nodes: members exchange all shares and reconstruct the
        # secret itself (the paper's final step).
        mod = self.field.modulus
        per_word = self.word_bits + HEADER_BITS
        leaf_values: Dict[NodeId, Dict[SecretKey, Optional[int]]] = {}
        for leaf, leaf_frontier in per_node.items():
            members = sorted(self.tree.members(leaf))
            values: Dict[SecretKey, Optional[int]] = {}
            holder_records: Dict[int, int] = {}
            for key, by_dealing in leaf_frontier.items():
                by_x: Dict[int, Dict[int, int]] = {}
                for xs, holders_column, arrived in by_dealing.values():
                    for x, holders, value in zip(xs, holders_column, arrived):
                        for holder in holders:
                            holder_records[holder] = (
                                holder_records.get(holder, 0) + 1
                            )
                            delivered = value
                            if holder in corrupted:
                                delivered = (value + 1) % mod
                            votes = by_x.setdefault(x, {})
                            votes[delivered] = votes.get(delivered, 0) + 1
                root = self._roots.get(key)
                group_size = (
                    len(members) if root is None else self._dealings[root][4]
                )
                values[key] = robust_reconstruct_points(
                    self.field,
                    _majority_points(by_x),
                    self._threshold(group_size),
                )
            # Intra-node exchange cost: every holder sends each record
            # to every other member.
            for holder, n_records in holder_records.items():
                for other in members:
                    if other != holder:
                        self.ledger.record_abstract(
                            holder, other, n_records * per_word
                        )
            leaf_values[leaf] = values
        return leaf_values

    #: Cap on how many members replicate one reconstructed record on the
    #: way down.  3 keeps a lone corrupted holder outvoted while bounding
    #: the state blow-up; each holder's copies are charged at the next hop.
    REPLICATION_CAP = 3

    def _group_frontier(
        self,
        node_frontier: _Frontier,
        corrupted: Set[int],
    ) -> Tuple[Dict[SecretKey, List[_Dealing]], Dict[int, int]]:
        """The child-independent half of one sendDown hop from a node.

        Returns, per key, its dealings in first-seen order, and each
        holder's number of (record, holder) pairs over the frontier.  A
        dealing's signature is the holders tuple of each of its records,
        in record order.  A corrupted holder delivers its records' values
        plus one.
        """
        mod = self.field.modulus
        table = self._dealings
        holder_records: Counter = Counter()
        grouped: Dict[SecretKey, List[_Dealing]] = {}
        for key, by_dealing in node_frontier.items():
            dealings: List[_Dealing] = []
            for dealing, (xs, holders_column, values) in by_dealing.items():
                holder_records.update(chain.from_iterable(holders_column))
                by_x: Dict[int, List[Tuple[Tuple[int, ...], int]]] = {}
                for x, holders, value in zip(xs, holders_column, values):
                    held = by_x.get(x)
                    if held is None:
                        by_x[x] = [(holders, value)]
                    else:
                        held.append((holders, value))
                dealings.append((
                    dealing,
                    self._threshold(table[dealing][4]),
                    [
                        _coordinate(x, held, corrupted, mod)
                        for x, held in sorted(by_x.items())
                    ],
                    tuple(holders_column),
                ))
            grouped[key] = dealings
        return grouped, holder_records

    def _transfer_down(
        self,
        child: NodeId,
        grouped: Dict[SecretKey, List[_Dealing]],
        holder_records: Dict[int, int],
        decoded: Dict[_PoolKey, Optional[int]],
    ) -> _Frontier:
        """Send a grouped node frontier into ``child``; collapse the pools.

        Each holder v sends every record it holds to the child members
        whose uplinks include v (the reversed uplink graph), so a value
        weighs as many votes as v has recipients there.  A dealing is
        recoverable when enough of its shares arrived; its (i-1)-share is
        replicated to the (up to REPLICATION_CAP) members that received
        the most of its shares — they forward it further down, and a
        corrupted one among them is outvoted at the next hop.  ``decoded``
        memoises the decoder per ``(threshold, majority points)`` pool.
        """
        reverse = self.links.reverse_uplinks(child)
        per_word = self.word_bits + HEADER_BITS
        for holder, n_records in holder_records.items():
            for recipient in reverse.get(holder, ()):
                self.ledger.record_abstract(
                    holder, recipient, n_records * per_word
                )

        coverage = {h: len(recipients) for h, recipients in reverse.items()}
        covered = coverage.keys()
        ranks: Dict[_Signature, Tuple[int, ...]] = {}
        table = self._dealings
        out: _Frontier = {}
        for key, dealings in grouped.items():
            by_parent: Dict[int, _Arrivals] = {}
            for dealing, threshold, coordinates, signature in dealings:
                points: List[Tuple[int, int]] = []
                for x, agreed, holders, pairs in coordinates:
                    if agreed is not None:
                        if not covered.isdisjoint(holders):
                            points.append(agreed)
                        continue
                    votes: Dict[int, int] = {}
                    for holder, delivered in pairs:
                        weight = coverage.get(holder)
                        if weight:
                            votes[delivered] = votes.get(delivered, 0) + weight
                    if votes:
                        points.append((x, _plurality(votes)))
                memo_key = (threshold, tuple(points))
                if memo_key in decoded:
                    value = decoded[memo_key]
                else:
                    value = robust_reconstruct_points(
                        self.field, memo_key[1], threshold
                    )
                    decoded[memo_key] = value
                if value is None:
                    continue
                holders = ranks.get(signature)
                if holders is None:
                    holders = self._top_recipients(reverse, signature)
                    ranks[signature] = holders
                _key, parent, x, _dealer, _size = table[dealing]
                if parent < 0:  # fully reconstructed secret
                    parent, x = dealing, 0
                arrivals = by_parent.get(parent)
                if arrivals is None:
                    by_parent[parent] = ([x], [holders], [value])
                else:
                    arrivals[0].append(x)
                    arrivals[1].append(holders)
                    arrivals[2].append(value)
            out[key] = by_parent
        return out

    def _top_recipients(
        self,
        reverse: Dict[int, Tuple[int, ...]],
        signature: _Signature,
    ) -> Tuple[int, ...]:
        """The REPLICATION_CAP child members sent the most of a dealing's
        shares, by (count descending, pid); one share per (record,
        holder, recipient)."""
        received: Dict[int, int] = {}
        for holders in signature:
            for holder in holders:
                for recipient in reverse.get(holder, ()):
                    received[recipient] = received.get(recipient, 0) + 1
        ranked = sorted(received, key=lambda m: (-received[m], m))
        return tuple(ranked[: self.REPLICATION_CAP])

    # -- sendOpen -------------------------------------------------------------------

    def send_open(
        self,
        top: NodeId,
        keys: Sequence[SecretKey],
        leaf_values: Dict[NodeId, Dict[SecretKey, Optional[int]]],
        corrupted: Set[int],
        bad_value_fn=None,
    ) -> Dict[int, Dict[SecretKey, Optional[int]]]:
        """Leaf committees report reconstructed values up the ℓ-links.

        Every member of each level-1 node sends its value for each secret
        to the ``top`` members linked to that node.  A ``top`` member
        takes a majority within each leaf node's reports, then a majority
        across its linked leaf nodes (Section 3.2.3).

        ``bad_value_fn(key, pid)`` supplies corrupted members' reports
        (default: flip the low bit — enough to attack coin words).  It
        must be deterministic: a leaf's reports are the same for every
        ``top`` member linked to it, so it runs once per (key, leaf
        member) per linked leaf, not once per report.
        """
        if bad_value_fn is None:
            bad_value_fn = lambda key, pid: 1
        node_views: Dict[int, Dict[SecretKey, Optional[int]]] = {}
        if top.level == 1:
            # Degenerate: the "subtree" is the node itself; every member
            # already holds the reconstructed value.
            for member in self.tree.members(top):
                views = {}
                for key in keys:
                    views[key] = leaf_values.get(top, {}).get(key)
                node_views[member] = views
            return node_views

        verdicts: Dict[
            NodeId, Tuple[Dict[SecretKey, Optional[int]], Dict[int, int]]
        ] = {}
        charge_counts: Dict[Tuple[int, int], int] = {}
        for member in self.tree.members(top):
            linked_leaves = self.links.ell_links(top, member)
            rows: List[Dict[SecretKey, Optional[int]]] = []
            for leaf in linked_leaves:
                verdict = verdicts.get(leaf)
                if verdict is None:
                    verdict = self._leaf_verdict(
                        leaf, keys, leaf_values.get(leaf, {}), corrupted,
                        bad_value_fn,
                    )
                    verdicts[leaf] = verdict
                row, reports = verdict
                for leaf_member, count in reports.items():
                    pair = (leaf_member, member)
                    charge_counts[pair] = charge_counts.get(pair, 0) + count
                rows.append(row)
            views: Dict[SecretKey, Optional[int]] = {}
            for key in keys:
                # Same guard as within a leaf, across the linked leaves.
                leaf_reports = [
                    row[key] for row in rows if row[key] is not None
                ]
                views[key] = _backed_majority(
                    leaf_reports, len(linked_leaves)
                )
            node_views[member] = views
        per_word = self.word_bits + HEADER_BITS
        for (sender, recipient), words in charge_counts.items():
            self.ledger.record_abstract(sender, recipient, words * per_word)
        return node_views

    def _leaf_verdict(
        self,
        leaf: NodeId,
        keys: Sequence[SecretKey],
        values: Dict[SecretKey, Optional[int]],
        corrupted: Set[int],
        bad_value_fn,
    ) -> Tuple[Dict[SecretKey, Optional[int]], Dict[int, int]]:
        """One leaf's per-key report and its members' report counts.

        A leaf's report only counts when a strict majority of its *full
        membership* backs one value — committee sizes are common
        knowledge, so silence from failed good members must not let a
        corrupted minority speak for the node.
        """
        leaf_members = self.tree.members(leaf)
        row: Dict[SecretKey, Optional[int]] = {}
        sent: Dict[int, int] = {}
        for key in keys:
            value = values.get(key)
            reports: List[int] = []
            for leaf_member in leaf_members:
                if leaf_member in corrupted:
                    reports.append(bad_value_fn(key, leaf_member))
                elif value is not None:  # failed reconstruction abstains
                    reports.append(value)
                else:
                    continue
                sent[leaf_member] = sent.get(leaf_member, 0) + 1
            row[key] = _backed_majority(reports, len(leaf_members))
        return row, sent

    def reveal(
        self,
        top: NodeId,
        keys: Sequence[SecretKey],
        corrupted: Set[int],
        bad_value_fn=None,
    ) -> RevealOutcome:
        """sendDown followed by sendOpen — the full reveal of Lemma 3(2)."""
        leaf_values = self.send_down(top, keys, corrupted)
        node_views = self.send_open(
            top, keys, leaf_values, corrupted, bad_value_fn
        )
        return RevealOutcome(leaf_values=leaf_values, node_views=node_views)

    # -- adversary knowledge (Lemma 1 / Lemma 3(1)) -------------------------------------

    def adversary_can_reconstruct(
        self, key: SecretKey, corrupted: Set[int]
    ) -> bool:
        """Whether the coalition's current shares determine secret ``key``.

        Pools every record held by corrupted processors anywhere in the
        tree and runs the same cascade the reveal would, but *only* with
        coalition shares.  True means secrecy is broken (Lemma 3(1): some
        node on the path must have gone bad).

        Whether a pool reconstructs depends only on how many distinct
        coordinates it holds, so the cascade runs over (dealing id, x)
        pairs: a dealing with at least its threshold of coalition
        coordinates yields the coalition its parent share.
        """
        known: Set[Tuple[int, int]] = set()
        for (_node, pid), store in self.stores.items():
            if pid in corrupted:
                columns = store.get(key)
                if columns is not None:
                    known.update(zip(columns[0], columns[1]))

        table = self._dealings
        changed = True
        while changed:
            changed = False
            pools: Dict[int, Set[int]] = {}
            for dealing, x in known:
                if table[dealing][1] >= 0:
                    pools.setdefault(dealing, set()).add(x)
            for dealing, xs in pools.items():
                _key, parent, parent_x, _dealer, size = table[dealing]
                if (parent, parent_x) in known:
                    continue
                if len(xs) >= self._threshold(size):
                    known.add((parent, parent_x))
                    changed = True
        # The secret itself corresponds to recovering the level-1 dealing.
        root = self._roots.get(key)
        if root is None:
            return False
        coordinates = {x for dealing, x in known if dealing == root}
        return len(coordinates) >= self._threshold(table[root][4])


def _coordinate(
    x: int,
    held: List[Tuple[Tuple[int, ...], int]],
    corrupted: Set[int],
    mod: int,
) -> _Coordinate:
    """Group one coordinate's arrivals: ``held`` is (holders, value) per
    record.  A corrupted holder delivers the value plus one."""
    if len(held) == 1:
        holders, value = held[0]
        if corrupted.isdisjoint(holders):
            return (x, (x, value), holders, ())
        if corrupted.issuperset(holders):
            return (x, (x, (value + 1) % mod), holders, ())
    pairs = tuple(
        (holder, (value + 1) % mod if holder in corrupted else value)
        for holders, value in held
        for holder in holders
    )
    holders = tuple(holder for holder, _delivered in pairs)
    first = pairs[0][1]
    if all(delivered == first for _holder, delivered in pairs):
        return (x, (x, first), holders, ())
    return (x, None, holders, pairs)


def _plurality(counts: Dict[int, int]) -> int:
    """The most-counted value; ties go to the smaller value."""
    if len(counts) == 1:
        return next(iter(counts))
    return max(counts, key=lambda v: (counts[v], -v))


def _majority_points(
    by_x: Dict[int, Dict[int, int]]
) -> List[Tuple[int, int]]:
    """Per-coordinate plurality values by ascending x — decoder input."""
    return sorted((x, _plurality(votes)) for x, votes in by_x.items())


def _backed_majority(values: Sequence[int], voters: int) -> Optional[int]:
    """The plurality of ``values`` if more than half of ``voters`` back
    it, else None."""
    if not values:
        return None
    counts: Dict[int, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    majority = _plurality(counts)
    return majority if counts[majority] * 2 > voters else None
