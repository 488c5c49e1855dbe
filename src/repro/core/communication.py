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
* **One record per coordinate.**  A sendDown frontier holds at most one
  record per (dealing, x): :meth:`~TreeCommunicator._deal` gives each
  share of a dealing to exactly one target, each upward record is
  re-dealt once and then erased, and a reconstructed dealing yields one
  record of its parent.  Grouping a frontier checks this and raises
  :class:`CommunicationError` on a duplicate instead of merging it.
* **Holder structures.**  A dealing's *structure* is its records' x's
  and holders, in record order.  :meth:`~TreeCommunicator.send_secret_up`
  deals all of a holder's keys to the same uplink targets, so every key
  of an owner reaches a node with the same structure.  Each hop groups
  its frontier's dealings by structure and computes once per structure
  what does not depend on the recipient: the x order, each coordinate's
  class (clean, all-corrupted or mixed) and each holder's record count.
  A dealing keeps only its values, its all-corrupted coordinates
  shifted to the v + 1 their holders deliver.
* **Plans.**  Per recipient node, a structure gets one *plan* from how
  many of the node's members each holder reaches: which coordinates
  enter the pool (those with a holder that reaches it), and how each
  mixed coordinate votes — v, v + 1, or a tie, which goes to the
  smaller of the two (v + 1 only when v = p - 1).  Siblings with equal
  plans share each dealing's pool, so a pool is built once per
  (distinct plan, dealing): the plan's x grid once, and each dealing's
  row of values on it, mixed coordinates voted in place.  The members
  that forward a decoded record are the (at most ``REPLICATION_CAP``)
  child members that received the most of its shares, ties to the
  smaller pid; they are ranked once per (child, structure) from the
  holder counts.  The leaf step is the same hop with weight one per
  leaf member, and a leaf holds at most its key's initial dealing.
  Structures and plans live for one hop.
* **One decode per hop and grid.**  A node builds the pools of all its
  children first and queues the value row of every pool that is new
  to the call under its (threshold, x grid); each queue then goes to
  one :func:`~repro.crypto.reed_solomon.berlekamp_welch` call, which
  returns the rows' constants, and only then are the children's
  frontiers built.  The leaf step decodes the pools of all leaves in
  one call per (threshold, grid).  Each distinct (threshold, grid,
  values) pool decodes once per ``send_down`` call, leaf pools
  included: the memo keeps a one-element slot per pool that the
  decoder's constant fills, and the children hold only the slots.
* **Message counts.**  Every transfer is charged to the ledger at word
  granularity, preserving Lemma 5's counting (including the ``d_m^ℓ``
  replication blow-up).  The initial dealing and sendSecretUp count one
  message per share copy; the sendDown hops, the level-1 exchange and
  sendOpen count one message per (sender, recipient) pair per call,
  whatever its word count.  A dealer's, and each sendDown holder's,
  fan-out is charged in one ledger call; sendOpen's word counts differ
  per pair, so it charges each pair alone.  Senders with no words are
  not charged, so the ledger holds no zero entries.
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
from ..crypto.reed_solomon import berlekamp_welch, decode_constant
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

#: One decoder input: (reconstruction threshold, the x grid in
#: ascending order, the majority value at each x).
_PoolKey = Tuple[int, Tuple[int, ...], Tuple[int, ...]]

#: A pool's entry in the sendDown decode memo: [its constant term, or
#: None when decoding fails], filled by the hop's batch decode.
_Slot = List[Optional[int]]

#: A holder structure's identity: its records' x's and holders, in
#: record order.
_Shape = Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]

#: A frontier grouped by holder structure: per key, each dealing as
#: (structure index, the dealing's index in that structure), in the
#: frontier's dealing order.
_Grouped = Dict[SecretKey, List[Tuple[int, int]]]

#: What one recipient node makes of a holder structure: the coordinates
#: that enter its pools, by position in x order, and per mixed one
#: (its index in the pool, whether v wins, whether v + 1 wins), both
#: on a tie.
_Plan = Tuple[Tuple[int, ...], Tuple[Tuple[int, bool, bool], ...]]

#: One recipient node's half of a hop: per structure, the slot of each
#: of its dealings' pools.
_Hop = List[List[_Slot]]

#: Pools waiting for one batch decode: (threshold, x grid) -> (the value
#: row of each pool, its slot), in first-seen order.
_Queue = Dict[
    Tuple[int, Tuple[int, ...]], Tuple[List[Tuple[int, ...]], List[_Slot]]
]


class _Structure:
    """The x's and holders, in record order, that dealings of one
    frontier share, with the child-independent facts about them.

    ``send_secret_up`` deals all of a holder's keys to the same uplink
    targets, so every key of an owner reaches a node with the same
    structure; what a recipient node makes of a dealing depends on the
    structure alone, apart from the values.
    """

    __slots__ = ("order", "xs", "coordinates", "shifted", "counts", "dealings")

    def __init__(
        self,
        xs: Sequence[int],
        holders_column: Sequence[Tuple[int, ...]],
        corrupted: Set[int],
    ) -> None:
        #: Record positions by ascending x, and the x's in that order.
        self.order = sorted(range(len(xs)), key=xs.__getitem__)
        self.xs = [xs[i] for i in self.order]
        #: Per coordinate in x order: (holders, corrupted holders).  The
        #: second is empty unless good and corrupted holders mix: then
        #: the good ones deliver the value v and the corrupted ones v + 1.
        self.coordinates: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
        #: Coordinates whose holders are all corrupted: they deliver v + 1.
        self.shifted: List[int] = []
        for position, i in enumerate(self.order):
            holders = holders_column[i]
            bad: Tuple[int, ...] = ()
            if not corrupted.isdisjoint(holders):
                bad = tuple(h for h in holders if h in corrupted)
                if len(bad) == len(holders):
                    self.shifted.append(position)
                    bad = ()
            self.coordinates.append((holders, bad))
        #: Each holder's record count, in first-seen order.
        self.counts = Counter(chain.from_iterable(holders_column))
        #: Per dealing: (dealing id, threshold, the values its holders
        #: deliver in x order; a mixed coordinate keeps v).
        self.dealings: List[Tuple[int, int, List[int]]] = []

    def add(
        self, dealing: int, threshold: int, values: Sequence[int], mod: int
    ) -> None:
        """Append a dealing whose records hold ``values``."""
        ordered = [values[i] for i in self.order]
        for position in self.shifted:
            ordered[position] = (ordered[position] + 1) % mod
        self.dealings.append((dealing, threshold, ordered))

    def plan(self, coverage: Mapping[int, int]) -> _Plan:
        """The plan of a recipient node where holder h reaches
        ``coverage[h]`` members (absent: none).

        A coordinate whose holders agree enters the pool if any holder
        reaches the node.  A mixed one is a vote between v and v + 1
        weighted by reach; :func:`_vote` compares the weights only, so
        the plan keeps which side they favour and siblings that vote
        alike get equal plans.
        """
        covered = coverage.keys()
        positions: List[int] = []
        votes: List[Tuple[int, bool, bool]] = []
        for position, (holders, bad) in enumerate(self.coordinates):
            if not bad:
                if not covered.isdisjoint(holders):
                    positions.append(position)
                continue
            good_weight = bad_weight = 0
            for holder in holders:
                if holder in bad:
                    bad_weight += coverage.get(holder, 0)
                else:
                    good_weight += coverage.get(holder, 0)
            if good_weight or bad_weight:
                votes.append((
                    len(positions),
                    good_weight >= bad_weight,
                    bad_weight >= good_weight,
                ))
                positions.append(position)
        return tuple(positions), tuple(votes)


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
    clean pool, and most tampered ones — needs no linear solve; see
    :func:`~repro.crypto.reed_solomon.berlekamp_welch`.  This is the
    one-pool front end: the pool goes to the decoder as a batch of one,
    while ``sendDown`` hands the decoder whole node hops at once.

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
        charged one message per share copy to every target, in one
        ledger call; an empty dealing charges nothing.
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
        if dealt:
            self.ledger.record_abstract(
                dealer,
                targets,
                len(dealt) * (self.word_bits + HEADER_BITS),
                len(dealt),
            )

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
        # Sibling children, and leaves, often pool the same points for a
        # dealing; each distinct (threshold, points) pool decodes once.
        decoded: Dict[_PoolKey, _Slot] = {}
        per_word = self.word_bits + HEADER_BITS
        level = top.level
        while level > 1:
            next_per_node: Dict[NodeId, _Frontier] = {}
            for node, node_frontier in per_node.items():
                grouped, structures = self._group_frontier(
                    node_frontier, corrupted
                )
                records = _holder_records(structures)
                children = self.tree.children(node)
                reverses = [
                    self.links.reverse_uplinks(child) for child in children
                ]
                # Each holder v sends every record it holds to the child
                # members whose uplinks include v (the reversed uplink
                # graph), so a value weighs as many votes as v has
                # recipients there.
                for reverse in reverses:
                    for holder, n_records in records.items():
                        self.ledger.record_abstract(
                            holder, reverse.get(holder, ()),
                            n_records * per_word,
                        )
                queued: _Queue = {}
                hops = self._pools_down(
                    structures,
                    [
                        {h: len(members) for h, members in reverse.items()}
                        for reverse in reverses
                    ],
                    decoded,
                    queued,
                )
                self._decode(queued)
                for child, reverse, hop in zip(children, reverses, hops):
                    next_per_node[child] = self._frontier_below(
                        reverse, grouped, structures, hop
                    )
            per_node = next_per_node
            level -= 1

        # Level-1 nodes: members exchange all shares and reconstruct the
        # secret itself (the paper's final step).  This is the same hop
        # with weight one per leaf member, every leaf's pools in one
        # batch per threshold.
        queued = {}
        leaf_hops = []
        for leaf, leaf_frontier in per_node.items():
            members = sorted(self.tree.members(leaf))
            grouped, structures = self._group_frontier(
                leaf_frontier, corrupted
            )
            # Intra-node exchange cost: every holder sends each record
            # to every other member.
            for holder, n_records in _holder_records(structures).items():
                self.ledger.record_abstract(
                    holder,
                    [other for other in members if other != holder],
                    n_records * per_word,
                )
            (hop,) = self._pools_down(
                structures, [dict.fromkeys(members, 1)], decoded, queued
            )
            leaf_hops.append((leaf, grouped, hop))
        self._decode(queued)
        return {
            leaf: {
                key: _leaf_value(key, entries, hop)
                for key, entries in grouped.items()
            }
            for leaf, grouped, hop in leaf_hops
        }

    #: Cap on how many members replicate one reconstructed record on the
    #: way down.  3 keeps a lone corrupted holder outvoted while bounding
    #: the state blow-up; each holder's copies are charged at the next hop.
    REPLICATION_CAP = 3

    def _group_frontier(
        self,
        node_frontier: _Frontier,
        corrupted: Set[int],
    ) -> Tuple[_Grouped, List[_Structure]]:
        """The recipient-independent half of one sendDown hop.

        Groups the frontier's dealings by holder structure, structures
        in first-seen order.  A dealing holds one record per x (module
        docstring); a second one raises :class:`CommunicationError`.
        """
        mod = self.field.modulus
        table = self._dealings
        index: Dict[_Shape, int] = {}
        structures: List[_Structure] = []
        grouped: _Grouped = {}
        for key, by_dealing in node_frontier.items():
            entries = grouped[key] = []
            for dealing, (xs, holders_column, values) in by_dealing.items():
                shape = (tuple(xs), tuple(holders_column))
                s = index.get(shape)
                if s is None:
                    if len(set(xs)) != len(xs):
                        raise CommunicationError(
                            f"dealing {dealing} of key {key} holds a "
                            "coordinate twice in one frontier"
                        )
                    s = index[shape] = len(structures)
                    structures.append(
                        _Structure(xs, holders_column, corrupted)
                    )
                structure = structures[s]
                entries.append((s, len(structure.dealings)))
                structure.add(
                    dealing, self._threshold(table[dealing][4]), values, mod
                )
        return grouped, structures

    def _pools_down(
        self,
        structures: Sequence[_Structure],
        coverages: Sequence[Mapping[int, int]],
        decoded: Dict[_PoolKey, _Slot],
        queued: _Queue,
    ) -> List[_Hop]:
        """The hop of each recipient node: the slot of every dealing's pool.

        ``coverages`` gives, per recipient node, each holder's weight
        there (see :meth:`_Structure.plan`).  Recipients whose plans of
        a structure are equal share its pools.  A plan's pools share one
        x grid, built once, and each dealing's pool is its row of values
        on that grid, mixed coordinates voted in place.  ``decoded``
        memoises each ``(threshold, grid, values)`` pool's slot; a pool
        not yet in it is queued under its threshold and grid for the
        hop's batch decode.
        """
        mod = self.field.modulus
        hops: List[_Hop] = [[] for _ in coverages]
        for structure in structures:
            shared: Dict[_Plan, List[_Slot]] = {}
            for coverage, hop in zip(coverages, hops):
                plan = structure.plan(coverage)
                slots = shared.get(plan)
                if slots is None:
                    slots = shared[plan] = []
                    positions, votes = plan
                    xs = tuple([structure.xs[i] for i in positions])
                    for _dealing, threshold, values in structure.dealings:
                        row = [values[i] for i in positions]
                        for j, good, bad in votes:
                            row[j] = _vote(row[j], good, bad, mod)
                        pool = (threshold, xs, tuple(row))
                        slot = decoded.get(pool)
                        if slot is None:
                            slot = decoded[pool] = [None]
                            rows, grid_slots = queued.setdefault(
                                (threshold, xs), ([], [])
                            )
                            rows.append(pool[2])
                            grid_slots.append(slot)
                        slots.append(slot)
                hop.append(slots)
        return hops

    def _decode(self, queued: _Queue) -> None:
        """Fill each queued pool's slot: one decoder call per (threshold,
        grid)."""
        for (threshold, xs), (rows, slots) in queued.items():
            constants = berlekamp_welch(self.field, xs, rows, threshold)
            for slot, constant in zip(slots, constants):
                slot[0] = constant

    def _frontier_below(
        self,
        reverse: Mapping[int, Tuple[int, ...]],
        grouped: _Grouped,
        structures: Sequence[_Structure],
        hop: _Hop,
    ) -> _Frontier:
        """A child's frontier once its pools are decoded; ``reverse``
        is the child's
        :meth:`~repro.topology.links.LinkStructure.reverse_uplinks`.

        A dealing is recoverable when its pool decodes; its (i-1)-share
        is replicated to the (up to REPLICATION_CAP) members that
        received the most of its shares — they forward it further down,
        and a corrupted one among them is outvoted at the next hop.
        """
        ranks: Dict[int, Tuple[int, ...]] = {}
        table = self._dealings
        out: _Frontier = {}
        for key, entries in grouped.items():
            by_parent: Dict[int, _Arrivals] = {}
            for s, i in entries:
                (value,) = hop[s][i]
                if value is None:
                    continue
                holders = ranks.get(s)
                if holders is None:
                    holders = ranks[s] = self._top_recipients(
                        reverse, structures[s].counts
                    )
                dealing = structures[s].dealings[i][0]
                _key, parent, x, _dealer, _size = table[dealing]
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
        reverse: Mapping[int, Tuple[int, ...]],
        counts: Mapping[int, int],
    ) -> Tuple[int, ...]:
        """The REPLICATION_CAP child members sent the most of a dealing's
        shares, by (count descending, pid); one share per (record,
        holder, recipient), so a holder counts once per record it holds
        (``counts``)."""
        received: Dict[int, int] = {}
        for holder, count in counts.items():
            for recipient in reverse.get(holder, ()):
                received[recipient] = received.get(recipient, 0) + count
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
            self.ledger.record_abstract(sender, (recipient,), words * per_word)
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


def _holder_records(structures: Sequence[_Structure]) -> Dict[int, int]:
    """Each holder's record count over a grouped frontier, in the order
    the frontier first names the holders (structures are in first-seen
    order, and so are each structure's holders)."""
    records: Dict[int, int] = {}
    for structure in structures:
        copies = len(structure.dealings)
        for holder, count in structure.counts.items():
            records[holder] = records.get(holder, 0) + count * copies
    return records


def _leaf_value(
    key: SecretKey, entries: Sequence[Tuple[int, int]], hop: _Hop
) -> Optional[int]:
    """A leaf's value for ``key``: its dealing's decoded value, or None.

    A leaf holds at most one dealing per key, the key's initial one:
    each dealing the level above decodes yields a record of its parent,
    and every dealing above a leaf descends from the initial dealing.
    """
    if not entries:
        return None
    if len(entries) > 1:
        raise CommunicationError(
            f"key {key} reaches a leaf in {len(entries)} dealings"
        )
    ((s, i),) = entries
    return hop[s][i][0]


def _vote(value: int, good: int, bad: int, mod: int) -> int:
    """The decoder value of a coordinate whose good holders deliver
    ``value`` with total weight ``good`` and whose corrupted holders
    deliver ``value`` + 1 with weight ``bad``: the higher weight wins, a
    tie goes to the smaller value (the rule of :func:`_plurality`)."""
    shifted = (value + 1) % mod
    if bad > good or (bad == good and shifted < value):
        return shifted
    return value


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
