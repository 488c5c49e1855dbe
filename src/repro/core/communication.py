"""Tree communication protocols: sendSecretUp, sendDown, sendOpen.

Paper Section 3.2.3.  Secrets climb the tree as iterated shares
(Definition 1) and are revealed by cascading back down to every leaf of
the subtree, where level-1 committees reconstruct and then report values
straight up to the revealing node over ℓ-links (Lemma 3).

Implementation notes (see DESIGN.md §3 for the substitution rationale):

* **Upward** flows are tracked per processor: ``(node, pid)`` share
  stores, so adversary knowledge (which secrets a corrupted coalition can
  reconstruct — Lemma 1) is exact.
* **Downward** reveal pools arriving shares per committee node: once a
  secret is being revealed, secrecy is moot, and the paper itself pools at
  level 1 ("the processors in the 1-node each send each other all their
  shares and reconstruct").  Reconstruction of a (j-1)-share succeeds at a
  child node iff enough shares of that dealing arrive — exactly the
  condition Lemma 3(2) argues holds along good paths.
* Every transfer is charged to the ledger at word granularity, preserving
  Lemma 5's counting (including the ``d_m^ℓ`` replication blow-up).
* Corrupted holders contribute *tampered* share values during reveal and
  deal garbage when re-sharing; robustness comes from the same
  majority/threshold structure the paper relies on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..crypto.field import PrimeField
from ..crypto.reed_solomon import decode_constant
from ..crypto.shamir import SecretSharingError, ShamirScheme, Share
from ..net.accounting import BitLedger
from ..net.messages import HEADER_BITS
from ..topology.links import LinkStructure
from ..topology.tree import NodeId, TreeTopology

#: Identifies one secret word: (owner processor, word index within array).
SecretKey = Tuple[int, int]

#: One dealing hop: (dealer processor id, x coordinate within the dealing).
PathEntry = Tuple[int, int]

SharePathT = Tuple[PathEntry, ...]

#: One decoder input: (reconstruction threshold, majority points).
_PoolKey = Tuple[int, Tuple[Tuple[int, int], ...]]


@dataclass(frozen=True)
class ShareRecord:
    """An i-share held by some processor.

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

    def prefix(self) -> SharePathT:
        """The parent record's path (one dealing hop removed)."""
        return self.path[:-1]


class CommunicationError(RuntimeError):
    """Raised on protocol-flow violations."""


class _DealingPool:
    """Aggregated arrivals of one dealing's shares at one committee node.

    ``votes[x][value]`` counts weighted arrivals of coordinate ``x`` with
    ``value`` (conflicts only arise from corrupted holders);
    ``recipients[pid]`` counts how many shares each node member received
    (used to pick the forwarding holders).
    """

    __slots__ = ("votes", "recipients")

    def __init__(self) -> None:
        self.votes: Dict[int, Dict[int, int]] = {}
        self.recipients: Dict[int, int] = {}

    def majority_points(self) -> List[Tuple[int, int]]:
        """Per-coordinate majority value — the decoder's input."""
        return sorted(
            (x, max(votes, key=lambda v: (votes[v], -v)))
            for x, votes in self.votes.items()
        )


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
    points = sorted(
        (x, max(votes, key=lambda v: (votes[v], -v)))
        for x, votes in by_x.items()
    )
    return robust_reconstruct_points(field, points, threshold)


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
        #: (node, pid) -> secret -> list of records held there.
        self.stores: Dict[Tuple[NodeId, int], Dict[SecretKey, List[ShareRecord]]] = {}
        #: (secret, dealing path) -> group size of that dealing.
        self.group_sizes: Dict[Tuple[SecretKey, SharePathT], int] = {}
        self.word_bits = field.element_bits

    # -- helpers --------------------------------------------------------------------

    def _store(self, node: NodeId, pid: int) -> Dict[SecretKey, List[ShareRecord]]:
        return self.stores.setdefault((node, pid), {})

    def _threshold(self, group_size: int) -> int:
        return max(1, int(group_size * self.threshold_fraction) + 1)

    def _charge(self, sender: int, recipient: int, words: int = 1) -> None:
        self.ledger.record_abstract(
            sender, recipient, words * (self.word_bits + HEADER_BITS)
        )

    def _charge_batch(self, counts: Dict[Tuple[int, int], int]) -> None:
        """One ledger entry per (sender, recipient) pair — hot-path form."""
        per_word = self.word_bits + HEADER_BITS
        for (sender, recipient), words in counts.items():
            self.ledger.record_abstract(sender, recipient, words * per_word)

    def records_at(self, node: NodeId, pid: int, key: SecretKey) -> List[ShareRecord]:
        """Share records a processor holds for a key at a node."""
        return list(self._store(node, pid).get(key, []))

    def erase(self, node: NodeId, pid: int, key: SecretKey) -> None:
        """The paper's mandatory deletion after re-sharing."""
        self._store(node, pid).pop(key, None)

    # -- initial dealing (Algorithm 2 step 1a) ------------------------------------------

    def initial_share(
        self, owner: int, secrets: Dict[SecretKey, int]
    ) -> None:
        """Processor ``owner`` secret-shares its words with leaf node ``owner``.

        Every word is dealt independently over the leaf committee; member
        j receives the x = j+1 share.
        """
        leaf = NodeId(1, owner)
        members = sorted(self.tree.members(leaf))
        scheme = ShamirScheme(
            n_players=len(members),
            threshold=self._threshold(len(members)),
            field=self.field,
        )
        for key, value in secrets.items():
            shares = scheme.deal(value, self.rng)
            self.group_sizes[(key, ((owner, 0),))] = len(members)
            for member, share in zip(members, shares):
                record = ShareRecord(
                    secret=key,
                    path=((owner, share.x),),
                    value=share.value,
                )
                self._store(leaf, member).setdefault(key, []).append(record)
                self._charge(owner, member)

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
        """
        parent = self.tree.parent(child)
        for member in sorted(self.tree.members(child)):
            store = self._store(child, member)
            targets = sorted(self.links.uplinks(child, member))
            if not targets:
                continue
            scheme = ShamirScheme(
                n_players=len(targets),
                threshold=self._threshold(len(targets)),
                field=self.field,
            )
            for key in keys:
                records = store.pop(key, [])
                for record in records:
                    value = record.value
                    if member in corrupted:
                        value = (value + 1) % self.field.modulus
                    shares = scheme.deal(value, self.rng)
                    new_path_base = record.path
                    self.group_sizes[
                        (key, new_path_base + ((member, 0),))
                    ] = len(targets)
                    for target, share in zip(targets, shares):
                        new_record = ShareRecord(
                            secret=key,
                            path=new_path_base + ((member, share.x),),
                            value=share.value,
                        )
                        self._store(parent, target).setdefault(
                            key, []
                        ).append(new_record)
                        self._charge(member, target)

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
        # Frontier: node -> key -> list of (record, holder pids).  Records
        # reconstructed on the way down are replicated across several
        # holders (capped), mirroring the paper's fan-out while keeping
        # the state tractable; corrupted holders are then outvoted by the
        # per-coordinate majority inside robust_reconstruct.
        frontier: Dict[SecretKey, List[Tuple[ShareRecord, Tuple[int, ...]]]] = {
            key: [] for key in keys
        }
        for member in self.tree.members(top):
            store = self._store(top, member)
            for key in keys:
                for record in store.pop(key, []):
                    frontier[key].append((record, (member,)))

        per_node: Dict[
            NodeId, Dict[SecretKey, List[Tuple[ShareRecord, Tuple[int, ...]]]]
        ]
        per_node = {top: frontier}
        # Sibling children often pool the same majority points for a
        # dealing; each distinct (threshold, points) pool decodes once.
        decoded: Dict[_PoolKey, Optional[int]] = {}
        level = top.level
        while level > 1:
            next_per_node: Dict[
                NodeId, Dict[SecretKey, List[Tuple[ShareRecord, int]]]
            ] = {}
            for node, node_frontier in per_node.items():
                for child in self.tree.children(node):
                    pooled = self._transfer_down(
                        node, child, node_frontier, corrupted
                    )
                    next_per_node[child] = self._reconstruct_pool(
                        pooled, decoded
                    )
            per_node = next_per_node
            level -= 1

        # Level-1 nodes: members exchange all shares and reconstruct the
        # secret itself (the paper's final step).
        leaf_values: Dict[NodeId, Dict[SecretKey, Optional[int]]] = {}
        for leaf, leaf_frontier in per_node.items():
            members = sorted(self.tree.members(leaf))
            values: Dict[SecretKey, Optional[int]] = {}
            charge_counts: Dict[Tuple[int, int], int] = {}
            for key, records in leaf_frontier.items():
                # Intra-node exchange cost: every holder sends each record
                # to every other member.
                pool: List[Share] = []
                group_key = (key, ((key[0], 0),))
                group_size = self.group_sizes.get(group_key, len(members))
                for record, holders in records:
                    for holder in holders:
                        for other in members:
                            if other != holder:
                                pair = (holder, other)
                                charge_counts[pair] = (
                                    charge_counts.get(pair, 0) + 1
                                )
                        value = record.value
                        if holder in corrupted:
                            value = (value + 1) % self.field.modulus
                        pool.append(
                            Share(x=record.path[-1][1], value=value)
                        )
                values[key] = robust_reconstruct(
                    self.field, pool, self._threshold(group_size)
                )
            self._charge_batch(charge_counts)
            leaf_values[leaf] = values
        return leaf_values

    #: Cap on how many members replicate one reconstructed record on the
    #: way down.  3 keeps a lone corrupted holder outvoted while bounding
    #: the state blow-up (the *bits* of the paper's full replication are
    #: charged regardless, in _transfer_down).
    REPLICATION_CAP = 3

    def _transfer_down(
        self,
        node: NodeId,
        child: NodeId,
        node_frontier: Dict[SecretKey, List[Tuple[ShareRecord, Tuple[int, ...]]]],
        corrupted: Set[int],
    ) -> Dict[SecretKey, Dict[SharePathT, "_DealingPool"]]:
        """Send every record from ``node``'s holders into ``child``.

        Each holder v sends to the child members whose uplinks include v
        (the reversed uplink graph).  Returns, per secret and per dealing,
        the aggregated arrival pool in the child: per-coordinate value
        votes plus per-recipient share counts.  Every copy a holder sends
        is identical, so votes are aggregated per (record, holder) with
        the recipient count as the weight — same decoder input, a
        fraction of the bookkeeping.
        """
        # Reverse uplink index for this child.
        reverse: Dict[int, List[int]] = {}
        for member in self.tree.members(child):
            for target in self.links.uplinks(child, member):
                reverse.setdefault(target, []).append(member)
        coverage = {holder: len(r) for holder, r in reverse.items()}

        # Per-holder record counts for batched ledger charges.
        records_per_holder: Dict[int, int] = {}

        pooled: Dict[SecretKey, Dict[SharePathT, _DealingPool]] = {}
        for key, records in node_frontier.items():
            dealings = pooled.setdefault(key, {})
            for record, holders in records:
                dealing = record.prefix() + ((record.path[-1][0], 0),)
                pool = dealings.get(dealing)
                if pool is None:
                    pool = _DealingPool()
                    dealings[dealing] = pool
                x = record.path[-1][1]
                for holder in holders:
                    weight = coverage.get(holder, 0)
                    if not weight:
                        continue
                    records_per_holder[holder] = (
                        records_per_holder.get(holder, 0) + 1
                    )
                    value = record.value
                    if holder in corrupted:
                        value = (value + 1) % self.field.modulus
                    votes = pool.votes.setdefault(x, {})
                    votes[value] = votes.get(value, 0) + weight
                    for recipient in reverse[holder]:
                        pool.recipients[recipient] = (
                            pool.recipients.get(recipient, 0) + 1
                        )

        charge_counts: Dict[Tuple[int, int], int] = {}
        for holder, n_records in records_per_holder.items():
            for recipient in reverse.get(holder, ()):
                charge_counts[(holder, recipient)] = n_records
        self._charge_batch(charge_counts)
        return pooled

    def _reconstruct_pool(
        self,
        pooled: Dict[SecretKey, Dict[SharePathT, "_DealingPool"]],
        decoded: Dict[_PoolKey, Optional[int]],
    ) -> Dict[SecretKey, List[Tuple[ShareRecord, Tuple[int, ...]]]]:
        """Collapse one child's arrived i-shares into (i-1)-share records.

        A dealing is recoverable when enough of its shares arrived; the
        reconstructed record is replicated to the (up to REPLICATION_CAP)
        members that received the most of its shares — they forward it
        further down, and a corrupted one among them is outvoted by the
        per-coordinate majority at the next hop.  ``decoded`` memoises
        the decoder per ``(threshold, majority points)`` pool.
        """
        out: Dict[SecretKey, List[Tuple[ShareRecord, Tuple[int, ...]]]] = {}
        for key, dealings in pooled.items():
            records: List[Tuple[ShareRecord, Tuple[int, ...]]] = []
            for dealing, pool in dealings.items():
                group_key = (key, dealing)
                group_size = self.group_sizes.get(group_key)
                if group_size is None:
                    continue
                threshold = self._threshold(group_size)
                points = tuple(pool.majority_points())
                memo_key = (threshold, points)
                if memo_key in decoded:
                    value = decoded[memo_key]
                else:
                    value = robust_reconstruct_points(
                        self.field, points, threshold
                    )
                    decoded[memo_key] = value
                if value is None:
                    continue
                ranked = sorted(
                    pool.recipients,
                    key=lambda m: (-pool.recipients[m], m),
                )
                holders = tuple(ranked[: self.REPLICATION_CAP])
                parent_path = dealing[:-1]
                if parent_path:
                    record = ShareRecord(
                        secret=key, path=parent_path, value=value
                    )
                else:  # fully reconstructed secret (top was level 1)
                    record = ShareRecord(
                        secret=key, path=((key[0], 0),), value=value
                    )
                records.append((record, holders))
            out[key] = records
        return out

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
        (default: flip the low bit — enough to attack coin words).
        """
        if bad_value_fn is None:
            bad_value_fn = lambda key, pid: 1
        node_views: Dict[int, Dict[SecretKey, Optional[int]]] = {}
        member_links: Dict[int, Tuple[NodeId, ...]] = {}
        if top.level == 1:
            # Degenerate: the "subtree" is the node itself; every member
            # already holds the reconstructed value.
            for member in self.tree.members(top):
                views = {}
                for key in keys:
                    views[key] = leaf_values.get(top, {}).get(key)
                node_views[member] = views
            return node_views

        for member in self.tree.members(top):
            member_links[member] = self.links.ell_links(top, member)

        charge_counts: Dict[Tuple[int, int], int] = {}
        for member, linked_leaves in member_links.items():
            views: Dict[SecretKey, Optional[int]] = {}
            for key in keys:
                leaf_reports: List[int] = []
                for leaf in linked_leaves:
                    leaf_members = self.tree.members(leaf)
                    reports: List[int] = []
                    for leaf_member in leaf_members:
                        if leaf_member in corrupted:
                            reported = bad_value_fn(key, leaf_member)
                        else:
                            value = leaf_values.get(leaf, {}).get(key)
                            if value is None:
                                continue  # abstains (failed reconstruction)
                            reported = value
                        pair = (leaf_member, member)
                        charge_counts[pair] = charge_counts.get(pair, 0) + 1
                        reports.append(reported)
                    # A leaf's report only counts when a strict majority of
                    # its *full membership* backs one value — committee
                    # sizes are common knowledge, so silence from failed
                    # good members must not let a corrupted minority speak
                    # for the node.
                    majority = _majority(reports)
                    if majority is not None:
                        backing = sum(1 for r in reports if r == majority)
                        if backing * 2 > len(leaf_members):
                            leaf_reports.append(majority)
                # Same guard across the linked leaves.
                majority = _majority(leaf_reports)
                if majority is not None:
                    backing = sum(1 for r in leaf_reports if r == majority)
                    if backing * 2 <= len(linked_leaves):
                        majority = None
                views[key] = majority
            node_views[member] = views
        self._charge_batch(charge_counts)
        return node_views

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
        """
        by_path: Dict[SharePathT, int] = {}
        for (node, pid), store in self.stores.items():
            if pid not in corrupted:
                continue
            for record in store.get(key, []):
                by_path[record.path] = record.value

        # Iteratively collapse deepest dealings first.
        changed = True
        while changed:
            changed = False
            pools: Dict[SharePathT, List[Share]] = {}
            for path, value in by_path.items():
                if len(path) <= 1:
                    continue
                dealing = path[:-1] + ((path[-1][0], 0),)
                pools.setdefault(dealing, []).append(
                    Share(x=path[-1][1], value=value)
                )
            for dealing, shares in pools.items():
                parent_path = dealing[:-1]
                if parent_path in by_path:
                    continue
                group_size = self.group_sizes.get((key, dealing))
                if group_size is None:
                    continue
                threshold = self._threshold(group_size)
                if len({s.x for s in shares}) >= threshold:
                    scheme = ShamirScheme(
                        n_players=group_size,
                        threshold=threshold,
                        field=self.field,
                    )
                    try:
                        value = scheme.reconstruct(shares)
                    except SecretSharingError:
                        continue
                    by_path[parent_path] = value
                    changed = True
        # The secret itself corresponds to recovering the level-1 dealing.
        root_dealing = ((key[0], 0),)
        pool = [
            Share(x=path[-1][1], value=value)
            for path, value in by_path.items()
            if len(path) == 1 and path[-1][0] == key[0]
        ]
        group_size = self.group_sizes.get((key, root_dealing))
        if group_size is None:
            return False
        threshold = self._threshold(group_size)
        if len({s.x for s in pool}) >= threshold:
            return True
        return False


def _majority(values: Sequence[int]) -> Optional[int]:
    """Strict plurality with deterministic tie-break; None when empty."""
    if not values:
        return None
    counts: Dict[int, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    return max(counts, key=lambda v: (counts[v], -v))
