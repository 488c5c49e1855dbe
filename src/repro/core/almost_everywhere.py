"""Almost-everywhere Byzantine agreement — the tournament of Algorithm 2.

Processors' candidate *arrays* (blocks of bin choices and coin words,
Definition 4) are secret-shared into the leaf committees, climb the tree
via ``sendSecretUp`` as elections whittle them down (w winners per node),
and the survivors' coin words drive one final almost-everywhere agreement
at the root, where every processor participates.

The phases per level-l node C (Figure 1 right panel):

1. *Expose bin choices*: sendDown + sendOpen of every candidate's level-l
   bin-choice word.
2. *Agree on bin choices*: one AEBA-with-unreliable-coins instance per
   candidate (bitwise over the bin-choice word), coins carved out of the
   candidates' own level-l coin words.
3. *Elect*: Feige lightest bin over the agreed choices.
4. *Send shares of winners*: the winners' remaining blocks are re-shared
   up to C's parent and erased locally.

The adversary moves exactly where the paper grants it moves: it may
corrupt processors at any phase boundary (adaptively, e.g. the owners of
winning arrays — which gains it nothing, the point of electing arrays),
controls the contents of corrupted arrays, tampering of shares held by
corrupted processors, and anti-majority voting inside every agreement
instance.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..adversary.adaptive import TournamentAdversary
from ..crypto.field import DEFAULT_FIELD, PrimeField
from ..net.accounting import BitLedger
from ..net.rng import child_rng
from ..topology.links import LinkStructure
from ..topology.tree import NodeId, TreeTopology
from .blocks import CandidateArray, generate_adversarial_array, generate_array
from .communication import SecretKey, TreeCommunicator
from .election import ElectionResult, lightest_bin_election
from .parameters import ProtocolParameters
from .unreliable_coin_ba import run_aeba_dataflow, vote_threshold


@dataclass
class LevelStats:
    """Instrumentation per tree level (drives Lemma 6 / E6)."""

    level: int
    elections: int
    candidates: int
    good_candidates: int
    winners: int
    good_winners: int
    agreement_fraction_mean: float
    bad_nodes: int
    #: Lemma 3(1) audit: of the sampled still-secret words at this level,
    #: how many the adversary coalition could already reconstruct from
    #: the shares it holds (0 unless a path node went bad).
    secrets_compromised: int = 0
    secrets_audited: int = 0

    @property
    def good_candidate_fraction(self) -> float:
        """Fraction of this level's candidate arrays that are good."""
        return self.good_candidates / self.candidates if self.candidates else 0.0

    @property
    def good_winner_fraction(self) -> float:
        """Fraction of this level's winning arrays that are good."""
        return self.good_winners / self.winners if self.winners else 0.0


@dataclass
class TournamentResult:
    """Outcome of one tournament execution."""

    votes: Dict[int, int]
    corrupted: Set[int]
    level_stats: List[LevelStats]
    ledger: BitLedger
    root_contestants: List[int]
    good_coin_rounds: int
    coin_rounds: int
    output_views: Dict[int, List[Optional[int]]]
    output_truth: List[Optional[int]]
    inputs: Dict[int, int]

    def good_votes(self) -> Dict[int, int]:
        """Votes of uncorrupted processors."""
        return {p: v for p, v in self.votes.items() if p not in self.corrupted}

    def agreement_fraction(self) -> float:
        """Fraction of good processors holding the modal good vote."""
        good = self.good_votes()
        if not good:
            return 0.0
        tally = Counter(good.values())
        return max(tally.values()) / len(good)

    def agreed_bit(self) -> int:
        """The modal vote among good processors (ties break to 1)."""
        tally = Counter(self.good_votes().values())
        return max(tally, key=lambda b: (tally[b], b))

    def is_valid(self) -> bool:
        """Output equals some good processor's input (BA validity)."""
        bit = self.agreed_bit()
        return any(
            self.inputs[p] == bit
            for p in self.votes
            if p not in self.corrupted
        )


class Tournament:
    """One end-to-end execution of Algorithm 2 (plus Section 3.5 outputs).

    Args:
        params: protocol parameters (typically
            ``ProtocolParameters.simulation(n)``).
        inputs: each processor's Byzantine-agreement input bit.
        adversary: a :class:`TournamentAdversary` (hooks at every phase).
        seed: master seed; all topology/private coins derive from it.
        output_words: words per root contestant revealed for the global
            coin subsequence (Section 3.5); 0 disables.
    """

    def __init__(
        self,
        params: ProtocolParameters,
        inputs: Sequence[int],
        adversary: TournamentAdversary,
        seed: int = 0,
        output_words: int = 0,
        field: PrimeField = DEFAULT_FIELD,
    ) -> None:
        if len(inputs) != params.n:
            raise ValueError("inputs length must equal params.n")
        self.params = params
        self.inputs = [int(b) for b in inputs]
        self.adversary = adversary
        self.seed = seed
        self.output_words = output_words
        self.field = field

        self.ledger = BitLedger(params.n)
        self.tree = TreeTopology(
            n=params.n, q=params.q, k1=params.k1,
            rng=child_rng(seed, "tree"),
        )
        self.links = LinkStructure(
            self.tree,
            uplink_degree=params.uplink_degree,
            ell_link_degree=params.ell_link_degree,
            intra_degree=params.intra_degree,
            rng=child_rng(seed, "links"),
        )
        self.comm = TreeCommunicator(
            self.tree,
            self.links,
            field,
            self.ledger,
            rng=child_rng(seed, "comm"),
            threshold_fraction=params.share_threshold_fraction,
        )
        self.election_levels = list(range(2, self.tree.lstar))
        self.arrays: Dict[int, CandidateArray] = {}
        self._rounds = 0
        self.level_stats: List[LevelStats] = []
        #: Arrays whose owner was corrupted at *generation* time.  An
        #: array stays good even if its owner is corrupted later — the
        #: owner erased it after sharing, so adaptive takeovers of
        #: election winners gain the adversary nothing (the paper's key
        #: property).
        self.bad_arrays: Set[int] = set()
        self._layout_cache: Dict[int, Dict[str, object]] = {}
        #: Set by :meth:`run_stepwise` once the final phase completes.
        self.result: Optional[TournamentResult] = None

    # -- word layout -----------------------------------------------------------------

    def _tick(self, rounds: int) -> None:
        """Advance the synchronous-round clock by ``rounds``.

        The orchestration executes whole phases at once; the clock
        records what a lock-step execution would need: one round per
        tree hop or per vote exchange (elections at the same level run
        in parallel, as in the paper).
        """
        self._rounds += rounds
        for _ in range(rounds):
            self.ledger.tick_round()

    def _array_keys(self, owner: int) -> Dict[str, object]:
        """Key layout of one array's words, in sendSecretUp order."""
        cached = self._layout_cache.get(owner)
        if cached is not None:
            return cached
        layout: Dict[str, object] = {"levels": {}}
        index = 0
        for level in self.election_levels:
            r = self.params.candidates_per_election(level)
            layout["levels"][level] = {
                "bin": (owner, index),
                "coins": [(owner, index + 1 + j) for j in range(r)],
            }
            index += 1 + r
        layout["final"] = [(owner, index + j) for j in range(2)]
        index += 2
        layout["output"] = [
            (owner, index + j) for j in range(self.output_words)
        ]
        self._layout_cache[owner] = layout
        return layout

    def _keys_from_level(self, owner: int, level: int) -> List[SecretKey]:
        """Keys for blocks at levels > ``level`` plus final/output blocks."""
        layout = self._array_keys(owner)
        keys: List[SecretKey] = []
        for lvl, entries in layout["levels"].items():
            if lvl > level:
                keys.append(entries["bin"])
                keys.extend(entries["coins"])
        keys.extend(layout["final"])
        keys.extend(layout["output"])
        return keys

    def _all_keys(self, owner: int) -> List[SecretKey]:
        return self._keys_from_level(owner, 0)

    # -- phases ----------------------------------------------------------------------

    def run(self) -> TournamentResult:
        """Execute the whole tournament; see the module docstring."""
        for _ in self.run_stepwise():
            pass
        assert self.result is not None
        return self.result

    def run_stepwise(self):
        """Phase-by-phase execution: a generator of consumed round counts.

        Each ``next()`` executes one whole tournament phase (array
        dealing, one level's elections, the root agreement) and yields
        the number of synchronous rounds that phase occupied on the
        clock.  Lock-step drivers — the engine's batch backend, via
        :mod:`repro.core.tournament_net` — burn that many simulator
        rounds before resuming, so many tournaments interleave over one
        round loop.  Draining the generator is exactly :meth:`run`
        (which is implemented as precisely that), so stepped and
        monolithic executions are bit-identical by construction.  The
        final phase leaves :attr:`result` set.
        """
        params = self.params
        adversary = self.adversary
        adversary.initial_corruptions()
        self.bad_arrays = set(adversary.corrupted)
        mark = self._rounds
        self._generate_and_share_arrays()
        yield self._rounds - mark

        # Candidates entering level 2: the leaf owners, one per leaf.
        winners_per_node: Dict[NodeId, List[int]] = {
            NodeId(1, i): [i] for i in range(params.n)
        }

        for level in self.election_levels:
            mark = self._rounds
            winners_per_node = self._run_level(level, winners_per_node)
            yield self._rounds - mark

        mark = self._rounds
        votes, contestants, good_coins, coin_rounds = self._root_agreement(
            winners_per_node
        )
        output_views, output_truth = self._reveal_outputs(contestants)

        self.result = TournamentResult(
            votes=votes,
            corrupted=set(adversary.corrupted),
            level_stats=self.level_stats,
            ledger=self.ledger,
            root_contestants=contestants,
            good_coin_rounds=good_coins,
            coin_rounds=coin_rounds,
            output_views=output_views,
            output_truth=output_truth,
            inputs={p: self.inputs[p] for p in range(params.n)},
        )
        yield self._rounds - mark

    def _generate_and_share_arrays(self) -> None:
        """Algorithm 2 step 1: arrays generated, shared, and sent to level 2."""
        params = self.params
        for owner in range(params.n):
            if owner in self.adversary.corrupted:
                array = generate_adversarial_array(
                    owner,
                    params,
                    self.election_levels,
                    bin_choice_fn=self.adversary.bad_bin_choice,
                    coin_word_fn=lambda level, o, i: self.adversary.bad_coin_word(
                        level, o, i
                    )
                    % self.field.modulus,
                    final_words=2,
                    output_words=self.output_words,
                )
            else:
                array = generate_array(
                    owner,
                    params,
                    self.election_levels,
                    self.field,
                    child_rng(self.seed, "array", owner),
                    final_words=2,
                    output_words=self.output_words,
                )
            self.arrays[owner] = array
            words = array.all_words()
            keys = self._all_keys(owner)
            self.comm.initial_share(
                owner, dict(zip(keys, words))
            )
        # Step 1b: leaf committees push the 1-shares up to level 2.
        self._tick(1)  # the initial dealing round
        if self.tree.lstar >= 2:
            self.ledger.set_phase("send_up_level_1")
            for leaf in self.tree.nodes_on_level(1):
                owner = leaf.index
                self.comm.send_secret_up(
                    leaf, self._all_keys(owner), self.adversary.corrupted
                )
            self._tick(1)

    def _run_level(
        self,
        level: int,
        winners_below: Dict[NodeId, List[int]],
    ) -> Dict[NodeId, List[int]]:
        """Algorithm 2 step 2 for one level: elections at every level node."""
        params = self.params
        stats = LevelStats(
            level=level,
            elections=0,
            candidates=0,
            good_candidates=0,
            winners=0,
            good_winners=0,
            agreement_fraction_mean=0.0,
            bad_nodes=0,
        )
        agreement_fractions: List[float] = []
        winners_here: Dict[NodeId, List[int]] = {}
        threshold = params.good_node_threshold

        for node in self.tree.nodes_on_level(level):
            candidates: List[int] = []
            for child in self.tree.children(node):
                candidates.extend(winners_below.get(child, []))
            if not candidates:
                winners_here[node] = []
                continue

            if not self.tree.is_good_node(
                node, self.adversary.corrupted, threshold
            ):
                stats.bad_nodes += 1

            # Lemma 3(1) audit: just before the reveal, can the coalition
            # already read the candidates' bin words?  (Sampled to keep
            # the audit cheap.)
            for owner in candidates[:2]:
                key = self._array_keys(owner)["levels"][level]["bin"]
                stats.secrets_audited += 1
                if self.comm.adversary_can_reconstruct(
                    key, self.adversary.corrupted
                ):
                    stats.secrets_compromised += 1

            result, agreement_fraction = self._node_election(
                node, level, candidates
            )
            agreement_fractions.append(agreement_fraction)
            winner_owners = [candidates[j] for j in result.winners]
            winners_here[node] = winner_owners

            stats.elections += 1
            stats.candidates += len(candidates)
            stats.good_candidates += sum(
                1 for c in candidates if c not in self.bad_arrays
            )
            stats.winners += len(winner_owners)
            stats.good_winners += sum(
                1 for c in winner_owners if c not in self.bad_arrays
            )

            # The adaptive adversary's signature move: corrupt the winners
            # (now that it knows who won).  Arrays already committed their
            # randomness, so this is too late to help — which is the
            # paper's point.
            newly = self.adversary.corrupt_after_election(
                level, winner_owners, self.tree.members(node)
            )

            # Winners' remaining blocks climb to the parent.
            if node.level < self.tree.lstar:
                self.ledger.set_phase(f"send_up_level_{level}")
                for owner in winner_owners:
                    self.comm.send_secret_up(
                        node,
                        self._keys_from_level(owner, level),
                        self.adversary.corrupted,
                    )

        stats.agreement_fraction_mean = (
            sum(agreement_fractions) / len(agreement_fractions)
            if agreement_fractions
            else 1.0
        )
        self.level_stats.append(stats)
        # Round accounting for this level (all same-level elections run
        # in parallel): reveal cascade down (level-1 hops) + leaf
        # exchange + sendOpen, the per-bit agreement rounds, and the
        # winners' send-up hop.
        params = self.params
        num_bits = max(1, (params.num_bins(level) - 1).bit_length())
        self._tick((level - 1) + 2 + num_bits * params.ba_rounds + 1)
        return winners_here

    def _node_election(
        self,
        node: NodeId,
        level: int,
        candidates: List[int],
    ) -> Tuple[ElectionResult, float]:
        """Phases 1-3 at one node: expose, agree, elect."""
        params = self.params
        corrupted = self.adversary.corrupted
        num_bins = params.num_bins(level)
        members = sorted(self.tree.members(node))

        # Phase 1: expose bin choices (and this level's coin words — the
        # coins are consumed round by round below, but their values were
        # committed before the reveal began).
        self.ledger.set_phase(f"expose_level_{level}")
        bin_keys = [
            self._array_keys(owner)["levels"][level]["bin"]
            for owner in candidates
        ]
        coin_keys: List[SecretKey] = []
        for owner in candidates:
            coin_keys.extend(
                self._array_keys(owner)["levels"][level]["coins"]
            )
        outcome = self.comm.reveal(
            node, bin_keys + coin_keys, corrupted
        )

        # Phase 2: agree on every candidate's bin choice via AEBA with the
        # revealed coin words.
        self.ledger.set_phase(f"agree_level_{level}")
        commit_threshold = vote_threshold(params.epsilon, params.epsilon0)
        num_bits = max(1, (num_bins - 1).bit_length())
        neighbors = {
            m: self.links.intra_neighbors(node, m) for m in members
        }
        agreed_choices: List[int] = []
        fractions: List[float] = []
        good_members = [m for m in members if m not in corrupted]
        for ci, owner in enumerate(candidates):
            bin_key = bin_keys[ci]
            value_bits: List[int] = []
            for bit_index in range(num_bits):
                inputs = {}
                for m in good_members:
                    view = outcome.node_views.get(m, {}).get(bin_key)
                    word = view if view is not None else 0
                    inputs[m] = (word >> bit_index) & 1

                def coin_view(round_index: int, pid: int, ci=ci, bit_index=bit_index):
                    # Round j's coin comes from candidate j's word for
                    # this candidate (B_j(i) in Definition 4).
                    j = (bit_index * params.ba_rounds + round_index) % len(
                        candidates
                    )
                    key = self._array_keys(candidates[j])["levels"][level][
                        "coins"
                    ][ci]
                    word = outcome.node_views.get(pid, {}).get(key)
                    return (word & 1) if word is not None else 0

                votes = run_aeba_dataflow(
                    members=members,
                    inputs=inputs,
                    neighbors=neighbors,
                    coin_views=coin_view,
                    num_rounds=params.ba_rounds,
                    bad_members={m for m in members if m in corrupted},
                    bad_vote_fn=_anti_majority_vote,
                    threshold=commit_threshold,
                    on_traffic=self.ledger.record_abstract,
                    word_bits=1,
                )
                tally = Counter(votes.values())
                if tally:
                    modal_bit = max(tally, key=lambda b: (tally[b], b))
                    fractions.append(tally[modal_bit] / len(votes))
                else:
                    modal_bit = 0
                value_bits.append(modal_bit)
            value = sum(bit << i for i, bit in enumerate(value_bits))
            agreed_choices.append(value % num_bins)

        # Phase 3: Feige's lightest bin.
        result = lightest_bin_election(
            agreed_choices, num_bins, params.winners_per_election
        )
        mean_fraction = sum(fractions) / len(fractions) if fractions else 1.0
        return result, mean_fraction

    def _root_agreement(
        self,
        winners_below: Dict[NodeId, List[int]],
    ) -> Tuple[Dict[int, int], List[int], int, int]:
        """Algorithm 2 step 3: AEBA over everyone at the root."""
        params = self.params
        corrupted = self.adversary.corrupted
        root = self.tree.root()
        contestants: List[int] = []
        for child in self.tree.children(root):
            contestants.extend(winners_below.get(child, []))
        if not contestants:
            contestants = winners_below.get(root, []) or [0]

        self.ledger.set_phase("root_reveal")
        final_keys = [
            self._array_keys(owner)["final"][0] for owner in contestants
        ]
        outcome = self.comm.reveal(root, final_keys, corrupted)

        # Coin quality bookkeeping: a round is good when its contestant is
        # good and almost all good members learned the true word.
        good_rounds = 0
        members = sorted(self.tree.members(root))
        good_members = [m for m in members if m not in corrupted]
        for owner, key in zip(contestants, final_keys):
            if owner in self.bad_arrays:
                continue
            true_word = self.arrays[owner].final_block[0]
            learned = sum(
                1
                for m in good_members
                if outcome.node_views.get(m, {}).get(key) == true_word
            )
            if good_members and learned / len(good_members) >= 0.9:
                good_rounds += 1

        self.ledger.set_phase("root_agreement")
        commit_threshold = vote_threshold(params.epsilon, params.epsilon0)
        neighbors = {
            m: self.links.intra_neighbors(root, m) for m in members
        }
        inputs = {m: self.inputs[m] for m in good_members}
        rounds = max(len(contestants), params.ba_rounds)

        def coin_view(round_index: int, pid: int) -> int:
            key = final_keys[round_index % len(final_keys)]
            word = outcome.node_views.get(pid, {}).get(key)
            if word is None:
                return 0
            # Re-use the word's bits across repeat passes over contestants.
            shift = round_index // len(final_keys)
            return (word >> shift) & 1

        votes = run_aeba_dataflow(
            members=members,
            inputs=inputs,
            neighbors=neighbors,
            coin_views=coin_view,
            num_rounds=rounds,
            bad_members={m for m in members if m in corrupted},
            bad_vote_fn=_anti_majority_vote,
            threshold=commit_threshold,
            on_traffic=self.ledger.record_abstract,
            word_bits=1,
        )
        # Root reveal cascade + the agreement rounds.
        self._tick((self.tree.lstar - 1) + 2 + rounds)
        return dict(votes), contestants, good_rounds, rounds

    def _reveal_outputs(
        self, contestants: List[int]
    ) -> Tuple[Dict[int, List[Optional[int]]], List[Optional[int]]]:
        """Section 3.5: reveal the output blocks of the root contestants."""
        if self.output_words == 0:
            return {}, []
        corrupted = self.adversary.corrupted
        root = self.tree.root()
        self.ledger.set_phase("output_reveal")
        keys: List[SecretKey] = []
        truth: List[Optional[int]] = []
        for w in range(self.output_words):
            for owner in contestants:
                layout = self._array_keys(owner)
                if w < len(layout["output"]):
                    keys.append(layout["output"][w])
                    if owner in self.bad_arrays:
                        truth.append(None)
                    else:
                        truth.append(self.arrays[owner].output_block[w])
        outcome = self.comm.reveal(root, keys, corrupted)
        views: Dict[int, List[Optional[int]]] = {}
        for member in self.tree.members(root):
            member_views = outcome.node_views.get(member, {})
            views[member] = [member_views.get(key) for key in keys]
        return views, truth


def _anti_majority_vote(
    round_index: int, pid: int, good_votes: Dict[int, int]
) -> int:
    """Rushing bad member: vote against the current good majority."""
    tally = Counter(good_votes.values())
    if not tally:
        return pid % 2
    majority = max(tally, key=lambda b: (tally[b], b))
    return 1 - majority


def run_almost_everywhere_ba(
    n: int,
    inputs: Sequence[int],
    adversary: Optional[TournamentAdversary] = None,
    params: Optional[ProtocolParameters] = None,
    seed: int = 0,
    output_words: int = 0,
) -> TournamentResult:
    """Convenience wrapper: build parameters and run one tournament."""
    if params is None:
        params = ProtocolParameters.simulation(n)
    if adversary is None:
        adversary = TournamentAdversary(n, budget=0)
    tournament = Tournament(
        params, inputs, adversary, seed=seed, output_words=output_words
    )
    return tournament.run()
