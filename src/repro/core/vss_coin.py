"""VSS-based committee shared coin — the design alternative, measured.

The paper generates shared randomness by electing *arrays* of committed
secrets through the tournament (Section 3.4), paying the cost up front
and amortizing it across every coin the protocol ever needs.  The
classical alternative (Canetti-Rabin style) generates each coin on
demand with verifiable secret sharing.  This module implements that
alternative for a single committee so benchmark E19 can price the
trade-off:

Round 1 (deal).   Every member deals a random secret through symmetric-
                  bivariate VSS (:mod:`repro.crypto.bivariate`): member
                  j receives row f_i(j, .) of dealer i's polynomial.
Round 2 (echo).   For every dealer i, members j and k cross-check the
                  symmetry point F_i(j, k) = F_i(k, j) by exchanging it.
Round 3 (blame).  Members broadcast complaint lists; a dealer drawing
                  complaints from more than t members is disqualified
                  (an honest dealer's points always verify between good
                  members, so it draws at most t complaints).
Round 4 (reveal). Members broadcast their effective Shamir share of
                  every qualified dealer's secret; each member
                  reconstructs the qualified secrets and outputs
                  coin = (sum of qualified secrets) mod 2.

Soundness at t < n/3 with a rushing adversary: a qualified dealer's
secret is fixed by the good members' rows before the reveal round, so
the adversary cannot steer it; reconstruction needs t + 1 of the n - t
good shares, so withholding cannot abort it; and any single qualified
good dealer's uniform secret makes the sum uniform.

Cost: Theta(k^2) field elements per member per coin (the echo round
dominates) — against the paper's amortized polylog per coin.  That gap
is why the tournament exists.

Documented simplification: qualification is decided from the complaint
broadcasts as received.  A Byzantine member that *equivocates its
complaint list* against a dealer sitting exactly at the threshold could
split the qualified set between good members; the full Canetti-Rabin
protocol closes this with a complaint-response round plus one committee
Byzantine agreement per borderline dealer (O(k) extra rounds, same
asymptotic bit cost).  Good dealers always qualify at every good member
(they draw complaints only from the <= t bad members) and dealers whose
rows fail verification at more than t good members are disqualified at
every good member, so the coin's unpredictability and the all-good-case
agreement are unaffected by the simplification.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..crypto.bivariate import BivariateRow, BivariateScheme
from ..crypto.kernels import (
    interpolate_constant,
    interpolate_windows_at_zero,
)
from ..net.messages import Message
from ..net.simulator import (
    Adversary,
    NullAdversary,
    ProcessorProtocol,
    RunResult,
    SyncNetwork,
)


def vss_coin_fault_bound(k: int) -> int:
    """Maximum tolerated faults in the committee: t < k/3."""
    return max(0, (k - 1) // 3)


#: How many threshold-sized windows the robust reveal tries per dealer.
ROBUST_REVEAL_WINDOWS = 40

#: The types a row's points may have: field elements are ints.
_INTS = frozenset((int, bool))


class VSSCoinMember(ProcessorProtocol):
    """One good committee member of the 4-round VSS coin protocol."""

    def __init__(self, pid: int, k: int, seed: int) -> None:
        super().__init__(pid)
        self.k = k
        self.fault_bound = vss_coin_fault_bound(k)
        self.scheme = BivariateScheme(
            n_players=k, threshold=self.fault_bound + 1
        )
        # String seeding hashes through SHA-512 (init_by_array), avoiding
        # the correlated Mersenne Twister streams that structured integer
        # seeds like (seed << 20) | pid produce for consecutive seeds —
        # those visibly biased the coin.
        self.rng = random.Random(f"vss-coin-{seed}-{pid}")
        self.secret = self.scheme.field.random_element(self.rng)
        # rows[dealer] = my BivariateRow from that dealer.
        self.rows: Dict[int, BivariateRow] = {}
        # echoes[sender][dealer] = claimed F_dealer(sender, me).
        self.echoes: Dict[int, Dict[int, int]] = {}
        self.complaints_against: Dict[int, Set[int]] = defaultdict(set)
        self.qualified: List[int] = []
        self.reveal_shares: Dict[int, Dict[int, int]] = defaultdict(dict)
        self._coin: Optional[int] = None
        # Rows staged by bulk_predeal (wave-bulk dealing); consumed by
        # _deal in round 1.
        self._predealt: Optional[List[BivariateRow]] = None

    # -- rounds ------------------------------------------------------------------

    def on_round(self, round_no: int, inbox: List[Message]) -> List[Message]:
        if round_no == 1:
            return self._deal()
        if round_no == 2:
            self._absorb_rows(inbox)
            return self._echo()
        if round_no == 3:
            self._absorb_echoes(inbox)
            return self._blame()
        if round_no == 4:
            self._absorb_blames(inbox)
            return self._reveal()
        if round_no == 5:
            self._absorb_reveals(inbox)
            self._toss()
        return []

    def output(self) -> Optional[int]:
        return self._coin

    # -- round 1: deal ---------------------------------------------------------------

    def _deal(self) -> List[Message]:
        rows = self._predealt
        if rows is None:
            rows = self.scheme.deal(self.secret, self.rng)
        else:
            self._predealt = None
        out = []
        for row in rows:
            member = row.x - 1  # shares are 1-indexed
            if member == self.pid:
                self.rows[self.pid] = row
                continue
            out.append(
                Message(self.pid, member, "row", (self.pid, row.values))
            )
        return out

    def _absorb_rows(self, inbox: List[Message]) -> None:
        for m in inbox:
            if m.tag != "row":
                continue
            try:
                dealer, values = m.payload
                values = tuple(values)
            except (TypeError, ValueError):
                continue
            if (
                dealer != m.sender
                or m.sender in self.rows
                or len(values) != self.k + 1
                or not _INTS.issuperset(map(type, values))
            ):
                continue
            self.rows[m.sender] = BivariateRow(x=self.pid + 1, values=values)

    # -- round 2: echo ---------------------------------------------------------------

    def _echo(self) -> List[Message]:
        """Send every peer its column of my rows.

        The points peer p can check are ``F_dealer(me, p)`` for every
        dealer: column ``p + 1`` of my rows, so one transpose of the
        rows (sorted by dealer) yields every peer's echo at once.
        """
        dealers = sorted(self.rows)
        columns = list(zip(*(self.rows[dealer].values for dealer in dealers)))
        return [
            Message(
                self.pid, peer, "echo", tuple(zip(dealers, columns[peer + 1]))
            )
            for peer in range(self.k)
            if peer != self.pid
        ]

    def _absorb_echoes(self, inbox: List[Message]) -> None:
        echoes = self.echoes
        for m in inbox:
            if m.tag != "echo":
                continue
            claims = echoes.setdefault(m.sender, {})
            try:
                for dealer, value in m.payload:
                    if isinstance(dealer, int) and isinstance(value, int):
                        claims.setdefault(dealer, value)
            except (TypeError, ValueError):
                continue

    # -- round 3: blame --------------------------------------------------------------

    def _blame(self) -> List[Message]:
        """Complain about every dealer whose row some peer contradicts.

        Peer p's claims are checked against column ``p + 1`` of my
        rows, read straight from each row's values (every admitted row
        has all k + 1 points).  Dealers whose row never arrived are
        complained about too.
        """
        values = {dealer: row.values for dealer, row in self.rows.items()}
        bad = {dealer for dealer in range(self.k) if dealer not in values}
        for peer, claims in self.echoes.items():
            if peer == self.pid:
                continue
            y = peer + 1
            for dealer, claimed in claims.items():
                row = values.get(dealer)
                if row is not None and row[y] != claimed:
                    bad.add(dealer)
        complaints = tuple(sorted(bad))
        for dealer in complaints:
            self.complaints_against[dealer].add(self.pid)
        return [
            Message(self.pid, peer, "blame", complaints)
            for peer in range(self.k)
            if peer != self.pid
        ]

    def _absorb_blames(self, inbox: List[Message]) -> None:
        for m in inbox:
            if m.tag != "blame":
                continue
            try:
                for dealer in m.payload:
                    if isinstance(dealer, int) and 0 <= dealer < self.k:
                        self.complaints_against[dealer].add(m.sender)
            except TypeError:
                continue

    # -- round 4: reveal -------------------------------------------------------------

    def _reveal(self) -> List[Message]:
        self.qualified = [
            dealer
            for dealer in range(self.k)
            if len(self.complaints_against[dealer]) <= self.fault_bound
            and dealer in self.rows
        ]
        shares = tuple(
            (dealer, self.rows[dealer].values[0])
            for dealer in self.qualified
        )
        for dealer, value in shares:
            self.reveal_shares[dealer][self.pid] = value
        return [
            Message(self.pid, peer, "reveal", shares)
            for peer in range(self.k)
            if peer != self.pid
        ]

    def _absorb_reveals(self, inbox: List[Message]) -> None:
        reveal_shares = self.reveal_shares
        for m in inbox:
            if m.tag != "reveal":
                continue
            try:
                for dealer, value in m.payload:
                    if isinstance(dealer, int) and isinstance(value, int):
                        reveal_shares[dealer].setdefault(m.sender, value)
            except (TypeError, ValueError):
                continue

    def _toss(self) -> None:
        total = 0
        field = self.scheme.field
        secrets = self._reveal_secrets(self.qualified)
        for dealer in self.qualified:
            secret = secrets.get(dealer)
            if secret is None:
                continue
            total = field.add(total, secret)
        self._coin = total % 2

    def _reveal_secrets(
        self, dealers: Sequence[int]
    ) -> Dict[int, int]:
        """The windowed robust reveal of every dealer, batched.

        Dealers whose pools cover the same member coordinates (all of
        them, absent withholding) share one x-grid, so their windows
        collapse into a single matrix product per grid
        (:func:`~repro.crypto.kernels.interpolate_windows_at_zero`)
        instead of one interpolation per window per dealer.  Window
        order — and therefore the plurality vote's insertion-order
        tie-break — is exactly :meth:`_reconstruct_robust`'s, so the
        result per dealer is bit-identical; dealers with too few shares
        are simply absent from the result.
        """
        threshold = self.scheme.threshold
        field = self.scheme.field
        groups: Dict[Tuple[int, ...], List[Tuple[int, List[int]]]] = {}
        for dealer in dealers:
            shares = sorted(self.reveal_shares[dealer].items())
            if len(shares) < threshold:
                continue
            xs = tuple(member + 1 for member, _ in shares)
            ys = [value for _, value in shares]
            groups.setdefault(xs, []).append((dealer, ys))
        out: Dict[int, int] = {}
        for xs, pool in groups.items():
            windows = list(
                islice(
                    combinations(range(len(xs)), threshold),
                    ROBUST_REVEAL_WINDOWS,
                )
            )
            values = interpolate_windows_at_zero(
                field, xs, [ys for _, ys in pool], windows
            )
            for (dealer, _), candidates in zip(pool, values):
                counts: Counter = Counter(candidates)
                out[dealer] = counts.most_common(1)[0][0]
        return out

    def _reconstruct_robust(self, dealer: int) -> Optional[int]:
        """Majority-vote reconstruction over threshold-sized subsets.

        With at most t corrupt shares among >= 2t+1, the value produced
        by the honest majority of share subsets is the dealt secret; we
        approximate the (expensive) exhaustive decoding by trying
        threshold-sized windows and taking the plurality result, which
        suffices at the committee sizes simulated here.

        The per-dealer reference path: :meth:`_reveal_secrets` batches
        the same windows across every dealer of a toss and is pinned
        bit-identical to this method by ``tests/test_vss_coin.py``.

        The same windows over the same member coordinates recur for
        every dealer of every coin, so each window's interpolation plan
        (weights + lambdas at zero) is a cache hit after the first toss.
        """
        shares = sorted(self.reveal_shares[dealer].items())
        if len(shares) < self.scheme.threshold:
            return None
        candidates: Counter = Counter()
        points = [(member + 1, value) for member, value in shares]
        window = self.scheme.threshold
        field = self.scheme.field
        tried = 0
        for combo in combinations(range(len(points)), window):
            subset = [points[i] for i in combo]
            try:
                candidates[interpolate_constant(field, subset)] += 1
            except Exception:
                continue
            tried += 1
            if tried >= ROBUST_REVEAL_WINDOWS:
                break
        if not candidates:
            return None
        return candidates.most_common(1)[0][0]


def bulk_predeal(members: Iterable["VSSCoinMember"]) -> None:
    """Stage every member's round-1 dealing in one batched pass.

    The wave-bulk hook behind the batch backend's
    ``prepare_wave``: for all (not-yet-predealt) members across a wave
    of trials, sample each member's symmetric coefficient matrix from
    *its own* rng — exactly the randomness its lazy ``_deal`` would
    draw, in the same order, so transcripts are bit-identical — then
    evaluate every dealing's two grid stages stacked through one
    :class:`~repro.crypto.kernels.BatchEvalPlan` pass per stage
    (:meth:`BivariateScheme.deal_from_coefficients`).  Members whose
    ``_deal`` never runs (corrupted from round 1) simply discard the
    staged rows; their rng is never read again, so consuming it early
    is unobservable.
    """
    pending = [m for m in members if m._predealt is None]
    by_scheme: Dict[BivariateScheme, List[VSSCoinMember]] = {}
    for member in pending:
        by_scheme.setdefault(member.scheme, []).append(member)
    for scheme, group in by_scheme.items():
        t = scheme.threshold - 1
        coeffs = [
            scheme._symmetric_coefficients(m.secret, t, m.rng)
            for m in group
        ]
        for member, rows in zip(
            group, scheme.deal_from_coefficients(coeffs)
        ):
            member._predealt = rows


def run_vss_coin(
    k: int,
    seed: int = 0,
    adversary: Optional[Adversary] = None,
) -> RunResult:
    """Run one VSS-coin toss on a k-member committee."""
    if adversary is None:
        adversary = NullAdversary(k)
    members = [VSSCoinMember(pid, k, seed) for pid in range(k)]
    network = SyncNetwork(members, adversary)
    return network.run(max_rounds=5)


@dataclass
class CoinCostModel:
    """Per-coin traffic of the VSS coin vs the paper's amortized coin."""

    k: int
    element_bits: int = 31

    def vss_bits_per_member(self) -> int:
        """Deal (k rows of k+1 elements 1/k each) + echo (k points to
        each of k peers) + blame + reveal: Theta(k^2) elements."""
        deal = (self.k + 1) * self.element_bits  # own dealing, per member
        echo = self.k * self.k * self.element_bits
        reveal = self.k * self.k * self.element_bits
        return deal + echo + reveal

    def paper_amortized_bits_per_member(self, coins_served: int) -> float:
        """Tournament cost amortized across every coin it serves."""
        if coins_served <= 0:
            raise ValueError("coins_served must be positive")
        tournament_per_member = (self.k**2) * self.element_bits
        return tournament_per_member / coins_served
