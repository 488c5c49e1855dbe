"""Tests for the VSS-based committee shared coin (the E19 ablation)."""

import random
from collections import Counter
from itertools import combinations, islice

import pytest

from repro.core.vss_coin import (
    ROBUST_REVEAL_WINDOWS,
    CoinCostModel,
    VSSCoinMember,
    run_vss_coin,
    vss_coin_fault_bound,
)
from repro.crypto import kernels
from repro.crypto.bivariate import BivariateScheme
from repro.crypto.kernels import clear_plan_caches, interpolate_constant
from repro.net.messages import Message
from repro.net.simulator import Adversary, NullAdversary, SyncNetwork


def test_fault_bound():
    assert vss_coin_fault_bound(4) == 1
    assert vss_coin_fault_bound(7) == 2
    assert vss_coin_fault_bound(10) == 3


def test_fault_free_members_agree_on_coin():
    result = run_vss_coin(k=7, seed=1)
    coins = set(result.good_outputs().values())
    assert len(coins) == 1
    assert coins.pop() in (0, 1)


def test_all_dealers_qualified_fault_free():
    k = 7
    members = [VSSCoinMember(pid, k, seed=2) for pid in range(k)]
    from repro.net.simulator import SyncNetwork

    SyncNetwork(members, NullAdversary(k)).run(max_rounds=5)
    for member in members:
        assert member.qualified == list(range(k))


def test_bulk_predeal_is_bit_identical_to_lazy_dealing():
    """Wave-bulk dealing (the batch backend's prepare hook) must be a
    pure accelerant: members pre-dealt via ``bulk_predeal`` run the
    protocol to exactly the transcript lazily-dealing members produce."""
    from repro.core.vss_coin import bulk_predeal
    from repro.net.simulator import SyncNetwork

    k = 7
    lazy = [VSSCoinMember(pid, k, seed=9) for pid in range(k)]
    eager = [VSSCoinMember(pid, k, seed=9) for pid in range(k)]
    bulk_predeal(eager)
    assert all(m._predealt is not None for m in eager)
    bulk_predeal(eager)  # idempotent: already-dealt members untouched
    SyncNetwork(lazy, NullAdversary(k)).run(max_rounds=6)
    SyncNetwork(eager, NullAdversary(k)).run(max_rounds=6)
    assert [m.output() for m in eager] == [m.output() for m in lazy]
    assert [m.qualified for m in eager] == [m.qualified for m in lazy]


def test_coin_roughly_uniform_across_seeds():
    tally = Counter()
    for seed in range(24):
        result = run_vss_coin(k=4, seed=seed)
        tally[result.agreement_value()] += 1
    assert tally[0] >= 4
    assert tally[1] >= 4


class SilentMembers(Adversary):
    """t members crash from the start — deal nothing, echo nothing."""

    def __init__(self, k, t):
        super().__init__(k, budget=t)

    def select_corruptions(self, round_no):
        return set(range(self.budget)) if round_no == 1 else set()

    def act(self, view):
        return []


def test_crashed_members_are_disqualified_and_coin_agrees():
    k = 7
    t = vss_coin_fault_bound(k)
    members = [VSSCoinMember(pid, k, seed=3) for pid in range(k)]
    from repro.net.simulator import SyncNetwork

    adversary = SilentMembers(k, t)
    SyncNetwork(members, adversary).run(max_rounds=5)
    good = [m for m in members if m.pid not in adversary.corrupted]
    coins = {m.output() for m in good}
    assert len(coins) == 1
    assert coins.pop() in (0, 1)
    for m in good:
        # Crashed dealers never delivered rows: disqualified everywhere.
        assert all(dealer not in m.qualified for dealer in range(t))
        # Good dealers always qualify.
        assert all(dealer in m.qualified for dealer in range(t, k))


class InconsistentDealer(Adversary):
    """One corrupted dealer sends rows from two different polynomials."""

    def __init__(self, k, seed=0):
        super().__init__(k, budget=1)
        self.k = k
        self.seed = seed
        self._dealt = False

    def select_corruptions(self, round_no):
        return {0} if round_no == 1 else set()

    def act(self, view):
        if self._dealt:
            return []
        self._dealt = True
        from repro.crypto.bivariate import BivariateScheme

        t = vss_coin_fault_bound(self.k)
        scheme = BivariateScheme(n_players=self.k, threshold=t + 1)
        rng = random.Random(self.seed)
        rows_a = scheme.deal(111, rng)
        rows_b = scheme.deal(222, rng)
        out = []
        for member in range(1, self.k):
            rows = rows_a if member % 2 else rows_b
            out.append(
                Message(0, member, "row", (0, rows[member].values))
            )
        return out


def test_inconsistent_dealer_disqualified_by_echo():
    k = 7
    members = [VSSCoinMember(pid, k, seed=4) for pid in range(k)]
    from repro.net.simulator import SyncNetwork

    adversary = InconsistentDealer(k, seed=4)
    SyncNetwork(members, adversary).run(max_rounds=5)
    good = [m for m in members if m.pid != 0]
    # The two-faced dealing fails cross-checks at good member pairs on
    # opposite polynomials: more than t complaints, disqualified.
    for m in good:
        assert 0 not in m.qualified
    coins = {m.output() for m in good}
    assert len(coins) == 1


class RevealWithholder(Adversary):
    """t members participate honestly until the reveal, then go silent.

    Tests the no-abort property: reconstruction needs only t+1 of the
    n-t good shares, so withholding cannot block or bias the coin.
    """

    def __init__(self, k, t):
        super().__init__(k, budget=t)

    def select_corruptions(self, round_no):
        # Corrupt at the start of the reveal round (round 4).
        return set(range(self.budget)) if round_no == 4 else set()

    def act(self, view):
        return []


def test_reveal_withholding_cannot_abort():
    k = 7
    t = vss_coin_fault_bound(k)
    members = [VSSCoinMember(pid, k, seed=5) for pid in range(k)]
    from repro.net.simulator import SyncNetwork

    adversary = RevealWithholder(k, t)
    SyncNetwork(members, adversary).run(max_rounds=5)
    good = [m for m in members if m.pid not in adversary.corrupted]
    coins = {m.output() for m in good}
    assert len(coins) == 1
    assert coins.pop() in (0, 1)


def test_late_corruption_cannot_flip_committed_secrets():
    """Corrupting a dealer after round 1 leaves its dealt secret fixed:
    both runs (with and without round-4 corruption of dealer 6) observe
    the same qualified dealings from the good members' rows."""
    k = 7

    def run(withhold):
        members = [VSSCoinMember(pid, k, seed=6) for pid in range(k)]
        from repro.net.simulator import SyncNetwork

        adversary = (
            RevealWithholder(k, 1) if withhold else NullAdversary(k)
        )
        SyncNetwork(members, adversary).run(max_rounds=5)
        reference = [m for m in members if m.pid == k - 1][0]
        return reference.output()

    assert run(withhold=False) == run(withhold=True)


def test_cost_model():
    model = CoinCostModel(k=10)
    per_coin = model.vss_bits_per_member()
    assert per_coin > 10 * 10 * 31  # the k^2 echo floor
    amortized = model.paper_amortized_bits_per_member(coins_served=100)
    assert amortized < per_coin
    with pytest.raises(ValueError):
        model.paper_amortized_bits_per_member(0)


def test_coin_uniform_at_k7_regression():
    """Regression: structured integer seeds ((seed << 20) | pid) produced
    correlated Mersenne Twister streams and a visibly biased coin at
    k = 7 (11 zeros in the first 12 seeds).  String seeding fixed it."""
    tally = Counter()
    for seed in range(24):
        result = run_vss_coin(k=7, seed=seed)
        tally[result.agreement_value()] += 1
    assert tally[0] >= 6
    assert tally[1] >= 6


# -- malformed messages from one corrupted member ---------------------------------

#: The round in which good members send each kind of message.
_SENT_IN = {"row": 1, "echo": 2, "blame": 3, "reveal": 4}


class OneMalformedKind(Adversary):
    """Member 0, corrupted from the start, sends every good member
    ``payload`` under ``tag`` in the round that kind is sent."""

    def __init__(self, k, tag, payload):
        super().__init__(k, budget=1)
        self.tag = tag
        self.payload = payload

    def select_corruptions(self, round_no):
        return {0} if round_no == 1 else set()

    def act(self, view):
        if view.round_no != _SENT_IN[self.tag]:
            return []
        return [
            Message(0, member, self.tag, self.payload)
            for member in range(1, view.n)
        ]


#: Column payloads that must be dropped whole: unequal lengths, a
#: non-int value, lists for tuples, and a third part.
_MALFORMED_COLUMNS = (
    ((0, 1), (5,)),
    ((0,), ("x",)),
    ([0], [5]),
    ((0,), (5,), ()),
)

#: Where each well-formed column payload is kept, by tag.
_KEPT_IN = {"echo": "echoes", "reveal": "reveals"}


@pytest.mark.parametrize(
    "tag, payload",
    [
        ("echo", 5),
        ("echo", ((1,),)),
        ("echo", None),
        ("echo", "ab"),
        ("echo", (5, 6)),
        ("row", 5),
        ("row", (0, 5)),
        ("row", None),
        ("blame", 5),
        ("blame", None),
        ("reveal", 5),
        ("reveal", ((1, 2, 3),)),
        ("reveal", "xy"),
        ("reveal", None),
    ]
    + [
        (tag, payload)
        for tag in ("echo", "reveal")
        for payload in _MALFORMED_COLUMNS
    ],
)
def test_malformed_message_is_dropped_not_raised(tag, payload):
    """Regression: each of the first fourteen payloads used to raise in
    every good member's ``on_round`` and end the trial.  A malformed
    echo or reveal leaves no trace of its sender at any good member."""
    k = 7
    members = [VSSCoinMember(pid, k, seed=3) for pid in range(k)]
    SyncNetwork(members, OneMalformedKind(k, tag, payload)).run(
        max_rounds=5
    )
    coins = {m.output() for m in members[1:]}
    assert len(coins) == 1
    assert coins.pop() in (0, 1)
    if tag in _KEPT_IN:
        assert all(0 not in getattr(m, _KEPT_IN[tag]) for m in members[1:])


class NonIntRowToOne(Adversary):
    """Dealer 0 deals honestly, except that member 1's row holds
    points that are not field elements."""

    def __init__(self, k, seed, points):
        super().__init__(k, budget=1)
        self.shadow = VSSCoinMember(0, k, seed)
        self.points = points

    def select_corruptions(self, round_no):
        return {0} if round_no == 1 else set()

    def act(self, view):
        if view.round_no != 1:
            return []
        out = []
        for message in self.shadow.on_round(1, []):
            if message.recipient == 1:
                message = Message(0, 1, "row", (0, self.points))
            out.append(message)
        return out


@pytest.mark.parametrize("points", ["abcdefgh", (None,) * 8])
def test_row_of_non_int_points_is_dropped(points):
    """Regression: such a row was kept, and member 1's own reveal share
    then raised a TypeError inside the reconstruction."""
    k = 7
    members = [VSSCoinMember(pid, k, seed=3) for pid in range(k)]
    SyncNetwork(members, NonIntRowToOne(k, 3, points)).run(max_rounds=5)
    assert 0 not in members[1].rows
    assert all(0 in m.rows for m in members[2:])
    assert all(m.output() in (0, 1) for m in members[1:])


# -- column reads against the per-point reference ---------------------------------


def _points(payload):
    """A column payload's ``(dealer, value)`` points, one by one; none
    at all when any part of the payload is malformed."""
    if type(payload) is not tuple or len(payload) != 2:
        return []
    dealers, values = payload
    if (
        type(dealers) is not tuple
        or type(values) is not tuple
        or len(dealers) != len(values)
    ):
        return []
    points = []
    for point in zip(dealers, values):
        if any(type(item) not in (int, bool) for item in point):
            return []
        points.append(point)
    return points


class PointwiseMember(VSSCoinMember):
    """The per-point echo, echo absorption and blame: one ``at`` call
    per point and one (dealer, sender) key per received claim.  The
    stock member reads whole columns instead and must behave
    identically."""

    def _echo(self):
        out = []
        for peer in range(self.k):
            if peer == self.pid:
                continue
            points = [
                (dealer, row.at(peer + 1))
                for dealer, row in sorted(self.rows.items())
            ]
            payload = (
                tuple(dealer for dealer, _ in points),
                tuple(value for _, value in points),
            )
            out.append(Message(self.pid, peer, "echo", payload))
        return out

    def _absorb_echoes(self, inbox):
        # Here echoes[(dealer, sender)] = claimed F_dealer(sender, me).
        for m in inbox:
            if m.tag != "echo":
                continue
            for dealer, value in _points(m.payload):
                self.echoes.setdefault((dealer, m.sender), value)

    def _blame(self):
        complaints = []
        for dealer, row in self.rows.items():
            for peer in range(self.k):
                if peer == self.pid:
                    continue
                claimed = self.echoes.get((dealer, peer))
                if claimed is None:
                    continue
                if claimed != row.at(peer + 1):
                    complaints.append(dealer)
                    break
        for dealer in range(self.k):
            if dealer not in self.rows:
                complaints.append(dealer)
        complaints = sorted(set(complaints))
        for dealer in complaints:
            self.complaints_against[dealer].add(self.pid)
        return [
            Message(self.pid, peer, "blame", tuple(complaints))
            for peer in range(self.k)
            if peer != self.pid
        ]


class Shadowed(Adversary):
    """The ``budget`` lowest members, corrupted from the start, follow
    the protocol through shadow members fed what good members send
    them; :meth:`tamper` rewrites each round's messages."""

    def __init__(self, k, seed, budget=None):
        t = vss_coin_fault_bound(k) if budget is None else budget
        super().__init__(k, budget=t)
        self.k = k
        self.rng = random.Random(seed)
        self.shadows = [VSSCoinMember(pid, k, seed) for pid in range(t)]
        self.inboxes = {pid: [] for pid in range(t)}

    def select_corruptions(self, round_no):
        return set(self.inboxes) if round_no == 1 else set()

    def act(self, view):
        out = []
        for shadow in self.shadows:
            sent = shadow.on_round(view.round_no, self.inboxes[shadow.pid])
            out.extend(self.tamper(view.round_no, sent))
        self.inboxes = {
            pid: [m for m in view.inbound if m.recipient == pid]
            for pid in self.inboxes
        }
        return out

    def tamper(self, round_no, sent):
        return sent


class LyingEchoes(Shadowed):
    """t members follow the protocol, except that their echoes lie.

    Every echo a corrupted member sends a good member frames the lowest
    good dealer with a wrong value (at about half the recipients), and
    at about half the recipients repeats a dealer with a conflicting
    value before or after its true one; at about half it names dealer
    1 as ``True``.  One malformed payload goes along, and a second echo
    message follows that contradicts the first and names the dealers
    the first left out.
    """

    def tamper(self, round_no, sent):
        if round_no != 2:
            return sent
        return [lie for echo in sent for lie in self._lie(echo)]

    def _lie(self, echo):
        rng = self.rng
        framed = self.budget  # the lowest good dealer
        dealers, column = echo.payload
        points = list(zip(dealers, column))
        if rng.random() < 0.5:
            points = [
                (dealer, value + 1 if dealer == framed else value)
                for dealer, value in points
            ]
        if rng.random() < 0.5:
            dealer, value = rng.choice(points)
            points.insert(rng.randrange(len(points) + 1), (dealer, value ^ 1))
        spelled = rng.random() < 0.5  # ``True`` is an int and names dealer 1
        first = (
            tuple(True if spelled and d == 1 else d for d, _ in points),
            tuple(value for _, value in points),
        )
        claimed = dict(zip(dealers, column))
        second = (
            tuple(range(self.k)),
            tuple(
                claimed[d] + 2 if d in claimed else rng.randrange(99)
                for d in range(self.k)
            ),
        )
        payloads = [first, second]
        payloads.insert(rng.randrange(3), rng.choice(_MALFORMED_COLUMNS))
        return [
            Message(echo.sender, echo.recipient, "echo", payload)
            for payload in payloads
        ]


_LEDGER_FIELDS = ("sent_bits", "received_bits", "sent_messages", "phase_bits")


def _observed(member_class, k, seed, adversary):
    members = [member_class(pid, k, seed) for pid in range(k)]
    network = SyncNetwork(members, adversary)
    result = network.run(max_rounds=5)
    good = [m for m in members if m.pid not in result.corrupted]
    return {
        "complaints_against": [dict(m.complaints_against) for m in good],
        "qualified": [m.qualified for m in good],
        "outputs": result.outputs,
        "ledger": {
            name: list(getattr(result.ledger, name).items())
            for name in _LEDGER_FIELDS
        },
        "flood_bits": network.flood_bits,
    }


_ADVERSARIES = {
    "none": lambda k, seed: NullAdversary(k),
    "inconsistent": InconsistentDealer,
    "lying": LyingEchoes,
}


@pytest.mark.parametrize("k", [7, 10])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("adversary", sorted(_ADVERSARIES))
def test_column_reads_match_the_per_point_reference(k, seed, adversary):
    make = _ADVERSARIES[adversary]
    reference = _observed(PointwiseMember, k, seed, make(k, seed))
    stock = _observed(VSSCoinMember, k, seed, make(k, seed))
    assert stock == reference
    disqualified = [
        set(range(k)) - set(qualified) for qualified in stock["qualified"]
    ]
    if adversary == "none":
        assert not any(disqualified)
    else:
        # Complaints fired, so the comparison covered the blame path.
        assert all(disqualified)


# -- the batched reveal against its per-dealer reference --------------------------


class WrongReveals(RevealWithholder):
    """t members follow the protocol until the reveal round, then reveal
    from their captured rows, wrong to two thirds of the good members:
    to a third, the true columns with every other share off by a random
    amount; to another third, those wrong shares with the columns
    reversed, so the dealers are out of order.  A second reveal follows
    each first one, with every share off by a random amount."""

    def __init__(self, k, seed):
        super().__init__(k, vss_coin_fault_bound(k))
        self.rng = random.Random(seed)

    def _off(self, share):
        return share + self.rng.randrange(1, 1 << 20)

    def act(self, view):
        if view.round_no != 4:
            return []
        out = []
        for pid, state in sorted(self.captured_state.items()):
            rows = state["rows"]
            dealers = tuple(sorted(rows))
            shares = tuple(rows[dealer].values[0] for dealer in dealers)
            wrong = tuple(
                self._off(share) if i % 2 else share
                for i, share in enumerate(shares)
            )
            payloads = (
                (dealers, shares),
                (dealers, wrong),
                (dealers[::-1], wrong[::-1]),
            )
            second = (dealers, tuple(map(self._off, shares)))
            for member in range(view.n):
                if member not in view.corrupted:
                    out.append(
                        Message(pid, member, "reveal", payloads[member % 3])
                    )
                    out.append(Message(pid, member, "reveal", second))
        return out


class RevealRecorder(VSSCoinMember):
    """The stock member, keeping the inbox of its reveal round."""

    def on_round(self, round_no, inbox):
        if round_no == 5:
            self.reveal_inbox = list(inbox)
        return super().on_round(round_no, inbox)


def _reconstruct_robust(member, dealer):
    """Per-dealer reference for ``VSSCoinMember._reveal_secrets``.

    The pool of a dealer the member qualified holds the member's own
    share and each sender's first revealed share for it, read point by
    point and sorted by member.  Each of the first ``ROBUST_REVEAL_WINDOWS``
    threshold-sized windows is interpolated on its own, and the
    plurality wins, the first inserted on a tie; None with fewer than
    threshold shares.
    """
    shares = {member.pid: member.rows[dealer].values[0]}
    for m in member.reveal_inbox:
        if m.tag != "reveal":
            continue
        for named, value in _points(m.payload):
            if named == dealer:
                shares.setdefault(m.sender, value)
    threshold = member.scheme.threshold
    if len(shares) < threshold:
        return None
    points = [(pid + 1, value) for pid, value in sorted(shares.items())]
    candidates = Counter()
    for combo in islice(
        combinations(range(len(points)), threshold), ROBUST_REVEAL_WINDOWS
    ):
        subset = [points[i] for i in combo]
        candidates[interpolate_constant(member.scheme.field, subset)] += 1
    return candidates.most_common(1)[0][0]


_REVEAL_ADVERSARIES = {
    "none": lambda k, seed: NullAdversary(k),
    "crash": lambda k, seed: SilentMembers(k, vss_coin_fault_bound(k)),
    "withhold": lambda k, seed: RevealWithholder(k, vss_coin_fault_bound(k)),
    "wrong": WrongReveals,
}


@pytest.mark.parametrize("engine", ["numpy", "columns"])
@pytest.mark.parametrize("k, seed", [(7, 0), (7, 1), (10, 2), (13, 3)])
@pytest.mark.parametrize("adversary", sorted(_REVEAL_ADVERSARIES))
def test_batched_reveal_matches_the_per_dealer_reference(
    monkeypatch, engine, k, seed, adversary
):
    """Per good member and per dealer, the batched reveal equals the
    per-dealer reference, on the numpy engine (where installed) and on
    the stacked-column fallback."""
    if engine == "columns":
        monkeypatch.setattr(kernels, "_np", None)
    elif kernels._np is None:
        pytest.skip("numpy is not installed")
    clear_plan_caches()
    members = [RevealRecorder(pid, k, seed) for pid in range(k)]
    adversary = _REVEAL_ADVERSARIES[adversary](k, seed)
    result = SyncNetwork(members, adversary).run(max_rounds=5)
    good = [m for m in members if m.pid not in result.corrupted]
    for member in good:
        secrets = member._reveal_secrets(member.qualified)
        for dealer in range(k):
            if dealer in member.qualified:
                expected = _reconstruct_robust(member, dealer)
                assert secrets.get(dealer) == expected
            else:
                assert dealer not in secrets
    clear_plan_caches()


# -- the coin's known soundness gaps ----------------------------------------------


class WithheldRow(Shadowed):
    """Member 0 deals honestly, except that good member 1 never gets its
    row, and follows the protocol otherwise."""

    def __init__(self, k, seed):
        super().__init__(k, seed, budget=1)

    def tamper(self, round_no, sent):
        if round_no != 1:
            return sent
        return [m for m in sent if m.recipient != 1]


@pytest.mark.xfail(
    strict=True,
    reason="one lying member disqualifies good dealers (ROADMAP: VSS coin "
    "soundness)",
)
def test_good_dealers_qualify_despite_lying_echoes():
    for k in (7, 10):
        t = vss_coin_fault_bound(k)
        for seed in range(3):
            members = [VSSCoinMember(pid, k, seed) for pid in range(k)]
            SyncNetwork(members, LyingEchoes(k, seed)).run(max_rounds=5)
            for member in members[t:]:
                assert set(range(t, k)) <= set(member.qualified)


@pytest.mark.xfail(
    strict=True,
    reason="a dealer that withholds one good member's row splits the coin "
    "(ROADMAP: VSS coin soundness)",
)
def test_withholding_one_row_cannot_split_the_coin():
    k = 7
    for seed in range(20):
        members = [VSSCoinMember(pid, k, seed) for pid in range(k)]
        SyncNetwork(members, WithheldRow(k, seed)).run(max_rounds=5)
        assert len({m.output() for m in members[1:]}) == 1


# -- dealing ----------------------------------------------------------------------


@pytest.mark.parametrize("n, t", [(4, 1), (7, 2), (24, 7)])
def test_dealt_rows_equal_pointwise_evaluation(monkeypatch, n, t):
    """``deal_from_coefficients`` transposes its column grids into rows;
    every row must hold F(x, y) as nested Horner evaluates it, as plain
    ints, on the numpy engine (where installed) and on the column
    fallback."""
    scheme = BivariateScheme(n_players=n, threshold=t + 1)
    rng = random.Random(100 * n + t)
    coeffs = [
        scheme._symmetric_coefficients(rng.randrange(1 << 20), t, rng)
        for _ in range(3)
    ]
    expected = [
        [
            (x, tuple(
                scheme._evaluate_bivariate(c, x, y) for y in range(n + 1)
            ))
            for x in range(1, n + 1)
        ]
        for c in coeffs
    ]

    def dealt():
        dealings = scheme.deal_from_coefficients(coeffs)
        assert all(
            type(v) is int
            for rows in dealings
            for row in rows
            for v in row.values
        )
        return [[(row.x, row.values) for row in rows] for rows in dealings]

    clear_plan_caches()
    assert dealt() == expected
    monkeypatch.setattr(kernels, "_np", None)
    clear_plan_caches()
    assert kernels.batch_engine(scheme.field) == "columns"
    assert dealt() == expected
    clear_plan_caches()
