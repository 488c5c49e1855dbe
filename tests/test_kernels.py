"""Property tests: cached kernels == naive reference implementations.

The plan kernels in :mod:`repro.crypto.kernels` are the hot path of
every reconstruction in the library; these tests pin them bit-identical
to the reference functions in :mod:`repro.crypto.polynomial` over random
degrees, grids and fields, and pin the cache semantics (duplicate-x
rejection, cross-field key separation, bounded growth) plus the
simulator fast paths that ride along in this PR.
"""

import random

import pytest

from repro.crypto import kernels
from repro.crypto.field import (
    DEFAULT_FIELD,
    MERSENNE_31,
    MERSENNE_61,
    FieldError,
    PrimeField,
)
from repro.crypto.kernels import (
    BatchEvalPlan,
    EvalPlan,
    InterpPlan,
    clear_plan_caches,
    get_batch_eval_plan,
    get_eval_plan,
    get_interp_plan,
)
from repro.crypto.polynomial import (
    evaluate,
    evaluate_many,
    interpolate_constant,
    lagrange_coefficients_at_zero,
    lagrange_interpolate_at,
)

FIELDS = (PrimeField(257), PrimeField(MERSENNE_31), PrimeField(MERSENNE_61))


def _random_case(field, rng, max_k=12):
    k = rng.randrange(1, max_k)
    universe = min(field.modulus, 1 << 20)
    xs = rng.sample(range(universe), k)
    coefficients = [rng.randrange(field.modulus) for _ in range(k)]
    ys = evaluate_many(field, coefficients, xs)
    return xs, coefficients, ys


# -- plan == naive, property style ---------------------------------------------------


def test_eval_plan_matches_evaluate_many_over_random_cases():
    rng = random.Random(101)
    for field in FIELDS:
        for _ in range(60):
            xs, coefficients, ys = _random_case(field, rng)
            assert EvalPlan(field, xs).evaluate(coefficients) == ys
            assert kernels.evaluate_on(field, coefficients, xs) == ys


def test_interp_plan_matches_lagrange_over_random_cases():
    rng = random.Random(202)
    for field in FIELDS:
        for _ in range(60):
            xs, coefficients, ys = _random_case(field, rng)
            points = list(zip(xs, ys))
            plan = InterpPlan(field, xs)
            # Off-grid, on-grid, and zero evaluation points.
            probes = [rng.randrange(1 << 20), rng.choice(xs), 0]
            for x in probes:
                expected = lagrange_interpolate_at(field, points, x)
                assert plan.interpolate_at(x, ys) == expected
                assert kernels.interpolate_at(field, points, x) == expected
                assert expected == evaluate(field, coefficients, x)
            assert plan.constant(ys) == interpolate_constant(field, points)


def test_lambdas_at_zero_matches_reference():
    rng = random.Random(303)
    for field in FIELDS:
        for _ in range(30):
            xs, _coefficients, _ys = _random_case(field, rng)
            assert list(kernels.lambdas_at_zero(field, xs)) == (
                lagrange_coefficients_at_zero(field, xs)
            )


def test_power_table_is_exact_and_extends_monotonically():
    field = DEFAULT_FIELD
    plan = EvalPlan(field, [3, 5, 11])
    table = plan.power_table(4)
    assert table == [
        [pow(x, j, field.modulus) for j in range(4)] for x in (3, 5, 11)
    ]
    wider = plan.power_table(7)
    assert wider is table  # grown in place, not rebuilt
    assert all(len(row) >= 7 for row in wider)
    assert wider[1][6] == pow(5, 6, field.modulus)


# -- rejection and key semantics -----------------------------------------------------


def test_duplicate_x_rejected_like_the_naive_path():
    field = DEFAULT_FIELD
    points = [(1, 5), (2, 6), (1, 7)]
    with pytest.raises(FieldError):
        lagrange_interpolate_at(field, points, 0)
    with pytest.raises(FieldError):
        InterpPlan(field, [1, 2, 1])
    with pytest.raises(FieldError):
        kernels.interpolate_at(field, points, 0)
    # Duplicates *mod p* are duplicates too.
    with pytest.raises(FieldError):
        InterpPlan(PrimeField(257), [1, 258])


def test_interp_plan_requires_one_y_per_node():
    plan = InterpPlan(DEFAULT_FIELD, [1, 2, 3])
    with pytest.raises(FieldError):
        plan.interpolate_at(0, [4, 5])


def test_same_xs_in_different_fields_never_share_a_plan():
    clear_plan_caches()
    xs = (1, 2, 3, 4)
    small = PrimeField(257)
    p_small = get_interp_plan(small, xs)
    p_default = get_interp_plan(DEFAULT_FIELD, xs)
    assert p_small is not p_default
    assert p_small.modulus == 257
    assert p_default.modulus == DEFAULT_FIELD.modulus
    # Identical (modulus, xs) key -> identical plan object.
    assert get_interp_plan(PrimeField(257), xs) is p_small
    assert get_eval_plan(small, xs) is not get_eval_plan(DEFAULT_FIELD, xs)
    # The shared grid must still reconstruct correctly in both fields.
    rng = random.Random(9)
    for field, plan in ((small, p_small), (DEFAULT_FIELD, p_default)):
        coefficients = [rng.randrange(field.modulus) for _ in range(4)]
        ys = evaluate_many(field, coefficients, xs)
        assert plan.constant(ys) == coefficients[0]


def test_plan_caches_stay_bounded(monkeypatch):
    clear_plan_caches()
    monkeypatch.setattr(kernels, "PLAN_CACHE_MAX", 8)
    for i in range(40):
        get_interp_plan(DEFAULT_FIELD, (i + 1, i + 2))
        get_eval_plan(DEFAULT_FIELD, (i + 1, i + 2))
    assert len(kernels._INTERP_PLANS) <= 8
    assert len(kernels._EVAL_PLANS) <= 8
    clear_plan_caches()
    assert not kernels._INTERP_PLANS and not kernels._EVAL_PLANS


def test_lambda_memo_stays_bounded(monkeypatch):
    monkeypatch.setattr(kernels, "LAMBDA_CACHE_MAX", 4)
    field = DEFAULT_FIELD
    plan = InterpPlan(field, [1, 2, 3])
    ys = [7, 8, 9]
    expected = {
        x: lagrange_interpolate_at(field, [(1, 7), (2, 8), (3, 9)], x)
        for x in range(20)
    }
    for x in range(20):
        assert plan.interpolate_at(x, ys) == expected[x]
    assert len(plan._lambdas) <= 4
    # Post-eviction answers remain exact.
    assert plan.interpolate_at(5, ys) == expected[5]


# -- FIFO eviction (regression: overflow used to clear() wholesale) ------------------


def test_plan_cache_overflow_evicts_only_the_oldest(monkeypatch):
    """A cache at capacity drops exactly one entry per insert — the
    oldest — so warm plans survive overflow instead of being dumped
    wholesale with the rest of the cache."""
    clear_plan_caches()
    monkeypatch.setattr(kernels, "PLAN_CACHE_MAX", 4)
    keys = [(i + 1, i + 2, i + 3) for i in range(4)]
    plans = [get_interp_plan(DEFAULT_FIELD, k) for k in keys]
    get_interp_plan(DEFAULT_FIELD, (100, 101, 102))  # overflow by one
    assert len(kernels._INTERP_PLANS) <= 4
    # The warm tail is still cached (identity, not a rebuild)...
    assert get_interp_plan(DEFAULT_FIELD, keys[3]) is plans[3]
    assert get_interp_plan(DEFAULT_FIELD, keys[2]) is plans[2]
    # ...and only the oldest entry was rebuilt on re-request.
    assert get_interp_plan(DEFAULT_FIELD, keys[0]) is not plans[0]
    clear_plan_caches()


def test_batch_plan_cache_overflow_evicts_only_the_oldest(monkeypatch):
    clear_plan_caches()
    monkeypatch.setattr(kernels, "PLAN_CACHE_MAX", 3)
    keys = [(i + 1, i + 2) for i in range(3)]
    plans = [get_batch_eval_plan(DEFAULT_FIELD, k) for k in keys]
    get_batch_eval_plan(DEFAULT_FIELD, (50, 51))
    assert len(kernels._BATCH_EVAL_PLANS) <= 3
    assert get_batch_eval_plan(DEFAULT_FIELD, keys[2]) is plans[2]
    assert get_batch_eval_plan(DEFAULT_FIELD, keys[0]) is not plans[0]
    clear_plan_caches()


def test_lambda_memo_evicts_oldest_first(monkeypatch):
    monkeypatch.setattr(kernels, "LAMBDA_CACHE_MAX", 4)
    plan = InterpPlan(DEFAULT_FIELD, [1, 2, 3])
    for x in range(4):
        plan.lambdas_at(x)
    warm = plan.lambdas_at(3)
    plan.lambdas_at(10)  # overflow: only x=0, the oldest, leaves
    assert set(plan._lambdas) == {1, 2, 3, 10}
    assert plan.lambdas_at(3) is warm


# -- batch kernels == naive, property style ------------------------------------------


def _naive_interpolate_rows(field, xs, ys_rows, x):
    return [
        lagrange_interpolate_at(field, list(zip(xs, ys)), x)
        for ys in ys_rows
    ]


def test_batch_eval_matches_naive_over_random_cases():
    """Random fields, grids, degrees and batch widths — including
    ragged rows (padded with high-order zeros) and width-0 rows."""
    rng = random.Random(404)
    for field in FIELDS:
        for _ in range(25):
            k = rng.randrange(1, 8)
            xs = rng.sample(range(min(field.modulus, 1 << 16)), k)
            batch = rng.randrange(0, 6)
            rows = [
                [
                    rng.randrange(field.modulus)
                    for _ in range(rng.randrange(0, 7))
                ]
                for _ in range(batch)
            ]
            expected = [evaluate_many(field, row, xs) for row in rows]
            assert BatchEvalPlan(field, xs).evaluate_many(rows) == expected
            assert kernels.evaluate_rows(field, rows, xs) == expected


def test_batch_interp_matches_naive_over_random_cases():
    rng = random.Random(505)
    for field in FIELDS:
        for _ in range(25):
            k = rng.randrange(1, 8)
            xs = rng.sample(range(min(field.modulus, 1 << 16)), k)
            batch = rng.randrange(0, 6)
            ys_rows = [
                [rng.randrange(field.modulus) for _ in range(k)]
                for _ in range(batch)
            ]
            plan = InterpPlan(field, xs)
            probe = rng.randrange(1 << 16)
            assert plan.interpolate_many_at(probe, ys_rows) == (
                _naive_interpolate_rows(field, xs, ys_rows, probe)
            )
            assert plan.constant_many(ys_rows) == (
                _naive_interpolate_rows(field, xs, ys_rows, 0)
            )
            assert kernels.interpolate_constant_many(
                field, xs, ys_rows
            ) == _naive_interpolate_rows(field, xs, ys_rows, 0)
            grid = [rng.randrange(1 << 16) for _ in range(3)]
            assert plan.interpolate_grid(grid, ys_rows) == [
                [
                    lagrange_interpolate_at(field, list(zip(xs, ys)), x)
                    for x in grid
                ]
                for ys in ys_rows
            ]


def test_windowed_reconstruction_matches_per_window_naive():
    rng = random.Random(606)
    for field in FIELDS:
        k = 7
        xs = rng.sample(range(1, 1 << 16), k)
        ys_rows = [
            [rng.randrange(field.modulus) for _ in range(k)]
            for _ in range(5)
        ]
        windows = [(0, 1, 2), (2, 4, 6), (1, 3, 5), (0, 5, 6)]
        expected = [
            [
                interpolate_constant(
                    field, [(xs[i], ys[i]) for i in combo]
                )
                for combo in windows
            ]
            for ys in ys_rows
        ]
        assert kernels.interpolate_windows_at_zero(
            field, xs, ys_rows, windows
        ) == expected
        # Edges: no rows, and rows with no windows.
        assert kernels.interpolate_windows_at_zero(
            field, xs, [], windows
        ) == []
        assert kernels.interpolate_windows_at_zero(
            field, xs, ys_rows, []
        ) == [[] for _ in ys_rows]


def test_window_plans_are_cached_bounded_and_cleared(monkeypatch):
    """A window list over one grid is planned once: a repeated call
    reuses its cached lambdas (numpy matrix included) without a single
    sub-plan lookup, on either engine.  The cache is bounded by
    PLAN_CACHE_MAX with FIFO eviction and emptied by clear_plan_caches,
    like the other plan caches."""
    clear_plan_caches()
    rng = random.Random(808)
    field = DEFAULT_FIELD
    xs = rng.sample(range(1, 1 << 12), 6)
    ys_rows = [
        [rng.randrange(field.modulus) for _ in range(6)] for _ in range(4)
    ]
    windows = [(0, 1, 2), (3, 4, 5), (0, 2, 4)]
    expected = [
        [
            interpolate_constant(field, [(xs[i], ys[i]) for i in combo])
            for combo in windows
        ]
        for ys in ys_rows
    ]
    assert kernels.interpolate_windows_at_zero(
        field, xs, ys_rows, windows
    ) == expected
    (plan,) = kernels._WINDOW_PLANS.values()
    lookups = []
    monkeypatch.setattr(
        kernels, "get_interp_plan", lambda *args: lookups.append(args)
    )
    lists = [list(combo) for combo in windows]
    assert kernels.interpolate_windows_at_zero(
        field, xs, ys_rows, lists
    ) == expected
    monkeypatch.setattr(kernels, "_np", None)
    assert kernels.interpolate_windows_at_zero(
        field, xs, ys_rows, windows
    ) == expected
    assert not lookups
    assert list(kernels._WINDOW_PLANS.values()) == [plan]
    monkeypatch.undo()

    monkeypatch.setattr(kernels, "PLAN_CACHE_MAX", 3)
    for shift in range(1, 4):
        kernels.interpolate_windows_at_zero(
            field, xs, ys_rows, [(shift, 0, 5)]
        )
    assert len(kernels._WINDOW_PLANS) == 3
    assert plan not in kernels._WINDOW_PLANS.values()
    clear_plan_caches()
    assert not kernels._WINDOW_PLANS


def test_window_with_a_repeated_node_is_rejected_on_every_call():
    clear_plan_caches()
    for _ in range(2):
        with pytest.raises(FieldError):
            kernels.interpolate_windows_at_zero(
                DEFAULT_FIELD, [1, 2, 3], [[4, 5, 6]], [(0, 0)]
            )
    assert not kernels._WINDOW_PLANS


def test_batch_kernels_degrade_gracefully_without_numpy(monkeypatch):
    """With numpy unavailable the stacked-column fallback must produce
    bit-identical output through every batch entry point (on a numpy-
    free interpreter both sides run the fallback, which still pins the
    fallback against the naive reference above)."""
    rng = random.Random(707)
    field = DEFAULT_FIELD
    xs = rng.sample(range(1, 1 << 12), 6)
    coeff_rows = [
        [rng.randrange(field.modulus) for _ in range(rng.randrange(1, 6))]
        for _ in range(7)
    ]
    ys_rows = [
        [rng.randrange(field.modulus) for _ in range(6)] for _ in range(7)
    ]
    windows = [(0, 1, 2), (3, 4, 5), (0, 2, 4)]
    grid = [17, 23, 99]

    before = (
        kernels.evaluate_rows(field, coeff_rows, xs),
        kernels.interpolate_constant_many(field, xs, ys_rows),
        kernels.interpolate_windows_at_zero(field, xs, ys_rows, windows),
        kernels.get_interp_plan(field, xs).interpolate_grid(
            grid, ys_rows
        ),
    )

    monkeypatch.setattr(kernels, "_np", None)
    clear_plan_caches()
    assert kernels.batch_engine(field) == "columns"
    after = (
        kernels.evaluate_rows(field, coeff_rows, xs),
        kernels.interpolate_constant_many(field, xs, ys_rows),
        kernels.interpolate_windows_at_zero(field, xs, ys_rows, windows),
        kernels.get_interp_plan(field, xs).interpolate_grid(
            grid, ys_rows
        ),
    )
    assert before == after
    clear_plan_caches()


def test_batch_engine_selection_per_field():
    """The numpy engine only serves moduli whose Horner step fits
    int64; the 61-bit Mersenne field always takes the column path."""
    if kernels._np is not None:
        assert kernels.batch_engine(PrimeField(257)) == "numpy"
        assert kernels.batch_engine(PrimeField(MERSENNE_31)) == "numpy"
    else:
        assert kernels.batch_engine(PrimeField(257)) == "columns"
    assert kernels.batch_engine(PrimeField(MERSENNE_61)) == "columns"


def test_batch_plans_are_isolated_per_field():
    clear_plan_caches()
    xs = (1, 2, 3)
    small = get_batch_eval_plan(PrimeField(257), xs)
    default = get_batch_eval_plan(DEFAULT_FIELD, xs)
    assert small is not default
    assert small.modulus == 257
    assert get_batch_eval_plan(PrimeField(257), xs) is small
    # Same coefficients, different reductions — per-field answers.
    rows = [[300, 400], [5, 600]]
    assert small.evaluate_many(rows) == [
        [evaluate(PrimeField(257), row, x) for x in xs] for row in rows
    ]
    assert default.evaluate_many(rows) == [
        [evaluate(DEFAULT_FIELD, row, x) for x in xs] for row in rows
    ]
    clear_plan_caches()


def test_batch_eval_rejects_nothing_but_handles_empty():
    plan = BatchEvalPlan(DEFAULT_FIELD, [1, 2, 3])
    assert plan.evaluate_many([]) == []
    assert plan.evaluate_many([[]]) == [[0, 0, 0]]
    assert plan.evaluate_many([[7]]) == [[7, 7, 7]]  # width-1 batch


def test_batch_interp_row_width_checked():
    plan = InterpPlan(DEFAULT_FIELD, [1, 2, 3])
    with pytest.raises(FieldError):
        plan.interpolate_many_at(0, [[1, 2]])
    with pytest.raises(FieldError):
        plan.interpolate_grid([5], [[1, 2, 3], [4, 5]])
    with pytest.raises(FieldError):
        kernels.interpolate_windows_at_zero(
            DEFAULT_FIELD, [1, 2, 3], [[1, 2]], [(0, 1)]
        )
