"""Bridge from the per-scenario cost models to dispatch geometry.

The cost plane has two halves: :mod:`repro.analysis.costmodel` predicts
what one trial of a resolved spec costs, and
:class:`~repro.engine.dispatch.DispatchPlan` cuts a spec's trials into
work units.  This module is the seam between them and the one place
that decides unit sizes (:func:`plan_specs`), so the sharded backends
and the fleet coordinator shard work identically.

Fallback semantics (load-bearing, tested): :func:`spec_trial_cost`
answers ``None`` when the scenario has no cost model, and cost-sized
units engage only when **every** spec in a grid is priceable — a grid
half-priced by models would balance the priced half against guesses
for the rest.  Either way the resulting units partition each spec's
trial range exactly once, so results stay bit-identical to serial.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..analysis.costmodel import get_cost_model
from .dispatch import DispatchPlan, WorkUnit
from .spec import ExperimentSpec

#: Units per unit of capacity: enough pieces that the greedy collect
#: loop can rebalance stragglers, few enough to amortise dispatch
#: overhead.
GRID_PARTS_PER_WORKER = 4


def spec_trial_cost(spec: ExperimentSpec) -> Optional[float]:
    """Predicted cost of one trial of ``spec``, or None (no model).

    Resolves the scenario's cost model and prices the spec's declared
    params (the model applies the same auto-derivations the scenario
    builder does).  Any model failure — a scenario with no model, a
    param the model chokes on, a non-positive prediction — degrades to
    ``None``: pricing must never make a runnable sweep unrunnable.
    """
    model = get_cost_model(spec.runner)
    if model is None:
        return None
    try:
        cost = model.trial_cost(spec.n, spec.param_dict())
    except Exception:
        return None
    if not cost or cost <= 0:
        return None
    return float(cost)


def plan_specs(
    specs: Sequence[ExperimentSpec],
    capacity: int,
    unit_size: Optional[int] = None,
) -> List[DispatchPlan]:
    """One plan per spec: the single rule for unit sizes.

    * An explicit ``unit_size`` is honoured exactly, for every spec.
    * Otherwise, when every spec is priceable, one grid-wide target
      unit cost — the grid's total predicted cost over
      ``capacity x GRID_PARTS_PER_WORKER`` units — sizes each spec's
      units: a cheap spec gets many trials per unit, an expensive one
      few (often one).
    * Otherwise (some spec has no model) sizes are uniform: the same
      rule with every trial costing 1, i.e. ~``GRID_PARTS_PER_WORKER``
      units per unit of capacity across the grid.

    Sizes clamp to ``1..spec.trials``.  Priced plans stamp each unit's
    predicted cost.
    """
    costs = [spec_trial_cost(spec) for spec in specs]
    if None in costs:
        costs = [None] * len(specs)
    weights = [1.0 if cost is None else cost for cost in costs]
    target = sum(w * spec.trials for w, spec in zip(weights, specs)) / max(
        1, capacity * GRID_PARTS_PER_WORKER
    )
    plans = []
    for spec, cost, weight in zip(specs, costs, weights):
        size = (
            unit_size
            if unit_size is not None
            else max(1, min(spec.trials, round(target / weight)))
        )
        plans.append(
            DispatchPlan(
                trials=spec.trials,
                unit_size=size,
                trial_cost=cost,
            )
        )
    return plans


def plan_grid(
    specs: Sequence[ExperimentSpec],
    capacity: int,
    unit_size: Optional[int] = None,
) -> List[WorkUnit]:
    """Work units for specs sharing one collect loop.

    The units of :func:`plan_specs`, heaviest predicted unit first, so
    the greedy collect loop approximates LPT across lanes and
    stragglers start early.  The sort is stable: unpriced units keep
    spec order, and one spec's units keep trial order.
    """
    units = [
        unit
        for spec, plan in zip(specs, plan_specs(specs, capacity, unit_size))
        for unit in plan.units(spec)
    ]
    units.sort(key=lambda u: -(u.predicted_cost or 0.0))
    return units
