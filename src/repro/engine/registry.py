"""The scenario registry — the data half of `experiments as data`.

A :class:`Scenario` is one named, registered experiment: a typed
parameter schema (:class:`~repro.engine.scenario.Param`), a metric
contract, and one of two *execution modes*:

* ``run_trial`` — an isolated, self-contained trial, usable by every
  backend (every scenario has one, declared or derived);
* ``build_instance`` — returns a :class:`BatchInstance`: a ready
  steppable network (a :class:`~repro.net.simulator.SyncNetwork` or an
  :class:`~repro.asynchrony.scheduler.AsyncNetwork`) plus a collector,
  which the batch backend multiplexes breadth-first.

When only a builder is declared, ``run_trial`` is derived from it, so
every backend executes literally the same construction — the engine's
bit-identical-backends property by construction.

Specs reference scenarios *by name* so they stay picklable; worker
processes resolve the name against this module after import.  Built-in
scenarios live in :mod:`repro.engine.scenarios` and are loaded lazily on
first lookup, so ad-hoc test scenarios can register without importing
the whole protocol stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from .scenario import Param, ScenarioError, defaults_of, validate_mapping
from .spec import EngineError, TrialContext, TrialResult


@dataclass(frozen=True)
class BatchInstance:
    """One trial prepared as a steppable network plus collector.

    ``network`` is anything with the stepping primitives both simulators
    share — ``steps``, ``advance()`` and ``result()`` (a
    :class:`~repro.net.simulator.SyncNetwork` counts rounds, an
    :class:`~repro.asynchrony.scheduler.AsyncNetwork` delivery steps);
    ``max_steps`` caps them.
    """

    network: Any
    max_steps: int
    collect: Callable[[Any, TrialContext], TrialResult]
    ctx: TrialContext


def drive_instance(instance: BatchInstance) -> TrialResult:
    """Run one prepared instance to completion (the serial path).

    ``network.run(cap)`` is the loop over ``steps`` / ``advance()`` /
    ``result()`` that the batch backend interleaves across instances,
    so both executions produce the identical result.
    """
    result = instance.network.run(instance.max_steps)
    return instance.collect(result, instance.ctx)


def _run_trial_from_builder(
    builder: Callable[[TrialContext], BatchInstance]
) -> Callable[[TrialContext], TrialResult]:
    def run_trial(ctx: TrialContext) -> TrialResult:
        return drive_instance(builder(ctx))

    return run_trial


@dataclass(frozen=True)
class Scenario:
    """A named experiment: schema, metric contract, execution modes.

    ``params=None`` marks an *undeclared* schema (ad-hoc test scenarios):
    validation passes everything through, and the scenario is excluded
    from schema-driven surfaces (``--list`` details, ``--smoke``,
    registry-wide parity tests).  Built-in scenarios always declare a
    schema, even an empty one.

    ``check`` is the *cross-field* validation hook: per-``Param``
    schemas validate types, choices and bounds of one value at a time,
    but relations between fields — ``degree < n``, a corruption budget
    below the protocol's fault bound — need the network size and the
    whole parameter mapping at once.  ``check(n, params)`` receives the
    coerced parameters merged over the schema defaults and returns an
    error message (or ``None`` when fine); :meth:`validate` raises it
    as a :class:`~repro.engine.scenario.ScenarioError`, so violations
    fail at the schema front door instead of deep inside a builder.
    """

    name: str
    run_trial: Optional[Callable[[TrialContext], TrialResult]] = None
    build_instance: Optional[
        Callable[[TrialContext], BatchInstance]
    ] = None
    description: str = ""
    params: Optional[Tuple[Param, ...]] = None
    metrics: Tuple[str, ...] = ()
    #: Network size / parameters for one cheap smoke trial (CI's
    #: ``run-experiment --smoke`` runs every declared scenario with
    #: these, so a broken registration fails the build).
    smoke_n: int = 7
    smoke_params: Tuple[Tuple[str, Any], ...] = ()
    #: Cross-field constraint hook: ``check(n, params) -> error or None``.
    check: Optional[
        Callable[[int, Dict[str, Any]], Optional[str]]
    ] = None
    #: Wave-bulk hook: the batch backend calls it with every
    #: instance of a wave (trial-index order) after construction and
    #: before the first step, so a scenario can run batched preparation
    #: — bulk dealing, shared precomputation — across the whole wave.
    #: Must be a pure accelerant: results stay bit-identical to the
    #: serial path (guarded by the registry-wide parity suite).  An
    #: exception fails the entire wave.
    prepare_wave: Optional[Callable[[List[Any]], None]] = None

    def __post_init__(self) -> None:
        if self.run_trial is None:
            if self.build_instance is None:
                raise ScenarioError(
                    f"scenario {self.name!r} declares no execution mode"
                )
            object.__setattr__(
                self,
                "run_trial",
                _run_trial_from_builder(self.build_instance),
            )
        if self.params is not None:
            object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        object.__setattr__(
            self, "smoke_params", tuple(sorted(tuple(self.smoke_params)))
        )

    @property
    def batchable(self) -> bool:
        """Whether the batch backend can multiplex this scenario."""
        return self.build_instance is not None

    @property
    def declared(self) -> bool:
        """Whether this scenario carries a parameter schema."""
        return self.params is not None

    def validate(
        self, raw: Mapping[str, Any], n: Optional[int] = None
    ) -> Dict[str, Any]:
        """Coerce ``raw`` parameters against the schema.

        Unknown keys raise :class:`ScenarioError` with a did-you-mean
        hint; ill-typed values raise with the expected type.  Scenarios
        without a declared schema pass everything through unchanged.

        When the network size ``n`` is given (the engine and CLI pass
        it), the scenario's cross-field ``check`` hook also runs, over
        the coerced values merged onto the schema defaults — so
        relational violations (``degree >= n``, an over-budget
        corruption fraction) raise here rather than deep in the
        builder.  Without ``n`` validation stays value-level only.
        """
        if self.params is None:
            return dict(raw)
        validated = validate_mapping(self.name, self.params, raw)
        if n is not None and self.check is not None:
            effective = defaults_of(self.params)
            effective.update(validated)
            problem = self.check(n, effective)
            if problem:
                raise ScenarioError(
                    f"invalid parameters for scenario {self.name!r}: "
                    f"{problem}"
                )
        return validated


_REGISTRY: Dict[str, Scenario] = {}
_BUILTINS_LOADED = False


def load_builtin_scenarios() -> None:
    """Import :mod:`repro.engine.scenarios`, registering the built-ins.

    The loaded flag is only set on success, so an import error during
    development surfaces on every lookup instead of being cached into a
    misleading ``unknown runner`` error.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    from . import scenarios  # noqa: F401  (import side effect: register)

    _BUILTINS_LOADED = True


def register(runner: Scenario) -> Scenario:
    """Add a scenario to the registry (idempotent on identical names)."""
    _REGISTRY[runner.name] = runner
    # Latest registration wins everywhere: drop any memoised resolution.
    _RESOLVED.pop(runner.name, None)
    return runner


def get_runner(name: str) -> Scenario:
    """Look up a scenario; raises :class:`EngineError` on unknown names."""
    if name not in _REGISTRY:
        load_builtin_scenarios()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise EngineError(
            f"unknown experiment runner {name!r} (known: {known})"
        ) from None


#: Per-process memo over :func:`get_runner`.  Pool workers execute many
#: units of the same spec; resolving the scenario name once per worker
#: process (instead of once per trial, each paying the registry lookup
#: plus the lazy-builtins guard) is the cheap half of the worker-rebuild
#: contract.  Invalidated by :func:`register`, so ad-hoc
#: re-registrations still win.
_RESOLVED: Dict[str, Scenario] = {}


def resolve_cached(name: str) -> Scenario:
    """Memoised scenario resolution for the hot per-trial path."""
    runner = _RESOLVED.get(name)
    if runner is None:
        runner = get_runner(name)
        _RESOLVED[name] = runner
    return runner


def runner_names() -> List[str]:
    """All registered scenario names, sorted."""
    load_builtin_scenarios()
    return sorted(_REGISTRY)


#: Scenario-flavoured aliases (the runner vocabulary is the legacy name).
get_scenario = get_runner


def scenario_names(declared_only: bool = False) -> List[str]:
    """Registered scenario names; optionally only schema-declared ones."""
    return [
        name
        for name in runner_names()
        if not declared_only or _REGISTRY[name].declared
    ]
