"""Experiment descriptions: specs, per-trial contexts, and trial results.

The engine's contract is that a Monte-Carlo experiment is *data*: an
:class:`ExperimentSpec` names a registered runner, a network size, a
trial count and a master seed.  Everything else — which backend executes
the trials, in which process, in what order — is an execution detail
that must not change the results.  Two invariants make that hold:

* **Deterministic seed derivation.**  Trial ``i`` of a spec always runs
  with ``trial_seed(spec, i)``, a SHA-256 child seed of the spec's
  master seed and the trial index (via :func:`repro.net.rng.derive_seed`).
  No backend state, scheduling order or worker identity enters the
  derivation, so serial, process-pool and batched executions of the same
  spec are bit-identical.
* **Picklable specs.**  A spec references its runner *by name*; the
  worker process resolves the name against :mod:`repro.engine.registry`
  after import.  Specs therefore cross process boundaries as plain data.

For boundaries where pickling is wrong (remote hosts, mixed library
versions), this module also defines the engine's **versioned JSON wire
format**: :func:`spec_to_wire` / :func:`spec_from_wire` for
:class:`ExperimentSpec` work units and :func:`result_to_wire` /
:func:`result_from_wire` for :class:`TrialResult` envelopes.  Every
document carries ``version`` and ``kind`` header fields; decoding
rejects unknown versions (:class:`WireFormatError`) instead of
guessing, and non-finite floats are refused in both directions — NaN
does not round-trip through JSON and must never be smuggled into a
bit-identical result stream.  This module defines the documents only:
on TCP they travel inside :mod:`~repro.engine.wire` frames, and the
fleet's files hold them one per line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from ..net.accounting import BitLedger
from ..net.rng import child_rng, derive_seed


class EngineError(RuntimeError):
    """Raised on engine contract violations (bad specs, unknown runners)."""


class WireFormatError(EngineError):
    """Raised when a wire document is malformed or version-mismatched."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One Monte-Carlo experiment, expressed as data.

    Attributes:
        runner: name of a registered experiment runner
            (see :mod:`repro.engine.registry`).
        n: network size handed to the runner.
        trials: number of independent trials.
        seed: master seed; every trial seed is derived from it.
        params: runner-specific keyword parameters.  Values must be
            picklable for the process-pool backend (plain scalars and
            strings in practice).
    """

    runner: str
    n: int
    trials: int
    seed: int = 0
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise EngineError("spec needs at least one trial")
        if self.n < 1:
            raise EngineError("spec needs n >= 1")
        # Normalise mapping-style params into a sorted, hashable tuple so
        # specs are order-insensitive value objects.
        if isinstance(self.params, Mapping):
            object.__setattr__(
                self, "params", tuple(sorted(self.params.items()))
            )
        else:
            object.__setattr__(
                self, "params", tuple(sorted(tuple(self.params)))
            )

    def param_dict(self) -> Dict[str, Any]:
        """The runner parameters as a plain dict."""
        return dict(self.params)

    def trial_seed(self, trial_index: int) -> int:
        """The deterministic seed of one trial (backend-independent)."""
        return derive_seed(self.seed, "engine", self.runner, trial_index)

    def describe(self) -> str:
        """A one-line human-readable summary."""
        params = ", ".join(f"{k}={v}" for k, v in self.params)
        suffix = f", {params}" if params else ""
        return (
            f"{self.runner}(n={self.n}, trials={self.trials}, "
            f"seed={self.seed}{suffix})"
        )


@dataclass(frozen=True)
class TrialContext:
    """Everything a runner sees for one trial."""

    spec: ExperimentSpec
    trial_index: int
    seed: int

    @property
    def n(self) -> int:
        """Network size from the spec."""
        return self.spec.n

    def param(self, name: str, default: Any = None) -> Any:
        """One runner parameter, with a default."""
        return self.spec.param_dict().get(name, default)

    def rng(self, *labels: Any):
        """A labelled child RNG rooted at this trial's seed."""
        return child_rng(self.seed, *labels)


@dataclass(frozen=True)
class LedgerStats:
    """A mergeable, picklable summary of a :class:`BitLedger`.

    Full ledgers hold per-processor dicts; across thousands of trials we
    only need the aggregates, and they must merge associatively so any
    sharding of trials over workers produces the same totals.
    """

    total_bits: int = 0
    total_messages: int = 0
    max_bits_per_processor: int = 0
    rounds: int = 0
    phase_bits: Tuple[Tuple[str, int], ...] = ()

    @classmethod
    def from_ledger(
        cls, ledger: BitLedger, include: Optional[Any] = None
    ) -> "LedgerStats":
        """Summarise one trial's ledger (optionally over a processor subset)."""
        return cls(
            total_bits=(
                ledger.total_bits()
                if include is None
                else sum(ledger.sent_bits.get(p, 0) for p in include)
            ),
            total_messages=ledger.total_messages(),
            max_bits_per_processor=ledger.max_bits_per_processor(include),
            rounds=ledger.rounds,
            phase_bits=tuple(sorted(ledger.phase_breakdown().items())),
        )

    def merge(self, other: "LedgerStats") -> "LedgerStats":
        """Combine two trials' stats (associative and commutative).

        Bits, messages and rounds add; the per-processor maximum is the
        max over trials (the quantity Theorem 1 bounds per execution).
        """
        phases: Dict[str, int] = dict(self.phase_bits)
        for phase, bits in other.phase_bits:
            phases[phase] = phases.get(phase, 0) + bits
        return LedgerStats(
            total_bits=self.total_bits + other.total_bits,
            total_messages=self.total_messages + other.total_messages,
            max_bits_per_processor=max(
                self.max_bits_per_processor, other.max_bits_per_processor
            ),
            rounds=self.rounds + other.rounds,
            phase_bits=tuple(sorted(phases.items())),
        )


@dataclass(frozen=True)
class UnitStats:
    """Worker-side timing of one executed work unit.

    Stamped by whatever ran the unit — a pool worker, an in-process
    lane, or a remote ``repro worker serve`` host — and carried back on
    the result envelope so the client can split a unit's observed
    latency into *compute* (this) versus *queue + network* (the rest).

    ``trial_seconds`` holds the per-trial wall times, in unit order.
    """

    compute_seconds: float = 0.0
    trial_seconds: Tuple[float, ...] = ()


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one trial — the unit every backend must reproduce.

    ``metrics`` holds the runner's named numeric results; ``ok`` is the
    trial's success flag (protocol-level failure, not a crash); a crashed
    trial carries the exception text in ``failure`` with ``ok=False``.
    """

    trial_index: int
    seed: int
    metrics: Tuple[Tuple[str, float], ...]
    ledger: LedgerStats = LedgerStats()
    ok: bool = True
    failure: str = ""

    def metric_dict(self) -> Dict[str, float]:
        """The metrics as a plain dict."""
        return dict(self.metrics)

    @classmethod
    def make(
        cls,
        ctx: TrialContext,
        metrics: Mapping[str, float],
        ledger: Optional[LedgerStats] = None,
        ok: bool = True,
        failure: str = "",
    ) -> "TrialResult":
        """Build a result from a runner's raw outputs."""
        return cls(
            trial_index=ctx.trial_index,
            seed=ctx.seed,
            metrics=tuple(
                sorted((k, float(v)) for k, v in metrics.items())
            ),
            ledger=ledger if ledger is not None else LedgerStats(),
            ok=ok,
            failure=failure,
        )


# -- versioned JSON wire format --------------------------------------------------------

#: Wire format version.  Bump on any incompatible change to the
#: documents below; decoders reject everything but their own version.
WIRE_VERSION = 1


def require_wire(doc: Any, kind: str) -> Mapping[str, Any]:
    """Validate a wire document's ``version``/``kind`` header.

    Shared by every decoder (specs, results, work units, the socket
    transport's frames), so a host running a different engine version
    fails with one clear :class:`WireFormatError` instead of a shape
    error deep inside a field-by-field parse.
    """
    if not isinstance(doc, Mapping):
        raise WireFormatError(
            f"wire document must be a JSON object, got "
            f"{type(doc).__name__}"
        )
    version = doc.get("version")
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"wire version {version!r} is not supported "
            f"(this engine speaks version {WIRE_VERSION})"
        )
    if doc.get("kind") != kind:
        raise WireFormatError(
            f"expected wire kind {kind!r}, got {doc.get('kind')!r}"
        )
    return doc


def _require_finite(value: Any, where: str) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise WireFormatError(
            f"non-finite float in {where}: {value!r} (NaN/inf do not "
            "survive a JSON round trip)"
        )


def wire_dumps(doc: Mapping[str, Any]) -> str:
    """One wire document as a single JSON line (newline-free).

    ``allow_nan=False`` is the backstop behind the explicit finiteness
    checks: a NaN that slips past them still fails at encode time
    rather than emitting non-standard JSON.
    """
    try:
        return json.dumps(
            doc, allow_nan=False, separators=(",", ":"), sort_keys=True
        )
    except (TypeError, ValueError) as exc:
        raise WireFormatError(f"cannot encode wire document: {exc}") from None


def wire_loads(text: str) -> Any:
    """Parse one wire line; malformed JSON raises :class:`WireFormatError`."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise WireFormatError(f"malformed wire document: {exc}") from None


#: Parameter value types the wire format carries.  Exactly the types the
#: Param schema layer coerces to, so every validated spec is wireable.
_WIRE_PARAM_TYPES = (bool, int, float, str, type(None))


def spec_to_wire(spec: ExperimentSpec) -> Dict[str, Any]:
    """An :class:`ExperimentSpec` as a version-1 wire document."""
    params = []
    for key, value in spec.params:
        if not isinstance(key, str):
            raise WireFormatError(
                f"param keys must be strings, got {key!r}"
            )
        if not isinstance(value, _WIRE_PARAM_TYPES):
            raise WireFormatError(
                f"param {key!r} has unwireable type "
                f"{type(value).__name__} (scalars and strings only)"
            )
        _require_finite(value, f"param {key!r}")
        params.append([key, value])
    return {
        "version": WIRE_VERSION,
        "kind": "spec",
        "runner": spec.runner,
        "n": spec.n,
        "trials": spec.trials,
        "seed": spec.seed,
        "params": params,
    }


def spec_from_wire(doc: Any) -> ExperimentSpec:
    """Decode a spec document; inverse of :func:`spec_to_wire`."""
    require_wire(doc, "spec")
    try:
        raw_params = doc["params"]
        params = []
        for pair in raw_params:
            key, value = pair
            if not isinstance(key, str) or not isinstance(
                value, _WIRE_PARAM_TYPES
            ):
                raise WireFormatError(
                    f"malformed wire param entry: {pair!r}"
                )
            _require_finite(value, f"param {key!r}")
            params.append((key, value))
        return ExperimentSpec(
            runner=str(doc["runner"]),
            n=int(doc["n"]),
            trials=int(doc["trials"]),
            seed=int(doc["seed"]),
            params=tuple(params),
        )
    except WireFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise WireFormatError(f"malformed spec document: {exc}") from None


def _ledger_to_wire(ledger: LedgerStats) -> Dict[str, Any]:
    return {
        "total_bits": ledger.total_bits,
        "total_messages": ledger.total_messages,
        "max_bits_per_processor": ledger.max_bits_per_processor,
        "rounds": ledger.rounds,
        "phase_bits": [[phase, bits] for phase, bits in ledger.phase_bits],
    }


def _ledger_from_wire(doc: Mapping[str, Any]) -> LedgerStats:
    return LedgerStats(
        total_bits=int(doc["total_bits"]),
        total_messages=int(doc["total_messages"]),
        max_bits_per_processor=int(doc["max_bits_per_processor"]),
        rounds=int(doc["rounds"]),
        phase_bits=tuple(
            (str(phase), int(bits)) for phase, bits in doc["phase_bits"]
        ),
    )


def result_to_wire(result: TrialResult) -> Dict[str, Any]:
    """A :class:`TrialResult` envelope as a version-1 wire document."""
    metrics = []
    for key, value in result.metrics:
        _require_finite(value, f"metric {key!r}")
        metrics.append([key, value])
    return {
        "version": WIRE_VERSION,
        "kind": "result",
        "trial_index": result.trial_index,
        "seed": result.seed,
        "metrics": metrics,
        "ledger": _ledger_to_wire(result.ledger),
        "ok": result.ok,
        "failure": result.failure,
    }


#: Version of the optional ``stats`` envelope field.  Independent of
#: :data:`WIRE_VERSION`: the field is *advisory*, so an unknown stats
#: version degrades to "no stats" instead of failing the envelope.
STATS_VERSION = 1


def stats_to_wire(stats: UnitStats) -> Dict[str, Any]:
    """A :class:`UnitStats` as the optional ``stats`` envelope field."""
    _require_finite(stats.compute_seconds, "stats.compute_seconds")
    for value in stats.trial_seconds:
        _require_finite(value, "stats.trial_seconds")
    return {
        "stats_version": STATS_VERSION,
        "compute_seconds": stats.compute_seconds,
        "trial_seconds": list(stats.trial_seconds),
    }


def stats_from_wire(doc: Any) -> Optional[UnitStats]:
    """Decode the optional ``stats`` field; tolerant by design.

    Interop rule, pinned by ``tests/test_telemetry.py``: a missing
    field (an old worker), an unknown ``stats_version`` (a newer
    worker) or a malformed document all decode to ``None`` — timing is
    advisory and must never fail a result envelope that decodes fine.
    """
    if not isinstance(doc, Mapping):
        return None
    if doc.get("stats_version") != STATS_VERSION:
        return None
    try:
        compute = float(doc["compute_seconds"])
        trial_seconds = tuple(float(v) for v in doc["trial_seconds"])
    except (KeyError, TypeError, ValueError):
        return None
    if not math.isfinite(compute) or not all(
        math.isfinite(v) for v in trial_seconds
    ):
        return None
    return UnitStats(compute_seconds=compute, trial_seconds=trial_seconds)


def result_from_wire(doc: Any) -> TrialResult:
    """Decode a result envelope; inverse of :func:`result_to_wire`."""
    require_wire(doc, "result")
    try:
        metrics = []
        for key, value in doc["metrics"]:
            _require_finite(value, f"metric {key!r}")
            metrics.append((str(key), float(value)))
        return TrialResult(
            trial_index=int(doc["trial_index"]),
            seed=int(doc["seed"]),
            metrics=tuple(metrics),
            ledger=_ledger_from_wire(doc["ledger"]),
            ok=bool(doc["ok"]),
            failure=str(doc["failure"]),
        )
    except WireFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise WireFormatError(f"malformed result document: {exc}") from None
