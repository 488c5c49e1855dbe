"""Per-layer tracing for the end-to-end benchmark, applied from outside.

The benchmark never edits the program to measure it.  Instead a
:class:`Tracer` replaces public callables of each layer with timing
wrappers, at the binding their callers actually use:

* methods are patched on the class that defines them (every subclass
  that defines its own ``on_round`` / ``act`` / ... gets its own wrapper);
* module functions are patched in the defining module *and* in every
  ``repro`` module that bound the same object with ``from ... import``;
* scenario builders are re-registered through the public registry, so
  ``engine.build`` / ``engine.collect`` / ``engine.prepare_wave`` wrap the
  callables the serial and batch backends resolve by name.

Each thread keeps its own wrapper stack, so a wrapper's *self* time is
its duration minus the time covered by wrapped callees.  Hot wrappers
(``BitLedger.record``, ``InterpPlan.interpolate_at``, ...) only keep
call count, total and self time; coarse ones (:data:`SPAN_NAMES`: the
benchmark's batch, trial, protocol phase and simulator step) also keep
a full span: id, name, start, end, parent span and trial label.
Garbage collections count as ``runtime.gc`` calls (a ``gc.callbacks``
hook), so their pauses leave the self time of the code they interrupt.
:meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import sys
import threading
import time
from types import ModuleType
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Wrapper names that keep full spans (everything else: counters only).
SPAN_NAMES = frozenset(
    {"batch", "trial", "core.tournament", "core.ae2e", "net.step"}
)

#: Structural spans the benchmark itself opens; not a program layer.
STRUCTURAL = frozenset({"batch", "trial"})

#: Which workloads each layer wrapper must fire in (the "should move"
#: column of the README's layer map).  A traced run fails its
#: correctness check if a wrapper listed for it never fired.
EXPECTED_FIRING: Dict[str, Tuple[str, ...]] = {
    "core.tournament": ("eba-n9-adaptive",),
    "core.send_secret_up": ("eba-n9-adaptive",),
    "core.send_down": ("eba-n9-adaptive",),
    "core.send_open": ("eba-n9-adaptive",),
    "core.ae2e": ("eba-n9-adaptive",),
    "core.on_round": ("aeba-n256-sparse", "vss-coin-k24-batch"),
    "core.bulk_predeal": ("vss-coin-k24-batch",),
    "adversary.act": ("eba-n9-adaptive", "aeba-n256-sparse"),
    "adversary.select_corruptions": ("eba-n9-adaptive", "aeba-n256-sparse"),
    "net.step": ("aeba-n256-sparse", "vss-coin-k24-batch"),
    "net.ledger": ("aeba-n256-sparse", "vss-coin-k24-batch"),
    "net.collect_result": ("aeba-n256-sparse", "vss-coin-k24-batch"),
    "topology.graph_build": ("aeba-n256-sparse",),
    "crypto.interp": ("eba-n9-adaptive", "vss-coin-k24-batch"),
    "crypto.eval": ("eba-n9-adaptive", "vss-coin-k24-batch"),
    "crypto.bivariate": ("vss-coin-k24-batch",),
    "crypto.rs_decode": ("eba-n9-adaptive",),
    "crypto.plan_lookup": ("eba-n9-adaptive", "vss-coin-k24-batch"),
    "engine.build": (
        "eba-n9-adaptive", "aeba-n256-sparse", "vss-coin-k24-batch",
    ),
    "engine.collect": (
        "eba-n9-adaptive", "aeba-n256-sparse", "vss-coin-k24-batch",
    ),
    "engine.prepare_wave": ("vss-coin-k24-batch",),
    "dispatch.plan": ("dist-pk-n8-units",),
    "dispatch.collect_loop": ("dist-pk-n8-units",),
    "dispatch.submit": ("dist-pk-n8-units",),
    "dispatch.wait": ("dist-pk-n8-units",),
    "wire.encode": ("dist-pk-n8-units",),
    "wire.decode": ("dist-pk-n8-units",),
    "merge.report": ("vss-coin-k24-batch", "dist-pk-n8-units"),
    "merge.result_decode": ("dist-pk-n8-units",),
    "merge.aggregate": ("vss-coin-k24-batch", "dist-pk-n8-units"),
    "merge.telemetry": ("dist-pk-n8-units",),
    "runtime.gc": ("aeba-n256-sparse", "vss-coin-k24-batch"),
}


def _subclasses(root: type) -> List[type]:
    """``root`` and every (transitively) loaded subclass of it."""
    seen: List[type] = []
    todo = [root]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def layer_targets() -> List[Tuple[str, Any, str, bool]]:
    """``(layer name, owner, attribute, is_generator)`` for every wrapper.

    Resolved after the workload's warm-up, so every scenario module the
    workload uses is imported and its protocol/adversary subclasses are
    visible.
    """
    from repro.adversary.adaptive import TournamentAdversary
    from repro.core import almost_everywhere, ae_to_everywhere, vss_coin
    from repro.core.communication import TreeCommunicator
    from repro.crypto import bivariate, kernels, reed_solomon
    from repro.engine import aggregate, distributed, dispatch, spec, wire
    from repro.engine.telemetry import RunTelemetry
    from repro.net.accounting import BitLedger
    from repro.net.simulator import Adversary, ProcessorProtocol, SyncNetwork
    from repro.topology import sparse_graph

    targets: List[Tuple[str, Any, str, bool]] = [
        ("core.tournament", almost_everywhere.Tournament, "run_stepwise", True),
        ("core.send_secret_up", TreeCommunicator, "send_secret_up", False),
        ("core.send_down", TreeCommunicator, "send_down", False),
        ("core.send_open", TreeCommunicator, "send_open", False),
        ("core.ae2e", ae_to_everywhere, "run_ae_to_everywhere", False),
        ("core.bulk_predeal", vss_coin, "bulk_predeal", False),
        ("net.step", SyncNetwork, "step", False),
        ("net.collect_result", SyncNetwork, "collect_result", False),
        ("net.ledger", BitLedger, "record", False),
        ("net.ledger", BitLedger, "record_abstract", False),
        ("topology.graph_build", sparse_graph, "random_regular_graph", False),
        ("crypto.interp", kernels.InterpPlan, "interpolate_at", False),
        ("crypto.interp", kernels.InterpPlan, "interpolate_many_at", False),
        ("crypto.interp", kernels.InterpPlan, "interpolate_grid", False),
        ("crypto.interp", kernels, "interpolate_windows_at_zero", False),
        ("crypto.eval", kernels.EvalPlan, "evaluate", False),
        ("crypto.eval", kernels.BatchEvalPlan, "evaluate_many", False),
        ("crypto.plan_lookup", kernels, "get_eval_plan", False),
        ("crypto.plan_lookup", kernels, "get_batch_eval_plan", False),
        ("crypto.plan_lookup", kernels, "get_interp_plan", False),
        ("crypto.plan_build", kernels.EvalPlan, "__init__", False),
        ("crypto.plan_build", kernels.BatchEvalPlan, "__init__", False),
        ("crypto.plan_build", kernels.InterpPlan, "__init__", False),
        ("crypto.rs_decode", reed_solomon, "berlekamp_welch", False),
        ("dispatch.plan", distributed.DistributedBackend, "plan", False),
        ("dispatch.plan", dispatch.DispatchPlan, "units", False),
        ("dispatch.collect_loop", dispatch, "run_units", False),
        ("dispatch.submit", distributed.SocketTransport, "try_submit", False),
        ("dispatch.wait", distributed.SocketTransport, "collect", False),
        ("wire.encode", wire, "encode_frame", False),
        ("wire.decode", wire, "decode_document", False),
        ("merge.report", RunTelemetry, "report", False),
        ("merge.telemetry", RunTelemetry, "note_submit", False),
        ("merge.telemetry", RunTelemetry, "cancel_submit", False),
        ("merge.telemetry", RunTelemetry, "note_result", False),
        ("merge.telemetry", RunTelemetry, "note_send", False),
        ("merge.telemetry", RunTelemetry, "note_receive", False),
        ("merge.telemetry", RunTelemetry, "note_inflight", False),
        ("merge.result_decode", spec, "result_from_wire", False),
        ("merge.aggregate", aggregate.ExperimentResult, "to_table", False),
        ("trial", dispatch, "run_one_trial", False),
    ]
    # Bivariate dealing and verification: every public scheme method.
    # (BivariateRow.at is a per-point accessor; its time stays with the
    # protocol code that calls it.)
    for attr, value in vars(bivariate.BivariateScheme).items():
        if callable(value) and not attr.startswith("_"):
            targets.append(
                ("crypto.bivariate", bivariate.BivariateScheme, attr, False)
            )
    for cls in _subclasses(ProcessorProtocol):
        if "on_round" in vars(cls):
            targets.append(("core.on_round", cls, "on_round", False))
    # Simulator adversaries act/corrupt through act/select_corruptions;
    # the tournament adversary through its phase hooks.
    for cls in _subclasses(Adversary):
        for attr in ("act", "select_corruptions"):
            if attr in vars(cls):
                targets.append((f"adversary.{attr}", cls, attr, False))
    for cls in _subclasses(TournamentAdversary):
        for attr, layer in (
            ("bad_bin_choice", "adversary.act"),
            ("bad_coin_word", "adversary.act"),
            ("initial_corruptions", "adversary.select_corruptions"),
            ("corrupt_after_election", "adversary.select_corruptions"),
        ):
            if attr in vars(cls):
                targets.append((layer, cls, attr, False))
    return targets


class _ThreadState(threading.local):
    """One thread's wrapper stack, counters and finished spans.

    The registry receives each thread's own ``stats`` and ``spans``
    objects (the local itself would read the caller's thread's values).
    """

    def __init__(self, registry: list, lock: threading.Lock) -> None:
        #: One ``[child_seconds]`` cell per open wrapper call.
        self.stack: List[List[float]] = []
        #: name -> [calls, total seconds, self seconds]
        self.stats: Dict[str, List[float]] = {}
        self.spans: List[dict] = []
        self.span_id: Optional[int] = None
        #: The open ``runtime.gc`` call while a collection runs.
        self.gc_token: Optional[tuple] = None
        with lock:
            registry.append(
                (threading.current_thread().name, self.stats, self.spans)
            )


class Tracer:
    """Installs layer wrappers, accumulates self time, writes spans."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._threads: List[Tuple[str, dict, list]] = []
        self._state = _ThreadState(self._threads, self._lock)
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []
        self._scenarios: List[Any] = []
        self.t0 = time.perf_counter()
        #: Label stamped on spans: the bench loop sets the batch number,
        #: the ``trial`` wrapper narrows it to ``batch:index``.
        self.trial: Optional[str] = None

    # -- wrappers ----------------------------------------------------------------------

    def _enter(self, name: str) -> tuple:
        state = self._state
        cell = [0.0]
        state.stack.append(cell)
        span_id = parent = None
        if name in SPAN_NAMES:
            span_id = next(self._ids)
            parent = state.span_id
            state.span_id = span_id
        return (name, cell, span_id, parent, time.perf_counter())

    def _exit(self, token: tuple) -> None:
        end = time.perf_counter()
        name, cell, span_id, parent, start = token
        state = self._state
        elapsed = end - start
        state.stack.pop()
        if state.stack:
            state.stack[-1][0] += elapsed
        rec = state.stats.get(name)
        if rec is None:
            rec = state.stats[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - cell[0]
        if span_id is not None:
            state.span_id = parent
            state.spans.append(
                {
                    "id": span_id,
                    "name": name,
                    "start": start - self.t0,
                    "end": end - self.t0,
                    "parent": parent,
                    "trial": self.trial,
                    "thread": threading.current_thread().name,
                }
            )

    def _on_gc(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook: a collection is a ``runtime.gc`` call,
        so its pause leaves the self time of whatever it interrupted."""
        state = self._state
        if phase == "start":
            state.gc_token = self._enter("runtime.gc")
        elif state.gc_token is not None:
            self._exit(state.gc_token)
            state.gc_token = None

    def span(self, name: str) -> "_SpanContext":
        """A span the benchmark opens around its own code (``batch``)."""
        return _SpanContext(self, name)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A timing wrapper around one callable."""
        if name in SPAN_NAMES:
            return self._wrap_coarse(name, fn)
        state = self._state
        clock = time.perf_counter

        # _enter/_exit inlined, without the span: this runs tens of
        # thousands of times per trial (BitLedger.record, interpolate_at).
        def hot(*args, **kwargs):
            stack = state.stack
            cell = [0.0]
            stack.append(cell)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                rec = state.stats.get(name)
                if rec is None:
                    rec = state.stats[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - cell[0]

        hot.__wrapped__ = fn
        return hot

    def _wrap_coarse(self, name: str, fn: Callable) -> Callable:
        def coarse(*args, **kwargs):
            label = self.trial
            if name == "trial" and len(args) > 1:
                # run_one_trial(spec, trial_index): narrow the label.
                self.trial = f"{label}:{args[1]}"
            token = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(token)
                self.trial = label

        coarse.__wrapped__ = fn
        return coarse

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Time every resumption of the generators ``fn`` returns."""

        def resumed(gen: Iterator) -> Iterator:
            try:
                while True:
                    token = self._enter(name)
                    try:
                        value = next(gen)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        self._exit(token)
                    yield value
            finally:
                gen.close()

        def generator(*args, **kwargs):
            return resumed(fn(*args, **kwargs))

        generator.__wrapped__ = fn
        return generator

    # -- installation ------------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, scenario_names: Tuple[str, ...] = ()) -> None:
        """Wrap every layer target and the named scenarios' builders."""
        wrapped: Dict[int, Any] = {}
        for name, owner, attr, is_generator in layer_targets():
            raw = vars(owner)[attr]
            if id(raw) in wrapped:
                continue
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            wrapper = (self.wrap_generator if is_generator else self.wrap)(
                name, fn
            )
            if isinstance(raw, (staticmethod, classmethod)):
                wrapper = type(raw)(wrapper)
            wrapped[id(raw)] = wrapper
            self._patch(owner, attr, wrapper)
            if isinstance(owner, ModuleType):
                self._patch_aliases(raw, wrapper)
        for scenario in scenario_names:
            self._wrap_scenario(scenario)
        gc.callbacks.append(self._on_gc)

    def _patch_aliases(self, original: Any, wrapper: Any) -> None:
        """Re-point every ``from ... import`` binding of ``original``."""
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def _wrap_scenario(self, scenario_name: str) -> None:
        from repro.engine.registry import get_runner, register

        original = get_runner(scenario_name)
        if original.build_instance is None:
            return
        build = self.wrap("engine.build", original.build_instance)

        def build_instance(ctx):
            instance = build(ctx)
            return dataclasses.replace(
                instance, collect=self.wrap("engine.collect", instance.collect)
            )

        prepare = (
            self.wrap("engine.prepare_wave", original.prepare_wave)
            if original.prepare_wave is not None
            else None
        )
        # run_trial=None makes the replacement derive its serial path
        # from the wrapped builder, exactly as registration does.
        register(
            dataclasses.replace(
                original,
                run_trial=None,
                build_instance=build_instance,
                prepare_wave=prepare,
            )
        )
        self._scenarios.append(original)

    def uninstall(self) -> None:
        """Restore every patched binding and scenario (idempotent)."""
        from repro.engine.registry import register

        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        while self._scenarios:
            register(self._scenarios.pop())

    def patched(self) -> List[Tuple[Any, str, Any]]:
        """The (owner, attribute, original) triples currently replaced."""
        return list(self._patches)

    # -- results -----------------------------------------------------------------------

    def totals(self, thread: Optional[str] = None) -> Dict[str, Dict[str, float]]:
        """Per-name calls, total and self seconds, summed over threads
        (or for the one thread named ``thread``)."""
        with self._lock:
            threads = list(self._threads)
        merged: Dict[str, List[float]] = {}
        for name_of_thread, stats, _ in threads:
            if thread is not None and name_of_thread != thread:
                continue
            for name, (calls, total, own) in list(stats.items()):
                rec = merged.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += own
        return {
            name: {"calls": int(c), "total_s": t, "self_s": s}
            for name, (c, t, s) in sorted(merged.items())
        }

    def spans(self) -> List[dict]:
        """Every finished coarse span, ordered by start time."""
        with self._lock:
            threads = list(self._threads)
        out = [span for _, _, spans in threads for span in spans]
        out.sort(key=lambda span: span["start"])
        return out


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._token: Optional[tuple] = None

    def __enter__(self) -> "_SpanContext":
        self._token = self._tracer._enter(self._name)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._exit(self._token)
