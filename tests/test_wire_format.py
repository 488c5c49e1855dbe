"""Property tests for the engine's versioned JSON wire format.

The wire format is what lets a spec cross a *host* boundary the way a
pickle crosses a process boundary, so the tests pin the properties the
distributed backend's bit-identity rests on:

* **round trip is the identity** — specs (unicode params, huge ints,
  booleans, None defaults) and results (SHA-256-sized seeds, ledger
  stats, failure text) survive ``to_wire -> json -> from_wire``
  unchanged, over randomized inputs (stdlib ``random``, seeded — no
  hypothesis dependency, like the Param property tests);
* **NaN/inf never cross** — rejected loudly in both directions, since
  JSON either refuses them or silently corrupts them;
* **version mismatches are rejected** — a worker from a different
  engine version answers with one clear error, not a shape crash.
"""

import json
import math
import random

import pytest

from repro.engine import (
    ExperimentSpec,
    LedgerStats,
    TrialResult,
    WIRE_VERSION,
    WireFormatError,
    result_from_wire,
    result_to_wire,
    spec_from_wire,
    spec_to_wire,
)
from repro.engine.spec import wire_dumps, wire_loads

RNG = random.Random(0xD15BA7C4)

#: Characters deliberately beyond ASCII: combining marks, CJK, emoji,
#: a right-to-left run, quotes and backslashes.
_NASTY_TEXT = [
    "plain",
    "ünïcodé",
    "名前",
    "🎲🎲",
    "שלום",
    'quotes "and" \\backslashes\\',
    "newline\nand\ttab",
    "́combining",
    "",
]


def _random_param_value(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice(_NASTY_TEXT)
    if kind == 1:
        # Large ints well past 2**63: JSON-in-Python carries them exactly.
        return rng.randrange(-(2 ** 200), 2 ** 200)
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return None
    return rng.uniform(-1e12, 1e12)


def _random_spec(rng):
    params = {
        f"p{_i}_{rng.choice(_NASTY_TEXT)[:4]}": _random_param_value(rng)
        for _i in range(rng.randrange(0, 6))
    }
    return ExperimentSpec(
        runner=rng.choice(["vss-coin", "bracha-broadcast", "名前-scenario"]),
        n=rng.randrange(1, 10_000),
        trials=rng.randrange(1, 10_000),
        seed=rng.randrange(0, 2 ** 256),  # SHA-256-sized master seeds
        params=params,
    )


def _random_result(rng):
    metrics = tuple(
        sorted(
            (rng.choice(_NASTY_TEXT) + str(i), rng.uniform(-1e9, 1e9))
            for i in range(rng.randrange(0, 5))
        )
    )
    ledger = LedgerStats(
        total_bits=rng.randrange(0, 2 ** 80),
        total_messages=rng.randrange(0, 2 ** 40),
        max_bits_per_processor=rng.randrange(0, 2 ** 60),
        rounds=rng.randrange(0, 10_000),
        phase_bits=tuple(
            sorted(
                (phase, rng.randrange(0, 2 ** 50))
                for phase in rng.sample(["deal", "echo", "核心", "🎯"], 2)
            )
        ),
    )
    return TrialResult(
        trial_index=rng.randrange(0, 100_000),
        seed=rng.randrange(0, 2 ** 256),
        metrics=metrics,
        ledger=ledger,
        ok=rng.random() < 0.8,
        failure=rng.choice(_NASTY_TEXT),
    )


# -- round trips -----------------------------------------------------------------------


def test_spec_round_trip_is_identity_property():
    for _ in range(200):
        spec = _random_spec(RNG)
        doc = spec_to_wire(spec)
        # Through the actual serializer, not just the dict.
        decoded = spec_from_wire(wire_loads(wire_dumps(doc)))
        assert decoded == spec
        # Seeds derive identically after the round trip.
        assert decoded.trial_seed(0) == spec.trial_seed(0)


def test_result_round_trip_is_identity_property():
    for _ in range(200):
        result = _random_result(RNG)
        decoded = result_from_wire(wire_loads(wire_dumps(result_to_wire(result))))
        assert decoded == result


def test_wire_documents_are_plain_single_line_json():
    spec = _random_spec(random.Random(1))
    text = wire_dumps(spec_to_wire(spec))
    assert "\n" not in text
    assert json.loads(text)["version"] == WIRE_VERSION


def test_float_params_round_trip_bit_exactly():
    """repr-based JSON floats are exact: the round trip returns the
    same IEEE double, not an approximation."""
    for value in (0.1, 1e-300, 1.5e308, -0.0, math.pi):
        spec = ExperimentSpec(
            runner="vss-coin", n=7, trials=1, params={"x": value}
        )
        decoded = spec_from_wire(wire_loads(wire_dumps(spec_to_wire(spec))))
        assert decoded.param_dict()["x"] == value
        assert math.copysign(1, decoded.param_dict()["x"]) == (
            math.copysign(1, value)
        )


# -- NaN / non-finite rejection --------------------------------------------------------


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_params_rejected_on_encode(bad):
    spec = ExperimentSpec(
        runner="vss-coin", n=7, trials=1, params={"x": bad}
    )
    with pytest.raises(WireFormatError, match="non-finite"):
        spec_to_wire(spec)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_metrics_rejected_on_encode(bad):
    result = TrialResult(
        trial_index=0, seed=1, metrics=(("m", bad),)
    )
    with pytest.raises(WireFormatError, match="non-finite"):
        result_to_wire(result)


def test_non_finite_values_rejected_on_decode():
    spec_doc = spec_to_wire(
        ExperimentSpec(runner="vss-coin", n=7, trials=1, params={"x": 1.0})
    )
    spec_doc["params"][0][1] = float("nan")
    with pytest.raises(WireFormatError, match="non-finite"):
        spec_from_wire(spec_doc)


def test_wire_dumps_refuses_nan_as_backstop():
    with pytest.raises(WireFormatError):
        wire_dumps({"version": WIRE_VERSION, "kind": "spec", "x": float("nan")})


def test_unwireable_param_types_rejected():
    spec = ExperimentSpec(
        runner="vss-coin", n=7, trials=1, params={"x": (1, 2)}
    )
    with pytest.raises(WireFormatError, match="unwireable"):
        spec_to_wire(spec)


# -- version / kind rejection ----------------------------------------------------------


def test_version_mismatch_rejected():
    doc = spec_to_wire(ExperimentSpec(runner="vss-coin", n=7, trials=1))
    for bad_version in (WIRE_VERSION + 1, 0, None, "1"):
        tampered = dict(doc, version=bad_version)
        with pytest.raises(WireFormatError, match="version"):
            spec_from_wire(tampered)
    result_doc = result_to_wire(TrialResult(trial_index=0, seed=1, metrics=()))
    with pytest.raises(WireFormatError, match="version"):
        result_from_wire(dict(result_doc, version=WIRE_VERSION + 1))


def test_kind_mismatch_and_malformed_documents_rejected():
    spec_doc = spec_to_wire(ExperimentSpec(runner="vss-coin", n=7, trials=1))
    with pytest.raises(WireFormatError, match="kind"):
        result_from_wire(spec_doc)
    with pytest.raises(WireFormatError, match="object"):
        spec_from_wire([1, 2, 3])
    with pytest.raises(WireFormatError, match="malformed"):
        wire_loads("{not json")
    truncated = dict(spec_doc)
    del truncated["params"]
    with pytest.raises(WireFormatError, match="malformed"):
        spec_from_wire(truncated)


def test_worker_rejects_version_mismatch_over_the_socket():
    """A live worker answers a wrong-version request with an error
    document naming the version, instead of crashing or guessing."""
    import socket

    from repro.engine import WorkerServer
    from repro.engine.wire import FrameReader, decode_document, encode_frame

    with WorkerServer() as server:
        with socket.create_connection(
            (server.host, server.port), timeout=5.0
        ) as sock:
            bad = {"version": WIRE_VERSION + 1, "kind": "unit", "id": 7}
            sock.sendall(encode_frame(bad))
            reply = decode_document(FrameReader(sock).read_frame().payload)
    assert reply["kind"] == "error"
    assert "version" in reply["error"]
    assert reply["id"] == 7  # errors echo the request's unit id
