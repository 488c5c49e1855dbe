"""Shared helpers for the experiment benchmarks (E1-E22).

Each benchmark regenerates one of the paper's quantitative claims and
prints the rows/series as a table (through ``capsys.disabled()`` so the
output is visible under pytest's capture), in addition to registering a
representative timing unit with pytest-benchmark.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import pytest

from repro.engine import Engine, get_backend, get_runner


class _SuiteEngine(Engine):
    """Engine honouring the suite-wide backend flag per scenario.

    The hybrid backend deliberately has no serial fallback (a sync
    scenario on it is a misconfiguration), but the suite-wide
    ``--engine-backend`` flag must still run the sync benchmarks — so,
    exactly like ``run-experiment --smoke``, hybrid is applied only
    where the scenario supports it and everything else runs serial.
    """

    def __init__(self, name: str, workers) -> None:
        super().__init__(get_backend("serial"))
        self._name = name
        self._workers = workers

    def run(self, spec):
        backend = self._name
        if backend == "hybrid" and not get_runner(spec.runner).supports(
            "hybrid"
        ):
            backend = "serial"
        self.backend = get_backend(backend, workers=self._workers)
        try:
            return super().run(spec)
        finally:
            self.backend.close()


@pytest.fixture
def engine(request) -> Engine:
    """An :class:`repro.engine.Engine` on the CLI-selected backend.

    Flip the whole benchmark suite between backends without editing
    files:  ``pytest benchmarks/bench_*.py --engine-backend process``.
    """
    return _SuiteEngine(
        request.config.getoption("--engine-backend"),
        request.config.getoption("--engine-workers"),
    )


def print_table(
    capsys,
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    note: str = "",
) -> None:
    """Render one experiment's result table to the terminal."""
    rows = [tuple(str(c) for c in row) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    with capsys.disabled():
        print()
        print(f"=== {title} ===")
        print(line)
        print("-" * len(line))
        for row in rows:
            print(
                "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
            )
        if note:
            print(note)
        print()
