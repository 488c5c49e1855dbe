"""Shared helpers for the experiment benchmarks (E1-E22).

Each benchmark regenerates one of the paper's quantitative claims and
prints the rows/series as a table (through ``capsys.disabled()`` so the
output is visible under pytest's capture), in addition to registering a
representative timing unit with pytest-benchmark.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import pytest

from repro.engine import Engine, get_backend


@pytest.fixture
def engine(request) -> Iterator[Engine]:
    """An :class:`repro.engine.Engine` on the CLI-selected backend.

    Flip the whole benchmark suite between backends without editing
    files:  ``pytest benchmarks/bench_*.py --engine-backend process``.
    Every backend runs every scenario; the backend closes at teardown.
    """
    backend = get_backend(
        request.config.getoption("--engine-backend"),
        workers=request.config.getoption("--engine-workers"),
    )
    with Engine(backend) as engine:
        yield engine


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
