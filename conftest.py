"""Repository-level pytest configuration.

Defines the ``--engine-backend`` option here (rather than in
``benchmarks/conftest.py``) because pytest only honours
``pytest_addoption`` from conftests available at startup — the repo
root's conftest is loaded for every invocation.

Note on collection: the benchmark files are named ``bench_*.py``, which
the default ``python_files = test_*.py`` pattern does *not* match, so
tier-1 (plain ``pytest``) collects ``tests/`` only and the benchmark
battery is invoked with explicit file arguments (explicit paths bypass
the filename pattern):

    pytest benchmarks/bench_*.py --engine-backend process
    pytest benchmarks/bench_*.py --engine-backend batch

The option flips every engine-ported benchmark between execution
backends without editing files.
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--engine-backend",
        action="store",
        default="serial",
        choices=("serial", "process", "batch"),
        help=(
            "repro.engine execution backend used by the engine-ported "
            "benchmarks (default: serial)"
        ),
    )
    parser.addoption(
        "--engine-workers",
        action="store",
        type=int,
        default=None,
        help="worker count for the process backend (default: cpu count)",
    )
