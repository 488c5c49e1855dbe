#!/usr/bin/env python
"""Perf-gate entry point: ``python benchmarks/perf_gate.py [options]``.

Runs ``python -m repro bench`` with the same ``--out`` and
``--baseline`` flags straight from a checkout, without installation.
See :mod:`repro.analysis.perf_gate` for the suites, the JSON schema,
and the gating rules.
"""

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["bench", *sys.argv[1:]]))
