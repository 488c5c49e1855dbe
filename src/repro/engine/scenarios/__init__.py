"""Built-in scenario registrations.

Importing this package registers every built-in scenario with
:mod:`repro.engine.registry`; the registry imports it lazily on first
lookup (see :func:`repro.engine.registry.load_builtin_scenarios`), so
specs resolve by name in parent and worker processes alike.

Modules mirror the library's layers:

* :mod:`~repro.engine.scenarios.core` — the paper's own protocols
  (Theorem 1 end to end, Algorithm 5, the VSS committee coin, the
  Lemma 2 sampler measurement).
* :mod:`~repro.engine.scenarios.baselines` — the six quadratic-cost
  baselines the paper is measured against.
* :mod:`~repro.engine.scenarios.asynchrony` — the asynchronous stack
  (Bracha, Ben-Or, common-coin BA, sparse AEBA over the synchronizer),
  all exposing ``build_instance`` over the asynchronous scheduler.
"""

from . import asynchrony, baselines, core  # noqa: F401

__all__ = ["asynchrony", "baselines", "core"]
