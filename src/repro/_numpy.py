"""The package's one numpy handle, loaded on first attribute access.

Only the AI component, provenance discovery and the cascade engine use
numpy; a process that only runs the chain (peers, the store, sync, the
explorer, text-less supply-chain records) never needs it, and importing
it costs ~14 MB of resident memory.  Every module in :mod:`repro` takes
``np`` from here (``from repro._numpy import np``) instead of importing
numpy itself: on CPython 3.11 an ``import numpy`` statement reads
``__spec__`` of the module in ``sys.modules``, and that read alone loads
a lazy module.  After the first attribute access ``np`` *is* the numpy
module object (the lazy class is swapped out in place), so later
accesses pay no indirection.
"""

from __future__ import annotations

import importlib.util
import sys

__all__ = ["np"]


def _lazy(name: str):
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy("numpy")
