"""Chain-facing batch-verification facade.

The chain layer never calls :func:`repro.crypto.ed25519.verify_batch`
directly.  It goes through :func:`verify_many`, which also records
``phase.verify_batch`` wall-time histograms plus batch-size counters
into an optional
:class:`~repro.obs.registry.MetricsRegistry` (duck-typed — crypto stays
import-free of :mod:`repro.obs`).

Because :func:`~repro.crypto.ed25519.verify_batch` populates the same
digest-keyed cache as single :func:`~repro.crypto.ed25519.verify`, the
dominant call-site pattern is *prewarming*: a block validator hands the
whole block's signature items to :func:`verify_many` once, then runs its
per-transaction validation logic, whose individual ``verify`` calls all
hit the cache.  Verdicts are those of
:func:`~repro.crypto.ed25519.verify` per item, because that is what a
batch is.
"""

from __future__ import annotations

import time
from typing import Any, Iterable

from repro.crypto import ed25519

__all__ = ["SignatureItem", "verify_many"]

#: One verification job: (public_key, message, signature) raw bytes.
SignatureItem = tuple[bytes, bytes, bytes]


def verify_many(
    items: Iterable[SignatureItem],
    registry: Any = None,
    **labels: str,
) -> list[bool]:
    """Verify *items* in one batch.

    Returns one bool per item, identical to mapping
    :func:`repro.crypto.ed25519.verify` over them.  When *registry* is
    given, observes wall time into ``phase.verify_batch`` and the batch
    size into ``crypto.batch_size`` (with any caller labels) and bumps
    the ``crypto.batch_calls`` / ``crypto.batch_items`` counters.
    """
    jobs = list(items)
    if not jobs:
        return []
    start = time.perf_counter()
    results = ed25519.verify_batch(jobs)
    if registry is not None:
        registry.counter("crypto.batch_calls", **labels).inc()
        registry.counter("crypto.batch_items", **labels).inc(len(jobs))
        registry.histogram("phase.verify_batch", **labels).observe(
            time.perf_counter() - start
        )
        registry.histogram("crypto.batch_size", **labels).observe(len(jobs))
    return results
