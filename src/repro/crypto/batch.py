"""Chain-facing batch-verification facade.

The chain layer never calls :func:`repro.crypto.ed25519.verify_batch`
directly.  It goes through :func:`verify_many`, which also reports each
batch to an optional meter: :func:`batch_meter` resolves the
``phase.verify_batch`` wall-time and ``crypto.batch_size`` histograms and
the batch counters of a
:class:`~repro.obs.registry.MetricsRegistry` once, for a caller to hold
(duck-typed — crypto stays import-free of :mod:`repro.obs`).

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
from typing import Any, Callable, Iterable

from repro.crypto import ed25519

__all__ = ["SignatureItem", "batch_meter", "verify_many"]

#: One verification job: (public_key, message, signature) raw bytes.
SignatureItem = tuple[bytes, bytes, bytes]


def batch_meter(registry: Any, **labels: str) -> Callable[[int, float], None]:
    """A meter over *registry*'s ``crypto.batch_calls`` /
    ``crypto.batch_items`` counters and ``phase.verify_batch`` /
    ``crypto.batch_size`` histograms under *labels*, resolved once."""
    calls = registry.counter("crypto.batch_calls", **labels)
    items = registry.counter("crypto.batch_items", **labels)
    wall = registry.histogram("phase.verify_batch", **labels)
    sizes = registry.histogram("crypto.batch_size", **labels)

    def observe(size: int, seconds: float) -> None:
        calls.inc()
        items.inc(size)
        wall.observe(seconds)
        sizes.observe(size)

    return observe


def verify_many(
    items: Iterable[SignatureItem], meter: Callable[[int, float], None] | None = None
) -> list[bool]:
    """Verify *items* in one batch.

    Returns one bool per item, identical to mapping
    :func:`repro.crypto.ed25519.verify` over them, and tells *meter* the
    batch size and the wall time it took.
    """
    jobs = list(items)
    if not jobs:
        return []
    start = time.perf_counter()
    results = ed25519.verify_batch(jobs)
    if meter is not None:
        meter(len(jobs), time.perf_counter() - start)
    return results
