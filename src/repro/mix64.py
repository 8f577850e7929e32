"""SplitMix64 finalizer with bit-identical scalar and array twins.

A stateless 64-bit mixer: callers add a key, counter or salt to a value
and mix once, so a draw is a pure function of its inputs.  The cascade
engine keys its uniforms with it (:class:`repro.social.fastcascade.
KeyedDraws`) and MinHash derives its hash lanes from it
(:func:`repro.corpus.similarity.minhash_signature`); in both the scalar
form is the reference the array form is tested against.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MASK64", "mix64", "mix64_array"]

MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX_MUL_1 = 0xBF58476D1CE4E5B9
_MIX_MUL_2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """SplitMix64 finalizer over Python ints (masked to 64 bits)."""
    x = (x + _SPLITMIX_GAMMA) & MASK64
    x = ((x ^ (x >> 30)) * _MIX_MUL_1) & MASK64
    x = ((x ^ (x >> 27)) * _MIX_MUL_2) & MASK64
    return x ^ (x >> 31)


def mix64_array(x: np.ndarray) -> np.ndarray:
    """The same SplitMix64 finalizer over a uint64 array (wrapping)."""
    x = x + np.uint64(_SPLITMIX_GAMMA)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX_MUL_1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX_MUL_2)
    return x ^ (x >> np.uint64(31))
