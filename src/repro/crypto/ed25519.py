"""Pure-Python Ed25519 (RFC 8032) signatures.

Implemented from scratch on top of ``hashlib.sha512`` so the blockchain
substrate has no dependency on external crypto packages.  Every
transaction on the chain is signed once and verified a few times, so
both are built around what is already known at call time:

- every scalar multiplication is a *schedule* — for each bit position,
  the precomputed affine points ``(y+x, y-x, 2dxy)`` to add there —
  which one ladder (:func:`_ladder`) evaluates with mixed additions (7
  multiplications instead of 9) and compresses;
- **fixed-base** products (``r*G`` when signing, ``s*G`` when verifying,
  key generation) come from a table of every signed 8-bit digit at
  every byte position: at most 32 additions at bit position 0 and no
  doublings.  :func:`sign` remembers what a seed expands to, public key
  included, so a signature is one such product and one compression;
- **verification** computes ``s*G - h*A`` and compares its compressed
  encoding with the first 32 bytes of the signature, so ``R`` is never
  decompressed.  For a recurring key ``h`` is split into eight 32-bit
  pieces (``h = sum(h_j * 2**(32*j))``), piece j walks a wNAF table of
  odd multiples of ``2**(32*j) * (-A)``, and the pieces share one
  32-doubling ladder whose last position also takes the ``s*G`` points.
  A key's tables live in a bounded cache; they cost more than a
  verification, so a key gets them at its second lookup and its first
  runs a plain 253-doubling wNAF ladder over the odd multiples of
  ``-A`` alone;
- :func:`verify_batch` is :func:`verify` item by item: with a
  32-doubling ladder per signature there is less for a combined check to
  share than decompressing every ``R``, which it needs, costs — and a
  signature keeps one verdict.

Comparing encodings gives the verdict that decompressing ``R`` and
comparing points gave: :func:`_point_compress` only ever produces the
canonical encoding of a point (``y < p``, sign bit clear when
``x = 0``), so its output equals ``signature[:32]`` exactly when those
bytes are a canonical encoding — the only kind
:func:`_point_decompress` accepts — of the computed point.

This module deliberately exposes only the byte-level API:

- :func:`generate_public_key` — 32-byte seed -> 32-byte public key
- :func:`sign` — (seed, message) -> 64-byte signature
- :func:`verify` — (public key, message, signature) -> bool
- :func:`verify_batch` — list of (public key, message, signature) -> list of bool

Key management lives in :mod:`repro.crypto.keys`.
"""

from __future__ import annotations

import functools
import hashlib

from repro.errors import CryptoError

__all__ = [
    "generate_public_key",
    "sign",
    "verify",
    "verify_batch",
    "verify_cache_stats",
    "verify_cache_clear",
    "point_cache_stats",
    "point_cache_clear",
    "batch_stats",
    "batch_stats_clear",
    "SEED_BYTES",
    "SIG_BYTES",
]

SEED_BYTES = 32
SIG_BYTES = 64

_P = 2**255 - 19
_L = 2**252 + 27742317777372353535851937790883648493
_D = (-121665 * pow(121666, _P - 2, _P)) % _P
_I = pow(2, (_P - 1) // 4, _P)  # sqrt(-1)


def _sha512(data: bytes) -> bytes:
    return hashlib.sha512(data).digest()


def _inv(x: int) -> int:
    # Extended Euclid: ~6x cheaper than pow(x, p - 2, p).  Only ever
    # called on Z coordinates and d*y^2 + 1, which are never 0 mod p.
    return pow(x, -1, _P)


def _recover_x(y: int, sign_bit: int) -> int:
    """Recover the x coordinate from y and the encoded sign bit."""
    if y >= _P:
        raise CryptoError("point y coordinate out of range")
    x2 = (y * y - 1) * _inv(_D * y * y + 1) % _P
    if x2 == 0:
        if sign_bit:
            raise CryptoError("invalid point encoding")
        return 0
    x = pow(x2, (_P + 3) // 8, _P)
    if (x * x - x2) % _P != 0:
        x = x * _I % _P
    if (x * x - x2) % _P != 0:
        raise CryptoError("invalid point encoding")
    if (x & 1) != sign_bit:
        x = _P - x
    return x


# Points as (X, Y, Z, T) extended coordinates with x = X/Z, y = Y/Z, xy = T/Z.
_Point = tuple[int, int, int, int]

_G_Y = 4 * _inv(5) % _P
_G_X = _recover_x(_G_Y, 0)
_G: _Point = (_G_X, _G_Y, 1, _G_X * _G_Y % _P)
_IDENTITY: _Point = (0, 1, 1, 0)


def _point_add(p: _Point, q: _Point) -> _Point:
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = (y1 - x1) * (y2 - x2) % _P
    b = (y1 + x1) * (y2 + x2) % _P
    c = 2 * t1 * t2 * _D % _P
    d = 2 * z1 * z2 % _P
    e, f, g, h = b - a, d - c, d + c, b + a
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


def _point_double(p: _Point) -> _Point:
    # dbl-2008-hwcd for a = -1 twisted Edwards: 4M + 4S, cheaper than the
    # unified addition (9M).
    x1, y1, z1, _ = p
    a = x1 * x1 % _P
    b = y1 * y1 % _P
    c = 2 * z1 * z1 % _P
    h = a + b
    e = h - (x1 + y1) * (x1 + y1) % _P
    g = a - b
    f = c + g
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


def _point_neg(p: _Point) -> _Point:
    x, y, z, t = p
    return (-x % _P, y, z, -t % _P)


def _point_mul(s: int, p: _Point) -> _Point:
    """Naive double-and-add; the reference path and the tests use it."""
    q = _IDENTITY
    while s > 0:
        if s & 1:
            q = _point_add(q, p)
        p = _point_add(p, p)
        s >>= 1
    return q


def _point_equal(p: _Point, q: _Point) -> bool:
    x1, y1, z1, _ = p
    x2, y2, z2, _ = q
    if (x1 * z2 - x2 * z1) % _P != 0:
        return False
    return (y1 * z2 - y2 * z1) % _P == 0


def _encode(x: int, y: int) -> bytes:
    return int.to_bytes(y | ((x & 1) << 255), 32, "little")


def _point_compress(p: _Point) -> bytes:
    x, y, z, _ = p
    zinv = _inv(z)
    return _encode(x * zinv % _P, y * zinv % _P)


def _point_decompress(data: bytes) -> _Point:
    if len(data) != 32:
        raise CryptoError("point encoding must be 32 bytes")
    encoded = int.from_bytes(data, "little")
    y = encoded & ((1 << 255) - 1)
    sign_bit = encoded >> 255
    x = _recover_x(y, sign_bit)
    return (x, y, 1, x * y % _P)


# -- schedules of precomputed points -------------------------------------------
#
# A table entry is a point in affine "Niels" form (y+x, y-x, 2dxy): adding
# it to an extended point costs 7 multiplications, and its negation is a
# swap and a sign.  A *schedule* is a list indexed by bit position whose
# element i holds the entries to add at weight 2**i; `_ladder` evaluates
# sum(2**i * sum(schedule[i])) with one doubling per position.  Signing
# and verifying only decide which entries go where.

_Niels = tuple[int, int, int]
_Schedule = list[list[_Niels]]


def _to_niels(points: list[_Point]) -> list[_Niels]:
    """Affine Niels forms of *points*, sharing one field inversion
    (Montgomery's trick) between all the Z coordinates."""
    prefix: list[int] = []
    product = 1
    for point in points:
        prefix.append(product)
        product = product * point[2] % _P
    inverse = _inv(product)
    out: list[_Niels] = []
    for (x, y, z, _), before in zip(reversed(points), reversed(prefix)):
        zinv = inverse * before % _P
        inverse = inverse * z % _P
        x, y = x * zinv % _P, y * zinv % _P
        # The sums stay unreduced: every use multiplies and reduces them.
        out.append((y + x, y - x, 2 * _D * x * y % _P))
    out.reverse()
    return out


def _ladder(schedule: _Schedule) -> bytes:
    """Compressed encoding of ``sum(2**i * sum(schedule[i]))``.

    The hottest loop of the module, so the point formulas are inlined:
    dbl-2008-hwcd (its T output only when an addition follows) and
    madd-2008-hwcd-3 against a Niels entry.
    """
    p = _P
    x, y, z, t = _IDENTITY
    top = len(schedule)
    while top and not schedule[top - 1]:
        top -= 1  # doubling the identity
    for adds in reversed(schedule[:top]):
        a = x * x % p
        b = y * y % p
        h = a + b
        e = h - (x + y) * (x + y) % p
        g = a - b
        f = 2 * z * z % p + g
        x = e * f % p
        y = g * h % p
        z = f * g % p
        if adds:
            t = e * h % p
            for ypx, ymx, xy2d in adds:
                a = (y - x) * ymx % p
                b = (y + x) * ypx % p
                c = t * xy2d % p
                d = z + z
                e = b - a
                f = d - c
                g = d + c
                h = b + a
                x = e * f % p
                y = g * h % p
                z = f * g % p
                t = e * h % p
    zinv = _inv(z)
    return _encode(x * zinv % p, y * zinv % p)


# -- fixed-base table ----------------------------------------------------------
#
# table[j][m - 1] = m * 256**j * G for m = 1..128, so with signed byte
# digits (-128 < digit <= 128) any scalar below 2**255 times G is at most
# 32 entries and no doublings.  The 4096 entries (~1 MB) cost one point
# addition each and one shared inversion, ~35 ms in all — too much for
# every `import repro`, so the first signature or verification builds
# them.

_BASE_ROWS = 32
_BASE_ROW_SIZE = 128


@functools.cache
def _base_table() -> list[list[_Niels]]:
    points: list[_Point] = []
    power = _G  # 256**j * G
    for _ in range(_BASE_ROWS):
        multiple = power
        for _ in range(_BASE_ROW_SIZE):
            points.append(multiple)
            multiple = _point_add(multiple, power)
        for _ in range(8):
            power = _point_double(power)
    niels = _to_niels(points)
    return [niels[i:i + _BASE_ROW_SIZE] for i in range(0, len(niels), _BASE_ROW_SIZE)]


def _base_points(s: int) -> list[_Niels]:
    """Table entries that sum to ``s * G``, for ``0 <= s < 2**255``."""
    points: list[_Niels] = []
    carry = False
    for row, byte in zip(_base_table(), s.to_bytes(_BASE_ROWS, "little")):
        digit = byte + carry
        carry = digit > _BASE_ROW_SIZE
        if carry:
            digit -= 256
            if digit:
                ypx, ymx, xy2d = row[-digit - 1]
                points.append((ymx, ypx, -xy2d))
        elif digit:
            points.append(row[digit - 1])
    return points


# What a seed expands to — the secret scalar, the nonce prefix and the
# public key — costs a SHA-512 and a fixed-base product, as much as the
# rest of a signature, and a signer signs many messages.  Remembering it
# per seed keeps `sign(seed, message)` self-deriving: the key hashed into
# ``h`` is always the seed's own.  (Were it an argument, two signatures of
# one message under different supplied keys would share ``r`` but not
# ``h`` and reveal the scalar.)  The cache holds what its callers hold
# anyway, seeds' worth of secrets, and is bounded.
@functools.lru_cache(maxsize=4096)
def _secret_expand(seed: bytes) -> tuple[int, bytes, bytes]:
    if len(seed) != SEED_BYTES:
        raise CryptoError(f"seed must be {SEED_BYTES} bytes, got {len(seed)}")
    h = _sha512(seed)
    a = int.from_bytes(h[:32], "little")
    a &= (1 << 254) - 8
    a |= 1 << 254
    return a, h[32:], _ladder([_base_points(a)])


def generate_public_key(seed: bytes) -> bytes:
    """Derive the 32-byte public key from a 32-byte secret seed."""
    return _secret_expand(seed)[2]


def sign(seed: bytes, message: bytes) -> bytes:
    """Produce a 64-byte Ed25519 signature of *message* under *seed*:
    one fixed-base product and one compression once the seed has been
    expanded."""
    a, prefix, public_key = _secret_expand(seed)
    r = int.from_bytes(_sha512(prefix + message), "little") % _L
    r_bytes = _ladder([_base_points(r)])
    h = int.from_bytes(_sha512(r_bytes + public_key + message), "little") % _L
    s = (r + h * a) % _L
    return r_bytes + int.to_bytes(s, 32, "little")


# -- memoized verification ---------------------------------------------------
#
# In the simulator every peer re-verifies the same immutable transaction
# bytes, and verification is a pure function of its inputs, so caching
# changes no outcome — it only stops an n-peer network from paying the
# same scalar multiplications n times.  The cache is keyed on
# sha512(pubkey ‖ msg ‖ sig) rather than the raw argument tuple: an
# lru_cache key retains the full message bytes, so 200k entries of
# kilobyte-scale payloads pinned hundreds of MB.  Digest keys are a
# fixed 64 bytes regardless of payload size.  (The three inputs have
# fixed lengths — checked before lookup — so the concatenation is
# unambiguous.)  Eviction is insertion-order FIFO over a plain dict,
# which is deterministic and O(1) amortized.

_VERIFY_CACHE: dict[bytes, bool] = {}
#: Entry cap; each entry is a 64-byte key + bool, so the cache memory
#: bound no longer scales with payload size.  Tests may shrink this.
VERIFY_CACHE_MAX = 200_000

_cache_hits = 0
_cache_misses = 0
_cache_evictions = 0


def verify_cache_stats() -> dict[str, int]:
    """Hit/miss/eviction counters plus current size, for the obs registry
    (see :func:`repro.obs.export.snapshot_crypto_cache`)."""
    return {
        "hits": _cache_hits,
        "misses": _cache_misses,
        "evictions": _cache_evictions,
        "size": len(_VERIFY_CACHE),
    }


def verify_cache_clear() -> None:
    """Reset the verification cache and its counters (test isolation)."""
    global _cache_hits, _cache_misses, _cache_evictions
    _VERIFY_CACHE.clear()
    _cache_hits = _cache_misses = _cache_evictions = 0


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """Check an Ed25519 signature; returns ``False`` on any mismatch.

    Malformed inputs (wrong lengths, non-points) return ``False`` rather
    than raising, so callers can treat all bad signatures uniformly.
    Results are memoized on a bounded digest-keyed cache (see above).
    """
    global _cache_hits, _cache_misses
    if len(public_key) != 32 or len(signature) != SIG_BYTES:
        return False
    key = _sha512(public_key + message + signature)
    cached = _VERIFY_CACHE.get(key)
    if cached is not None:
        _cache_hits += 1
        return cached
    _cache_misses += 1
    result = _verify_uncached(public_key, message, signature)
    _cache_store(key, result)
    return result


def _evict_oldest() -> None:
    global _cache_evictions
    oldest = next(iter(_VERIFY_CACHE))
    del _VERIFY_CACHE[oldest]
    _cache_evictions += 1


def _cache_store(key: bytes, result: bool) -> None:
    if len(_VERIFY_CACHE) >= VERIFY_CACHE_MAX:
        _evict_oldest()
    _VERIFY_CACHE[key] = result


# -- per-key tables ------------------------------------------------------------
#
# ``h * (-A)`` is a variable-base problem, but the simulator's signer
# population is tiny and every block re-verifies the same few keys, so a
# recurring key is worth tables.  Splitting h into pieces of _SPLIT_BITS
# bits, h = sum(h_j * 2**(_SPLIT_BITS * j)), turns one 253-doubling
# ladder into short ones that share their doublings: piece j is recoded
# in width-_WNAF_W non-adjacent form and walks the odd multiples of
# 2**(_SPLIT_BITS * j) * (-A).
#
# The tables of pieces 1.. cost 224 doublings, more than a whole
# verification, so a key gets them the second time it is looked up.  The
# first time it gets the table of piece 0 — the odd multiples of -A
# itself, which a plain 253-doubling wNAF ladder walks — and a key seen
# once never pays for more.  A
# bounded FIFO cache holds a key's tables, so repeat signers also skip
# decompressing A.
#
# Measured, one verification on all tables / building them, at equal
# table memory (64 entries): 4 pieces of 64 bits at width 6 = 469 us /
# 1.35 ms, 8 x 32 at width 5 = 372 us / 1.40 ms, 16 x 16 at width 4 =
# 365 us / 1.52 ms; twice the memory buys 25-35 us.

_SPLIT_BITS = 32
_SPLIT_PIECES = 256 // _SPLIT_BITS
_WNAF_W = 5
_WNAF_TABLE_SIZE = 1 << (_WNAF_W - 2)  # odd multiples 1, 3, .., 2**(w-1) - 1
_HALF = (_P + 1) // 2

_Table = tuple[_Niels, ...]

_POINT_CACHE: dict[bytes, list[_Table]] = {}
#: Entry cap; an entry grows to 64 Niels points (~16 KB), so the default
#: bounds the cache near 16 MB.  Tests may shrink this.
POINT_CACHE_MAX = 1024

_point_hits = 0
_point_misses = 0
_point_evictions = 0


def point_cache_stats() -> dict[str, int]:
    """Hit/miss/eviction counters plus current size, matching the shape
    of :func:`verify_cache_stats`."""
    return {
        "hits": _point_hits,
        "misses": _point_misses,
        "evictions": _point_evictions,
        "size": len(_POINT_CACHE),
    }


def point_cache_clear() -> None:
    """Reset the per-key table cache and its counters."""
    global _point_hits, _point_misses, _point_evictions
    _POINT_CACHE.clear()
    _point_hits = _point_misses = _point_evictions = 0


def _odd_multiple_tables(points: list[_Point]) -> list[_Table]:
    """For each point ``q``, the table ``q, 3q, .., (2**(w-1) - 1) * q``;
    all the tables share one inversion."""
    multiples: list[_Point] = []
    for point in points:
        double = _point_double(point)
        multiples.append(point)
        for _ in range(_WNAF_TABLE_SIZE - 1):
            multiples.append(_point_add(multiples[-1], double))
    niels = _to_niels(multiples)
    return [tuple(niels[i:i + _WNAF_TABLE_SIZE])
            for i in range(0, len(niels), _WNAF_TABLE_SIZE)]


def _point_cache_get(public_key: bytes) -> list[_Table] | None:
    """The tables of ``-A`` — piece 0 alone on the first lookup of a key,
    every piece from the second on — or ``None`` if *public_key* is not
    a valid point encoding (a miss, but not cached: the verify cache
    already memoizes the ``False`` verdict per signature)."""
    global _point_hits, _point_misses, _point_evictions
    tables = _POINT_CACHE.get(public_key)
    if tables is None:
        _point_misses += 1
        try:
            tables = _odd_multiple_tables([_point_neg(_point_decompress(public_key))])
        except CryptoError:
            return None
        if len(_POINT_CACHE) >= POINT_CACHE_MAX:
            oldest = next(iter(_POINT_CACHE))
            del _POINT_CACHE[oldest]
            _point_evictions += 1
        _POINT_CACHE[public_key] = tables
        return tables
    _point_hits += 1
    if len(tables) == 1:
        ypx, ymx, _ = tables[0][0]  # -A itself
        x, y = (ypx - ymx) * _HALF % _P, (ypx + ymx) * _HALF % _P
        power = (x, y, 1, x * y % _P)
        powers: list[_Point] = []
        for _ in range(1, _SPLIT_PIECES):
            for _ in range(_SPLIT_BITS):
                power = _point_double(power)
            powers.append(power)
        tables.extend(_odd_multiple_tables(powers))
    return tables


def _wnaf_into(schedule: _Schedule, scalar: int, table: _Table) -> None:
    """Schedule ``scalar * q`` given *table*, the odd multiples of ``q``.

    Non-adjacent form of width ``_WNAF_W``: digits are odd with
    ``|digit| < 2**(_WNAF_W - 1)`` and a nonzero digit is followed by at
    least ``_WNAF_W - 1`` zeros, so a b-bit scalar costs about
    ``b / (_WNAF_W + 1)`` additions, at positions ``0..b``.
    """
    window = 1 << _WNAF_W
    position = 0
    while scalar:
        zeros = (scalar & -scalar).bit_length() - 1
        scalar >>= zeros
        position += zeros
        digit = scalar & (window - 1)
        if digit & (window >> 1):
            digit -= window
            ypx, ymx, xy2d = table[-digit >> 1]
            schedule[position].append((ymx, ypx, -xy2d))
        else:
            schedule[position].append(table[digit >> 1])
        scalar -= digit


def _parse(public_key: bytes, message: bytes, signature: bytes) -> tuple[int, int] | None:
    """``(s, h)`` of a well-formed signature — lengths right and
    ``s < L`` — or ``None``.  The point encodings are not looked at."""
    if len(public_key) != 32 or len(signature) != SIG_BYTES:
        return None
    s = int.from_bytes(signature[32:], "little")
    if s >= _L:
        return None
    h = int.from_bytes(_sha512(signature[:32] + public_key + message), "little") % _L
    return s, h


def _check(s: int, h: int, tables: list[_Table], r_bytes: bytes) -> bool:
    """``s*G - h*A`` compresses to *r_bytes* (the module docstring says
    why that is the verdict of comparing points).  *h* is cut into as
    many pieces as there are tables."""
    bits = _SPLIT_BITS if len(tables) > 1 else 256
    schedule: _Schedule = [[] for _ in range(bits + 1)]
    for table in tables:
        _wnaf_into(schedule, h & ((1 << bits) - 1), table)
        h >>= bits
    schedule[0].extend(_base_points(s))
    return _ladder(schedule) == r_bytes


def _verify_uncached(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """One point-cache lookup, then :func:`_check`."""
    tables = _point_cache_get(public_key)
    parsed = _parse(public_key, message, signature)
    if tables is None or parsed is None:
        return False
    return _check(*parsed, tables, signature[:32])


def _verify_reference(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """The textbook check ``s*G == R + h*A`` by naive double-and-add,
    with no table and no cache.  Kept as the oracle for property tests
    and as the baseline the micro-benchmark measures speedups against;
    not used by :func:`verify`."""
    parsed = _parse(public_key, message, signature)
    if parsed is None:
        return False
    try:
        a_point = _point_decompress(public_key)
        r_point = _point_decompress(signature[:32])
    except CryptoError:
        return False
    s, h = parsed
    return _point_equal(_point_mul(s, _G), _point_add(r_point, _point_mul(h, a_point)))


# -- batch verification ------------------------------------------------------
#
# A batch is its signatures one by one, because a signature has one
# verdict: the one :func:`verify` gives it.  A random-linear-combination
# check would share a ladder between signatures, but it is a different
# predicate — it accepts signatures crafted together so that their
# small-order defects cancel (two made with ``R`` shifted by the point of
# order 2 always do), each of which :func:`verify` rejects — and where a
# client picks its own keys, that is a verdict honest peers can disagree on.

_batch_calls = 0
_batch_items = 0


def batch_stats() -> dict[str, int]:
    """Counters for the obs registry: batch calls and total items."""
    return {"calls": _batch_calls, "items": _batch_items}


def batch_stats_clear() -> None:
    """Reset the batch-verification counters."""
    global _batch_calls, _batch_items
    _batch_calls = _batch_items = 0


def verify_batch(items: list[tuple[bytes, bytes, bytes]]) -> list[bool]:
    """Verify many ``(public_key, message, signature)`` triples.

    Returns one bool per item, in order: :func:`verify` of each, through
    the same bounded digest-keyed cache.
    """
    global _batch_calls, _batch_items
    _batch_calls += 1
    _batch_items += len(items)
    return [verify(*item) for item in items]
