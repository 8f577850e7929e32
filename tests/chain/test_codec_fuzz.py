"""Structure-aware fuzzing of the block-log record codec.

Recovery trusts nothing it reads back: a record it cannot decode is a
corrupt tail (``DurableStore``'s ``decode-error`` rung).  That holds only
if ``decode_record`` answers every payload with either the record that
was written or its own :class:`~repro.chain.store.codec.CodecError` — a
``KeyError`` or ``TypeError`` escaping it would crash a restart, and a
mistyped field it let through would reach the ledger.  The mutations
below follow the record's schema: a dropped or renamed key at every
level, a value of the wrong type in a transaction or in one of its
endorsement entries, an entry that is not an object at all, and frames
cut short before or after deflation.
"""

from __future__ import annotations

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.chain.block import Block
from repro.chain.ledger import Ledger
from repro.chain.store.codec import (
    CodecError, decode_obj, decode_record, deflate, encode_obj, encode_record, inflate)
from repro.chain.transaction import Endorsement, create_group, endorsed_digest
from repro.crypto import KeyPair

_CLIENT, _PEER = (KeyPair.generate(random.Random(seed)) for seed in (31, 32))


def _endorsed(txs):
    digests = [endorsed_digest({"k": 1}, {"k": n}, ({"n": n},), n) for n in range(len(txs))]
    unit_digest = digests[0] if len(txs) == 1 else endorsed_digest({}, {}, (), digests)
    endorsement = Endorsement.create(_PEER, "peer-0", txs[0].endorsed_id, unit_digest)
    return [tx.with_execution({"k": 1}, {"k": n}, ({"n": n},), n,
                              (endorsement,) if n == 0 else ())
            for n, tx in enumerate(txs)]


def _record() -> bytes:
    """A block with a transaction on its own and a group of two, one
    verdict failed, and a proof."""
    alone = create_group([(_CLIENT, "kv", "put", {"key": "a"}, 1)], 1.0)
    group = create_group([(_CLIENT, "kv", "put", {"key": "b"}, 2),
                          (_CLIENT, "kv", "put", {"key": "c"}, 3)], 1.0)
    block = Block.build(1, Ledger().head.block_hash, 1.0, "peer-0",
                        [*_endorsed(alone), *_endorsed(group)])
    return encode_record(block, [True, False, False], [None, "mvcc", "mvcc"],
                         {"signers": ["peer-0"], "signatures": {"peer-0": "ab"}})


RECORD = _record()
DECODED = decode_record(RECORD)
OBJ = decode_obj(inflate(RECORD))

#: Every object of the record's schema, by a path from the top.
_PATHS = [(), ("block",)] + [
    ("block", "transactions", i) for i in range(3)] + [
    ("block", "transactions", i, "endorsements", 0) for i in (0, 1)]

_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False, width=32), st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2))


#: The JSON type of each transaction and endorsement field (a
#: transaction's ``return_value`` may be anything).
_KIND = {
    **dict.fromkeys(["peer_id", "digest", "signature_hex", "sender", "public_key_hex",
                     "contract", "method", "tx_id"], str),
    "nonce": int, "timestamp": (int, float),
    **dict.fromkeys(["args", "read_set", "write_set"], dict),
    **dict.fromkeys(["endorsements", "events", "group"], list),
}


def _fits(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _copy():
    return decode_obj(encode_obj(OBJ))


def _at(obj, path):
    for step in path:
        obj = obj[step]
    return obj


def _outcome(payload: bytes) -> None:
    """The property: the record as written, or the codec's own error."""
    try:
        decoded = decode_record(payload)
    except CodecError:
        return
    assert decoded == DECODED


def test_the_record_round_trips():
    assert decode_record(deflate(encode_obj(OBJ))) == DECODED


@given(st.sampled_from(_PATHS), st.data())
@settings(max_examples=150, deadline=None)
def test_a_dropped_or_renamed_key_is_a_codec_error(path, data):
    obj = _copy()
    target = _at(obj, path)
    # A group member's tag is optional by format, so it is only renamed:
    # without it the record is a well-formed untagged transaction, which
    # recovery's ``verify_structure`` refuses (a Merkle leaf covers the
    # proposal, tag included).
    key = data.draw(st.sampled_from(sorted(target)))
    value = target.pop(key)
    if key == "group" or data.draw(st.booleans()):
        target[key + data.draw(st.sampled_from(["_", "X", " "]))] = value
    _outcome(deflate(encode_obj(obj)))


@given(st.sampled_from(_PATHS[2:]), st.data(), _VALUES)
@settings(max_examples=300, deadline=None)
def test_a_value_of_another_type_is_a_codec_error(path, data, value):
    obj = _copy()
    target = _at(obj, path)
    key = data.draw(st.sampled_from(sorted(target)))
    assume(key in _KIND and not _fits(value, _KIND[key]))
    target[key] = value
    _outcome(deflate(encode_obj(obj)))


@given(st.integers(0, 1), _VALUES)
@settings(max_examples=60, deadline=None)
def test_an_endorsement_entry_that_is_not_an_object_is_a_codec_error(tx, value):
    obj = _copy()
    obj["block"]["transactions"][tx]["endorsements"][0] = value
    _outcome(deflate(encode_obj(obj)))


@given(st.integers(0, len(RECORD) - 1))
@settings(max_examples=100, deadline=None)
def test_a_frame_cut_short_is_a_codec_error(cut):
    _outcome(RECORD[:cut])


@given(st.integers(0, len(inflate(RECORD)) - 1))
@settings(max_examples=100, deadline=None)
def test_json_cut_short_is_a_codec_error(cut):
    _outcome(deflate(inflate(RECORD)[:cut]))
