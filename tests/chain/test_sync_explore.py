"""One lagging sync core over every delivery order of a fixed input set.

The explorer drives :class:`~repro.chain.sync_core.SyncCore` directly —
no simulator, no network, no driver — for an observer at genesis that
must catch up with four PBFT validators (n = 4, f = 1):

- ``v0``-``v2`` are honest and hold the honest chain, two blocks long.
  Each announces its head, serves a request it is sent with the blocks
  asked for, and answers an attest request for a height it holds with its
  "applied" statement;
- ``v3`` is the adversary, as provider and as validator at once.  It
  announces a fork three blocks long (a lie about its height), answers a
  request sent to it with the fork or not at all (it withholds), answers a
  request sent to someone else with the fork under that request's id (a
  spoof), and signs "applied" statements for the honest block *and* the
  fork block at every height, handed over whenever the explorer likes.

Every statement is really signed and the certificate verdict is the real
engine rule (:meth:`~repro.chain.consensus.pbft.PBFTEngine.verify_synced_block`
with the validator keys registered), injected into the core as it is in
the peer.  A state is the core and its live timers; what may arrive next
follows from it, so no message has to be kept in the state:

- every announcement, the adversary's too, at any time (they repeat);
- while a request is open and unanswered, its provider's answer and the
  adversary's spoof of one — an answer to a request that is over is stale
  and changes nothing;
- while a batch is held, each honest validator's statement for its tip
  (every validator not heard from was asked when the batch came, and is
  asked again at every re-ask) and the adversary's for either block there
  — a statement for another height is read only once a cut makes that
  height the tip, and can be sent then;
- every live timer, a request timeout only while fewer than ``failures``
  rounds have failed in a row, which is what bounds the search.

An :class:`Apply` is carried out as the driver does it: each block goes
back as ``applied`` and then the core ``settled``.  States are
deduplicated by a canonical key: request ids, the jitter stream and
statements at or below the head (which no rule reads again) are left out.
Tier-1 runs ``failures=1`` (21 286 states, about five seconds on a 2-core
box); ``make chaos`` runs ``failures=3`` (130 662 states, about 30 s and
360 MB).

Checked in every state:

- **fork** — every applied block is the honest block at its height;
- **certificate** — every :class:`Apply` carries a proof the engine rule
  accepts;
- **blame** — a rejected batch never costs an honest provider its claim;
- **liveness** — from the state, delivering only what the honest
  validators say (responses, answers, announcements) and firing the
  timers, whichever changes something first, reaches the honest tip.

Findings pinned here: a predicate that takes f "applied" statements for a
certificate applies the fork, and a core that takes an answer from any
node under a request's id gets an honest provider blamed.  The mutants
and the deeper bound run under ``-m chaos`` (``make chaos``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import pytest

from repro.chain.block import Block, make_genesis_block
from repro.chain.consensus.pbft import PBFTEngine
from repro.chain.sync import statement_message
from repro.chain.sync_core import Apply, Closed, Forget, Schedule, Statement, SyncCore
from repro.crypto.keys import KeyPair, verify_signature

VALIDATORS = ("v0", "v1", "v2", "v3")
HONEST, LIAR, NODE = ("v0", "v1", "v2"), "v3", "lag"
F = 1
GENESIS = make_genesis_block()


def _chain(length: int, proposer: str) -> list[Block]:
    chain = [GENESIS]
    for height in range(1, length + 1):
        chain.append(Block.build(height, chain[-1].block_hash, float(height), proposer, []))
    return chain


HONEST_CHAIN, FORK = _chain(2, "v0"), _chain(3, LIAR)
TIP = HONEST_CHAIN[-1]
KEYS = {v: KeyPair.generate(random.Random(f"explore:{v}")) for v in VALIDATORS}
_SIGNED: dict[tuple[str, int, str], str] = {}


def _statement(signer: str, block: Block) -> Statement:
    """*signer*'s "applied" statement for *block*, really signed (once)."""
    key = (signer, block.height, block.block_hash)
    if key not in _SIGNED:
        message = statement_message(signer, block.height, block.block_hash)
        _SIGNED[key] = KEYS[signer].sign(message).hex()
    return Statement(block.height, block.block_hash, _SIGNED[key], False)


def _engine_rule():
    """The engine's certificate rule, with the validator keys registered;
    a verdict is remembered by tip and signers (a signer has one signature
    per block here)."""
    engine = PBFTEngine(list(VALIDATORS))
    engine.register_validator_keys({v: kp.public_key for v, kp in KEYS.items()})
    verdicts: dict[tuple, bool] = {}

    def certified(block: Block, proof) -> bool:
        key = (block.block_hash, tuple(proof["signers"]), tuple(proof["voted"]))
        if key not in verdicts:
            verdicts[key] = engine.verify_synced_block(block, proof)
        return verdicts[key]

    return certified


CERTIFIED = _engine_rule()


def _lenient(block: Block, proof) -> bool:
    """The mutant: f "applied" statements pass for a certificate."""
    applied = [
        signer for signer in proof["signers"]
        if signer not in proof["voted"] and verify_signature(
            KEYS[signer].public_key, statement_message(signer, block.height, block.block_hash),
            bytes.fromhex(proof["signatures"][signer]))
    ]
    return CERTIFIED(block, proof) or len(applied) >= F


class _AnyAnswer(SyncCore):
    """The mutant: an answer counts if it carries the request's id, from
    whoever sent it — the rule before the asked provider was checked."""

    def response(self, src, req_id, height, blocks):
        if self.request == req_id:
            src = self.provider
        return super().response(src, req_id, height, blocks)


class Violation(AssertionError):
    def __init__(self, invariant: str, detail: str, states: int):
        super().__init__(f"{invariant} after {states} states: {detail}")
        self.invariant, self.states = invariant, states


@dataclass(frozen=True)
class Bound:
    failures: int  # a request times out only while fewer rounds failed in a row


TIER1 = Bound(failures=1)
DEEP = Bound(failures=3)


@dataclass
class _State:
    core: SyncCore
    live: frozenset  # the kinds of timer scheduled, not yet fired or cancelled


class Explorer:
    """Breadth-first search over the delivery orders of the scenario."""

    def __init__(self, bound: Bound, certified=CERTIFIED, core_type: type = SyncCore,
                 certificates: bool = True):
        self.bound, self.certificates = bound, certificates
        core = core_type(NODE, list(VALIDATORS), 3, GENESIS, certified)
        self.initial = _State(core, frozenset())
        self.states = 0
        #: States from which the honest validators alone lead to the tip.
        self.live_ok: set = set()

    def _events(self, state: _State, honest_only: bool = False) -> list:
        """What may happen next: an announcement; while a request is open,
        an answer from its provider, or the adversary's spoof of one; while
        a batch is held, an honest validator's statement for its tip, or
        the adversary's for either block there; a live timer."""
        core = state.core
        open_request = core.request is not None and not core.batch
        tip = core.batch[-1].height if core.batch else None
        events = [("announce", v, HONEST_CHAIN[-1]) for v in HONEST]
        if open_request and core.provider != LIAR:
            events.append(("response", core.provider))
        if tip is not None and tip <= TIP.height:
            events += [("vouch", v, HONEST_CHAIN[tip]) for v in HONEST]
        if not honest_only:
            events.append(("announce", LIAR, FORK[-1]))
            if open_request:
                events.append(("response", LIAR))  # its own, or a spoof of another's
            if tip is not None:
                events += [("vouch", LIAR, chain[tip]) for chain in (HONEST_CHAIN, FORK)
                           if tip < len(chain)]
        for kind in ("reask", "timeout", "retry"):
            if kind in state.live and (
                kind != "timeout" or honest_only or core.failures < self.bound.failures
            ):
                events.append(("fire", kind))
        return events

    def step(self, state: _State, event: tuple) -> _State:
        core, live = state.core.copy(), set(state.live)
        kind = event[0]
        if kind in ("announce", "vouch"):
            statement = _statement(event[1], event[2])
            effects = core.statement(event[1], statement, announced=kind == "announce")
        elif kind == "response":
            # The head has not moved since the request: it is still open.
            chain = FORK if event[1] == LIAR else HONEST_CHAIN
            effects = core.response(event[1], core.request, len(chain) - 1,
                                    chain[core.head.height + 1:])
        else:  # ("fire", kind): the live timer of that kind
            live.discard(event[1])
            effects = core.fire((event[1], core.backoff if event[1] == "retry" else core.request))
        self._carry(core, effects, live)
        return _State(core, frozenset(live))

    def _carry(self, core: SyncCore, effects: list, live: set) -> None:
        """Carry out *effects* as the driver does, checking each apply."""
        while effects:
            for index, effect in enumerate(effects):
                kind = type(effect)
                if kind is Schedule:
                    live.add(effect.token[0])
                elif kind is Closed:
                    live -= {"timeout", "reask"}
                elif kind is Forget and effect.provider in HONEST and (
                        Closed("rejected") in effects[:index]):
                    raise Violation("blame", f"{effect.provider} lost its claim for a batch",
                                    self.states)
                elif kind is Apply:
                    self._check_apply(core, effect)
                    for block in effect.batch:
                        core.applied(block)
            effects = core.settled() if type(effects[-1]) is Apply else []

    def _check_apply(self, core: SyncCore, effect: Apply) -> None:
        parent = core.head
        for block in effect.batch:
            if block.prev_hash != parent.block_hash or block.height > TIP.height or (
                    HONEST_CHAIN[block.height].block_hash != block.block_hash):
                raise Violation("fork", f"applied {block.block_hash[:12]} at {block.height}",
                                self.states)
            parent = block
        if self.certificates and not CERTIFIED(effect.batch[-1], effect.proof):
            raise Violation("certificate", f"applied on {effect.proof}", self.states)

    def _live(self, state: _State) -> None:
        """Delivering only what the honest validators say, and firing the
        timers, reaches the honest tip from *state* (the first event that
        changes anything goes next)."""
        key, path = _key(state), []
        for _ in range(64):
            if key in self.live_ok or state.core.head.block_hash == TIP.block_hash:
                self.live_ok.update(path)
                return
            path.append(key)
            for event in self._events(state, honest_only=True):
                after = self.step(state, event)
                if _key(after) != key:
                    state, key = after, _key(after)
                    break
            else:
                break
        raise Violation("liveness", f"stuck at height {state.core.head.height}", self.states)

    def run(self) -> int:
        """Explore every state reachable within the bound; the count."""
        seen, frontier = {_key(self.initial)}, [self.initial]
        self.states = 1
        while frontier:
            following = []
            for state in frontier:
                self._live(state)
                for event in self._events(state):
                    after = self.step(state, event)
                    key = _key(after)
                    if key not in seen:
                        seen.add(key)
                        following.append(after)
            self.states += len(following)
            frontier = following
        return self.states


def _key(state: _State) -> tuple:
    """Everything that decides the future, canonically ordered."""
    core = state.core
    return (
        core.head.block_hash,
        tuple(sorted(core.known_heights.items())),
        tuple(sorted(core.strikes.items())),
        core.failures,
        core.request is not None and core.provider,
        tuple(block.block_hash for block in core.batch),
        core.asked,
        core.backoff is not None,
        tuple(sorted((k, s) for k, s in core.statements.items() if s.height > core.head.height)),
        core.lag_from,
        state.live,
    )


def _explore(bound: Bound, **kwargs) -> Explorer:
    explorer = Explorer(bound, **kwargs)
    began = time.perf_counter()
    try:
        explorer.run()
    finally:
        print(f"{bound}: {explorer.states} states, {time.perf_counter() - began:.1f} s")
    return explorer


def test_every_delivery_order_is_safe_and_live():
    explorer = _explore(TIER1)
    assert explorer.states > 10_000


@pytest.mark.chaos
def test_every_delivery_order_is_safe_and_live_deep():
    _explore(DEEP)


@pytest.mark.chaos
def test_f_applied_statements_are_no_certificate():
    """The fork the f+1 rule prevents.  With f "applied" statements taken
    for a certificate, a batch is applied on a proof the engine refuses —
    and, looking past that, the adversary's own announcement certifies its
    fork."""
    with pytest.raises(Violation) as found:
        _explore(TIER1, certified=_lenient)
    assert found.value.invariant == "certificate"
    with pytest.raises(Violation) as found:
        _explore(TIER1, certified=_lenient, certificates=False)
    assert found.value.invariant == "fork"
    print(f"fork found after {found.value.states} states: {found.value}")


@pytest.mark.chaos
def test_an_answer_from_anyone_blames_the_provider():
    """The spoof the provider check prevents: a core that takes any
    answer carrying the request's id rejects the fork in the honest
    provider's name."""
    with pytest.raises(Violation) as found:
        _explore(TIER1, core_type=_AnyAnswer)
    assert found.value.invariant == "blame"
    print(f"blame found after {found.value.states} states: {found.value}")
