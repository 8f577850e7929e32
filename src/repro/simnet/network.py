"""Simulated message-passing network connecting protocol nodes.

A :class:`Network` registers :class:`NetworkNode` subclasses (blockchain
peers live in :mod:`repro.chain.peer`), and delivers messages through the
shared :class:`~repro.simnet.events.Simulator` with delays drawn from a
:class:`~repro.simnet.latency.LatencyModel`.  Partitions, message drops,
and crashed nodes are all modelled at delivery time, which is where real
networks lose messages too.
"""

from __future__ import annotations

import dataclasses
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

from repro.errors import SimulationError
from repro.obs import MetricsRegistry, ObsView, metric_attr
from repro.simnet.events import Simulator
from repro.simnet.latency import FixedLatency, LatencyModel

__all__ = ["Message", "NetworkNode", "Network", "WireSized", "estimate_payload_size"]

#: Fixed per-message framing overhead (addresses, kind, timestamps)
#: charged on top of the payload estimate.
_WIRE_OVERHEAD = 64
#: Traversal cap for the payload-size estimator: pathological payloads
#: (deep graphs, huge batches) are charged a floor instead of stalling
#: the hot transmit path.
_SIZE_VISIT_CAP = 20_000


def estimate_payload_size(payload: Any) -> int:
    """Rough wire size of *payload* in bytes.

    Walks dicts/sequences/dataclasses iteratively, charging scalar
    leaves their natural encoded size.  The walk is capped at
    ``_SIZE_VISIT_CAP`` nodes, so the estimate is a lower bound for
    enormous payloads — good enough for the bandwidth numbers the
    scalability benchmarks report, and cheap enough for ``transmit``.

    A dataclass with a ``wire_size()`` method (:class:`WireSized`) is
    asked for its ``(bytes, nodes visited)`` instead of being walked
    again, but only while the nodes left under the cap cover it;
    otherwise it is walked field by field like any other dataclass, so a
    payload the cap truncates gets the number the plain walk gives it.
    """
    return _walk([payload], 0)[0]


class WireSized:
    """Mixin for a dataclass that never changes once built and is sent
    many times (a transaction is gossiped, proposed in a block and
    served again to every peer that syncs): it is walked field by
    field once, as :func:`estimate_payload_size` walks it, and remembers
    the ``(bytes, nodes visited)`` pair, itself counted as one node."""

    def wire_size(self) -> tuple[int, int]:
        memo = self.__dict__.get("_wire_size")
        if memo is None:
            memo = _walk(_field_values(self), 1)
            object.__setattr__(self, "_wire_size", memo)
        return memo


def _field_values(obj: Any) -> list[Any]:
    """What the walk visits of a dataclass: its field values, less any
    field declared ``metadata={"wire_omit_none": True}`` that is ``None``
    (an optional part that is not on the wire when absent)."""
    values = []
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if value is not None or not f.metadata.get("wire_omit_none"):
            values.append(value)
    return values


def _walk(stack: list[Any], visited: int) -> tuple[int, int]:
    # Depth first, so everything below a popped object is visited before
    # anything else on the stack: an object that reports `nodes` stands
    # for exactly the next `nodes` visits of the plain walk.
    total = 0
    while stack and visited < _SIZE_VISIT_CAP:
        obj = stack.pop()
        visited += 1
        if obj is None or isinstance(obj, bool):
            total += 1
        elif isinstance(obj, (int, float)):
            total += 8
        elif isinstance(obj, str):
            total += len(obj)
        elif isinstance(obj, (bytes, bytearray)):
            total += len(obj)
        elif isinstance(obj, dict):
            for key, value in obj.items():
                stack.append(key)
                stack.append(value)
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif dataclasses.is_dataclass(obj):
            wire_size = getattr(obj, "wire_size", None)
            if wire_size is not None:
                size, nodes = wire_size()
                if visited - 1 + nodes <= _SIZE_VISIT_CAP:
                    total += size
                    visited += nodes - 1
                    continue
            stack.extend(_field_values(obj))
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
        else:
            total += 8
    return total, visited


@dataclass(frozen=True)
class Message:
    """An application message in flight between two nodes."""

    src: str
    dst: str
    kind: str
    payload: Any
    sent_at: float


class NetworkNode(ABC):
    """Base class for anything addressable on the simulated network."""

    def __init__(self, node_id: str):
        self.node_id = node_id
        self.network: "Network | None" = None
        self.crashed = False

    @property
    def sim(self) -> Simulator:
        if self.network is None:
            raise SimulationError(f"node {self.node_id} is not attached to a network")
        return self.network.sim

    @abstractmethod
    def on_message(self, message: Message) -> None:
        """Handle a delivered message."""

    def send(self, dst: str, kind: str, payload: Any) -> None:
        """Send a message to one peer."""
        if self.network is None:
            raise SimulationError(f"node {self.node_id} is not attached to a network")
        self.network.transmit(self.node_id, dst, kind, payload)

    def broadcast(self, kind: str, payload: Any, include_self: bool = False) -> None:
        """Send a message to every node on the network.

        The payload is sized once for the whole fan-out and the
        destination list is the network's cached id tuple — at 10k
        peers, neither cost scales with the peer count per message.
        """
        if self.network is None:
            raise SimulationError(f"node {self.node_id} is not attached to a network")
        size = estimate_payload_size(payload)
        for dst in self.network.all_node_ids():
            if include_self or dst != self.node_id:
                self.network.transmit(self.node_id, dst, kind, payload, _size=size)


class NetworkStats(ObsView):
    """Counters the scalability benchmarks read out.

    The attribute API (``stats.sent``, ``stats.delivered += 1``, …) is
    unchanged from the seed dataclass, but the values now live in a
    :class:`~repro.obs.MetricsRegistry` (the network's, when given one)
    so exports report transport counters next to chain metrics."""

    sent = metric_attr("net.sent")
    delivered = metric_attr("net.delivered")
    dropped_partition = metric_attr("net.dropped_partition")
    dropped_random = metric_attr("net.dropped_random")
    dropped_crashed = metric_attr("net.dropped_crashed")
    total_latency = metric_attr("net.total_latency")
    bytes_estimate = metric_attr("net.bytes_estimate")

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.delivered if self.delivered else 0.0


class Network:
    """The message fabric: nodes, latency, partitions, and drops."""

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel | None = None,
        drop_probability: float = 0.0,
        seed: int = 0,
        obs: MetricsRegistry | None = None,
    ):
        if not 0 <= drop_probability < 1:
            raise SimulationError("drop_probability must be in [0, 1)")
        self.sim = sim
        self.latency = latency or FixedLatency()
        self.drop_probability = drop_probability
        self.rng = random.Random(seed)
        self.stats = NetworkStats(registry=obs)
        self._nodes: dict[str, NetworkNode] = {}
        self._partition: list[frozenset[str]] | None = None
        self._node_id_cache: tuple[str, ...] = ()

    def add_node(self, node: NetworkNode) -> None:
        if node.node_id in self._nodes:
            raise SimulationError(f"duplicate node id {node.node_id!r}")
        node.network = self
        self._nodes[node.node_id] = node
        self._node_id_cache = tuple(self._nodes)

    def node(self, node_id: str) -> NetworkNode:
        return self._nodes[node_id]

    def node_ids(self) -> list[str]:
        return list(self._node_id_cache)

    def all_node_ids(self) -> tuple[str, ...]:
        """Every node id, as the cached tuple broadcast iterates —
        rebuilt only when the membership changes, never per call."""
        return self._node_id_cache

    def __len__(self) -> int:
        return len(self._nodes)

    # -- fault injection ------------------------------------------------

    def partition(self, *groups: set[str]) -> None:
        """Split the network: messages only flow within a group.

        Nodes not named in any group form an implicit final group.
        Groups must be disjoint — with overlapping groups, side
        membership would be resolved by whichever group happens to be
        checked first, making ``_same_side`` asymmetric (a→b deliverable
        while b→a drops).
        """
        named: set[str] = set()
        for group in groups:
            overlap = named & set(group)
            if overlap:
                raise SimulationError(
                    f"partition groups overlap on {sorted(overlap)}"
                )
            named |= set(group)
        rest = frozenset(set(self._nodes) - named)
        self._partition = [frozenset(g) for g in groups]
        if rest:
            self._partition.append(rest)

    def heal(self) -> None:
        """Remove any partition."""
        self._partition = None

    def _same_side(self, a: str, b: str) -> bool:
        if self._partition is None:
            return True
        for group in self._partition:
            if a in group:
                return b in group
        return False  # unreachable: every node is in some group

    # -- transmission ---------------------------------------------------

    def transmit(
        self, src: str, dst: str, kind: str, payload: Any, _size: int | None = None
    ) -> None:
        """Queue a message for delivery (or silently drop it).

        ``_size`` lets :meth:`NetworkNode.broadcast` estimate a fanned-out
        payload once instead of once per destination.  Bytes are charged
        at send time (dropped messages still consumed sender bandwidth),
        but the partition/drop early-outs come first, so a message that
        dies on the wire never pays for latency sampling, a
        :class:`Message` allocation, or a scheduler entry — with a
        precomputed ``_size`` the drop path is pure counter updates.
        """
        if dst not in self._nodes:
            raise SimulationError(f"unknown destination node {dst!r}")
        self.stats.sent += 1
        if not self._same_side(src, dst):
            if _size is None:
                _size = estimate_payload_size(payload)
            self.stats.bytes_estimate += _WIRE_OVERHEAD + len(kind) + _size
            self.stats.dropped_partition += 1
            return
        if self.drop_probability and self.rng.random() < self.drop_probability:
            if _size is None:
                _size = estimate_payload_size(payload)
            self.stats.bytes_estimate += _WIRE_OVERHEAD + len(kind) + _size
            self.stats.dropped_random += 1
            return
        if _size is None:
            _size = estimate_payload_size(payload)
        self.stats.bytes_estimate += _WIRE_OVERHEAD + len(kind) + _size
        delay = self.latency.sample(src, dst, self.rng)
        message = Message(src=src, dst=dst, kind=kind, payload=payload, sent_at=self.sim.now)
        self.sim.schedule(
            delay, self._deliver, label=f"{kind}:{src}->{dst}", args=(message,)
        )

    def _deliver(self, message: Message) -> None:
        node = self._nodes.get(message.dst)
        if node is None or node.crashed:
            self.stats.dropped_crashed += 1
            return
        self.stats.delivered += 1
        self.stats.total_latency += self.sim.now - message.sent_at
        node.on_message(message)
