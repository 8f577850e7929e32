"""Failure injection for the simulated network.

Experiments need repeatable fault schedules: crash a peer at t=5, heal a
partition at t=30, make two validators byzantine from the start.  The
:class:`FailureSchedule` records what it did so tests can assert the
faults actually happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simnet.events import Simulator
from repro.simnet.network import Network

__all__ = ["FailureEvent", "FailureSchedule"]


@dataclass(frozen=True)
class FailureEvent:
    """A fault that fired: (time, action, target)."""

    time: float
    action: str
    target: str


@dataclass
class FailureSchedule:
    """Declarative fault schedule bound to a network and simulator."""

    sim: Simulator
    network: Network
    log: list[FailureEvent] = field(default_factory=list)

    def crash_at(self, time: float, node_id: str) -> None:
        """Crash-stop *node_id* at absolute simulated *time*."""
        self.sim.schedule_at(time, lambda: self._crash(node_id, time))

    def recover_at(self, time: float, node_id: str) -> None:
        """Bring a crashed node back (crash-*pause*: it resumes with all
        of its in-memory state intact, as if it had merely been frozen)."""
        self.sim.schedule_at(time, lambda: self._recover(node_id, time))

    def restart_at(self, time: float, node_id: str) -> None:
        """Bring a crashed node back as a crash-*restart*: the node's
        ``restart()`` hook wipes volatile state (mempool, open consensus
        rounds, in-flight timers) and rebuilds world state from its
        durable ledger — modeling a real process restart rather than a
        pause.  Nodes without a ``restart()`` hook fall back to a plain
        recover."""
        self.sim.schedule_at(time, lambda: self._restart(node_id, time))

    def torn_write_at(self, time: float, node_id: str) -> None:
        """Arm a torn write on *node_id*'s disk: at its next crash, the
        last fsync'd write to its block log survives only as a random
        prefix (the write was interrupted mid-flight).  A node without a
        disk (no durable store) ignores the fault."""
        self.sim.schedule_at(time, lambda: self._disk_fault(node_id, time, "torn-write"))

    def partial_flush_at(self, time: float, node_id: str, k: int = 1) -> None:
        """Arm a lying-drive fault on *node_id*'s disk: at its next crash
        the last *k* acknowledged fsync generations of its block log are
        silently lost."""
        self.sim.schedule_at(
            time, lambda: self._disk_fault(node_id, time, "partial-flush", k=k)
        )

    def bitflip_at(self, time: float, node_id: str, artifact: str = "log") -> None:
        """Flip one bit of *node_id*'s durable *artifact* (``"log"`` or
        ``"snapshot"``) at *time* — latent media corruption, surfaced only
        when recovery next reads the bytes."""
        self.sim.schedule_at(
            time, lambda: self._disk_fault(node_id, time, "bit-flip", artifact=artifact)
        )

    def partition_at(self, time: float, *groups: set[str]) -> None:
        """Install a partition at *time*."""
        frozen = [set(g) for g in groups]
        self.sim.schedule_at(time, lambda: self._partition(frozen, time))

    def heal_at(self, time: float) -> None:
        """Heal all partitions at *time*."""
        self.sim.schedule_at(time, lambda: self._heal(time))

    # -- implementations -------------------------------------------------

    def _crash(self, node_id: str, time: float) -> None:
        node = self.network.node(node_id)
        node.crashed = True
        # A crash takes the node's disk (if any) down with it: unsynced
        # bytes die and any armed torn-write / partial-flush fault fires.
        disk = getattr(node, "disk", None)
        if disk is not None:
            for fault in disk.on_crash():
                self.log.append(
                    FailureEvent(time=time, action=f"disk-{fault.kind}", target=node_id)
                )
        self.log.append(FailureEvent(time=time, action="crash", target=node_id))

    def _disk_fault(self, node_id: str, time: float, kind: str, k: int = 1, artifact: str = "log") -> None:
        disk = getattr(self.network.node(node_id), "disk", None)
        if disk is None:
            return  # a node with no disk (a vote flooder): nothing to corrupt
        if kind == "torn-write":
            disk.arm_torn_write()
            self.log.append(FailureEvent(time=time, action="disk-arm-torn-write", target=node_id))
        elif kind == "partial-flush":
            disk.arm_partial_flush(k)
            self.log.append(FailureEvent(time=time, action="disk-arm-partial-flush", target=node_id))
        elif kind == "bit-flip":
            corrupted = disk.corrupt(role=artifact)
            if corrupted is not None:
                self.log.append(
                    FailureEvent(time=time, action=f"disk-bit-flip:{artifact}", target=node_id)
                )

    def _recover(self, node_id: str, time: float) -> None:
        self.network.node(node_id).crashed = False
        self.log.append(FailureEvent(time=time, action="recover", target=node_id))

    def _restart(self, node_id: str, time: float) -> None:
        node = self.network.node(node_id)
        restart = getattr(node, "restart", None)
        if restart is not None:
            restart()
        else:
            node.crashed = False
        self.log.append(FailureEvent(time=time, action="restart", target=node_id))

    def _partition(self, groups: list[set[str]], time: float) -> None:
        self.network.partition(*groups)
        self.log.append(
            FailureEvent(time=time, action="partition", target="|".join(",".join(sorted(g)) for g in groups))
        )

    def _heal(self, time: float) -> None:
        self.network.heal()
        self.log.append(FailureEvent(time=time, action="heal", target="*"))
