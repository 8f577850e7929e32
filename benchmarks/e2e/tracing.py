"""Span tracing installed around the program from the benchmark's own files.

``install`` rebinds the public callables of each layer (``LAYER_METHODS``,
``LAYER_FUNCTIONS``) to wrappers that record a span: name, layer, start,
end, parent span and the id of the operation the harness was driving.
Nothing under ``src/`` knows about it.  Module-level functions that other
modules import by name are patched in *every* ``repro.*`` module whose
attribute ``is`` the original, otherwise ``peer.py``'s own binding of
``verify_many`` (say) would be missed.  Simulator callbacks are traced by
wrapping ``Simulator.schedule``: each event's callback runs inside a span
whose layer is the module that defined the callback, so timer work
(``PBFTEngine._tick``, ``SyncManager._announce_tick``) is attributed to its
owner and not to the scheduler.

A layer's *self time* is the duration of its spans minus the part their
child spans cover.  Spans stay in memory and are written out when the
workload ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

_clock = time.perf_counter

# (module, class, method names, layer).  Layers are this repo's modules.
LAYER_METHODS: tuple[tuple[str, str, tuple[str, ...], str], ...] = (
    ("repro.core.platform", "TrustingNewsPlatform",
     ("publish_article", "report_external", "ingest_share", "cast_vote", "rank_article",
      "rank_room", "trace", "accountable_author", "export_audit", "prove_article"), "core"),
    ("repro.core.provenance", "ProvenanceIndex", ("add", "degree_between"), "provenance"),
    ("repro.ml.ensemble", "FakeNewsScorer", ("fit", "score"), "ml"),
    ("repro.chain.network", "BlockchainNetwork",
     ("endorse_transaction", "submit", "wait_for_receipt", "run_for", "query"), "chain"),
    ("repro.chain.adapter", "NetworkedChain", ("invoke", "query"), "chain"),
    ("repro.chain.peer", "Peer",
     ("commit_block", "endorse", "submit", "restart", "on_message"), "peer"),
    ("repro.chain.local", "LocalChain", ("invoke", "_commit", "query"), "peer"),
    ("repro.chain.mempool", "Mempool", ("add", "take", "remove", "requeue"), "mempool"),
    ("repro.chain.consensus.pbft", "PBFTEngine",
     ("on_message", "on_block_applied", "on_transaction_admitted", "on_restart",
      "verify_synced_block", "on_synced_block"), "consensus"),
    ("repro.chain.store.durable", "DurableStore",
     ("on_commit", "maybe_snapshot", "recover"), "store"),
    ("repro.chain.store.sqlite", "SQLiteStore",
     ("on_commit", "recover", "query_transactions"), "store"),
    ("repro.simnet.disk", "SimDisk", ("append", "fsync", "read"), "store"),
    ("repro.chain.index", "ChainIndex", ("on_commit", "find_transactions", "reindex"), "index"),
    ("repro.chain.ledger", "Ledger", ("append", "transactions_by_contract"), "index"),
    ("repro.chain.sync", "SyncManager",
     ("on_message", "on_restart", "maybe_sync", "offer_block", "note_remote_height"), "sync"),
    ("repro.simnet.events", "Simulator", ("step", "run"), "simnet"),
    ("repro.simnet.network", "Network", ("transmit",), "simnet"),
    ("repro.simnet.network", "NetworkNode", ("broadcast",), "simnet"),
)

# (defining module, function, layer); every alias in ``repro.*`` is patched.
LAYER_FUNCTIONS: tuple[tuple[str, str, str], ...] = (
    ("repro.core.supplychain", "build_supply_chain_graph", "core"),
    ("repro.core.supplychain", "trace_to_factual_root", "core"),
    ("repro.core.supplychain", "find_original_author", "core"),
    ("repro.corpus.similarity", "minhash_signature", "corpus"),
    ("repro.corpus.similarity", "shingles", "corpus"),
    ("repro.corpus.mutations", "measured_change", "corpus"),
    ("repro.crypto.ed25519", "sign", "crypto"),
    ("repro.crypto.ed25519", "verify", "crypto"),
    ("repro.crypto.ed25519", "verify_batch", "crypto"),
    ("repro.crypto.batch", "verify_many", "crypto"),
    ("repro.crypto.keys", "verify_signature", "crypto"),
    ("repro.chain.explorer", "chain_summary", "index"),
    ("repro.chain.explorer", "find_transactions", "index"),
    ("repro.chain.explorer", "describe_transaction", "index"),
)

# Where a scheduled callback's self time goes, by the module that defines it.
_EVENT_LAYERS = (
    ("repro.chain.consensus", "consensus"),
    ("repro.chain.sync", "sync"),
    ("repro.chain.peer", "peer"),
    ("repro.chain.store", "store"),
    ("repro.chain", "chain"),
)

LAYERS = ("core", "provenance", "corpus", "ml", "crypto", "chain", "peer", "mempool",
          "consensus", "store", "index", "sync", "simnet")


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0   # inclusive seconds
    self: float = 0.0    # seconds not covered by child spans


@dataclass
class Aggregate:
    """Span totals over one time window."""

    wall: float
    spans: int = 0
    by_name: dict[str, SpanStats] = field(default_factory=lambda: defaultdict(SpanStats))
    layer_self: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    # (span name, layer of the parent span) -> calls
    calls_under: dict[tuple[str, str], int] = field(default_factory=lambda: defaultdict(int))

    def stats(self, *names: str) -> SpanStats:
        """Summed stats of the named spans (missing names count as zero)."""
        out = SpanStats()
        for name in names:
            found = self.by_name.get(name)
            if found is not None:
                out.calls += found.calls
                out.total += found.total
                out.self += found.self
        return out

    @property
    def attributed(self) -> float:
        return sum(self.layer_self.values())


class Tracer:
    """In-memory span recorder; one per benchmark process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.op: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.current = -1
        #: Operation the harness is driving (article id, wave, cycle, tick).
        self.op_id = ""
        #: Sums taken at span boundaries that no public read-out offers.
        self.tallies: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _name(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.current)
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        return idx

    def wrap(self, fn: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        nid = self._name(name, layer)

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = self._open(nid)
            outer = self.current
            self.current = idx
            begin = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = _clock()
                self.start[idx] = begin
                self.current = outer

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_generator(self, fn: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        """One span per generator, covering only the time spent inside it
        (the consumer's work between items stays the consumer's)."""
        nid = self._name(name, layer)

        def traced(*args: Any, **kwargs: Any) -> Any:
            items = fn(*args, **kwargs)
            idx = self._open(nid)
            first = None
            active = 0.0
            try:
                while True:
                    outer = self.current
                    self.current = idx
                    begin = _clock()
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        active += _clock() - begin
                        self.current = outer
                        if first is None:
                            first = begin
                    yield item
            finally:
                self.start[idx] = first if first is not None else _clock()
                self.end[idx] = self.start[idx] + active

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _truncate(self, length: int) -> None:
        for column in (self.name_id, self.parent, self.op, self.start, self.end):
            del column[length:]

    def clear(self) -> None:
        """Forget recorded spans and tallies (wrappers stay installed)."""
        self._truncate(0)
        self.tallies.clear()
        self.current = -1

    # -- installation ------------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import importlib

        for module_name, class_name, methods, layer in LAYER_METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                if method in cls.__dict__:
                    self._patch(cls, method,
                                self.wrap(cls.__dict__[method], f"{class_name}.{method}", layer))
        for module_name, func_name, layer in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(module_name), func_name)
            traced = self.wrap(original, func_name, layer)
            for alias_module in [m for n, m in sys.modules.items() if n.startswith("repro")]:
                for attr, value in list(vars(alias_module).items()):
                    if value is original:
                        self._patch(alias_module, attr, traced)
        self._install_specials()

    def _install_specials(self) -> None:
        from repro.chain.adapter import NetworkedChain
        from repro.chain.ledger import Ledger
        from repro.core.provenance import ProvenanceIndex
        from repro.simnet.events import Simulator

        tallies = self.tallies
        self._patch(Ledger, "events",
                    self.wrap_generator(Ledger.__dict__["events"], "Ledger.events", "index"))

        discover = self.wrap(ProvenanceIndex.__dict__["discover_parents"],
                             "ProvenanceIndex.discover_parents", "provenance")

        def discover_parents(index: Any, *args: Any, **kwargs: Any) -> Any:
            tallies["candidates_scanned"] += len(index)
            return discover(index, *args, **kwargs)

        self._patch(ProvenanceIndex, "discover_parents", discover_parents)

        barrier = self.wrap(NetworkedChain.__dict__["_barrier"], "NetworkedChain._barrier", "chain")

        def _barrier(chain: Any, height: int) -> None:
            before = chain.now
            barrier(chain, height)
            tallies["barrier_sim_s"] += chain.now - before

        self._patch(NetworkedChain, "_barrier", _barrier)

        schedule = Simulator.__dict__["schedule"]
        event_ids: dict[Any, int] = {}

        def run_event(callback: Callable[..., Any], args: tuple) -> None:
            func = getattr(callback, "__func__", callback)
            nid = event_ids.get(func)
            if nid is None:
                module = getattr(func, "__module__", "") or ""
                layer = next((lay for prefix, lay in _EVENT_LAYERS if module.startswith(prefix)),
                             "simnet")
                nid = event_ids[func] = self._name(
                    "event:" + getattr(func, "__qualname__", repr(func)), layer)
            idx = self._open(nid)
            outer = self.current
            self.current = idx
            begin = _clock()
            try:
                callback(*args)
            finally:
                self.end[idx] = _clock()
                self.start[idx] = begin
                self.current = outer

        def traced_schedule(sim: Any, delay: float, callback: Callable[..., Any],
                            label: str = "", args: tuple = ()) -> Any:
            return schedule(sim, delay, run_event, label, (callback, args))

        self._patch(Simulator, "schedule", traced_schedule)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one span adds to a call, measured on a no-op."""
        def noop() -> None:
            return None

        traced = self.wrap(noop, "bench.calibration", "bench")
        begin = _clock()
        for _ in range(calls):
            noop()
        bare = _clock() - begin
        mark = len(self.start)
        begin = _clock()
        for _ in range(calls):
            traced()
        cost = (_clock() - begin - bare) / calls
        self._truncate(mark)
        return max(cost, 0.0)

    # -- read-out ----------------------------------------------------------

    def aggregate(self, begin: float, end: float) -> Aggregate:
        """Totals of the spans that started inside ``[begin, end)``."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            parent = self.parent[i]
            if parent >= 0:
                covered[parent] += self.end[i] - self.start[i]
        out = Aggregate(wall=end - begin)
        for i in range(n):
            if not begin <= self.start[i] < end:
                continue
            nid = self.name_id[i]
            duration = self.end[i] - self.start[i]
            own = duration - covered[i]
            stats = out.by_name[self.names[nid]]
            stats.calls += 1
            stats.total += duration
            stats.self += own
            out.layer_self[self.layers[nid]] += own
            out.spans += 1
            parent = self.parent[i]
            parent_layer = self.layers[self.name_id[parent]] if parent >= 0 else ""
            out.calls_under[(self.names[nid], parent_layer)] += 1
        return out

    def write_jsonl(self, path: Path, origin: float) -> None:
        """One span per line; times are seconds since *origin*."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for i in range(len(self.start)):
                nid = self.name_id[i]
                handle.write(
                    '{"i":%d,"name":"%s","layer":"%s","start":%.7f,"end":%.7f,'
                    '"parent":%d,"op":"%s"}\n'
                    % (i, self.names[nid], self.layers[nid], self.start[i] - origin,
                       self.end[i] - origin, self.parent[i], self.op[i])
                )
