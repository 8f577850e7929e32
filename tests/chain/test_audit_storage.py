"""The auditor's storage loss rule is stated per recovery: a recovery that
lost acknowledged blocks must itself have recorded a degradation.  The
end-of-run check and the check run at restart apply the same rule, so a
degradation recorded by one recovery does not excuse a loss in another;
each finding is reported once, by whichever check sees it first."""

from __future__ import annotations

from repro.chain import BlockchainNetwork, InvariantAuditor
from repro.chain.store import Degradation, RecoveryReport

LOSS = "recovery lost 1 acknowledged block(s) without recording a degradation"


def test_a_lossy_recovery_is_not_excused_by_another_recoverys_degradation():
    network = BlockchainNetwork(n_peers=4, consensus="pbft", seed=5)
    auditor = InvariantAuditor(network, strict=False)
    peer = network.peers[0]
    lossy = RecoveryReport(missing_acked={3: "torn tail"})
    lossless = RecoveryReport(degradations=[Degradation("torn-tail", "log tail truncated", 4)])
    peer.store.reports.extend([lossy, lossless])
    # The lossless recovery's degradation is counted, as a real one is.
    network.obs.counter("store.degradations", peer=peer.node_id, kind="torn-tail").inc()
    # No restart audited the lossy report: the end-of-run check catches it,
    # and a later look at the same report adds nothing.
    auditor.check_storage()
    peer.store.last_recovery = lossy
    auditor._check_storage_recovery(peer)
    [violation] = auditor.violations
    assert (violation.invariant, violation.detail, violation.peers) == (
        "storage", LOSS, (peer.node_id,),
    )
    assert violation.forensics == {"report": lossy.summary()}


def test_one_lost_write_is_reported_once():
    """A lossy recovery audited at its restart, and an acknowledged block
    the recovered ledger does not hold, are each reported once, not again
    at end of run."""
    network = BlockchainNetwork(n_peers=4, consensus="pbft", seed=5)
    auditor = InvariantAuditor(network, strict=False)
    peer = network.peers[0]
    lossy = RecoveryReport(missing_acked={3: "torn tail"})
    peer.store.reports.append(lossy)
    peer.store.last_recovery = lossy
    peer.store.acked[2] = ("ab" * 32, 0)  # acknowledged, and not in the ledger
    auditor._check_storage_recovery(peer)
    auditor.final_check()
    assert [(v.invariant, v.detail, v.height) for v in auditor.violations] == [
        ("storage", "block acknowledged durable is missing or differs after recovery", 2),
        ("storage", LOSS, None),
    ]
    assert auditor.summary()["violations_by_invariant"] == {"storage": 2}
