"""The auditor's storage loss rule is stated per recovery: a recovery that
lost acknowledged blocks must itself have recorded a degradation.  The
end-of-run check and the check run at restart apply the same rule, so a
degradation recorded by one recovery does not excuse a loss in another."""

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
    auditor.check_storage()
    peer.store.last_recovery = lossy
    auditor._check_storage_recovery(peer)
    final, at_restart = auditor.violations
    for violation in (final, at_restart):
        assert (violation.invariant, violation.detail, violation.peers) == (
            "storage", LOSS, (peer.node_id,),
        )
        assert violation.forensics == {"report": lossy.summary()}
