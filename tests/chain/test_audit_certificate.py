"""The auditor states the commit-certificate check once: the check run
after every committed block and the end-of-run re-validation report the
same problems, with the same forensics, for a recorded quorum."""

from __future__ import annotations

import pytest

from repro.chain import BlockchainNetwork, InvariantAuditor
from repro.simnet import FixedLatency
from tests.conftest import CounterContract


@pytest.fixture
def committed():
    network = BlockchainNetwork(
        n_peers=4, consensus="pbft", block_interval=0.5,
        latency=FixedLatency(0.02), seed=31,
    )
    network.install_contract(CounterContract)
    auditor = InvariantAuditor(network, strict=False)
    client = network.client()
    network.submit(network.endorse_transaction(client, "counter", "increment", {"amount": 1}))
    network.run_for(5.0)
    network.stop()
    peer = network.peers[0]
    assert peer.ledger.height >= 1 and 1 in peer.engine.commit_certificates
    assert auditor.violations == []
    return network, auditor, peer


@pytest.mark.parametrize("tamper, problems", [
    (lambda d, c: (d, c + ("rogue",)), ["non-validator signers ['rogue']"]),
    (lambda d, c: (d, c[:1]), ["1 validator signers < quorum 3"]),
    (lambda d, c: ("0" * 64, c), ["certified digest mismatches committed block"]),
    (lambda d, c: ("0" * 64, ("rogue",)), [
        "non-validator signers ['rogue']", "0 validator signers < quorum 3",
        "certified digest mismatches committed block",
    ]),
])
def test_both_paths_report_one_certificate_check(committed, tamper, problems):
    network, auditor, peer = committed
    engine = peer.engine
    engine.commit_certificates[1] = tamper(*engine.commit_certificates[1])
    block = peer.ledger.block(1)
    checks = network.obs.total("audit.checks_run")
    auditor._check_certificate(peer, block)
    assert network.obs.total("audit.checks_run") == checks + 1
    auditor.check_certificates()
    incremental, final = auditor.violations
    for violation in (incremental, final):
        assert (violation.invariant, violation.height) == ("certificate", 1)
        assert violation.detail == "; ".join(problems)
        assert {"quorum", "view", "time"} <= set(violation.forensics)
    assert incremental.forensics == final.forensics
