"""Smart-contract framework: runtime, base class, registry, endorsement."""

from repro.chain.contracts.contract import Contract, ContractRegistry, contract_method
from repro.chain.contracts.endorsement import EndorsementPolicy, check_endorsements
from repro.chain.contracts.runtime import ContractContext, ExecutionResult, GasSchedule

__all__ = [
    "Contract",
    "ContractRegistry",
    "contract_method",
    "EndorsementPolicy",
    "check_endorsements",
    "ContractContext",
    "ExecutionResult",
    "GasSchedule",
]
