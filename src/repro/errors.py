"""Exception hierarchy for the repro package.

All errors raised by this library derive from :class:`ReproError`, so
callers can catch one base type at an integration boundary.  Subsystems
define narrower classes here (rather than in their own modules) to avoid
circular imports between substrates.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class CryptoError(ReproError):
    """Signature/key material is malformed or verification failed hard."""


class SimulationError(ReproError):
    """Discrete-event simulator misuse (e.g. scheduling into the past)."""


class ChainError(ReproError):
    """Base class for blockchain-layer errors."""


class InvalidTransactionError(ChainError):
    """A transaction failed structural or signature validation."""


class InvalidBlockError(ChainError):
    """A block failed structural validation or does not extend the chain."""


class ContractError(ChainError):
    """A smart contract aborted, or contract invocation was malformed."""


class OutOfGasError(ContractError):
    """Contract execution exceeded its gas budget."""


class EndorsementError(ChainError):
    """A transaction did not satisfy its endorsement policy."""


class IdentityError(ReproError):
    """Unknown, unverified, or unauthorized identity."""


class PlatformError(ReproError):
    """Trusting-news platform workflow violation (e.g. publishing an
    article that never completed the editing process)."""


class CorpusError(ReproError):
    """News-corpus generation was asked for something impossible."""


class MLError(ReproError):
    """Model misuse: predicting before fitting, dimension mismatch, etc."""
