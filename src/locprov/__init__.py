"""Witness-endorsed location proofs and tamper-evident provenance chains.

A location authority signs statements of a user's presence; co-located
witnesses endorse them, which is what makes user-authority collusion
visible; entries carry chronological-ordering metadata under one of two
schemes (signed hash chain, or signed Bloom-filter accumulator) so that a
user can prove the order of any subsequence of her history without
revealing the rest; per-epoch published digests of issued proofs pin
timestamps; an auditor verifies all of it; and a deterministic simulator
exercises the full collusion matrix.
"""

from .crypto import (
    Commitment,
    CryptoError,
    CryptoProfile,
    Digest,
    KeyPair,
    LEGACY,
    MODERN,
    Signature,
    derive_seed,
    get_profile,
)
from .model import (
    BindingError,
    BloomAccumulator,
    ChainSlot,
    Endorsement,
    EndorsementStatement,
    EndorsedLocationProof,
    HashChainLink,
    LocationProof,
    LocationStatement,
    ModelError,
    OrderingVerdict,
    PrivateLocationStatement,
    ProvenanceChain,
    ProvenanceEntry,
    RevealedEntry,
    RevealedSubsequence,
    TimestampAttestation,
    ValidationError,
    WindowError,
    SCHEME_BLOOM,
    SCHEME_HASHCHAIN,
    assemble_elp,
    canonical_decode,
    canonical_encode,
    make_endorsement,
    make_private_statement,
    make_proof,
    make_revealed_subsequence,
    make_statement,
    proof_digest,
    reveal_granularity,
)
from .hashchain import chain_extend, chain_genesis, chain_verify_subsequence
from .bloom import (
    bloom_contains,
    bloom_insert,
    bloom_new,
    bloom_order_verify,
    bloom_positions,
    bloom_subset,
    bloom_well_formed,
    sign_accumulator,
)
from .epochs import EpochRegistry, EpochReport, build_epoch_report, check_inclusion
from .protocol import (
    AuthorityBehavior,
    ProtocolConfig,
    WitnessBehavior,
    World,
)
from .audit import AuditReport, LocationClaim, audit, classify_failure
from .scenarios import Scenario, builtin_suite, run_builtin_suite, run_scenario

__version__ = "0.1.0"
