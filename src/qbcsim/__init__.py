"""Simulator and analysis lab for a product-state commitment scheme.

The package splits into four layers: ``quantum`` (statevector engine),
``scheme`` (the initial agreement: per choice, a commitment set held as
its XOR pairs and a reveal state; audits), ``session`` (the
two-party protocol over wire frames), and ``analysis``
(binding/concealment figures and discrimination bounds). ``cli`` fronts
all of it.
"""

import types as _types

from .analysis import (
    CheatReport,
    STRATEGIES,
    STRATEGY_DECLARE_PRIOR,
    STRATEGY_UPDATE_ON_REJECT,
    alice_cheat_report,
    block_cheat_report,
    bob_premature_strategy,
    discrimination_bounds,
    run_full_analysis,
    s_protocol_sweep,
)
from .quantum import (
    ATOL,
    INV_SQRT2,
    MeasurementBasis,
    StateVector,
    as_generator,
    born_distribution,
    computational_basis,
    ket_string,
    state_from_text,
    state_to_text,
    walsh_matrix,
)
from .scheme import (
    MAX_N,
    PRESET_DEFAULT_MASKS,
    PRESET_PAPER_COINTOSS,
    AuditCheck,
    RevealAgreement,
    SchemeParams,
    audit_scheme,
    build_reveal_agreement,
    descriptor_text,
    scheme_hash,
    xor_pairs,
)
from .session import (
    AliceScript,
    BobScript,
    Commit,
    Guess,
    HandshakeError,
    Hello,
    Phase,
    Reveal,
    SessionResult,
    SessionState,
    VerificationResult,
    Verdict,
    alice_commit,
    alice_reveal,
    bob_verify,
    decode_message,
    encode_message,
    run_session,
    session_rngs,
    write_transcript,
)

__version__ = "0.1.0"

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _types.ModuleType)]
