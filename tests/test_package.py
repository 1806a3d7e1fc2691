"""The package's public surface, pinned so that any change to it is deliberate."""

import qbcsim

PUBLIC_NAMES = [
    "ATOL", "AliceScript", "AuditCheck", "BobScript", "CheatReport", "Commit",
    "Guess", "HandshakeError", "INV_SQRT2", "MAX_N",
    "MeasurementBasis", "PRESET_DEFAULT_MASKS", "PRESET_PAPER_COINTOSS", "Phase",
    "Reveal", "RevealAgreement", "STRATEGIES", "STRATEGY_DECLARE_PRIOR",
    "STRATEGY_UPDATE_ON_REJECT", "SchemeParams", "SessionResult",
    "SessionState", "StateVector", "Verdict", "VerificationResult",
    "alice_cheat_acceptance", "alice_cheat_report", "alice_commit", "alice_reveal",
    "as_generator", "audit_scheme", "block_cheat_report",
    "bob_guess", "bob_premature_strategy", "bob_verify",
    "born_distribution", "build_reveal_agreement",
    "computational_basis", "decode_message", "descriptor_text",
    "discrimination_bounds", "encode_message", "ket_string",
    "make_basis_state", "measure", "run_full_analysis",
    "run_session", "s_protocol_sweep", "scheme_hash", "session_rngs",
    "state_from_text", "state_to_text", "tensor",
    "walsh_matrix", "write_transcript", "xor_pairs",
]


def test_public_surface_is_pinned():
    assert sorted(qbcsim.__all__) == sorted(PUBLIC_NAMES)
