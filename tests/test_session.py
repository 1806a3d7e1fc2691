"""Tests for the protocol state machine, wire format, and transports."""

import json
import socket
import threading

import numpy as np
import pytest

from qbcsim.quantum import make_basis_state, random_state
from qbcsim.scheme import SchemeParams, build_reveal_agreement, scheme_hash
from qbcsim.session import (
    PARENT_S,
    AliceEndpoint,
    AliceScript,
    AmplitudeCountError,
    BobEndpoint,
    BobScript,
    ChoiceRangeError,
    Commit,
    FramingError,
    Guess,
    HandshakeError,
    Phase,
    PhaseError,
    Reveal,
    SchemeMismatchError,
    Verdict,
    VersionMismatchError,
    WireError,
    alice_commit,
    alice_reveal,
    bob_guess,
    bob_verify,
    decode_message,
    encode_message,
    frame_limit,
    hello_frame,
    run_session,
    serve_session,
    session_rngs,
    write_transcript,
)

HASH = "0" * 64


def test_message_round_trips(cointoss_agreement):
    real_hash = scheme_hash(cointoss_agreement.params)
    messages = [
        Commit(cointoss_agreement.sets[0].elements[0]),
        Guess(1),
        Reveal(0),
        Reveal(1, PARENT_S),
        Verdict(True, 1),
        Verdict(False, None),
    ]
    for message in messages:
        frame = encode_message(message, real_hash)
        assert frame.endswith(b"\n")
        assert decode_message(frame, real_hash) == message
        assert decode_message(frame) == message  # hash check optional


def test_decode_rejects_malformed_frames():
    with pytest.raises(FramingError):
        decode_message(b"not json at all\n")
    with pytest.raises(FramingError):
        decode_message(b'{"no": "kind"}\n')
    with pytest.raises(FramingError):
        decode_message(b'{"v":1,"kind":"mystery"}\n')
    with pytest.raises(FramingError):
        decode_message(b'{"v":1,"kind":"guess"}\n')  # missing choice
    with pytest.raises(VersionMismatchError):
        decode_message(b'{"v":2,"kind":"guess","choice":0}\n')
    with pytest.raises(FramingError):
        decode_message(b'{"v":1,"kind":"reveal","choice":0,"parent":"Q"}\n')
    # truncated commit payload: amplitude count disagrees with the header
    bad_state = '{"v":1,"kind":"commit","scheme_hash":"x","state":"qubits=2\\n1 0\\n0 0\\n"}\n'
    with pytest.raises(AmplitudeCountError):
        decode_message(bad_state.encode())
    # non-finite amplitudes are a typed wire error, not a later crash in sampling
    nan_state = '{"v":1,"kind":"commit","scheme_hash":"x","state":"qubits=1\\nnan 0\\n0 0\\n"}\n'
    with pytest.raises(AmplitudeCountError, match="finite"):
        decode_message(nan_state.encode())
    with pytest.raises(FramingError):
        decode_message(b'{"v":1,"kind":"commit","state":42}\n')
    with pytest.raises(VersionMismatchError):
        decode_message(b'{"v":true,"kind":"guess","choice":0}\n')
    # choice and recovered must be JSON integers, accept a JSON bool: no coercion
    for choice in ("true", "1.9", '"1"', "1.0", "null"):
        with pytest.raises(FramingError):
            decode_message(b'{"v":1,"kind":"guess","choice":%s}\n' % choice.encode())
        with pytest.raises(FramingError):
            decode_message(
                b'{"v":1,"kind":"reveal","choice":%s,"parent":"B"}\n' % choice.encode()
            )
    for recovered in ("true", "1.9", '"1"'):
        with pytest.raises(FramingError):
            decode_message(
                b'{"v":1,"kind":"verdict","accept":true,"recovered":%s}\n' % recovered.encode()
            )
    for accept in ("1", "0", '"yes"', "null"):
        with pytest.raises(FramingError):
            decode_message(
                b'{"v":1,"kind":"verdict","accept":%s,"recovered":null}\n' % accept.encode()
            )


def test_decode_rejects_foreign_scheme():
    frame = encode_message(Guess(0), HASH)
    with pytest.raises(SchemeMismatchError):
        decode_message(frame, "1" * 64)


def test_encode_rejects_non_message():
    with pytest.raises(TypeError):
        encode_message("guess", HASH)


def test_phase_ladder_and_transcript(cointoss_agreement):
    state, commit = alice_commit(cointoss_agreement, 0, 1, rng=0)
    assert state.phase is Phase.COMMITTED
    assert state.alice_private.choice == 0
    assert state.alice_private.element == 1
    assert commit.state == cointoss_agreement.sets[0].elements[1]
    assert len(state.transcript) == 1

    state, guess = bob_guess(state, 1)
    assert state.phase is Phase.GUESSED
    assert len(state.transcript) == 2

    state, reveal = alice_reveal(state)
    assert state.phase is Phase.REVEALED
    assert reveal == Reveal(0)
    assert len(state.transcript) == 3

    state, verdict, result = bob_verify(state, rng=0)
    assert state.phase is Phase.VERIFIED
    assert verdict.accepted and result.accepted
    assert result.recovered_element == 1
    assert len(state.transcript) == 4


def test_wrong_phase_errors(cointoss_agreement):
    state, _ = alice_commit(cointoss_agreement, 0, 0, rng=0)
    with pytest.raises(PhaseError):
        alice_reveal(state)  # reveal before guess
    with pytest.raises(PhaseError):
        bob_verify(state, rng=0)
    state, _ = bob_guess(state, 0)
    with pytest.raises(PhaseError):
        bob_guess(state, 0)  # guess twice


def test_commit_input_validation(cointoss_agreement):
    with pytest.raises(ValueError):
        alice_commit(cointoss_agreement, 2, 0, rng=0)
    with pytest.raises(ValueError):
        alice_commit(cointoss_agreement, 0, 9, rng=0)
    with pytest.raises(ValueError):
        alice_commit(cointoss_agreement, 0, 0, rng=0, parent="Q")
    state, _ = alice_commit(cointoss_agreement, 0, 0, rng=0)
    with pytest.raises(ValueError):
        bob_guess(state, 2)


def test_random_element_is_uniform(cointoss_agreement):
    trials = 10_000
    rng = np.random.default_rng(12)
    ones = sum(
        alice_commit(cointoss_agreement, 0, rng=rng)[0].alice_private.element
        for _ in range(trials)
    )
    sigma = 0.5 * np.sqrt(trials)
    assert abs(ones - trials / 2) <= 3 * sigma


def test_honest_verify_recovers_element(cointoss_agreement):
    for c in range(2):
        for k in range(2):
            state, _ = alice_commit(cointoss_agreement, c, k, rng=1)
            state, _ = bob_guess(state, 0)
            state, _ = alice_reveal(state)
            state, verdict, result = bob_verify(state, rng=k + 10 * c)
            assert verdict.accepted
            assert result.recovered_element == k
            assert result.outcome_index == k


def test_cheating_reveal_accepted_half_the_time(cointoss_agreement):
    trials = 2000
    rng = np.random.default_rng(8)
    accepted = 0
    for _ in range(trials):
        state, _ = alice_commit(cointoss_agreement, 0, rng=rng)
        state, _ = bob_guess(state, 0)
        state, _ = alice_reveal(state, claim=1)
        state, _, result = bob_verify(state, rng=rng)
        accepted += result.accepted
        assert state.phase in (Phase.VERIFIED, Phase.REJECTED)
        # outcomes 0..2^n - 1 are the valid products, 2^n the reject outcome
        expected = result.recovered_element if result.accepted else 2
        assert result.outcome_index == expected
    sigma = np.sqrt(0.25 / trials)
    assert abs(accepted / trials - 0.5) <= 3 * sigma


def test_parent_s_paths(cointoss_agreement):
    # honest: deterministic accept; dishonest reveal: deterministic reject
    state, commit = alice_commit(cointoss_agreement, 1, rng=0, parent=PARENT_S)
    assert commit.state == make_basis_state("01")
    state, _ = bob_guess(state, 0)
    state, reveal = alice_reveal(state)
    assert reveal.parent == PARENT_S
    state, _, result = bob_verify(state, rng=0)
    assert result.accepted and result.recovered_element == 1

    state, _ = alice_commit(cointoss_agreement, 1, rng=0, parent=PARENT_S)
    state, _ = bob_guess(state, 0)
    state, _ = alice_reveal(state, claim=0)
    state, _, result = bob_verify(state, rng=0)
    assert not result.accepted
    assert state.phase is Phase.REJECTED


def test_pre_reveal_frames_hide_private_fields(cointoss_agreement):
    result = run_session(
        cointoss_agreement, AliceScript(choice=1, element=1), BobScript(guess=0), seed=5
    )
    commit_frame = json.loads(result.transcript[0])
    guess_frame = json.loads(result.transcript[1])
    assert set(commit_frame) == {"v", "kind", "scheme_hash", "state"}
    assert set(guess_frame) == {"v", "kind", "scheme_hash", "choice"}
    assert guess_frame["choice"] == 0  # bob's guess, not alice's choice
    for key in ("parent", "element"):
        assert key not in commit_frame and key not in guess_frame


def test_out_of_range_choice_frames_are_wire_errors(cointoss_agreement):
    agreement = cointoss_agreement
    digest = scheme_hash(agreement.params)
    for choice in (-1, agreement.params.num_choices):
        alice = AliceEndpoint(agreement, AliceScript(choice=0, element=0), 1)
        bob = BobEndpoint(agreement, BobScript(guess=0), 2)
        bob.handle_commit(alice.commit_frame())
        with pytest.raises(ChoiceRangeError) as raised:
            bob.handle_reveal(encode_message(Reveal(choice), digest))
        assert isinstance(raised.value, WireError)
        assert bob.result is None
        assert bob.state.phase is Phase.GUESSED
        with pytest.raises(ChoiceRangeError):
            alice.handle_guess(encode_message(Guess(choice), digest))
        assert alice.state.phase is Phase.COMMITTED


def test_endpoint_handlers_check_phase_first(cointoss_agreement):
    agreement = cointoss_agreement
    digest = scheme_hash(agreement.params)

    def snapshot(endpoint):
        phase = None if endpoint.state is None else endpoint.state.phase
        outcome = endpoint.result if isinstance(endpoint, BobEndpoint) else endpoint.verdict
        return list(endpoint.frames), outcome, phase

    def refused(endpoint, handler, frame):
        before = snapshot(endpoint)
        with pytest.raises(PhaseError):
            handler(frame)
        assert snapshot(endpoint) == before

    # frames that need a commitment, before any commit
    bob = BobEndpoint(agreement, BobScript(guess=0), 2)
    refused(bob, bob.handle_reveal, encode_message(Reveal(0), digest))
    alice = AliceEndpoint(agreement, AliceScript(choice=0, element=0), 1)
    refused(alice, alice.handle_guess, encode_message(Guess(0), digest))
    refused(alice, alice.handle_verdict, encode_message(Verdict(True, 0), digest))
    assert alice.frames == bob.frames == [] and alice.state is bob.state is None

    # a second commit frame does not restart Bob's session
    first = alice.commit_frame()
    bob.handle_commit(first)
    refused(bob, bob.handle_commit, first)
    assert bob.state.phase is Phase.GUESSED and len(bob.frames) == 2
    with pytest.raises(PhaseError):
        alice.commit_frame()
    assert len(alice.frames) == 1 and alice.state.phase is Phase.COMMITTED

    # after the verdict, a second reveal or verdict changes nothing
    reveal = alice.handle_guess(bob.frames[1])
    alice.handle_verdict(bob.handle_reveal(reveal))
    assert alice.verdict.accepted and alice.state.phase is Phase.VERIFIED
    refused(bob, bob.handle_reveal, reveal)
    refused(alice, alice.handle_verdict, encode_message(Verdict(False, None), digest))
    assert len(bob.frames) == len(alice.frames) == 4
    assert alice.verdict.accepted and alice.state.phase is Phase.VERIFIED
    assert bob.result.accepted and bob.state.phase is Phase.VERIFIED


def test_frame_limit_fits_every_frame(agreements):
    rng = np.random.default_rng(3)
    for n, agreement in agreements.items():
        limit = frame_limit(agreement.params)
        digest = scheme_hash(agreement.params)
        longest = len(encode_message(Commit(random_state(n + 1, rng)), digest))
        for choice in range(agreement.num_choices):
            for alice in (
                AliceScript(choice=choice),
                AliceScript(choice=choice, reveal_choice=(choice + 1) % agreement.num_choices),
                AliceScript(choice=choice, parent=PARENT_S),
            ):
                result = run_session(agreement, alice, BobScript(), seed=choice)
                longest = max(longest, *map(len, result.transcript))
        assert longest < limit, (n, longest, limit)


def _serve_raw_peer(bob, payload: bytes) -> Exception:
    """Run ``serve_session`` for a raw-socket peer that sends ``payload``
    and stops writing; return what the verifier raised."""
    listener = socket.create_server(("127.0.0.1", 0))
    errors = []

    def serve():
        try:
            serve_session(bob, listener)
        except Exception as exc:
            errors.append(exc)

    thread = threading.Thread(target=serve)
    thread.start()
    with socket.create_connection(listener.getsockname(), timeout=30) as conn:
        conn.sendall(payload)
        conn.shutdown(socket.SHUT_WR)
        thread.join(timeout=30)
    assert not thread.is_alive() and len(errors) == 1
    return errors[0]


def test_unterminated_frame_over_limit_is_framing_error(cointoss_agreement):
    hello = hello_frame(scheme_hash(cointoss_agreement.params))
    limit = frame_limit(cointoss_agreement.params)
    bob = BobEndpoint(cointoss_agreement, BobScript(), 0)
    assert isinstance(_serve_raw_peer(bob, hello + b"{" * (limit + 1)), FramingError)
    assert bob.frames == [] and bob.state is None
    # a hello cut short is still a handshake failure
    bob = BobEndpoint(cointoss_agreement, BobScript(), 0)
    assert isinstance(_serve_raw_peer(bob, hello[:20]), HandshakeError)


def test_run_session_transport_equivalence(cointoss_agreement):
    alice = AliceScript(choice=0, element=0)
    bob = BobScript(guess=1)
    local = run_session(cointoss_agreement, alice, bob, seed=77)
    loop = run_session(cointoss_agreement, alice, bob, seed=77, transport="tcp")
    assert local.transcript == loop.transcript
    assert local.verification == loop.verification
    assert local.verdict == loop.verdict
    assert len(local.transcript) == 4
    with pytest.raises(ValueError):
        run_session(cointoss_agreement, alice, bob, seed=0, transport="carrier-pigeon")


def test_run_session_random_scripts_deterministic(cointoss_agreement):
    a = run_session(cointoss_agreement, AliceScript(), BobScript(), seed=123)
    b = run_session(cointoss_agreement, AliceScript(), BobScript(), seed=123)
    assert a.transcript == b.transcript


def test_handshake_mismatch_aborts(cointoss_agreement):
    other = build_reveal_agreement(SchemeParams.default(2))
    for transport in ("in-process", "tcp"):
        with pytest.raises(HandshakeError):
            run_session(
                cointoss_agreement,
                AliceScript(choice=0),
                BobScript(),
                seed=1,
                transport=transport,
                bob_agreement=other,
            )


def test_session_rngs_deterministic():
    a1, b1 = session_rngs(55)
    a2, b2 = session_rngs(55)
    assert a1.integers(1 << 30) == a2.integers(1 << 30)
    assert b1.integers(1 << 30) == b2.integers(1 << 30)


def test_write_transcript(tmp_path, cointoss_agreement):
    result = run_session(cointoss_agreement, AliceScript(choice=0), BobScript(), seed=2)
    path = tmp_path / "transcript.bin"
    write_transcript(path, result.transcript)
    assert path.read_bytes() == b"".join(result.transcript)
    assert path.read_bytes().count(b"\n") == 4


def test_block_with_one_dishonest_reveal(cointoss_agreement):
    # K independent commits, exactly one cheated: the block survives only
    # if the single cheat passes, so rejection probability is 1/2
    blocks = 1500
    K = 3
    rng = np.random.default_rng(31)
    survived = 0
    for _ in range(blocks):
        ok = True
        for j in range(K):
            claim = 1 if j == 0 else None  # cheat in the first commit only
            state, _ = alice_commit(cointoss_agreement, 0, rng=rng)
            state, _ = bob_guess(state, 0)
            state, _ = alice_reveal(state, claim=claim)
            state, _, result = bob_verify(state, rng=rng)
            ok = ok and result.accepted
        survived += ok
    sigma = np.sqrt(0.25 / blocks)
    assert abs(survived / blocks - 0.5) <= 3 * sigma
