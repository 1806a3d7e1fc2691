"""Tests for the protocol state machine, wire format, and transports."""

import hashlib
import json
import math
import socket
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbcsim import scheme
from qbcsim import session as session_module
from qbcsim.quantum import (
    ATOL,
    MeasurementBasis,
    StateVector,
    _draw_outcome,
    born_distribution,
    computational_basis,
)
from qbcsim.scheme import SchemeParams, build_reveal_agreement, scheme_hash
from qbcsim.session import (
    PARENT_B,
    PARENT_S,
    WIRE_VERSION,
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
    SessionState,
    Verdict,
    VersionMismatchError,
    WireError,
    alice_commit,
    alice_reveal,
    bob_verify,
    connect_session,
    decode_message,
    encode_message,
    frame_limit,
    hello_frame,
    parse_hello,
    run_session,
    serve_session,
    session_rngs,
    write_transcript,
)
from test_quantum import ket, random_state
from test_scheme import set_measurement

HASH = "0" * 64


def test_message_round_trips(cointoss_agreement):
    real_hash = scheme_hash(cointoss_agreement.params)
    messages = [
        Commit(cointoss_agreement.element(0, 0)),
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
    # an integer past Python's int-string digit limit is a framing error
    digits = b"9" * 4400
    with pytest.raises(FramingError):
        decode_message(b'{"v":%s,"kind":"guess","choice":0}\n' % digits)
    with pytest.raises(FramingError):
        decode_message(b'{"v":1,"kind":"guess","choice":%s}\n' % digits)
    # a huge qubit count in the header is refused before 2^n is formed
    huge = b'{"v":1,"kind":"commit","scheme_hash":"x","state":"qubits=100000000\\n1 0\\n"}\n'
    began = time.perf_counter()
    with pytest.raises(AmplitudeCountError):
        decode_message(huge)
    assert time.perf_counter() - began < 0.5
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


def test_parse_hello_is_as_strict_as_decode():
    assert parse_hello(hello_frame(HASH)) == HASH
    # v must be the JSON integer 1 and the hash a JSON string: no coercion
    for v, digest in (("1.0", '"%s"' % HASH), ("true", '"%s"' % HASH), ("1", "[1]"),
                      ("1", "null"), ("9" * 4400, '"%s"' % HASH)):
        frame = '{"kind":"hello","v":%s,"scheme_hash":%s}\n' % (v, digest)
        with pytest.raises(HandshakeError):
            parse_hello(frame.encode())


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
    assert commit.state == cointoss_agreement.element(0, 1)
    assert len(state.transcript) == 1

    state.record(Guess(1))
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
    state.record(Guess(0))
    with pytest.raises(PhaseError):
        state.record(Guess(0))  # guess twice
    # a state that holds no commitment of Alice's, fresh or Bob's own view
    # after his guess, has nothing to reveal
    bob = BobEndpoint(cointoss_agreement, BobScript(guess=1), 2)
    bob.handle_commit(AliceEndpoint(cointoss_agreement, AliceScript(), 1).commit_frame())
    for uncommitted in (SessionState(cointoss_agreement), bob.state):
        before = list(uncommitted.transcript)
        with pytest.raises(PhaseError, match="no commitment"):
            alice_reveal(uncommitted)
        assert uncommitted.transcript == before


def test_commit_input_validation(cointoss_agreement):
    with pytest.raises(ValueError):
        alice_commit(cointoss_agreement, 2, 0, rng=0)
    with pytest.raises(ValueError):
        alice_commit(cointoss_agreement, 0, 9, rng=0)
    with pytest.raises(ValueError):
        alice_commit(cointoss_agreement, 0, 0, rng=0, parent="Q")
    for element in (0, 1, 3):  # a parent-S commit has no element to pick
        with pytest.raises(ValueError, match="no element"):
            alice_commit(cointoss_agreement, 1, element, rng=0, parent=PARENT_S)
    state, _ = alice_commit(cointoss_agreement, 0, 0, rng=0)
    with pytest.raises(ValueError):
        state.record(Guess(2))
    state.record(Guess(1))
    for claim in (-1, 2):
        with pytest.raises(ValueError, match=f"reveal choice {claim} is not an int in 0..1"):
            alice_reveal(state, claim)
        assert state.phase is Phase.GUESSED and len(state.transcript) == 2


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
            state.record(Guess(0))
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
        state.record(Guess(0))
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
    assert commit.state == ket("01")
    state.record(Guess(0))
    state, reveal = alice_reveal(state)
    assert reveal.parent == PARENT_S
    state, _, result = bob_verify(state, rng=0)
    assert result.accepted and result.recovered_element == 1

    state, _ = alice_commit(cointoss_agreement, 1, rng=0, parent=PARENT_S)
    state.record(Guess(0))
    state, _ = alice_reveal(state, claim=0)
    state, _, result = bob_verify(state, rng=0)
    assert not result.accepted
    assert state.phase is Phase.REJECTED


@pytest.mark.parametrize("n", [1, 4, 6])
def test_parent_s_verify_builds_no_basis(monkeypatch, n):
    # the computational basis is built once per dimension: after the first
    # parent-S session at n, a second commits and verifies without one
    agreement = build_reveal_agreement(SchemeParams.default(n))
    script = AliceScript(choice=agreement.num_choices - 1, parent=PARENT_S)
    assert run_session(agreement, script, BobScript(), seed=1).verdict.accepted
    built = []
    original = MeasurementBasis.__post_init__

    def counted(basis):
        built.append(basis)
        original(basis)

    monkeypatch.setattr(MeasurementBasis, "__post_init__", counted)
    for choice in (0, 1):
        state, _ = alice_commit(agreement, choice, rng=choice, parent=PARENT_S)
        state.record(Guess(0))
        state, _ = alice_reveal(state)
        state, _, result = bob_verify(state, rng=choice)
        assert result.accepted and result.outcome_index == choice
    assert built == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_parent_s_reveal_of_a_superposition(n):
    # a cheat no script sends: Alice commits a set element, or |+>^(n+1), and
    # reveals it with parent S. Bob's outcome is the one Generator.choice
    # draws from |psi|^2 with the same seed, it lies on the held state's
    # support, and he accepts exactly when it is the revealed choice
    agreement = build_reveal_agreement(SchemeParams.default(n))
    m = agreement.num_choices
    digest = agreement.descriptor_hash
    held = [(agreement.element(c, k), agreement.pairs[c, k].tolist())
            for c in range(m) for k in range(m)]
    held.append((StateVector(n + 1, np.full(2 * m, (2 * m) ** -0.5)), range(2 * m)))
    verdicts = set()
    for index, (psi, support) in enumerate(held):
        commit = encode_message(Commit(psi), digest)
        for claim in range(m):
            seed = index * m + claim
            bob = BobEndpoint(agreement, BobScript(guess=0), seed)
            bob.handle_commit(commit)
            verdict = decode_message(bob.handle_reveal(encode_message(Reveal(claim, PARENT_S),
                                                                      digest)))
            outcome = bob.result.outcome_index
            p = np.abs(psi.amplitudes) ** 2
            assert outcome == np.random.default_rng(seed).choice(2 * m, p=p), (n, index, claim)
            assert outcome in support
            assert bob.result.accepted == verdict.accepted == (outcome == claim)
            verdicts.add(verdict.accepted)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n", [1, 4, 6])
def test_parent_b_verify_reads_the_pairs(monkeypatch, n):
    # a parent-B verify forms no measurement: it reads the revealed set's
    # pairs, and its outcome is the one the dense reveal measurement draws
    # with the same seed, reject outcome 2^n included
    agreement = build_reveal_agreement(SchemeParams.default(n))
    m = agreement.num_choices
    built = []
    original = MeasurementBasis.__post_init__
    monkeypatch.setattr(MeasurementBasis, "__post_init__",
                        lambda basis: built.append(basis) or original(basis))
    outcomes = []
    for seed in range(12):
        choice, element = (7 * seed) % m, (5 * seed + 1) % m
        claim = choice if seed % 2 else (choice + 1 + seed) % m
        state, commit = alice_commit(agreement, choice, element, rng=seed)
        state.record(Guess(0))
        state, _ = alice_reveal(state, claim)
        state, _, result = bob_verify(state, rng=seed)
        outcomes.append((claim == choice, result.outcome_index))
        assert result.accepted == (result.outcome_index < m)
        if claim == choice:
            assert result.accepted and result.recovered_element == element
    assert built == []
    for seed, (honest, outcome) in enumerate(outcomes):
        choice, element = (7 * seed) % m, (5 * seed + 1) % m
        claim = choice if honest else (choice + 1 + seed) % m
        dense = set_measurement(agreement, claim)
        dist = born_distribution(agreement.element(choice, element), dense)
        assert outcome == _draw_outcome(dist, seed)
    assert {outcome for _, outcome in outcomes} & {m}  # a cheat was rejected


def test_sessions_hash_the_descriptor_once(monkeypatch):
    # both endpoints of every session read the agreement's descriptor_hash:
    # one SHA-256 per agreement, on first use, not two per session
    calls = []
    real = scheme.scheme_hash
    monkeypatch.setattr(scheme, "scheme_hash", lambda params: calls.append(params) or real(params))
    agreement = build_reveal_agreement(SchemeParams.default(2))
    assert calls == []
    for seed, transport in enumerate(["in-process", "in-process", "tcp"]):
        result = run_session(agreement, AliceScript(choice=seed), BobScript(), seed, transport)
        assert result.verdict.accepted
    assert calls == [agreement.params]
    assert json.loads(result.transcript[0])["scheme_hash"] == real(agreement.params)


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
    # a verifier sends recovered 0..m-1 exactly when it accepts, null otherwise
    alice = AliceEndpoint(agreement, AliceScript(choice=0, element=0), 1)
    bob = BobEndpoint(agreement, BobScript(guess=0), 2)
    alice.handle_guess(bob.handle_commit(alice.commit_frame()))
    for accepted, recovered in ((True, 12345), (True, -1), (True, None), (False, 0)):
        before = snapshot(alice)
        with pytest.raises(ChoiceRangeError):
            alice.handle_verdict(encode_message(Verdict(accepted, recovered), digest))
        assert snapshot(alice) == before and alice.state.phase is Phase.REVEALED


#: Messages that do not belong to an n=2 agreement (m = 4, a 3-qubit
#: register), with the class the gate raises. ``wire`` is False for a value
#: that no frame decodes to: the decoder refuses a JSON bool choice and
#: cannot make a numpy integer.
GATED = [
    pytest.param("guess", Guess(-1), ChoiceRangeError, True, id="guess--1"),
    pytest.param("guess", Guess(4), ChoiceRangeError, True, id="guess-m"),
    pytest.param("guess", Guess(True), ChoiceRangeError, False, id="guess-bool"),
    pytest.param("guess", Guess(np.int64(0)), ChoiceRangeError, False, id="guess-int64"),
    pytest.param("reveal", Reveal(-1), ChoiceRangeError, True, id="reveal--1"),
    pytest.param("reveal", Reveal(4), ChoiceRangeError, True, id="reveal-m"),
    pytest.param("reveal", Reveal(True), ChoiceRangeError, False, id="reveal-bool"),
    pytest.param("reveal", Reveal(np.int64(0)), ChoiceRangeError, False, id="reveal-int64"),
    pytest.param("verdict", Verdict(True, 4), ChoiceRangeError, True, id="verdict-accept-m"),
    pytest.param("verdict", Verdict(True, None), ChoiceRangeError, True, id="verdict-accept-null"),
    pytest.param("verdict", Verdict(False, 0), ChoiceRangeError, True, id="verdict-reject-0"),
    pytest.param("commit", Commit(ket("0000")), AmplitudeCountError, True, id="commit-4-qubits"),
]


@pytest.mark.parametrize("kind, message, error, wire", GATED)
def test_one_gate_for_local_and_received_messages(monkeypatch, agreements, kind, message,
                                                  error, wire):
    # a bad message is refused with the same class whether the protocol step
    # makes it or a frame brings it to the endpoint, and neither route
    # records it or keeps its frame
    agreement = agreements[2]
    state = SessionState(agreement)
    if kind != "commit":
        state, _ = alice_commit(agreement, 1, 2, rng=1)
    if kind in ("reveal", "verdict"):
        state.record(Guess(0))
    if kind == "verdict":
        alice_reveal(state)
    before = list(state.transcript)
    with pytest.raises(error) as local:
        if kind == "reveal":
            alice_reveal(state, message.choice)
        else:
            state.record(message)
    assert type(local.value) is error and state.transcript == before

    endpoint, handler, honest = _receiver_of(agreement, kind)
    if wire:
        frame = encode_message(message, agreement.descriptor_hash)
    else:  # the frame the decoder turns into this message
        frame = honest
        monkeypatch.setattr(session_module, "decode_message", lambda data, expected: message)
    before = snapshot(endpoint)
    with pytest.raises(error) as received:
        handler(frame)
    assert type(received.value) is error and snapshot(endpoint) == before


def test_record_refuses_a_bad_parent_and_a_non_bool_accept(cointoss_agreement):
    # the gate refuses, with the decoder's class, what no frame decodes to:
    # a reveal of an unknown parent and a verdict whose accept flag is 1 or 0
    digest = cointoss_agreement.descriptor_hash
    state, _ = alice_commit(cointoss_agreement, 0, 1, rng=0)
    state.record(Guess(1))
    reveal = Reveal(0, "Q")
    with pytest.raises(FramingError, match="parent"):
        decode_message(encode_message(reveal, digest))
    before = list(state.transcript)
    with pytest.raises(FramingError, match="parent"):
        state.record(reveal)
    assert state.transcript == before and state.phase is Phase.GUESSED
    state.record(Reveal(0))
    before = list(state.transcript)
    for verdict in (Verdict(1, 0), Verdict(0, None)):
        with pytest.raises(FramingError, match="accept"):
            decode_message(encode_message(verdict, digest))
        with pytest.raises(FramingError, match="accept"):
            state.record(verdict)
        assert state.transcript == before and state.phase is Phase.REVEALED


def test_numpy_and_bool_scripts_are_refused_before_their_frame(cointoss_agreement):
    # a numpy or bool choice once went on the wire as a JSON error or a
    # "choice":true frame that the verifier refuses; the gate stops it first
    agreement = cointoss_agreement
    with pytest.raises(ChoiceRangeError):
        run_session(agreement, AliceScript(choice=np.int64(1)), BobScript(), 0)
    alice = AliceEndpoint(agreement, AliceScript(choice=np.int64(1)), 1)
    with pytest.raises(ChoiceRangeError):
        alice.commit_frame()
    assert snapshot(alice) == ([], None, None, None)
    bob = BobEndpoint(agreement, BobScript(guess=np.int64(1)), 2)
    commit = AliceEndpoint(agreement, AliceScript(choice=1), 1).commit_frame()
    with pytest.raises(ChoiceRangeError):
        bob.handle_commit(commit)
    assert bob.frames == [commit] and bob.state.phase is Phase.COMMITTED
    for claim in (True, np.int64(1)):
        alice = AliceEndpoint(agreement, AliceScript(choice=1, reveal_choice=claim), 1)
        guess = BobEndpoint(agreement, BobScript(guess=0), 2).handle_commit(alice.commit_frame())
        with pytest.raises(ChoiceRangeError):
            alice.handle_guess(guess)
        assert alice.frames[-1] == guess and alice.state.phase is Phase.GUESSED


def snapshot(endpoint):
    """What a refused frame must leave unchanged: frames, outcome, phase and
    the transcript of messages."""
    state = endpoint.state
    outcome = endpoint.result if isinstance(endpoint, BobEndpoint) else endpoint.verdict
    if state is None:
        return list(endpoint.frames), outcome, None, None
    return list(endpoint.frames), outcome, state.phase, list(state.transcript)


def test_endpoint_handlers_check_phase_first(cointoss_agreement):
    agreement = cointoss_agreement
    digest = scheme_hash(agreement.params)

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


def _commit_frame(amplitudes, digest: str) -> bytes:
    """A commit frame carrying ``amplitudes`` as given: no StateVector
    checks them before they go on the wire."""
    lines = [f"qubits={len(amplitudes).bit_length() - 1}"]
    lines += [f"{a.real:.17g} {a.imag:.17g}" for a in amplitudes]
    frame = {"v": WIRE_VERSION, "kind": "commit", "scheme_hash": digest,
             "state": "\n".join(lines) + "\n"}
    return json.dumps(frame, sort_keys=True, separators=(",", ":")).encode() + b"\n"


@pytest.mark.parametrize("parent", [PARENT_B, PARENT_S])
def test_near_unit_commits_are_wire_errors_or_verified(cointoss_agreement, parent):
    # a Born distribution sums to <psi|psi>: a commit scaled by 1 +- 0.8e-9
    # once decoded and then crashed the reveal's Born check, so it is refused
    # at the commit; one just inside the bound verifies without raising
    agreement = cointoss_agreement
    digest = scheme_hash(agreement.params)
    held = (agreement.element(0, 0) if parent == PARENT_B
            else computational_basis(4).vector(0)).amplitudes
    for scale in (1 + 0.8e-9, 1 - 0.8e-9):
        bob = BobEndpoint(agreement, BobScript(guess=0), 2)
        with pytest.raises(AmplitudeCountError) as raised:
            bob.handle_commit(_commit_frame(held * scale, digest))
        assert isinstance(raised.value, WireError)
        assert snapshot(bob) == ([], None, None, None)
    inside = 0.99 * ATOL / 2
    for norm2 in (1 + inside, 1 - inside):
        bob = BobEndpoint(agreement, BobScript(guess=0), 2)
        bob.handle_commit(_commit_frame(held * math.sqrt(norm2), digest))
        bob.handle_reveal(encode_message(Reveal(0, parent), digest))
        assert bob.result.accepted and bob.state.phase is Phase.VERIFIED


def _receiver_of(agreement, kind: str):
    """(endpoint, its handler, the honest frame) for the receiving handler of
    ``kind``, the endpoint in the phase that takes it."""
    alice = AliceEndpoint(agreement, AliceScript(choice=1, element=2), 1)
    bob = BobEndpoint(agreement, BobScript(guess=0), 2)
    frame = alice.commit_frame()
    if kind == "commit":
        return bob, bob.handle_commit, frame
    frame = bob.handle_commit(frame)
    if kind == "guess":
        return alice, alice.handle_guess, frame
    frame = alice.handle_guess(frame)
    if kind == "reveal":
        return bob, bob.handle_reveal, frame
    return alice, alice.handle_verdict, bob.handle_reveal(frame)


@pytest.mark.parametrize("kind", ["commit", "guess", "reveal", "verdict"])
def test_frames_of_another_kind_are_framing_errors(agreements, kind):
    # each receiving handler, in the phase that takes its kind, refuses a
    # well-formed frame of this scheme of any other kind and records nothing
    agreement = agreements[2]
    digest = agreement.descriptor_hash
    frames = {"commit": encode_message(Commit(agreement.element(1, 2)), digest),
              "guess": encode_message(Guess(0), digest),
              "reveal": encode_message(Reveal(1), digest),
              "verdict": encode_message(Verdict(True, 2), digest)}
    for other, frame in frames.items():
        if other == kind:
            continue
        endpoint, handler, _ = _receiver_of(agreement, kind)
        before = snapshot(endpoint)
        with pytest.raises(FramingError, match=f"expected a {kind} frame"):
            handler(frame)
        assert snapshot(endpoint) == before, other


def test_commit_of_another_register_size_is_amplitude_count_error(agreements):
    # an n=2 agreement commits 3 qubits: a commit of 2 or 4 is refused
    agreement = agreements[2]
    for qubits in (2, 4):
        bob, handle_commit, _ = _receiver_of(agreement, "commit")
        frame = encode_message(Commit(ket("0" * qubits)), agreement.descriptor_hash)
        with pytest.raises(AmplitudeCountError, match=f"carries {qubits} qubits"):
            handle_commit(frame)
        assert snapshot(bob) == ([], None, None, None)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=5,
)


@pytest.mark.parametrize("kind", ["commit", "guess", "reveal", "verdict"])
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_frames_are_taken_or_wire_errors(agreements, kind, data):
    endpoint, handler, frame = _receiver_of(agreements[2], kind)
    how = data.draw(st.sampled_from(["flip", "truncate", "field"]))
    if how == "flip":
        at = data.draw(st.integers(0, len(frame) - 1))
        mutated = frame[:at] + bytes([frame[at] ^ data.draw(st.integers(1, 255))]) + frame[at + 1:]
    elif how == "truncate":
        mutated = frame[:data.draw(st.integers(0, len(frame) - 1))]
    else:
        fields = json.loads(frame)
        key = data.draw(st.sampled_from(sorted(fields) + ["extra"]))
        # choices in and out of range; a verdict's recovered null or accept flipped
        fields[key] = data.draw(st.integers(-2, 6) | st.none() | st.booleans() | JSON_VALUES)
        mutated = json.dumps(fields).encode() + b"\n"
    before = snapshot(endpoint)
    try:
        handler(mutated)
    except WireError:
        assert snapshot(endpoint) == before
    else:  # a frame taken is a valid in-range message
        m = agreements[2].num_choices
        choices = [msg.choice for msg in endpoint.state.transcript if isinstance(msg, (Guess, Reveal))]
        assert all(0 <= choice < m for choice in choices)
        for verdict in endpoint.state.transcript[3:]:  # recovered in range exactly on accept
            assert (verdict.recovered_element in range(m) if verdict.accepted
                    else verdict.recovered_element is None)


def test_frame_limit_fits_every_frame(agreements):
    rng = np.random.default_rng(3)
    larger = {n: build_reveal_agreement(SchemeParams.default(n)) for n in (5, 6)}
    for n, agreement in {**agreements, **larger}.items():
        limit = frame_limit(agreement.params)
        digest = scheme_hash(agreement.params)
        longest = len(encode_message(Commit(random_state(n + 1, rng)), digest))
        # every choice up to n=4, an even sample of 16 beyond
        for choice in range(0, agreement.num_choices, max(1, agreement.num_choices // 16)):
            for alice in (
                AliceScript(choice=choice),
                AliceScript(choice=choice, reveal_choice=(choice + 1) % agreement.num_choices),
                AliceScript(choice=choice, parent=PARENT_S),
            ):
                result = run_session(agreement, alice, BobScript(), seed=choice)
                longest = max(longest, *map(len, result.transcript))
        assert longest < limit, (n, longest, limit)


@pytest.mark.parametrize("n", [5, 6])
def test_sessions_past_n4(n):
    # honest sessions recover the element in process and over TCP (reads
    # bounded by frame_limit); cheating reveals pass half the time
    agreement = build_reveal_agreement(SchemeParams.default(n))
    m = agreement.num_choices
    rng = np.random.default_rng(n)
    for transport in ("in-process", "tcp"):
        for _ in range(8):
            c, k = (int(x) for x in rng.integers(m, size=2))
            result = run_session(agreement, AliceScript(choice=c, element=k), BobScript(),
                                 seed=int(rng.integers(2**31)), transport=transport)
            assert result.verdict.accepted
            assert result.verification.outcome_index == result.verification.recovered_element == k
    cheats, accepted = 400, 0
    for seed in range(cheats):
        c = int(rng.integers(m))
        claim = (c + 1 + int(rng.integers(m - 1))) % m
        result = run_session(agreement, AliceScript(choice=c, reveal_choice=claim), BobScript(), seed)
        accepted += result.verdict.accepted
        if not result.verdict.accepted:
            assert result.verification.outcome_index == m  # the reject outcome
    assert abs(accepted / cheats - 0.5) <= 5 * np.sqrt(0.25 / cheats)


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
    assert limit == 128 * 4 + 1024 == 1536
    bob = BobEndpoint(cointoss_agreement, BobScript(), 0)
    error = _serve_raw_peer(bob, hello + b"{" * (limit + 1))
    assert isinstance(error, FramingError) and "exceeds" in str(error)
    assert bob.frames == [] and bob.state is None
    # a line of exactly the limit, its newline included, reaches the decoder
    bob = BobEndpoint(cointoss_agreement, BobScript(), 0)
    error = _serve_raw_peer(bob, hello + b"{" * (limit - 1) + b"\n")
    assert isinstance(error, FramingError) and "not a JSON line" in str(error)
    assert bob.frames == [] and bob.state is None
    # a hello cut short is still a handshake failure
    bob = BobEndpoint(cointoss_agreement, BobScript(), 0)
    assert isinstance(_serve_raw_peer(bob, hello[:20]), HandshakeError)


def _trickle(conn: socket.socket, data: bytes, stop: threading.Event) -> None:
    """Send ``data`` one byte every 20 ms until ``stop`` is set or the
    peer hangs up."""
    try:
        for byte in data:
            if stop.wait(0.02):
                return
            conn.sendall(bytes([byte]))
    except OSError:
        return


#: The session deadline the two trickle tests patch in, and the time past it
#: that the endpoint may take to give up; a valid hello trickled at 20 ms a
#: byte takes about 1.9 s, so a timeout per read would hold far longer.
TRICKLE_DEADLINE_S, TRICKLE_MARGIN_S = 0.3, 0.5


def test_trickling_alice_meets_the_session_deadline(monkeypatch, cointoss_agreement):
    # every byte of a valid hello comes well within any timeout per read, but
    # the verifier gives up at the one deadline of the session, with no verdict
    monkeypatch.setattr(session_module, "SESSION_DEADLINE_S", TRICKLE_DEADLINE_S)
    bob = BobEndpoint(cointoss_agreement, BobScript(), 0)
    stop = threading.Event()
    listener = socket.create_server(("127.0.0.1", 0))
    with socket.create_connection(listener.getsockname(), timeout=5) as conn:
        hello = hello_frame(scheme_hash(cointoss_agreement.params))
        thread = threading.Thread(target=_trickle, args=(conn, hello, stop))
        thread.start()
        start = time.monotonic()
        try:
            with pytest.raises(TimeoutError):
                serve_session(bob, listener)
            elapsed = time.monotonic() - start
        finally:
            stop.set()
            thread.join()
    assert elapsed < TRICKLE_DEADLINE_S + TRICKLE_MARGIN_S, elapsed
    assert bob.frames == [] and bob.state is None and bob.result is None


def test_trickling_bob_meets_the_session_deadline(monkeypatch, cointoss_agreement):
    # the same for the committing side against a verifier that trickles its hello
    monkeypatch.setattr(session_module, "SESSION_DEADLINE_S", TRICKLE_DEADLINE_S)
    alice = AliceEndpoint(cointoss_agreement, AliceScript(choice=0), 0)
    stop = threading.Event()
    with socket.create_server(("127.0.0.1", 0)) as listener:
        def trickling_bob():
            conn, _ = listener.accept()
            with conn:
                _trickle(conn, hello_frame(scheme_hash(cointoss_agreement.params)), stop)

        thread = threading.Thread(target=trickling_bob)
        thread.start()
        start = time.monotonic()
        try:
            with pytest.raises(TimeoutError):
                connect_session(alice, *listener.getsockname())
            elapsed = time.monotonic() - start
        finally:
            stop.set()
            thread.join()
    assert elapsed < TRICKLE_DEADLINE_S + TRICKLE_MARGIN_S, elapsed
    assert alice.frames == [] and alice.state is None and alice.verdict is None


def test_hello_cut_before_newline_is_handshake_error(cointoss_agreement):
    # a peer that sends its hello without the newline and stops writing
    # fails the handshake, not the commit read after it
    hello = hello_frame(scheme_hash(cointoss_agreement.params))
    bob = BobEndpoint(cointoss_agreement, BobScript(), 0)
    error = _serve_raw_peer(bob, hello[:-1])
    assert isinstance(error, HandshakeError) and "hello" in str(error)
    assert bob.frames == [] and bob.state is None
    with pytest.raises(HandshakeError, match="hello frame does not end in a newline"):
        parse_hello(hello[:-1])


@pytest.mark.parametrize("kind", ["commit", "guess", "reveal", "verdict"])
def test_frame_cut_before_newline_is_framing_error(agreements, kind):
    # a frame without its newline is refused before it is decoded or
    # recorded, so a transcript keeps one frame per line
    endpoint, handler, frame = _receiver_of(agreements[2], kind)
    before = snapshot(endpoint)
    with pytest.raises(FramingError, match="newline"):
        handler(frame[:-1])
    assert snapshot(endpoint) == before
    handler(frame)
    assert endpoint.frames[-1 if kind == "verdict" else -2] == frame


def test_served_reveal_cut_before_newline_is_framing_error(cointoss_agreement):
    # a peer that sends the reveal without its newline and stops writing
    agreement = cointoss_agreement
    alice = AliceEndpoint(agreement, AliceScript(choice=1, element=0), 1)
    twin = BobEndpoint(agreement, BobScript(guess=0), 2)
    commit = alice.commit_frame()
    guess = twin.handle_commit(commit)
    reveal = alice.handle_guess(guess)
    bob = BobEndpoint(agreement, BobScript(guess=0), 2)
    hello = hello_frame(scheme_hash(agreement.params))
    assert isinstance(_serve_raw_peer(bob, hello + commit + reveal[:-1]), FramingError)
    assert bob.frames == [commit, guess] and bob.result is None
    assert bob.state.phase is Phase.GUESSED


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


#: SHA-256 of the frames and VerificationResult reprs of the sessions of
#: ``test_transcripts_pinned``; a change to any seeded session moves it.
TRANSCRIPT_PIN = "7d5f7ab5c30c49934f6d2ce5888b3db014329010fea3e44dd13e320ef86c0f18"


def test_transcripts_pinned():
    # 240 sessions: n = 1..6 with default masks, seeds 0..9, and parent B
    # honest (drawn choice and element), B cheating, S honest, S cheating
    digest = hashlib.sha256()
    for n in range(1, 7):
        agreement = build_reveal_agreement(SchemeParams.default(n))
        m = agreement.num_choices
        for seed in range(10):
            c, claim = seed % m, (seed + 1) % m
            for script in (AliceScript(), AliceScript(choice=c, reveal_choice=claim),
                           AliceScript(choice=c, parent=PARENT_S),
                           AliceScript(choice=c, parent=PARENT_S, reveal_choice=claim)):
                result = run_session(agreement, script, BobScript(), seed)
                digest.update(b"".join(result.transcript))
                digest.update(repr(result.verification).encode())
    assert digest.hexdigest() == TRANSCRIPT_PIN


def test_run_session_random_scripts_deterministic(cointoss_agreement):
    a = run_session(cointoss_agreement, AliceScript(), BobScript(), seed=123)
    b = run_session(cointoss_agreement, AliceScript(), BobScript(), seed=123)
    assert a.transcript == b.transcript


PROC_NET_TCP = Path("/proc/net/tcp")


def loopback_time_waits() -> int:
    """TCP sockets in TIME_WAIT (state 06) with an end on 127.0.0.1."""
    with open(PROC_NET_TCP) as table:
        rows = [line.split() for line in table.readlines()[1:]]
    return sum(row[3] == "06" and (row[1].startswith("0100007F:") or row[2].startswith("0100007F:"))
               for row in rows)


def test_handshake_mismatch_aborts(cointoss_agreement):
    other = build_reveal_agreement(SchemeParams.default(2))
    before = loopback_time_waits() if PROC_NET_TCP.exists() else None
    for transport in ["in-process"] + ["tcp"] * 25:
        with pytest.raises(HandshakeError):
            run_session(
                cointoss_agreement,
                AliceScript(choice=0),
                BobScript(),
                seed=1,
                transport=transport,
                bob_agreement=other,
            )
    # an aborted TCP session ends in a reset too, with no TIME_WAIT left
    if before is not None:
        assert loopback_time_waits() - before < 20


@pytest.mark.skipif(not PROC_NET_TCP.exists(), reason="no /proc/net/tcp to count TIME_WAITs")
def test_tcp_sessions_leave_no_time_wait(cointoss_agreement):
    # a graceful close leaves one TIME_WAIT socket per session on the
    # listener's port for 60 s; Alice's abortive close leaves none
    scripts = (AliceScript(), AliceScript(choice=0, reveal_choice=1),
               AliceScript(choice=1, parent=PARENT_S))
    before = loopback_time_waits()
    for seed in range(200):
        run_session(cointoss_agreement, scripts[seed % 3], BobScript(), seed, "tcp")
    assert loopback_time_waits() - before < 20


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
            state.record(Guess(0))
            state, _ = alice_reveal(state, claim=claim)
            state, _, result = bob_verify(state, rng=rng)
            ok = ok and result.accepted
        survived += ok
    sigma = np.sqrt(0.25 / blocks)
    assert abs(survived / blocks - 0.5) <= 3 * sigma
