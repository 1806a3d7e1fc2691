"""Two-party commit/guess/reveal/verify session machinery.

The session walks a fixed phase ladder::

    Init -> Committed -> Guessed -> Revealed -> {Verified | Rejected}

Alice commits one element of the set bound to her choice (or, in the
reduced-qubit variant, the computational basis state bound to it); Bob
records a classical guess; Alice reveals the choice (honestly or not)
plus the parent-set indicator; Bob couples his reveal state and measures
onto the 2^n valid products of the revealed choice plus one reject
outcome, accepting only valid outcomes.

Messages travel as newline-delimited JSON frames. The quantum channel is
simulated by serializing the full amplitude vector into the commit frame;
a physical run would transmit qubits instead. The commit frame carries no
choice, element, or parent fields -- those appear on the wire only from
the reveal frame onward.

Sessions are reproducible: a session seed is spawned into one RNG stream
per party (alice - child 0, bob - child 1), so the in-process driver, the
TCP loopback driver, and two separate processes given the same seed all
emit byte-identical transcripts.
"""

from __future__ import annotations

import enum
import json
import socket
import threading
from dataclasses import dataclass, field

import numpy as np

from .quantum import (
    StateVector,
    as_generator,
    computational_basis,
    index_to_bits,
    make_basis_state,
    measure,
    state_from_text,
    state_to_text,
    tensor,
)
from .scheme import RevealAgreement, SchemeParams, scheme_hash

WIRE_VERSION = 1

PARENT_B = "B"
PARENT_S = "S"


class WireError(ValueError):
    """Base class for frame decoding failures."""


class FramingError(WireError):
    """Frame is not a well-formed protocol message."""


class VersionMismatchError(WireError):
    """Frame was produced by an incompatible wire version."""


class AmplitudeCountError(WireError):
    """Commit payload does not carry 2^n amplitudes."""


class SchemeMismatchError(WireError):
    """Frame belongs to a different initial agreement."""


class ChoiceRangeError(WireError):
    """Frame names a choice outside 0..2^n - 1 of this agreement."""


class PhaseError(RuntimeError):
    """Operation attempted outside its protocol phase."""


class HandshakeError(RuntimeError):
    """Endpoints disagree on the scheme descriptor."""


class Phase(enum.Enum):
    INIT = "Init"
    COMMITTED = "Committed"
    GUESSED = "Guessed"
    REVEALED = "Revealed"
    VERIFIED = "Verified"
    REJECTED = "Rejected"


# --- messages ------------------------------------------------------------


@dataclass(frozen=True)
class Commit:
    state: StateVector


@dataclass(frozen=True)
class Guess:
    choice: int


@dataclass(frozen=True)
class Reveal:
    choice: int
    parent: str = PARENT_B


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    recovered_element: int | None


Message = Commit | Guess | Reveal | Verdict

_KINDS = {"commit": Commit, "guess": Guess, "reveal": Reveal, "verdict": Verdict}


def encode_message(message: Message, scheme_hash_hex: str) -> bytes:
    """Serialize a message into one JSON frame line."""
    frame: dict = {"v": WIRE_VERSION, "scheme_hash": scheme_hash_hex}
    if isinstance(message, Commit):
        frame["kind"] = "commit"
        frame["state"] = state_to_text(message.state)
    elif isinstance(message, Guess):
        frame["kind"] = "guess"
        frame["choice"] = message.choice
    elif isinstance(message, Reveal):
        frame["kind"] = "reveal"
        frame["choice"] = message.choice
        frame["parent"] = message.parent
    elif isinstance(message, Verdict):
        frame["kind"] = "verdict"
        frame["accept"] = message.accepted
        frame["recovered"] = message.recovered_element
    else:
        raise TypeError(f"not a protocol message: {message!r}")
    return json.dumps(frame, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def _typed_field(frame: dict, key: str, kind: type, optional: bool = False):
    """``frame[key]``, exactly of ``kind`` (or None if ``optional``); no coercion."""
    value = frame[key]
    if type(value) is not kind and not (optional and value is None):
        raise FramingError(f"field {key!r} must be a JSON {kind.__name__}, got {value!r}")
    return value


def decode_message(data: bytes, expected_scheme_hash: str | None = None) -> Message:
    """Parse one frame line back into a message.

    The version, choice and recovered fields must be JSON integers, the
    commit state a JSON string and ``accept`` a JSON bool. Raises
    FramingError / VersionMismatchError / AmplitudeCountError /
    SchemeMismatchError on malformed, stale, or foreign frames.
    """
    try:
        frame = json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FramingError(f"frame is not a JSON line: {exc}") from None
    if not isinstance(frame, dict) or "kind" not in frame or "v" not in frame:
        raise FramingError("frame lacks 'v' or 'kind'")
    if type(frame["v"]) is not int or frame["v"] != WIRE_VERSION:
        raise VersionMismatchError(f"wire version {frame['v']} != {WIRE_VERSION}")
    if expected_scheme_hash is not None and frame.get("scheme_hash") != expected_scheme_hash:
        raise SchemeMismatchError("frame scheme hash does not match this agreement")
    kind = frame["kind"]
    try:
        if kind == "commit":
            text = _typed_field(frame, "state", str)
            try:
                state = state_from_text(text)
            except ValueError as exc:
                raise AmplitudeCountError(str(exc)) from None
            return Commit(state)
        if kind == "guess":
            return Guess(_typed_field(frame, "choice", int))
        if kind == "reveal":
            parent = frame["parent"]
            if parent not in (PARENT_B, PARENT_S):
                raise FramingError(f"unknown parent indicator {parent!r}")
            return Reveal(_typed_field(frame, "choice", int), parent)
        if kind == "verdict":
            recovered = _typed_field(frame, "recovered", int, optional=True)
            return Verdict(_typed_field(frame, "accept", bool), recovered)
    except KeyError as exc:
        raise FramingError(f"frame missing field {exc}") from None
    raise FramingError(f"unknown frame kind {kind!r}")


def hello_frame(scheme_hash_hex: str) -> bytes:
    """Handshake frame; transport-level, never part of the transcript."""
    frame = {"v": WIRE_VERSION, "kind": "hello", "scheme_hash": scheme_hash_hex}
    return json.dumps(frame, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def parse_hello(data: bytes) -> str:
    try:
        frame = json.loads(data.decode())
        if frame["kind"] != "hello" or frame["v"] != WIRE_VERSION:
            raise KeyError("kind")
        return frame["scheme_hash"]
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError):
        raise HandshakeError("peer did not send a valid hello frame") from None


# --- session state and the four protocol operations ----------------------


@dataclass(frozen=True)
class AlicePrivate:
    choice: int
    element: int
    parent: str = PARENT_B


@dataclass(frozen=True)
class VerificationResult:
    """Bob's measurement outcome and what it decided.

    For parent B, ``outcome_index`` k < 2^n is valid product k and
    ``outcome_index == 2^n`` a rejection outside every valid product; for
    parent S it is the computational-basis outcome of the held state.
    """

    accepted: bool
    outcome_index: int
    recovered_element: int | None


@dataclass
class SessionState:
    """Omniscient view of one session (both parties' knowledge)."""

    agreement: RevealAgreement
    phase: Phase = Phase.INIT
    alice_private: AlicePrivate | None = None
    bob_held: StateVector | None = None
    guess: int | None = None
    revealed: Reveal | None = None
    transcript: list = field(default_factory=list)  # ordered Message list

    @property
    def scheme(self) -> SchemeParams:
        return self.agreement.params


def _require_phase(state: SessionState, expected: Phase):
    if state.phase is not expected:
        raise PhaseError(f"operation requires phase {expected.value}, session is in {state.phase.value}")


def alice_commit(
    agreement: RevealAgreement,
    choice: int,
    element: int | None = None,
    *,
    rng,
    parent: str = PARENT_B,
) -> tuple[SessionState, Commit]:
    """Open a session by committing one state bound to ``choice``.

    ``element`` picks the set element; None draws uniformly. With
    ``parent="S"`` the payload is the computational basis state bound to
    the choice instead (reduced-qubit variant).
    """
    params = agreement.params
    if not 0 <= choice < params.num_choices:
        raise ValueError(f"choice {choice} out of range")
    if parent == PARENT_B:
        if element is None:
            element = int(as_generator(rng).integers(params.num_choices))
        if not 0 <= element < params.num_choices:
            raise ValueError(f"element index {element} out of range")
        payload = agreement.sets[choice].elements[element]
    elif parent == PARENT_S:
        element = choice
        payload = make_basis_state(index_to_bits(choice, params.num_alice_qubits))
    else:
        raise ValueError(f"unknown parent indicator {parent!r}")
    state = SessionState(agreement)
    state.alice_private = AlicePrivate(choice, element, parent)
    state.bob_held = payload
    message = Commit(payload)
    state.transcript.append(message)
    state.phase = Phase.COMMITTED
    return state, message


def bob_guess(state: SessionState, guess: int) -> tuple[SessionState, Guess]:
    """Record Bob's classical guess of the committed choice."""
    _require_phase(state, Phase.COMMITTED)
    if not 0 <= guess < state.scheme.num_choices:
        raise ValueError(f"guess {guess} out of range")
    state.guess = guess
    message = Guess(guess)
    state.transcript.append(message)
    state.phase = Phase.GUESSED
    return state, message


def alice_reveal(state: SessionState, claim: int | None = None) -> tuple[SessionState, Reveal]:
    """Publish the (claimed) choice and parent set.

    ``claim`` defaults to the honest committed choice; passing a different
    choice models a cheating reveal.
    """
    _require_phase(state, Phase.GUESSED)
    private = state.alice_private
    if private is None:
        raise PhaseError("session has no commitment to reveal")
    choice = private.choice if claim is None else claim
    if not 0 <= choice < state.scheme.num_choices:
        raise ValueError(f"claimed choice {choice} out of range")
    message = Reveal(choice, private.parent)
    state.revealed = message
    state.transcript.append(message)
    state.phase = Phase.REVEALED
    return state, message


def bob_verify(state: SessionState, *, rng) -> tuple[SessionState, Verdict, VerificationResult]:
    """Couple, measure, and accept iff the outcome is a valid product.

    Parent B: Bob generates the reveal state for the revealed choice,
    tensors it onto the held state, and measures onto the 2^n valid
    products of that choice plus one reject outcome.
    Parent S: Bob measures the held state in the computational basis and
    accepts only the outcome bound to the revealed choice.
    """
    _require_phase(state, Phase.REVEALED)
    reveal = state.revealed
    agreement = state.agreement
    if state.bob_held is None:
        raise PhaseError("no committed state held")
    if reveal.parent == PARENT_B:
        basis = agreement.bases[reveal.choice]
        product = tensor(state.bob_held, agreement.reveal_states[reveal.choice].state)
        outcome = measure(product, basis, rng)
        accepted = outcome in basis.valid_outcomes
    else:
        basis = computational_basis(state.bob_held.dimension)
        outcome = measure(state.bob_held, basis, rng)
        accepted = outcome == reveal.choice
    recovered = outcome if accepted else None
    result = VerificationResult(accepted, outcome, recovered)
    message = Verdict(accepted, recovered)
    state.transcript.append(message)
    state.phase = Phase.VERIFIED if accepted else Phase.REJECTED
    return state, message, result


# --- scripted endpoints ---------------------------------------------------


@dataclass
class AliceScript:
    """Behaviour of the committing party; None fields are drawn uniformly."""

    choice: int | None = None
    element: int | None = None
    parent: str = PARENT_B
    reveal_choice: int | None = None  # set to cheat; None reveals honestly


@dataclass
class BobScript:
    """Behaviour of the verifying party."""

    guess: int | None = None


#: The phase an endpoint must be in to take a frame of each kind.
_RECEIVED_IN = {Commit: Phase.INIT, Guess: Phase.COMMITTED,
                Reveal: Phase.GUESSED, Verdict: Phase.REVEALED}


def _receive(endpoint, frame: bytes, kind: type) -> Message:
    """Decode a frame that must carry a ``kind`` message of this agreement,
    with any choice it names in range; PhaseError, before anything is
    decoded or recorded, unless the endpoint is in the phase that takes it."""
    phase = Phase.INIT if endpoint.state is None else endpoint.state.phase
    if phase is not _RECEIVED_IN[kind]:
        raise PhaseError(f"a {kind.__name__.lower()} frame is out of phase in {phase.value}")
    message = decode_message(frame, endpoint.scheme_hash)
    if not isinstance(message, kind):
        raise FramingError(f"expected a {kind.__name__.lower()} frame")
    m = endpoint.agreement.params.num_choices
    if isinstance(message, (Guess, Reveal)) and not 0 <= message.choice < m:
        raise ChoiceRangeError(f"{kind.__name__.lower()} choice {message.choice} not in 0..{m - 1}")
    return message


class AliceEndpoint:
    """Frame-level driver for the committing side."""

    def __init__(self, agreement: RevealAgreement, script: AliceScript, rng):
        self.agreement = agreement
        self.script = script
        self.rng = as_generator(rng)
        self.scheme_hash = scheme_hash(agreement.params)
        self.state: SessionState | None = None
        self.frames: list[bytes] = []
        self.verdict: Verdict | None = None

    def commit_frame(self) -> bytes:
        if self.state is not None:
            raise PhaseError(f"already committed, session is in {self.state.phase.value}")
        choice = self.script.choice
        if choice is None:
            choice = int(self.rng.integers(self.agreement.params.num_choices))
        self.state, message = alice_commit(
            self.agreement,
            choice,
            self.script.element,
            rng=self.rng,
            parent=self.script.parent,
        )
        frame = encode_message(message, self.scheme_hash)
        self.frames.append(frame)
        return frame

    def handle_guess(self, frame: bytes) -> bytes:
        message = _receive(self, frame, Guess)
        self.frames.append(frame)
        bob_guess(self.state, message.choice)
        _, reveal = alice_reveal(self.state, self.script.reveal_choice)
        out = encode_message(reveal, self.scheme_hash)
        self.frames.append(out)
        return out

    def handle_verdict(self, frame: bytes) -> Verdict:
        message = _receive(self, frame, Verdict)
        self.frames.append(frame)
        self.verdict = message
        self.state.phase = Phase.VERIFIED if message.accepted else Phase.REJECTED
        return message


class BobEndpoint:
    """Frame-level driver for the verifying side."""

    def __init__(self, agreement: RevealAgreement, script: BobScript, rng):
        self.agreement = agreement
        self.script = script
        self.rng = as_generator(rng)
        self.scheme_hash = scheme_hash(agreement.params)
        self.state: SessionState | None = None
        self.frames: list[bytes] = []
        self.result: VerificationResult | None = None

    def handle_commit(self, frame: bytes) -> bytes:
        message = _receive(self, frame, Commit)
        expected = self.agreement.params.num_alice_qubits
        if message.state.num_qubits != expected:
            raise AmplitudeCountError(
                f"commit carries {message.state.num_qubits} qubits, agreement needs {expected}"
            )
        self.frames.append(frame)
        self.state = SessionState(self.agreement)
        self.state.bob_held = message.state
        self.state.transcript.append(message)
        self.state.phase = Phase.COMMITTED
        guess = self.script.guess
        if guess is None:
            guess = int(self.rng.integers(self.agreement.params.num_choices))
        _, guess_message = bob_guess(self.state, guess)
        out = encode_message(guess_message, self.scheme_hash)
        self.frames.append(out)
        return out

    def handle_reveal(self, frame: bytes) -> bytes:
        message = _receive(self, frame, Reveal)
        self.frames.append(frame)
        self.state.revealed = message
        self.state.transcript.append(message)
        self.state.phase = Phase.REVEALED
        _, verdict, result = bob_verify(self.state, rng=self.rng)
        self.result = result
        out = encode_message(verdict, self.scheme_hash)
        self.frames.append(out)
        return out


# --- session drivers ------------------------------------------------------


@dataclass(frozen=True)
class SessionResult:
    """Transcript (ordered frames, verbatim) plus the verifier's outcome."""

    transcript: tuple[bytes, ...]
    verdict: Verdict
    verification: VerificationResult | None


def session_rngs(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Per-party RNG streams spawned from one session seed (alice, bob)."""
    alice_ss, bob_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(alice_ss), np.random.default_rng(bob_ss)


def run_session(
    agreement: RevealAgreement,
    alice_script: AliceScript,
    bob_script: BobScript,
    seed: int,
    transport: str = "in-process",
    *,
    bob_agreement: RevealAgreement | None = None,
) -> SessionResult:
    """Drive one full session over the chosen transport.

    ``transport`` is "in-process" or "tcp" (loopback socket pair inside
    this process). ``bob_agreement`` lets tests configure a mismatched
    verifier; the handshake then fails with HandshakeError.
    """
    alice_rng, bob_rng = session_rngs(seed)
    alice = AliceEndpoint(agreement, alice_script, alice_rng)
    bob = BobEndpoint(bob_agreement or agreement, bob_script, bob_rng)
    if transport == "in-process":
        if alice.scheme_hash != bob.scheme_hash:
            raise HandshakeError("scheme descriptor hashes differ")
        guess = bob.handle_commit(alice.commit_frame())
        reveal = alice.handle_guess(guess)
        verdict_frame = bob.handle_reveal(reveal)
        alice.handle_verdict(verdict_frame)
        return SessionResult(tuple(bob.frames), alice.verdict, bob.result)
    if transport == "tcp":
        return _run_tcp_loopback(alice, bob)
    raise ValueError(f"unknown transport {transport!r}")


def _run_tcp_loopback(alice: AliceEndpoint, bob: BobEndpoint) -> SessionResult:
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    bob_error: list[Exception] = []

    def serve():
        try:
            serve_session(bob, listener)
        except Exception as exc:  # surfaced after join
            bob_error.append(exc)

    thread = threading.Thread(target=serve)
    thread.start()
    alice_error = None
    try:
        connect_session(alice, "127.0.0.1", port)
    except Exception as exc:
        alice_error = exc
    thread.join(timeout=30)
    if bob_error:
        raise bob_error[0]
    if alice_error:
        raise alice_error
    return SessionResult(tuple(bob.frames), alice.verdict, bob.result)


def frame_limit(params: SchemeParams) -> int:
    """Longest line, newline included, that an endpoint reads from a socket:
    128 bytes per commit amplitude (a full-precision one takes at most 51)
    plus 1024 for the other fields."""
    return 128 * 2**params.num_alice_qubits + 1024


def _read_frame(endpoint, reader) -> bytes:
    """One frame line, refused with FramingError once it reaches the frame
    limit without its newline, so a peer cannot stream an endless line."""
    limit = frame_limit(endpoint.agreement.params)
    line = reader.readline(limit)
    if len(line) == limit and not line.endswith(b"\n"):
        raise FramingError(f"frame line exceeds {limit} bytes")
    return line


def serve_session(bob: BobEndpoint, listener: socket.socket) -> VerificationResult:
    """Accept one connection on ``listener`` and run the verifier side."""
    with listener:
        listener.settimeout(30)
        conn, _ = listener.accept()
        conn.settimeout(30)
        with conn, conn.makefile("rb") as reader, conn.makefile("wb") as writer:
            writer.write(hello_frame(bob.scheme_hash))
            writer.flush()
            peer_hash = parse_hello(_read_frame(bob, reader))
            if peer_hash != bob.scheme_hash:
                raise HandshakeError("scheme descriptor hashes differ")
            writer.write(bob.handle_commit(_read_frame(bob, reader)))
            writer.flush()
            writer.write(bob.handle_reveal(_read_frame(bob, reader)))
            writer.flush()
    return bob.result


def connect_session(alice: AliceEndpoint, host: str, port: int) -> Verdict:
    """Connect to a waiting verifier and run the committing side."""
    with socket.create_connection((host, port), timeout=30) as conn:
        with conn.makefile("rb") as reader, conn.makefile("wb") as writer:
            writer.write(hello_frame(alice.scheme_hash))
            writer.flush()
            peer_hash = parse_hello(_read_frame(alice, reader))
            if peer_hash != alice.scheme_hash:
                raise HandshakeError("scheme descriptor hashes differ")
            writer.write(alice.commit_frame())
            writer.flush()
            reveal = alice.handle_guess(_read_frame(alice, reader))
            writer.write(reveal)
            writer.flush()
            return alice.handle_verdict(_read_frame(alice, reader))


def write_transcript(path, frames) -> None:
    """Persist ordered frames verbatim, one per line."""
    with open(path, "wb") as fh:
        for frame in frames:
            fh.write(frame)
