"""Two-party commit/guess/reveal/verify session machinery.

The session walks a fixed phase ladder::

    Init -> Committed -> Guessed -> Revealed -> {Verified | Rejected}

Alice commits one element of the set bound to her choice (or, in the
reduced-qubit variant, the computational basis state bound to it); Bob
records a classical guess; Alice reveals the choice (honestly or not)
plus the parent-set indicator; Bob measures onto the 2^n valid products
of the revealed choice plus one reject outcome, accepting only valid
outcomes (on Alice's register, read from the set's pairs, see
``bob_verify``). Both endpoints name the agreement by its
``descriptor_hash``, computed once per agreement.

Messages travel as newline-delimited JSON frames: a frame is one line
ending in a newline, and a line cut off at end of stream is a
FramingError. The quantum channel is simulated by serializing the full
amplitude vector into the commit frame; a physical run would transmit
qubits instead. The commit frame carries no choice, element, or parent
fields -- those appear on the wire only from the reveal frame onward.
Every message, made locally or received, passes one gate,
``SessionState.record``, so no protocol step makes a message that a
verifier refuses, and an endpoint adds only the byte-level checks.

One driver runs the handshake and the protocol steps, in the calling
thread, for whichever endpoints run in this process, over in-memory
queues or a socket. A session seed is spawned into one RNG stream per
party (alice - child 0, bob - child 1), so in-process, TCP loopback and
two-process sessions given the same seed emit byte-identical transcripts.
"""

from __future__ import annotations

import enum
import io
import json
import socket
import struct
import time
from collections import deque
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .quantum import (
    StateVector,
    _draw_outcome,
    as_generator,
    born_distribution,
    computational_basis,
    state_from_text,
    state_to_text,
)
from .scheme import RevealAgreement, SchemeParams

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
    """Message, received or made locally, names a choice that is not an int
    in 0..2^n - 1, or a recovered element that does not fit its verdict."""


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
    except ValueError as exc:  # bad UTF-8 or JSON, or an integer past Python's digit limit
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
    if not data.endswith(b"\n"):  # as every protocol frame must
        raise HandshakeError("hello frame does not end in a newline")
    try:
        frame = json.loads(data.decode())
        if (frame["kind"] != "hello" or type(frame["v"]) is not int or frame["v"] != WIRE_VERSION
                or type(frame["scheme_hash"]) is not str):
            raise KeyError("kind")
        return frame["scheme_hash"]
    except (ValueError, KeyError, TypeError):  # ValueError: bad UTF-8 or JSON, or too many digits
        raise HandshakeError("peer did not send a valid hello frame") from None


# --- session state, its one gate, and the protocol steps -----------------


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


#: Message kinds in protocol order, and the phase after 0..3 of them.
_ORDER = (Commit, Guess, Reveal, Verdict)
_PHASES = (Phase.INIT, Phase.COMMITTED, Phase.GUESSED, Phase.REVEALED)


@dataclass
class SessionState:
    """Omniscient view of one session (both parties' knowledge); the phase,
    the held commitment and the reveal are read from the transcript."""

    agreement: RevealAgreement
    alice_private: AlicePrivate | None = None
    transcript: list = field(default_factory=list)  # ordered Message list

    @property
    def phase(self) -> Phase:
        """Init, Committed, Guessed or Revealed after 0-3 recorded messages;
        Verified or Rejected after the verdict."""
        if len(self.transcript) < len(_PHASES):
            return _PHASES[len(self.transcript)]
        return Phase.VERIFIED if self.transcript[-1].accepted else Phase.REJECTED

    def expect(self, kind: type) -> None:
        """PhaseError unless a ``kind`` message is the next in protocol order."""
        received = len(self.transcript)
        if received == len(_ORDER) or _ORDER[received] is not kind:
            raise PhaseError(f"a {kind.__name__.lower()} is out of phase in {self.phase.value}")

    def record(self, message: Message) -> Message:
        """Append and return ``message`` if it is the next in protocol order
        (else PhaseError) and of this agreement: a choice an int in 0..m - 1,
        a recovered element one on accept and None on reject (else
        ChoiceRangeError), a commit of its register (else AmplitudeCountError),
        a reveal's parent B or S and a verdict's accept flag a bool (else
        FramingError, as the decoder refuses their frames)."""
        kind = type(message)
        self.expect(kind)
        if kind is Reveal and message.parent not in (PARENT_B, PARENT_S):
            raise FramingError(f"unknown parent indicator {message.parent!r}")
        if kind is Verdict and type(message.accepted) is not bool:
            raise FramingError(f"accept flag must be a bool, got {message.accepted!r}")
        if kind is Guess or kind is Reveal:
            _check_choice(f"{kind.__name__.lower()} choice", message.choice, self.agreement)
        elif kind is Verdict and message.accepted:
            _check_choice("recovered element", message.recovered_element, self.agreement)
        elif kind is Verdict and message.recovered_element is not None:
            raise ChoiceRangeError(f"a reject recovers null, not {message.recovered_element!r}")
        elif kind is Commit and message.state.num_qubits != self.agreement.params.num_alice_qubits:
            raise AmplitudeCountError(f"commit carries {message.state.num_qubits} qubits, "
                                      f"agreement needs {self.agreement.params.num_alice_qubits}")
        self.transcript.append(message)
        return message


def _check_choice(what: str, choice, agreement: RevealAgreement) -> None:
    """ChoiceRangeError unless ``choice`` is an int (as on the wire) in 0..m - 1."""
    if type(choice) is not int or not 0 <= choice < agreement.num_choices:
        raise ChoiceRangeError(f"{what} {choice!r} is not an int in 0..{agreement.num_choices - 1}")


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
    the choice instead (reduced-qubit variant), which has no element to
    pick: ``element`` must then be None.
    """
    params = agreement.params
    _check_choice("choice", choice, agreement)
    if parent == PARENT_B:
        if element is None:
            element = int(as_generator(rng).integers(params.num_choices))
        payload = agreement.element(choice, element)
    elif parent == PARENT_S:
        if element is not None:
            raise ValueError(f"a parent-S commit has no element to pick, got {element}")
        element = choice
        payload = computational_basis(2**params.num_alice_qubits).vector(choice)
    else:
        raise ValueError(f"unknown parent indicator {parent!r}")
    state = SessionState(agreement, AlicePrivate(choice, element, parent))
    return state, state.record(Commit(payload))


def alice_reveal(state: SessionState, claim: int | None = None) -> tuple[SessionState, Reveal]:
    """Publish the (claimed) choice and parent set.

    ``claim`` defaults to the honest committed choice; passing a different
    choice models a cheating reveal. ``record`` checks the claim.
    """
    private = state.alice_private
    if private is None:
        raise PhaseError("session has no commitment to reveal")
    return state, state.record(Reveal(private.choice if claim is None else claim, private.parent))


def bob_verify(state: SessionState, *, rng) -> tuple[SessionState, Verdict, VerificationResult]:
    """Measure, and accept iff the outcome is a valid product.

    Parent B: Bob measures the held state onto the 2^n elements of the
    revealed set plus one reject outcome, his coupled measurement onto the
    valid products e_{c,k} (x) G_c, as <e (x) G_c|psi (x) G_c> = <e|psi>.
    The distribution is read from the set's pairs in O(m)
    (``RevealAgreement.measurement_distribution``), with no dense row and
    no (2n+1)-qubit product formed.
    Parent S: Bob measures the held state in the computational basis and
    accepts only the outcome bound to the revealed choice.
    Either way one uniform draws the outcome (``_draw_outcome``). The held
    state and the reveal are the transcript's commit and reveal.
    """
    state.expect(Verdict)
    commit, _, reveal = state.transcript
    psi = commit.state
    if reveal.parent == PARENT_B:  # every element of the set, then reject
        dist = state.agreement.measurement_distribution(reveal.choice, psi)
        valid = range(state.agreement.num_choices)
    else:  # only the basis state bound to the revealed choice
        dist = born_distribution(psi, computational_basis(psi.dimension))
        valid = (reveal.choice,)
    outcome = _draw_outcome(dist, rng)
    accepted = outcome in valid
    recovered = outcome if accepted else None
    result = VerificationResult(accepted, outcome, recovered)
    return state, state.record(Verdict(accepted, recovered)), result


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


class _Endpoint:
    """One party's frame-level side: its session state, its RNG stream and
    every frame it sent or received, in order."""

    def __init__(self, agreement: RevealAgreement, script: AliceScript | BobScript, rng):
        self.agreement = agreement
        self.script = script
        self.rng = as_generator(rng)
        self.state: SessionState | None = None
        self.frames: list[bytes] = []

    def _receive(self, frame: bytes, kind: type) -> Message:
        """Decode a frame that must carry a ``kind`` message, and record it.
        PhaseError, before anything is decoded, unless a ``kind`` message is
        next, then FramingError unless the frame is one line ending in a
        newline; nothing is recorded on any error."""
        state = SessionState(self.agreement) if self.state is None else self.state
        state.expect(kind)
        if not frame.endswith(b"\n"):  # a line cut off at end of stream
            raise FramingError("frame does not end in a newline")
        message = decode_message(frame, self.agreement.descriptor_hash)
        if not isinstance(message, kind):
            raise FramingError(f"expected a {kind.__name__.lower()} frame")
        state.record(message)
        self.state = state
        self.frames.append(frame)
        return message

    def _send(self, message: Message) -> bytes:
        frame = encode_message(message, self.agreement.descriptor_hash)
        self.frames.append(frame)
        return frame


class AliceEndpoint(_Endpoint):
    """Frame-level driver for the committing side."""

    verdict: Verdict | None = None

    def commit_frame(self) -> bytes:
        if self.state is not None:
            raise PhaseError(f"already committed, session is in {self.state.phase.value}")
        choice = self.script.choice
        if choice is None:
            choice = int(self.rng.integers(self.agreement.params.num_choices))
        self.state, message = alice_commit(self.agreement, choice, self.script.element,
                                           rng=self.rng, parent=self.script.parent)
        return self._send(message)

    def handle_guess(self, frame: bytes) -> bytes:
        self._receive(frame, Guess)
        _, reveal = alice_reveal(self.state, self.script.reveal_choice)
        return self._send(reveal)

    def handle_verdict(self, frame: bytes) -> Verdict:
        self.verdict = self._receive(frame, Verdict)
        return self.verdict


class BobEndpoint(_Endpoint):
    """Frame-level driver for the verifying side."""

    result: VerificationResult | None = None

    def handle_commit(self, frame: bytes) -> bytes:
        self._receive(frame, Commit)
        guess = self.script.guess
        if guess is None:
            guess = int(self.rng.integers(self.agreement.params.num_choices))
        return self._send(self.state.record(Guess(guess)))

    def handle_reveal(self, frame: bytes) -> bytes:
        self._receive(frame, Reveal)
        _, verdict, self.result = bob_verify(self.state, rng=self.rng)
        return self._send(verdict)


# --- the session driver -----------------------------------------------------


@dataclass(frozen=True)
class SessionResult:
    """Transcript (ordered frames, verbatim) plus the verifier's outcome."""

    transcript: tuple[bytes, ...]
    verdict: Verdict
    verification: VerificationResult | None


class _Link(NamedTuple):
    """One endpoint's end of a frame channel."""

    send: Callable[[bytes], object]
    read: Callable[[], bytes]


def _drive(alice: AliceEndpoint | None = None, alice_link: _Link | None = None,
           bob: BobEndpoint | None = None, bob_link: _Link | None = None) -> None:
    """Run the hello exchange and then the protocol, step by step in order,
    for the endpoints that run in this process (None for a remote peer)."""
    local = [(end, link) for end, link in ((alice, alice_link), (bob, bob_link)) if end]
    for endpoint, link in local:
        link.send(hello_frame(endpoint.agreement.descriptor_hash))
    for endpoint, link in local:
        if parse_hello(link.read()) != endpoint.agreement.descriptor_hash:
            raise HandshakeError("scheme descriptor hashes differ")
    if alice:
        alice_link.send(alice.commit_frame())
    if bob:
        bob_link.send(bob.handle_commit(bob_link.read()))
    if alice:
        alice_link.send(alice.handle_guess(alice_link.read()))
    if bob:
        bob_link.send(bob.handle_reveal(bob_link.read()))
    if alice:
        alice.handle_verdict(alice_link.read())


def frame_limit(params: SchemeParams) -> int:
    """Longest line, newline included, that an endpoint reads from a socket:
    128 bytes per commit amplitude (a full-precision one takes at most 51)
    plus 1024 for the other fields."""
    return 128 * 2**params.num_alice_qubits + 1024


#: Seconds a socket session may take from its connect or accept to its last
#: read, whatever the peer sends; past it the next read is a TimeoutError.
SESSION_DEADLINE_S = 30


class _DeadlineReader(io.RawIOBase):
    """The read side of a socket, ending ``SESSION_DEADLINE_S`` after it is
    made: each recv may take only the time left, so a peer that trickles
    bytes cannot hold a session past it."""

    def __init__(self, conn: socket.socket):
        self.conn, self.deadline = conn, time.monotonic() + SESSION_DEADLINE_S

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError(f"session took longer than {SESSION_DEADLINE_S} s")
        self.conn.settimeout(left)
        return self.conn.recv_into(buffer)


@contextmanager
def _socket_link(conn: socket.socket, endpoint: _Endpoint) -> Iterator[_Link]:
    """A link over a connected socket, closed on exit, whose reads end at
    the session deadline. A line that reaches the frame limit without its
    newline is a FramingError, so a peer cannot stream an endless line."""
    limit = frame_limit(endpoint.agreement.params)
    with conn, io.BufferedReader(_DeadlineReader(conn)) as reader:
        conn.settimeout(SESSION_DEADLINE_S)  # for the sends before the first read

        def read() -> bytes:
            line = reader.readline(limit)
            if len(line) == limit and not line.endswith(b"\n"):
                raise FramingError(f"frame line exceeds {limit} bytes")
            return line

        yield _Link(conn.sendall, read)


#: SO_LINGER value {l_onoff=1, l_linger=0}: close() resets the connection.
_ABORT_ON_CLOSE = struct.pack("ii", 1, 0)


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
    """Run both endpoints of one session through the driver, in the
    calling thread.

    ``transport`` is "in-process" (two frame queues) or "tcp" (a loopback
    socket pair; frames are at most ``frame_limit`` bytes, far below a
    socket buffer, so no send waits for a read). ``bob_agreement`` lets
    tests configure a mismatched verifier; the handshake then fails with
    HandshakeError.

    Over TCP, Alice's end is closed first and abortively (SO_LINGER on,
    zero timeout, so the close sends RST), and the listener is bound to
    port 0 without SO_REUSEADDR. A graceful close would leave one
    TIME_WAIT socket on the listener's port for 60 s per session, and
    the port-0 bind of a SO_REUSEADDR socket slows past a millisecond
    among thousands of them. The reset loses nothing only because both
    ends live in this process and the driver has read every frame before
    any close (or has raised, which aborts the session anyway);
    ``serve_session`` and ``connect_session`` face another process that
    may still be reading, and close gracefully.
    """
    alice_rng, bob_rng = session_rngs(seed)
    alice = AliceEndpoint(agreement, alice_script, alice_rng)
    bob = BobEndpoint(bob_agreement or agreement, bob_script, bob_rng)
    if transport == "in-process":
        to_alice, to_bob = deque(), deque()
        _drive(alice, _Link(to_bob.append, to_alice.popleft),
               bob, _Link(to_alice.append, to_bob.popleft))
    elif transport == "tcp":
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen()
            with (
                socket.create_connection(listener.getsockname(),
                                         timeout=SESSION_DEADLINE_S) as alice_conn,
                _socket_link(listener.accept()[0], bob) as bob_link,
                _socket_link(alice_conn, alice) as alice_link,
            ):
                alice_conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, _ABORT_ON_CLOSE)
                _drive(alice, alice_link, bob, bob_link)
    else:
        raise ValueError(f"unknown transport {transport!r}")
    return SessionResult(tuple(bob.frames), alice.verdict, bob.result)


def serve_session(bob: BobEndpoint, listener: socket.socket) -> VerificationResult:
    """Accept one connection on ``listener`` and run the verifier side
    through the session driver, the committing peer remote."""
    with listener:
        listener.settimeout(SESSION_DEADLINE_S)
        conn, _ = listener.accept()
    with _socket_link(conn, bob) as link:
        _drive(bob=bob, bob_link=link)
    return bob.result


def connect_session(alice: AliceEndpoint, host: str, port: int) -> Verdict:
    """Connect to a waiting verifier and run the committing side through
    the session driver, the verifying peer remote."""
    conn = socket.create_connection((host, port), timeout=SESSION_DEADLINE_S)
    with _socket_link(conn, alice) as link:
        _drive(alice=alice, alice_link=link)
    return alice.verdict


def write_transcript(path, frames) -> None:
    """Persist ordered frames verbatim, one per line."""
    with open(path, "wb") as fh:
        for frame in frames:
            fh.write(frame)
