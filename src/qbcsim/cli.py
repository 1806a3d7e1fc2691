"""Command-line front end.

Subcommands:

* ``cointoss``: the two-player coin-toss game, one in-process session
  on the preset n=1 instance, scripted or interactive; its moves are
  read as a session's are, and a parent-S reveal is refused.
* ``audit``: run every structural invariant of an agreement.
* ``analyze``: the full security battery, human-readable or JSON to
  stdout and JSON to a file.
* ``session``: one side of a two-process TCP session.

Exit codes (the README's copy of this table names the test or CI step
that holds each row):

==== ==================================================================
code when
==== ==================================================================
0    ``cointoss`` finishes; ``audit`` passes every check; ``analyze``
     finishes with every Monte Carlo row consistent; ``session``: the
     reveal is accepted, on both sides
1    ``session``: the reveal is rejected, on both sides
1    ``audit``: a check fails, ``mask-validity`` included when the
     scheme flags name no valid scheme
1    ``analyze``: a Monte Carlo flag, an estimate more than three
     standard errors from its exact value, or off an exact 0 or 1; the
     flagged rows are named on stderr and stdout keeps the whole report
2    usage: a line ``qbcsim: error: ...`` on stderr and nothing on
     stdout (the cases are listed below)
2    handshake: the peers' scheme hashes differ
2    wire: a malformed frame, a frame line over the limit, a frame of
     another kind than the phase expects (as a guess where a commit is
     due), a choice outside 0..2^n - 1, or a commit that is not a valid
     state of the agreement's register
2    socket: a refused connection, a port that cannot be bound, a peer
     that does not connect within 30 s, or a session whose frames are not
     all read 30 s after its connect or accept, however the peer sends them
2    closed stdout: its reader has gone, as with
     ``qbcsim analyze | head -1``; the run prints nothing more, no
     traceback either
==== ==================================================================

Usage errors: an unknown flag or value; scheme flags that name no valid
scheme (such as ``--preset paper-cointoss``, the n=1 scheme, with any
other --n), which ``audit`` instead reports as a failed check; a negative
--seed, a --trials outside 0..``MAX_TRIALS`` (5 000 000, under 300 MB of
samples), a --port outside 0..65535; a move file that cannot be read, has
a line without ``=``, gives a key twice, names no choice, names both
choice and toss, names an element with parent S or names a key or parent
that does not exist; a cointoss move file with parent S; end of input at a
cointoss prompt; and an ``--out`` path that cannot be written (checked
before any report is computed or frame exchanged; the file is written
only after a run that finishes, so one that aborts leaves an existing
file as it was).
The audit is deterministic and takes no seed; every other subcommand
draws all its randomness from --seed (default 0), and identical
invocations produce byte-identical output. No environment variables are
read.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import os
import socket
import sys
from typing import NoReturn

import numpy as np

from .analysis import WRONG_COUPLING_KEYS, run_full_analysis
from .quantum import StateVector, ket_string
from .scheme import (
    MAX_N,
    PRESET_DEFAULT_MASKS,
    PRESET_PAPER_COINTOSS,
    RevealAgreement,
    SchemeParams,
    audit_scheme,
    build_reveal_agreement,
    descriptor_text,
)
from .session import (
    PARENT_B,
    PARENT_S,
    AliceEndpoint,
    AliceScript,
    BobEndpoint,
    BobScript,
    Commit,
    Guess,
    HandshakeError,
    Reveal,
    Verdict,
    WireError,
    connect_session,
    decode_message,
    run_session,
    serve_session,
    session_rngs,
    write_transcript,
)

#: Fixed bijection for the coin-toss demo; the head row is listed first.
COIN_NAMES = ("head", "tail")


def resolve_params(args: argparse.Namespace) -> SchemeParams:
    """Mask list wins over preset; bare --n falls back to default masks. The
    paper preset names the n=1 scheme, so any other --n with it names none."""
    if args.masks is not None:
        return SchemeParams(args.n, args.masks)
    if args.preset == PRESET_PAPER_COINTOSS:
        if args.n != 1:
            raise ValueError(f"preset {PRESET_PAPER_COINTOSS} is the n=1 scheme, got --n {args.n}")
        return SchemeParams.paper_cointoss()
    return SchemeParams.default(args.n)


def _usage_error(message: str) -> NoReturn:
    """Report a usage error as argparse reports one: a line on stderr, exit code 2."""
    print(f"qbcsim: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _check_out(path: str | None) -> None:
    """A usage error unless the ``--out`` path can be written.

    Subcommands call it before any work, so a bad path costs no report and
    no frame. It opens the file for appending, which creates a missing one
    and leaves an existing one as it is until the run has finished.
    """
    if path:
        try:
            open(path, "ab").close()
        except OSError as exc:
            _usage_error(f"--out: {exc}")


def _agreement(args: argparse.Namespace) -> RevealAgreement:
    """The agreement the scheme flags name; flags that name none are a usage error."""
    try:
        params = resolve_params(args)
    except ValueError as exc:
        _usage_error(str(exc))
    return build_reveal_agreement(params)


def parse_moves(lines) -> dict:
    """key=value move lines -> dict; blank lines and # comments skipped, and
    a key given twice refused."""
    moves = {}
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"malformed move line: {raw!r}")
        key = key.strip()
        if key in moves:
            raise ValueError(f"move key {key!r} given twice")
        moves[key] = value.strip()
    return moves


def _read_moves(path: str) -> dict:
    """The move file at ``path``; one that cannot be read or parsed is a usage error."""
    try:
        with open(path) as fh:
            return parse_moves(fh)
    except (OSError, ValueError) as exc:
        _usage_error(f"move file: {exc}")


def _session_scripts(moves: dict, count: int) -> tuple[AliceScript, BobScript]:
    """Scripts for ``count`` choices, head and tail read in any case; an
    unknown key, parent or choice, both choice and toss, or an element with
    parent S is a usage error (exit 2). Moves left out are drawn from the
    session seed."""

    def index_token(token, names=()):
        if token.lower() in names:
            return names.index(token.lower())
        try:
            value = int(token) if token.isdecimal() else count
        except ValueError:  # more digits than int() converts
            value = count
        if value >= count:
            _usage_error(f"move value {token!r} is not in 0..{count - 1}")
        return value

    unknown = moves.keys() - {"choice", "toss", "element", "reveal", "parent", "guess"}
    if unknown:
        _usage_error(f"unknown move keys {sorted(unknown)}")
    alice = AliceScript(parent=moves.get("parent", PARENT_B))
    if alice.parent not in (PARENT_B, PARENT_S):
        _usage_error(f"move value {alice.parent!r} is not a parent ({PARENT_B} or {PARENT_S})")
    if "choice" in moves and "toss" in moves:
        _usage_error("a move file names choice or toss, not both")
    if "choice" in moves or "toss" in moves:
        alice.choice = index_token(moves.get("choice", moves.get("toss")), COIN_NAMES)
    if moves.get("element", "random") != "random":
        if alice.parent == PARENT_S:
            _usage_error(f"a parent-{PARENT_S} commit has no element to pick")
        alice.element = index_token(moves["element"])
    if "reveal" in moves:
        alice.reveal_choice = index_token(moves["reveal"], COIN_NAMES)
    bob = BobScript()
    if "guess" in moves:
        bob.guess = index_token(moves["guess"], COIN_NAMES)
    return alice, bob


# --- cointoss --------------------------------------------------------------


def cmd_cointoss(args: argparse.Namespace, out=None) -> int:
    out = out or sys.stdout
    agreement = build_reveal_agreement(SchemeParams.paper_cointoss())
    _check_out(args.out)  # before the prompts and the game
    if args.script:
        moves = _read_moves(args.script)
    else:
        try:
            moves = {
                "toss": input("Alice, toss the coin (head/tail): ").strip(),
                "guess": input("Bob, guess the toss (head/tail): ").strip(),
            }
            reveal = input("Alice, reveal (empty = honest, or head/tail to cheat): ").strip()
        except EOFError:
            _usage_error("end of input before every move was given")
        if reveal:
            moves["reveal"] = reveal
    alice, bob = _session_scripts(moves, agreement.num_choices)
    if alice.parent == PARENT_S:  # the game narrates parent-B products
        _usage_error(f"the coin toss reveals with parent {PARENT_B}, not {PARENT_S}")

    print(f"scheme n=1 preset={PRESET_PAPER_COINTOSS} seed={args.seed}", file=out)
    result = run_session(agreement, alice, bob, args.seed)
    for frame in result.transcript:
        message = decode_message(frame)
        if isinstance(message, Commit):
            print("Commit: Alice sends one element of her tossed outcome's set", file=out)
        elif isinstance(message, Guess):
            guess = message.choice
            print(f"Guess: Bob guesses {COIN_NAMES[guess]}", file=out)
        elif isinstance(message, Reveal):
            revealed = message.choice
            print(
                f"Reveal: Alice reveals {COIN_NAMES[message.choice]}"
                f" (parent {message.parent})",
                file=out,
            )
        elif isinstance(message, Verdict):
            outcome = result.verification.outcome_index
            status = "accepted" if message.accepted else "rejected"
            landed = "outside every valid product"  # the reject outcome 2^n
            if message.accepted:  # element (x) reveal state: Bob's valid product
                n = agreement.params.num_bob_qubits
                landed = ket_string(StateVector(2 * n + 1, np.kron(
                    agreement.element(revealed, outcome).amplitudes, agreement.reveals[revealed])))
            print(f"Verdict: {status}, outcome {outcome} -> {landed}", file=out)
            if message.recovered_element is not None:
                print(f"recovered element: {message.recovered_element}", file=out)
    bob_wins = result.verdict.accepted and guess == revealed
    print(f"Bob wins: {'yes' if bob_wins else 'no'}", file=out)
    if args.out:
        write_transcript(args.out, result.transcript)
    return 0


# --- audit ------------------------------------------------------------------


def cmd_audit(args: argparse.Namespace, out=None) -> int:
    out = out or sys.stdout
    try:
        params = resolve_params(args)
    except ValueError as exc:
        print(f"check mask-validity: fail ({exc})", file=out)
        print("result: fail", file=out)
        return 1
    print(descriptor_text(params).rstrip("\n"), file=out)
    checks = audit_scheme(params)
    failed = 0
    for check in checks:
        status = "pass" if check.passed else "fail"
        suffix = f" ({check.detail})" if check.detail and not check.passed else ""
        print(f"check {check.name}: {status}{suffix}", file=out)
        failed += not check.passed
    print(f"result: {'pass' if failed == 0 else 'fail'} ({len(checks) - failed}/{len(checks)})", file=out)
    return 0 if failed == 0 else 1


# --- analyze -----------------------------------------------------------------

#: The keys of a wrong-coupling row in the order ``sort_keys`` writes them.
_ROW_KEYS = sorted(WRONG_COUPLING_KEYS)
_row_values = operator.itemgetter(*_ROW_KEYS)
#: One wrong-coupling row as ``json.dumps(..., sort_keys=True, indent=2)``
#: writes it inside the top-level report; ``%r`` is ``int.__repr__`` and
#: ``float.__repr__``, the encoder's number formats.
_WRONG_COUPLING_ROW = ("    {\n"
                       + ",\n".join(f"      {json.dumps(key)}: %r" for key in _ROW_KEYS)
                       + "\n    }")


def report_json(report: dict) -> str:
    """``json.dumps(report, sort_keys=True, indent=2)``, byte for byte.

    The pure-Python indenting encoder takes most of an n=6 report on its
    m^2 (m - 1) wrong-coupling rows, so those are formatted with one template
    each and spliced in where the encoder wrote a placeholder for them.
    """
    placeholder = "\0wrong_coupling"  # escaped by the encoder, so no other value matches
    text = json.dumps({**report, "wrong_coupling": placeholder}, sort_keys=True, indent=2)
    rows = ",\n".join([_WRONG_COUPLING_ROW % _row_values(row) for row in report["wrong_coupling"]])
    return text.replace(json.dumps(placeholder), f"[\n{rows}\n  ]" if rows else "[]", 1)


def _mc_suffix(row: dict) -> str:
    """A sampled row's Monte Carlo columns; nothing for an exact-only row."""
    return f"  mc {row['estimate']:.6g} +- {row['stderr']:.2g}" if "estimate" in row else ""


def _render_report(report: dict, out) -> None:
    scheme = report["scheme"]
    print(
        f"scheme: n={scheme['n']} masks={','.join(scheme['masks'])}"
        + (f" preset={scheme['preset']}" if scheme["preset"] else ""),
        file=out,
    )
    print(f"seed: {report['seed']}  trials: {report['trials']}", file=out)

    print("alice-cheat acceptance (exact):", file=out)
    for row in report["alice_cheat"]:
        p = row["parameters"]
        print(f"  commit {p['c_true']} reveal {p['c_claimed']}: {row['exact']:.12g}"
              + _mc_suffix(row), file=out)

    print("block-cheat fidelity:", file=out)
    for row in report["block_fidelity"]:
        print(f"  K={row['parameters']['K']}: {row['exact']:.12g}" + _mc_suffix(row), file=out)

    print("wrong-coupling valid mass:", file=out)
    for row in report["wrong_coupling"]:
        print(
            f"  held {row['held_choice']}[{row['element']}]"
            f" coupled {row['coupled_choice']}: {row['valid_mass']:.12g}",
            file=out,
        )

    print("premature strategies:", file=out)
    for row in report["strategies"]:
        print(f"  {row['scenario']}: {row['exact']:.12g}" + _mc_suffix(row), file=out)

    disc = report["discrimination"]
    print(f"discrimination (chance {disc['chance']:.12g}):", file=out)
    for row in disc["helstrom_pairs"]:
        print(f"  helstrom {row['a']} vs {row['b']}: {row['bound']:.12g}", file=out)
    print(f"  pgm uniform priors: {disc['pgm_uniform']:.12g}", file=out)

    print("parent-S sweep:", file=out)
    for row in report["s_protocol"]:
        print(f"  p_S={row['parameters']['p_S']:.1f}: {row['exact']:.12g}" + _mc_suffix(row),
              file=out)


def cmd_analyze(args: argparse.Namespace, out=None) -> int:
    out = out or sys.stdout
    agreement = _agreement(args)
    _check_out(args.out)
    report = run_full_analysis(agreement, args.trials, args.seed)
    text = report_json(report) if args.json_out or args.out else None
    if args.json_out:
        print(text, file=out)
    else:
        _render_report(report, out)
    if args.out:
        with open(args.out, "w") as fh:
            print(text, file=fh)
    failed = []
    for section in ("alice_cheat", "block_fidelity", "strategies", "s_protocol"):
        for row in report[section]:
            if row.get("consistent") is False:
                failed.append(row["scenario"])
    if failed:
        print("inconsistent monte carlo: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


# --- session -----------------------------------------------------------------


def cmd_session(args: argparse.Namespace, out=None) -> int:
    out = out or sys.stdout
    agreement = _agreement(args)
    moves = _read_moves(args.script) if args.script else {}
    alice_script, bob_script = _session_scripts(moves, agreement.num_choices)
    alice_rng, bob_rng = session_rngs(args.seed)
    _check_out(args.out)  # before the handshake, so a bad path exchanges no frame
    try:
        if args.role == "bob":
            endpoint = BobEndpoint(agreement, bob_script, bob_rng)
            listener = socket.create_server(("127.0.0.1", args.port))
            print(f"listening port={listener.getsockname()[1]}", file=out, flush=True)
            result = serve_session(endpoint, listener)
            outcome = f" outcome={result.outcome_index}"
        else:
            endpoint = AliceEndpoint(agreement, alice_script, alice_rng)
            result = connect_session(endpoint, "127.0.0.1", args.port)
            outcome = ""  # the verdict frame carries no outcome
    except HandshakeError as exc:
        print(f"handshake failed: {exc}", file=out)
        return 2
    except (WireError, OSError) as exc:  # refused, timed out, or failed to bind
        print(f"session aborted: {type(exc).__name__}: {exc}", file=out)
        return 2
    print(f"verdict: {'accepted' if result.accepted else 'rejected'}{outcome}"
          f" recovered={result.recovered_element}", file=out)
    if args.out:
        write_transcript(args.out, endpoint.frames)
    return 0 if result.accepted else 1


# --- argument parsing ---------------------------------------------------------


def hex_mask(token: str) -> int:
    return int(token, 16)


#: Largest ``--trials``. The samplers hold their whole integer draws and a
#: bool per trial; the rest of their per-row work runs in blocks. Peak RSS of
#: ``analyze --json`` measured 39 / 61 / 179 MB at 0 / 10^6 / 5 x 10^6 trials
#: for n = 1 and 42 / 66 / 181 MB for n = 4, about 28 bytes per trial at the
#: cap, where the parent-S sweep sets the peak; so the cap keeps a run under
#: 300 MB, as CI checks.
MAX_TRIALS = 5_000_000


def trial_count(token: str) -> int:
    value = int(token)
    if not 0 <= value <= MAX_TRIALS:
        raise argparse.ArgumentTypeError(f"trial count {value} is not in 0..{MAX_TRIALS}")
    return value


def seed_value(token: str) -> int:
    value = int(token)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed {value} is negative")
    return value


def port_number(token: str) -> int:
    value = int(token)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"port {value} is not in 0..65535")
    return value


def _add_scheme_flags(parser):
    parser.add_argument("--n", type=int, default=1, help=f"receiver qubit count (1..{MAX_N})")
    parser.add_argument(
        "--preset",
        choices=[PRESET_PAPER_COINTOSS, PRESET_DEFAULT_MASKS],
        help="named scheme instance",
    )
    parser.add_argument(
        "--masks",
        nargs="+",
        type=hex_mask,
        help="explicit pairing masks as hex (overrides --preset)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps its
    results in a new namespace per call, so the parser holds no state."""
    parser = argparse.ArgumentParser(
        prog="qbcsim",
        description="commitment-scheme simulator and analysis lab",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    cointoss = sub.add_parser("cointoss", help="play the n=1 coin-toss game")
    cointoss.add_argument("--seed", type=seed_value, default=0)
    cointoss.add_argument("--script", help="move file with toss=/guess=/reveal= lines")
    cointoss.add_argument("--out", help="write the transcript here")

    audit = sub.add_parser("audit", help="run the structural invariants")
    _add_scheme_flags(audit)

    analyze = sub.add_parser("analyze", help="run the security battery")
    _add_scheme_flags(analyze)
    analyze.add_argument("--seed", type=seed_value, default=0)
    analyze.add_argument("--trials", type=trial_count, default=0)
    analyze.add_argument("--out", help="write the JSON report here")
    analyze.add_argument("--json", action="store_true", dest="json_out")

    session = sub.add_parser("session", help="one side of a two-process TCP session")
    _add_scheme_flags(session)
    session.add_argument("--role", choices=["alice", "bob"], required=True)
    session.add_argument("--port", type=port_number, default=0)
    session.add_argument("--seed", type=seed_value, default=0)
    session.add_argument("--script", help="move file (choice=/guess=/reveal=/parent=)")
    session.add_argument("--out", help="write the transcript here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "cointoss": cmd_cointoss,
        "audit": cmd_audit,
        "analyze": cmd_analyze,
        "session": cmd_session,
    }
    try:
        code = handlers[args.subcommand](args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
    except BrokenPipeError:
        # the reader of stdout has gone, as with ``| head -1``: an I/O failure.
        # Output still buffered would fail again at exit, so it goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
