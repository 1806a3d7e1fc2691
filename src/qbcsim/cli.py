"""Command-line front end.

Subcommands:

* ``cointoss``: the two-player coin-toss game on the preset n=1
  instance, scripted or interactive.
* ``audit``: run every structural invariant of an agreement; nonzero
  exit on any failure.
* ``analyze``: the full security battery, human-readable to stdout and
  JSON to a file.
* ``session``: one side of a two-process TCP session; exits 0 when the
  reveal is accepted, 1 when it is rejected, and 2 on a failed handshake
  or a malformed or out-of-phase frame.

All randomness flows from --seed (default 0); identical invocations
produce byte-identical output. No environment variables are read.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
from dataclasses import dataclass

from .analysis import run_full_analysis
from .quantum import ket_string
from .scheme import (
    PRESET_DEFAULT_MASKS,
    PRESET_PAPER_COINTOSS,
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
    PhaseError,
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


@dataclass
class RunConfig:
    """Parsed invocation; every field explicit, nothing from the environment."""

    subcommand: str
    n: int = 1
    preset: str | None = None
    masks: tuple[int, ...] | None = None
    seed: int = 0
    trials: int = 0
    out: str | None = None
    json_out: bool = False
    role: str | None = None
    port: int = 0
    script: str | None = None


def resolve_params(config: RunConfig) -> SchemeParams:
    """Mask list wins over preset; bare --n falls back to default masks."""
    if config.masks is not None:
        return SchemeParams(config.n, config.masks)
    if config.preset == PRESET_PAPER_COINTOSS:
        return SchemeParams.paper_cointoss()
    return SchemeParams.default(config.n)


def _parse_coin(token: str) -> int:
    token = token.strip().lower()
    if token in COIN_NAMES:
        return COIN_NAMES.index(token)
    raise ValueError(f"expected head or tail, got {token!r}")


def parse_moves(lines) -> dict:
    """key=value move lines -> dict; blank lines and # comments skipped."""
    moves = {}
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"malformed move line: {raw!r}")
        moves[key.strip()] = value.strip()
    return moves


# --- cointoss --------------------------------------------------------------


def cmd_cointoss(config: RunConfig, out=None) -> int:
    out = out or sys.stdout
    params = SchemeParams.paper_cointoss()
    agreement = build_reveal_agreement(params)
    if config.script:
        with open(config.script) as fh:
            moves = parse_moves(fh)
    else:
        moves = {
            "toss": input("Alice, toss the coin (head/tail): "),
            "guess": input("Bob, guess the toss (head/tail): "),
        }
        reveal = input("Alice, reveal (empty = honest, or head/tail to cheat): ").strip()
        if reveal:
            moves["reveal"] = reveal
    try:
        toss = _parse_coin(moves["toss"])
        guess = _parse_coin(moves["guess"])
        reveal_choice = _parse_coin(moves["reveal"]) if "reveal" in moves else None
        element = None
        if moves.get("element", "random") != "random":
            element = int(moves["element"])
    except (KeyError, ValueError) as exc:
        print(f"bad script: {exc}", file=out)
        return 2

    print(f"scheme n=1 preset={PRESET_PAPER_COINTOSS} seed={config.seed}", file=out)
    alice = AliceScript(choice=toss, element=element, reveal_choice=reveal_choice)
    bob = BobScript(guess=guess)
    result = run_session(agreement, alice, bob, config.seed)
    for frame in result.transcript:
        message = decode_message(frame)
        if isinstance(message, Commit):
            print("Commit: Alice sends one element of her tossed outcome's set", file=out)
        elif isinstance(message, Guess):
            print(f"Guess: Bob guesses {COIN_NAMES[message.choice]}", file=out)
        elif isinstance(message, Reveal):
            print(
                f"Reveal: Alice reveals {COIN_NAMES[message.choice]}"
                f" (parent {message.parent})",
                file=out,
            )
        elif isinstance(message, Verdict):
            outcome = result.verification.outcome_index
            status = "accepted" if message.accepted else "rejected"
            landed = "outside every valid product"  # the reject outcome 2^n
            if message.accepted:
                landed = ket_string(agreement.bases[_revealed(result)].vector(outcome))
            print(f"Verdict: {status}, outcome {outcome} -> {landed}", file=out)
            if message.recovered_element is not None:
                print(f"recovered element: {message.recovered_element}", file=out)
    revealed = _revealed(result)
    bob_wins = result.verdict.accepted and guess == revealed
    print(f"Bob wins: {'yes' if bob_wins else 'no'}", file=out)
    if config.out:
        write_transcript(config.out, result.transcript)
    return 0


def _revealed(result) -> int:
    for frame in result.transcript:
        message = decode_message(frame)
        if isinstance(message, Reveal):
            return message.choice
    raise ValueError("transcript has no reveal frame")


# --- audit ------------------------------------------------------------------


def cmd_audit(config: RunConfig, out=None) -> int:
    out = out or sys.stdout
    try:
        params = resolve_params(config)
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
        line = f"  commit {p['c_true']} reveal {p['c_claimed']}: {row['exact']:.12g}"
        if "estimate" in row:
            line += f"  mc {row['estimate']:.6g} +- {row['stderr']:.2g}"
        print(line, file=out)

    print("block-cheat fidelity:", file=out)
    for row in report["block_fidelity"]:
        line = f"  K={row['parameters']['K']}: {row['exact']:.12g}"
        if "estimate" in row:
            line += f"  mc {row['estimate']:.6g} +- {row['stderr']:.2g}"
        print(line, file=out)

    print("wrong-coupling valid mass:", file=out)
    for row in report["wrong_coupling"]:
        print(
            f"  held {row['held_choice']}[{row['element']}]"
            f" coupled {row['coupled_choice']}: {row['valid_mass']:.12g}",
            file=out,
        )

    print("premature strategies:", file=out)
    for row in report["strategies"]:
        line = f"  {row['scenario']}: {row['exact']:.12g}"
        if "estimate" in row:
            line += f"  mc {row['estimate']:.6g} +- {row['stderr']:.2g}"
        print(line, file=out)

    disc = report["discrimination"]
    print(f"discrimination (chance {disc['chance']:.12g}):", file=out)
    for row in disc["helstrom_pairs"]:
        print(f"  helstrom {row['a']} vs {row['b']}: {row['bound']:.12g}", file=out)
    print(f"  pgm uniform priors: {disc['pgm_uniform']:.12g}", file=out)

    print("parent-S sweep:", file=out)
    for row in report["s_protocol"]:
        line = f"  p_S={row['parameters']['p_S']:.1f}: {row['exact']:.12g}"
        if "estimate" in row:
            line += f"  mc {row['estimate']:.6g} +- {row['stderr']:.2g}"
        print(line, file=out)


def cmd_analyze(config: RunConfig, out=None) -> int:
    out = out or sys.stdout
    params = resolve_params(config)
    agreement = build_reveal_agreement(params)
    report = run_full_analysis(agreement, config.trials, config.seed)
    if config.json_out:
        print(json.dumps(report, sort_keys=True, indent=2), file=out)
    else:
        _render_report(report, out)
    if config.out:
        with open(config.out, "w") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
    failed = []
    for section in ("alice_cheat", "block_fidelity", "strategies", "s_protocol"):
        for row in report[section]:
            if row.get("consistent") is False:
                failed.append(row["scenario"])
    if failed:
        print("inconsistent monte carlo: " + ", ".join(failed), file=out)
        return 1
    return 0


# --- session -----------------------------------------------------------------


def _session_scripts(moves: dict) -> tuple[AliceScript, BobScript]:
    def choice_token(token):
        if token in COIN_NAMES:
            return COIN_NAMES.index(token)
        return int(token)

    alice = AliceScript()
    if "choice" in moves:
        alice.choice = choice_token(moves["choice"])
    elif "toss" in moves:
        alice.choice = choice_token(moves["toss"])
    if moves.get("element", "random") != "random":
        alice.element = int(moves["element"])
    if "reveal" in moves:
        alice.reveal_choice = choice_token(moves["reveal"])
    if moves.get("parent", PARENT_B) == PARENT_S:
        alice.parent = PARENT_S
    bob = BobScript()
    if "guess" in moves:
        bob.guess = choice_token(moves["guess"])
    return alice, bob


def cmd_session(config: RunConfig, out=None) -> int:
    out = out or sys.stdout
    params = resolve_params(config)
    agreement = build_reveal_agreement(params)
    moves = {}
    if config.script:
        with open(config.script) as fh:
            moves = parse_moves(fh)
    alice_script, bob_script = _session_scripts(moves)
    alice_rng, bob_rng = session_rngs(config.seed)
    try:
        if config.role == "bob":
            endpoint = BobEndpoint(agreement, bob_script, bob_rng)
            listener = socket.create_server(("127.0.0.1", config.port))
            print(f"listening port={listener.getsockname()[1]}", file=out, flush=True)
            result = serve_session(endpoint, listener)
            print(
                f"verdict: {'accepted' if result.accepted else 'rejected'}"
                f" outcome={result.outcome_index}"
                f" recovered={result.recovered_element}",
                file=out,
            )
            frames = endpoint.frames
            exit_code = 0 if result.accepted else 1
        else:
            endpoint = AliceEndpoint(agreement, alice_script, alice_rng)
            verdict = connect_session(endpoint, "127.0.0.1", config.port)
            print(
                f"verdict: {'accepted' if verdict.accepted else 'rejected'}"
                f" recovered={verdict.recovered_element}",
                file=out,
            )
            frames = endpoint.frames
            exit_code = 0 if verdict.accepted else 1
    except HandshakeError as exc:
        print(f"handshake failed: {exc}", file=out)
        return 2
    except (WireError, PhaseError) as exc:
        print(f"session aborted: {type(exc).__name__}: {exc}", file=out)
        return 2
    if config.out:
        write_transcript(config.out, frames)
    return exit_code


# --- argument parsing ---------------------------------------------------------


def _add_scheme_flags(parser):
    parser.add_argument("--n", type=int, default=1, help="receiver qubit count (1..4)")
    parser.add_argument(
        "--preset",
        choices=[PRESET_PAPER_COINTOSS, PRESET_DEFAULT_MASKS],
        help="named scheme instance",
    )
    parser.add_argument(
        "--masks",
        nargs="+",
        help="explicit pairing masks as hex (overrides --preset)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbcsim",
        description="commitment-scheme simulator and analysis lab",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    cointoss = sub.add_parser("cointoss", help="play the n=1 coin-toss game")
    cointoss.add_argument("--seed", type=int, default=0)
    cointoss.add_argument("--script", help="move file with toss=/guess=/reveal= lines")
    cointoss.add_argument("--out", help="write the transcript here")

    audit = sub.add_parser("audit", help="run the structural invariants")
    _add_scheme_flags(audit)
    audit.add_argument("--seed", type=int, default=0)

    analyze = sub.add_parser("analyze", help="run the security battery")
    _add_scheme_flags(analyze)
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--trials", type=int, default=0)
    analyze.add_argument("--out", help="write the JSON report here")
    analyze.add_argument("--json", action="store_true", dest="json_out")

    session = sub.add_parser("session", help="one side of a two-process TCP session")
    _add_scheme_flags(session)
    session.add_argument("--role", choices=["alice", "bob"], required=True)
    session.add_argument("--port", type=int, default=0)
    session.add_argument("--seed", type=int, default=0)
    session.add_argument("--script", help="move file (choice=/guess=/reveal=/parent=)")
    session.add_argument("--out", help="write the transcript here")
    return parser


def config_from_args(args) -> RunConfig:
    masks = None
    if getattr(args, "masks", None):
        masks = tuple(int(tok, 16) for tok in args.masks)
    return RunConfig(
        subcommand=args.subcommand,
        n=getattr(args, "n", 1),
        preset=getattr(args, "preset", None),
        masks=masks,
        seed=args.seed,
        trials=getattr(args, "trials", 0),
        out=getattr(args, "out", None),
        json_out=getattr(args, "json_out", False),
        role=getattr(args, "role", None),
        port=getattr(args, "port", 0),
        script=getattr(args, "script", None),
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    handlers = {
        "cointoss": cmd_cointoss,
        "audit": cmd_audit,
        "analyze": cmd_analyze,
        "session": cmd_session,
    }
    return handlers[config.subcommand](config)


if __name__ == "__main__":
    sys.exit(main())
