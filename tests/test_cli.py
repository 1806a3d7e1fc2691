"""Tests for the command-line front end."""

import argparse
import collections
import hashlib
import io
import json
import math
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbcsim import cli
from qbcsim.analysis import run_full_analysis
from qbcsim.cli import (
    build_parser,
    cmd_analyze,
    cmd_audit,
    cmd_cointoss,
    main,
    parse_moves,
    report_json,
    resolve_params,
)
from qbcsim.quantum import INV_SQRT2
from qbcsim.scheme import PRESET_PAPER_COINTOSS, SchemeParams, build_reveal_agreement, scheme_hash
from qbcsim.session import (
    AliceScript, BobScript, Commit, Guess, Hello, Reveal, encode_message, frame_limit,
    run_session,
)

GOLDEN = Path(__file__).parent / "golden"


def run_config(**kw):
    """The namespace ``build_parser`` yields, with every flag at its default."""
    defaults = dict(subcommand="cointoss", n=1, preset=None, masks=None, seed=0, trials=0,
                    out=None, json_out=False, script=None)
    return argparse.Namespace(**{**defaults, **kw})


def test_resolve_params_precedence():
    assert resolve_params(run_config(preset=PRESET_PAPER_COINTOSS)).masks == (1, 3)
    assert resolve_params(run_config(n=2)).masks == (1, 2, 3, 4)
    explicit = resolve_params(run_config(n=1, preset=PRESET_PAPER_COINTOSS, masks=(2, 3)))
    assert explicit.masks == (2, 3)  # masks beat the preset


def test_parse_moves():
    moves = parse_moves(["toss=head", "", "# comment", "guess = tail"])
    assert moves == {"toss": "head", "guess": "tail"}
    with pytest.raises(ValueError):
        parse_moves(["not a move"])
    with pytest.raises(ValueError, match="'toss' given twice"):
        parse_moves(["toss=head", "toss = tail"])


def test_parse_args_round_trip():
    args = build_parser().parse_args(
        ["analyze", "--n", "2", "--masks", "0x1", "0x2", "0x3", "0x4", "--seed", "7", "--trials", "10"]
    )
    assert args.subcommand == "analyze"
    assert args.masks == [1, 2, 3, 4]
    assert args.seed == 7 and args.trials == 10
    assert build_parser().parse_args(["session", "--role", "bob"]).port == 0


def test_usage_errors_exit_2(capsys, tmp_path):
    def exit_code(argv):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects the flag itself
            return exc.code

    # each names no choice, element, parent or key of an n=1 session, a
    # choice twice, or an element that a parent-S commit would drop
    bad_moves = []
    lines = ("choice=x", "element=2", "reveal=-1", "guess=heads", "toss=1.0",
             "choice=" + "1" * 5000,  # more digits than int() converts
             "parent=s", "parent=Q", "choise=1", "reveel=0",
             "choice=1\nparent=S\nelement=0", "choice=1\ntoss=0")
    for i, line in enumerate(lines):
        path = tmp_path / f"bad{i}.txt"
        path.write_text(line + "\n")
        bad_moves.append(["session", "--role", "alice", "--n", "1", "--script", str(path)])
    malformed = tmp_path / "malformed.txt"
    malformed.write_text("toss head\n")  # a move line without "="
    repeated = tmp_path / "repeated.txt"  # the last value used to win silently
    repeated.write_text("toss=head\nguess=head\ntoss=tail\n")
    repeated_choice = tmp_path / "repeated_choice.txt"
    repeated_choice.write_text("choice=0\nchoice=1\n")
    bad_moves.append(["cointoss", "--script", str(repeated)])
    bad_moves.append(["session", "--role", "alice", "--n", "1", "--script", str(repeated_choice)])
    for script in (str(tmp_path / "missing.txt"), str(malformed)):
        bad_moves.append(["cointoss", "--script", script])
        bad_moves.append(["session", "--role", "alice", "--n", "1", "--script", script])
    moves = tmp_path / "moves.txt"
    moves.write_text("toss=head\nguess=head\n")
    no_dir = str(tmp_path / "nodir" / "t.ndjson")  # checked before any frame is exchanged
    bad_outs = [
        ["cointoss", "--script", str(moves), "--out", no_dir],
        ["session", "--role", "bob", "--n", "1", "--out", no_dir],
        ["session", "--role", "alice", "--n", "1", "--script", str(moves), "--out", no_dir],
    ]
    seeds = [["analyze", "--n", "1", "--seed", "-1"],
             ["cointoss", "--seed", "-1", "--script", str(moves)],
             ["session", "--role", "bob", "--n", "1", "--seed", "-1"]]
    # parsed only: a count near the cap is never run
    trials = [["analyze", "--n", "1", "--trials", str(cli.MAX_TRIALS + 1)],
              ["analyze", "--n", "1", "--trials", "99999999999999999999"]]
    assert build_parser().parse_args(["analyze", "--trials", str(cli.MAX_TRIALS)]).trials == \
        cli.MAX_TRIALS
    for argv in (
        ["analyze", "--n", "1", "--trials", "-5"],
        *seeds,
        *trials,
        ["analyze", "--n", "1", "--out", str(tmp_path / "nodir" / "x.json")],
        ["audit", "--masks", "zz"],
        ["audit", "--seed", "3"],  # the audit is deterministic and takes no seed
        ["analyze", "--masks", "zz"],
        ["session", "--role", "bob", "--masks", "1", "zz"],
        ["analyze", "--n", "7"],
        ["analyze", "--n", "1", "--masks", "1", "1"],
        ["session", "--role", "bob", "--n", "7"],
        ["session", "--role", "alice", "--n", "1", "--masks", "1", "1"],
        *([sub, "--n", n] + (["--role", "bob"] if sub == "session" else [])
          for sub in ("analyze", "session") for n in ("-1", "0", "99999999")),
        *(["session", "--role", role, "--port", port]
          for role in ("alice", "bob") for port in ("70000", "-1")),
        *bad_moves,
        *bad_outs,
    ):
        assert exit_code(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        last = captured.err.splitlines()[-1]
        assert last.startswith("qbcsim") and ": error: " in last, argv
        assert "Traceback" not in captured.err, argv
    # masks that parse but are invalid are an audit failure, not a usage error
    for n in ("7", "-1", "0", "99999999"):
        assert exit_code(["audit", "--n", n]) == 1
        assert "check mask-validity: fail" in capsys.readouterr().out


def test_session_subcommand_accept_timeout_exits_2(monkeypatch, capsys):
    # a verifier whose peer never connects: every socket timeout is cut to
    # 50 ms so the real accept times out without the 30 s wait
    real = socket.socket.settimeout
    monkeypatch.setattr(socket.socket, "settimeout", lambda self, value: real(self, 0.05))
    assert main(["session", "--role", "bob", "--n", "1"]) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].startswith("listening port=")
    assert lines[1:] == ["session aborted: TimeoutError: timed out"]
    assert "Traceback" not in captured.err


def test_session_subcommand_refused_connection_exits_2(capsys):
    with socket.socket() as sock:  # a loopback port with nothing listening on it
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    assert main(["session", "--role", "alice", "--n", "1", "--port", str(port)]) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("session aborted: ConnectionRefusedError: ")
    assert "Traceback" not in captured.err
    # and a verifier whose port cannot be bound, as one already listening
    with socket.create_server(("127.0.0.1", 0)) as taken:
        port = taken.getsockname()[1]
        assert main(["session", "--role", "bob", "--n", "1", "--port", str(port)]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("session aborted: OSError: ")
    assert "Traceback" not in captured.err


def test_out_checked_before_prompts_and_kept_on_abort(tmp_path, monkeypatch, capsys):
    def no_prompt(prompt=""):
        raise AssertionError(f"prompted before --out was checked: {prompt!r}")

    monkeypatch.setattr("builtins.input", no_prompt)
    with pytest.raises(SystemExit) as exc:
        main(["cointoss", "--out", str(tmp_path / "nodir" / "t.ndjson")])
    assert exc.value.code == 2
    assert "--out: " in capsys.readouterr().err
    # a session that aborts leaves an earlier transcript at the path as it was
    earlier = tmp_path / "t.ndjson"
    earlier.write_bytes(b"earlier\n")
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    argv = ["session", "--role", "alice", "--n", "1", "--port", str(port), "--out", str(earlier)]
    assert main(argv) == 2
    assert earlier.read_bytes() == b"earlier\n"


def write_moves(tmp_path, text):
    path = tmp_path / "moves.txt"
    path.write_text(text)
    return str(path)


def test_cointoss_honest_game(tmp_path):
    script = write_moves(tmp_path, "toss=head\nguess=tail\n")
    out = io.StringIO()
    code = cmd_cointoss(run_config(seed=3, script=script), out)
    text = out.getvalue()
    assert code == 0
    lines = [ln.split(":")[0] for ln in text.splitlines()]
    # phases echo in protocol order
    commit_i = lines.index("Commit")
    assert lines.index("Guess") == commit_i + 1
    assert lines.index("Reveal") == commit_i + 2
    assert lines.index("Verdict") == commit_i + 3
    assert "Reveal: Alice reveals head" in text
    assert "Verdict: accepted" in text
    assert "Bob wins: no" in text  # guessed tail, revealed head


def test_cointoss_bob_wins_when_guess_matches(tmp_path):
    script = write_moves(tmp_path, "toss=tail\nguess=tail\n")
    out = io.StringIO()
    assert cmd_cointoss(run_config(seed=3, script=script), out) == 0
    assert "Bob wins: yes" in out.getvalue()


def test_cointoss_outcome_ket_printed(tmp_path):
    script = write_moves(tmp_path, "toss=head\nguess=head\nelement=0\n")
    out = io.StringIO()
    cmd_cointoss(run_config(seed=1, script=script), out)
    text = out.getvalue()
    assert "outcome 0" in text
    assert "+0.5000|000> +0.5000|001> +0.5000|010> +0.5000|011>" in text
    assert "recovered element: 0" in text


def test_cointoss_cheat_rejected_about_half_the_time(tmp_path):
    script = write_moves(tmp_path, "toss=head\nguess=head\nreveal=tail\n")
    rejected = 0
    seeds = range(400)
    for seed in seeds:
        out = io.StringIO()
        cmd_cointoss(run_config(seed=seed, script=script), out)
        text = out.getvalue()
        # a rejection lands on the reject outcome 2^n, which is no valid product
        rejected += "Verdict: rejected, outcome 2 -> outside every valid product\n" in text
        assert ("Verdict: rejected" in text) == ("outside every valid product" in text)
    # deterministic given the fixed seed range; band is 3 sigma around 1/2
    assert abs(rejected / len(seeds) - 0.5) <= 3 * (0.25 / len(seeds)) ** 0.5


def test_cointoss_bad_script(tmp_path, capsys):
    # read as a session move file is: each is a usage error with nothing on stdout
    for moves in ("toss=sideways\nguess=head\n", "toss=head\nguess=head\nelement=5\n",
                  "toss=head\nguess=head\nelement=-1\n",
                  "toss=head\nguess=head\nreveel=tail\n",  # no such key
                  "toss=head\nguess=head\nchoice=1\n",  # a choice named twice
                  "toss=head\nparent=S\n"):  # the game narrates parent-B products
        script = write_moves(tmp_path, moves)
        with pytest.raises(SystemExit) as exc:
            cmd_cointoss(run_config(seed=0, script=script))
        assert exc.value.code == 2, moves
        captured = capsys.readouterr()
        assert captured.out == "", moves
        assert captured.err.count("\n") == 1 and captured.err.startswith("qbcsim: error: "), moves


def test_cointoss_reads_session_moves(tmp_path):
    # head and tail in any case, numeric tokens and choice= play the same game
    games = []
    for moves in ("toss=head\nguess=tail\n", "toss=HEAD\nguess=Tail\n",
                  "choice=0\nguess=1\n", "toss=0\nguess=tail\nparent=B\nelement=random\n"):
        out = io.StringIO()
        assert cmd_cointoss(run_config(seed=4, script=write_moves(tmp_path, moves)), out) == 0
        games.append(out.getvalue())
    assert len(set(games)) == 1
    # moves left out are drawn from --seed, as in a session
    script = write_moves(tmp_path, "")
    out = io.StringIO()
    assert cmd_cointoss(run_config(seed=4, script=script), out) == 0
    local = run_session(build_reveal_agreement(SchemeParams.paper_cointoss()),
                        AliceScript(), BobScript(), seed=4)
    guessed = json.loads(local.transcript[1])["choice"]
    assert f"Guess: Bob guesses {cli.COIN_NAMES[guessed]}\n" in out.getvalue()


def test_cointoss_interactive_mode(monkeypatch):
    answers = iter(["head", "head", ""])
    monkeypatch.setattr("builtins.input", lambda prompt: next(answers))
    out = io.StringIO()
    assert cmd_cointoss(run_config(seed=2), out) == 0
    assert "Bob wins: yes" in out.getvalue()


def test_cointoss_interactive_cheating_reveal(monkeypatch, tmp_path):
    # a reveal prompt answered with the other coin plays the scripted cheat
    answers = iter(["head", "tail", "tail"])
    monkeypatch.setattr("builtins.input", lambda prompt: next(answers))
    out = io.StringIO()
    assert cmd_cointoss(run_config(seed=3), out) == 0
    text = out.getvalue()
    assert "Reveal: Alice reveals tail (parent B)\n" in text
    scripted = io.StringIO()
    script = write_moves(tmp_path, "toss=head\nguess=tail\nreveal=tail\n")
    assert cmd_cointoss(run_config(seed=3, script=script), scripted) == 0
    assert text == scripted.getvalue()


@pytest.mark.parametrize("answered", [0, 1, 2])
def test_cointoss_end_of_input_is_usage_error(monkeypatch, capsys, answered):
    # input closed at any of the three prompts, as by `qbcsim cointoss < /dev/null`
    answers = iter(["head", "head"][:answered])

    def prompt(text):
        try:
            return next(answers)
        except StopIteration:
            raise EOFError from None

    monkeypatch.setattr("builtins.input", prompt)
    with pytest.raises(SystemExit) as exc:
        main(["cointoss"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("qbcsim: error: ")


def test_cointoss_writes_transcript(tmp_path):
    script = write_moves(tmp_path, "toss=head\nguess=head\n")
    path = tmp_path / "transcript.bin"
    cmd_cointoss(run_config(seed=5, script=script, out=str(path)), io.StringIO())
    frames = path.read_bytes().splitlines()
    assert len(frames) == 4
    assert json.loads(frames[0])["kind"] == "commit"
    assert json.loads(frames[3])["kind"] == "verdict"
    local = run_session(build_reveal_agreement(SchemeParams.paper_cointoss()),
                        AliceScript(choice=0), BobScript(guess=0), seed=5)
    assert path.read_bytes() == b"".join(local.transcript)  # the game's frames, verbatim


def test_audit_passes_and_fails():
    out = io.StringIO()
    assert cmd_audit(run_config(subcommand="audit", preset=PRESET_PAPER_COINTOSS), out) == 0
    text = out.getvalue()
    assert "result: pass (5/5)" in text
    assert text.count("check ") == 5

    out = io.StringIO()
    assert cmd_audit(run_config(subcommand="audit", n=1, masks=(3, 3)), out) == 1
    assert "mask-validity: fail" in out.getvalue()


def test_analyze_json_and_determinism(tmp_path):
    # seeded reports, Monte Carlo columns included, byte for byte as recorded
    goldens = [
        ({"preset": PRESET_PAPER_COINTOSS}, "analyze_paper_cointoss_trials2000_seed13.json"),
        ({"n": 2}, "analyze_n2_trials2000_seed13.json"),
    ]
    for scheme, golden in goldens:
        report_path = tmp_path / golden
        config = run_config(
            subcommand="analyze",
            trials=2000,
            seed=13,
            out=str(report_path),
            json_out=True,
            **scheme,
        )
        out = io.StringIO()
        assert cmd_analyze(config, out) == 0
        report = json.loads(out.getvalue())
        assert report["seed"] == 13  # explicit seed persisted
        assert report["trials"] == 2000
        first = report_path.read_bytes()
        assert first == (GOLDEN / golden).read_bytes()
        assert out.getvalue().encode() == first

        out2 = io.StringIO()
        assert cmd_analyze(config, out2) == 0
        assert out2.getvalue() == out.getvalue()
        assert report_path.read_bytes() == first


@pytest.mark.parametrize("trials", [0, 300])
def test_report_json_equals_json_dumps(trials):
    # the spliced wrong-coupling rows are the encoder's bytes
    schemes = [SchemeParams.default(n) for n in (1, 2, 3, 4)]
    schemes += [SchemeParams.random_masks(n, seed) for n in (1, 2, 3) for seed in (1, 2, 3)]
    schemes.append(SchemeParams.paper_cointoss())
    for params in schemes:
        report = run_full_analysis(build_reveal_agreement(params), trials, seed=11)
        assert report_json(report) == json.dumps(report, sort_keys=True, indent=2), params


def hand_report(helstrom_pairs=(), **row_lists) -> dict:
    """A report of ``run_full_analysis``'s layout whose row lists are the
    ones given, the others empty."""
    report = {
        "scheme": {"n": 1, "choices": 2, "masks": ["0x1", "0x3"], "preset": None},
        "seed": 0,
        "trials": 0,
        "discrimination": {"chance": 0.5, "helstrom_pairs": list(helstrom_pairs),
                           "pgm_uniform": 1.0},
    }
    for key in ("alice_cheat", "block_fidelity", "s_protocol", "strategies", "wrong_coupling"):
        report[key] = list(row_lists.get(key, ()))
    return report


def cheat_row(exact, **extra) -> dict:
    return {"scenario": "s", "exact": exact, "trials": 0, "parameters": {"n": 1}, **extra}


#: Hand-built reports at the writer's edges, by name.
EDGE_REPORTS = {
    "every list empty": hand_report(),
    "two shapes in one list, in runs and alternating": hand_report(
        alice_cheat=[cheat_row(0.5, estimate=0.25, stderr=0.125, consistent=False),
                     cheat_row(0.5), cheat_row(0.5), cheat_row(1.0, estimate=1.0, stderr=0.0,
                                                              consistent=True),
                     cheat_row(0.5), cheat_row(0.5, estimate=0.5, stderr=0.0, consistent=True)],
        strategies=[cheat_row(0.5), {"exact": 0.5}, cheat_row(0.5), {"exact": 0.25}]),
    "0.0 beside -0.0": hand_report(block_fidelity=[
        cheat_row(0.0), cheat_row(-0.0), cheat_row(0.5), cheat_row(-0.0)]),
    "1, 1.0, True and False in one column": hand_report(wrong_coupling=[
        {"held_choice": value, "element": 0, "coupled_choice": 1, "valid_mass": value}
        for value in (1, 1.0, True, False, 0, 0.0, 1)]),
    "None": hand_report(strategies=[cheat_row(None), cheat_row(0.5, parameters={"n": None})]),
    "NaN and infinities": hand_report(
        s_protocol=[cheat_row(math.nan), cheat_row(math.inf), cheat_row(-math.inf), cheat_row(0.5)],
        helstrom_pairs=[{"a": 0, "b": 1, "bound": math.nan}, {"a": 0, "b": 2, "bound": math.nan}]),
    "a float column of infinities alone": hand_report(
        s_protocol=[cheat_row(math.inf), cheat_row(math.inf)]),
    "strings to escape": hand_report(strategies=[
        cheat_row(0.5, scenario=text) for text in
        ('say "hi"', "back\\slash", "tab\tnew\nline\x00nul\x1f", "café π \U0001f600",
         "%s %d %% \x000", "")]),
    "keys to escape": hand_report(wrong_coupling=[
        {"%d": 1, 'q"uote': 2, "café": 3, "\x000": 4}, {"%d": 5, 'q"uote': 6, "café": 7, "\x000": 8}]),
    "ints past 2^63": hand_report(wrong_coupling=[
        {"held_choice": 2**63 + k, "element": -(2**64), "coupled_choice": 10**30,
         "valid_mass": 0.5} for k in range(3)]),
    "empty parameters": hand_report(block_fidelity=[
        cheat_row(0.5, parameters={}), cheat_row(0.25, parameters={}),
        cheat_row(0.125, parameters={"K": 3})]),
    "runs of one block of rows, and one row past it": hand_report(
        wrong_coupling=[{"held_choice": k % 7, "element": k, "coupled_choice": 0,
                         "valid_mass": 0.5 * (k % 3)} for k in range(cli._BLOCK_ROWS + 1)],
        helstrom_pairs=[{"a": k, "b": k + 1, "bound": 0.75} for k in range(cli._BLOCK_ROWS)]),
    "one distinct float, and many": hand_report(
        helstrom_pairs=[{"a": a, "b": a + 1, "bound": 0.75} for a in range(5)],
        block_fidelity=[cheat_row(0.5 ** k) for k in range(1, 9)] * 2),
    "other leaves": hand_report(alice_cheat=[
        cheat_row(np.float64(0.5)), cheat_row([1, [2.5, "x"], {}, {"b": None, "a": 1}]),
        cheat_row(collections.OrderedDict(z=1, a=[True])), cheat_row((0.5, -0.0))]),
}


@pytest.mark.parametrize("name", EDGE_REPORTS)
def test_report_json_equals_json_dumps_at_the_edges(name):
    report = EDGE_REPORTS[name]
    assert report_json(report) == json.dumps(report, sort_keys=True, indent=2)


leaf_values = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([0, 1, 0.0, -0.0, 1.0, 0.5]),
    st.text(max_size=4))
row_keys = st.sampled_from(["exact", "n", "%", "café", ""])
rows = st.dictionaries(
    row_keys, st.one_of(leaf_values, st.dictionaries(row_keys, leaf_values, max_size=3)),
    max_size=4)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(lists=st.lists(st.lists(rows, max_size=5), min_size=6, max_size=6))
def test_report_json_equals_json_dumps_on_drawn_rows(lists):
    # rows drawn with few keys, so that shapes repeat and runs form
    names = ("alice_cheat", "block_fidelity", "s_protocol", "strategies", "wrong_coupling")
    report = hand_report(lists[0], **dict(zip(names, lists[1:])))
    assert report_json(report) == json.dumps(report, sort_keys=True, indent=2)


#: SHA-256 of ``report_json(run_full_analysis(...))``. The entries past
#: n=1 were recorded when the update-on-reject figure first met its law
#: 3/(2m) exactly, which moved that one field and nothing else (the n=1
#: entries predate it: the running sum was exact there).
REPORT_PINS = [
    (SchemeParams.default(3), 0, 0,
     "5fdf032dba74cb420a413987e644306f657b0baae2a8c827fd1bffdc2ee4451d"),
    (SchemeParams.default(4), 0, 0,
     "8eaa9866db68e9d20afada019d9c8265751a4673f47b58a54355e48d0fc30148"),
    (SchemeParams.default(5), 0, 0,
     "ddd8589d88286425e7b63cdcfc8d458eb01bc2f382430e5cba3d394139a3b34f"),
    (SchemeParams(4, (22, 21, 2, 4, 10, 14, 16, 24, 27, 8, 7, 12, 28, 1, 31, 11)), 0, 0,
     "16ae0a1ba728fdb6abcbd77f634b03d39c56d2d8ef0aef5eaf1db37c4807247f"),
    (SchemeParams.default(3), 500, 7,
     "b15244d0fd2eebf018601cfef4ce7a451134c799e3b1d6027ea309cea3371de0"),
    # the monte-carlo benchmark's shape
    (SchemeParams.paper_cointoss(), 100_000, 0,
     "7303e391d41f94ef2cf9808ccd0bfb5fc8f46ed494986aae03cddbf788cd90ae"),
    # the shape of the CI n=4 smoke step
    (SchemeParams.default(4), 2000, 0,
     "a029bcd76535057d6d4d9018a8c8871ab9f337fcd6d54efed2d0b374b9e32532"),
    (SchemeParams.default(5), 500, 3,
     "10684c37b94d2d9f1ac48f02ae9a3844a09c67c63e2f15cfd8c3edd8655bad4c"),
    # one row short of a sampler block, exactly one, and one past it,
    # recorded before the samplers ran in blocks
    (SchemeParams.paper_cointoss(), 8191, 0,
     "c886315c9f0eb29e725389d0e3afacf18d9ae360e6ad09df5123c74510f4c44d"),
    (SchemeParams.paper_cointoss(), 8192, 0,
     "3a07ff920955bb3f772fe271a8b62783a5024911e7eb06b3497d90303563b678"),
    (SchemeParams.paper_cointoss(), 8193, 0,
     "ae2fed60cc00b86d5daeb3b04479d9d927b70a81f0bc0780d4989569a8b9c741"),
    # random masks over several blocks, with a partial last one
    (SchemeParams(3, (11, 4, 1, 15, 12, 2, 8, 5)), 30001, 0,
     "5601b9cd7127ae0b6e0de06e3ecded277eb3cd8d1866e3f7b9b807fbbefce042"),
]


@pytest.mark.parametrize("params, trials, seed, digest", REPORT_PINS)
def test_report_bytes_pinned(params, trials, seed, digest):
    report = run_full_analysis(build_reveal_agreement(params), trials, seed)
    assert hashlib.sha256(report_json(report).encode()).hexdigest() == digest


def test_flagged_monte_carlo_keeps_stdout_one_json_document(capsys):
    # seed 66 flags the parent-S point p_S = 0.6 at 5.0 exact standard errors
    assert main(["analyze", "--n", "1", "--trials", "2000", "--seed", "66", "--json"]) == 1
    captured = capsys.readouterr()
    report = run_full_analysis(build_reveal_agreement(SchemeParams.default(1)), 2000, 66)
    assert captured.out == report_json(report) + "\n"
    assert captured.err == "inconsistent monte carlo: assume-parent-S p_S=0.6\n"
    # the human-readable table keeps the line off stdout as well
    assert main(["analyze", "--n", "1", "--trials", "2000", "--seed", "66"]) == 1
    captured = capsys.readouterr()
    assert "inconsistent" not in captured.out
    assert captured.err == "inconsistent monte carlo: assume-parent-S p_S=0.6\n"


def test_parser_is_built_once_and_leaks_no_state(capsys, monkeypatch):
    assert build_parser() is build_parser()
    sequence = [
        ["analyze", "--n", "2", "--masks", "0x3", "0x5", "0x6", "0x7", "--json"],
        ["analyze"],
        ["audit", "--n", "3"],
        ["analyze", "--n", "2", "--trials", "-5"],  # a usage error
        ["analyze", "--n", "2", "--masks", "0x3", "0x5", "0x6", "0x7", "--json"],
    ]

    def runs():
        results = []
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    reused = runs()
    assert [code for code, _, _ in reused] == [0, 0, 0, 2, 0]
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)  # a fresh parser per call
    assert runs() == reused


def test_analyze_human_table():
    out = io.StringIO()
    assert cmd_analyze(run_config(subcommand="analyze", preset=PRESET_PAPER_COINTOSS), out) == 0
    text = out.getvalue()
    assert "alice-cheat acceptance" in text
    assert "K=8: 0.00390625" in text
    assert "helstrom 0 vs 1: 0.75" in text
    assert "p_S=1.0: 1" in text
    assert "mc" not in text  # trials=0 keeps the sampled columns out


def test_analyze_sampled_text_pinned(capsys):
    # every section's Monte Carlo columns; no row is flagged
    assert main(["analyze", "--n", "2", "--trials", "300", "--seed", "5"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    text = captured.out
    assert text.count("  mc ") == 1 + 8 + 2 + 11
    digest = "517715e3d79e316472bc981f66c039f769986250a2ffd46114a55c2a3b5151cf"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_main_dispatch(capsys):
    assert main(["audit", "--preset", PRESET_PAPER_COINTOSS]) == 0
    captured = capsys.readouterr()
    assert "result: pass" in captured.out


#: SHA-256 of ``qbcsim audit`` stdout, recorded when the audit became its
#: five checks.
AUDIT_PINS = [
    (["--n", "1"], "eca9ea2d0e0498e67fbe459c9ecc82eadaf3b22864ab66b88fffb74892668009"),
    (["--n", "2"], "2e03063259b72eee0846f38c96575154977741fb81d6624e7f2b103c545b0a3e"),
    (["--n", "3"], "7be556142ea920d732b2d9db9d40e3bb9ab0153d7aefc2bcd37e1537444255dd"),
    (["--n", "4"], "8d84745690ead5fe447d15e007c2250c44adb55aeef4ef001da5f9dc2db04304"),
    (["--n", "5"], "b27a808e485b7fb3f6af74b811667788f9dea457c26c8cd2014ceeb76e2fd6b9"),
    (["--n", "6"], "1e998529e8798328cf7b7ac9354477514b252ae408f067a9f85b893d17b9e4b8"),
    (["--n", "1", "--preset", PRESET_PAPER_COINTOSS],
     "a8d16c830b5d1b12df336cd0d7e4e68a9d54efaeadf6a5fc1a0795a50d5398cd"),
    (["--masks", "0x1", "0x3"], "756edd1bde160cd548eac0d586111e82beee1c9d1e672f5752dc0eacf0d399eb"),
    # the masks of SchemeParams.random_masks(4, 7)
    (["--n", "4", "--masks", *"0x10 0xc 0xf 0x1c 0x2 0x6 0x1 0x11 0x1f 0x1a 0x12 0x8 0x13 0xb 0x18 0xd"
      .split()], "bcfa185afe551f71f12e19b3d7dd8ab7a5dd83a9c3e4d49e95470347ac30d786"),
]


# ids from the flags, a masks list by its first mask, so that a re-recorded
# digest keeps its test's name
@pytest.mark.parametrize("flags, digest", AUDIT_PINS, ids=[
    "-".join(flag.removeprefix("--") for flag in flags[:4]) for flags, _ in AUDIT_PINS])
def test_audit_stdout_pinned(flags, digest, capsys):
    assert main(["audit", *flags]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_paper_preset_with_another_n_names_no_scheme(capsys):
    # the preset is the n=1 scheme, so --n 3 with it is a failed audit check,
    # and a usage error for the subcommands that run a scheme
    assert main(["audit", "--n", "3", "--preset", PRESET_PAPER_COINTOSS]) == 1
    assert capsys.readouterr().out == ("check mask-validity: fail (preset paper-cointoss is "
                                       "the n=1 scheme, got --n 3)\nresult: fail\n")
    for argv in (["analyze", "--n", "3"], ["analyze", "--n", "0"],
                 ["session", "--role", "alice", "--n", "2"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--preset", PRESET_PAPER_COINTOSS])
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("qbcsim: error: "), argv
    assert main(["analyze", "--n", "1", "--preset", PRESET_PAPER_COINTOSS]) == 0
    assert capsys.readouterr().out.startswith("scheme: n=1 masks=0x1,0x3 preset=paper-cointoss\n")


def test_closed_stdout_exits_2_without_traceback():
    # the reader of stdout goes after one line, as ``| head -1`` does; the
    # report is larger than a pipe holds, so the writer meets the closed pipe
    with subprocess.Popen([sys.executable, "-m", "qbcsim.cli", "analyze", "--n", "4"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            assert proc.stdout.readline().startswith(b"scheme: n=4 ")
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()  # nothing to do once it has exited
    assert proc.returncode == 2
    assert b"Traceback" not in err
    assert err == b""


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_session_subcommand_two_processes(tmp_path):
    port = free_port()
    alice_moves = write_moves(tmp_path, "choice=head\nelement=1\n")
    bob_moves = tmp_path / "bob.txt"
    bob_moves.write_text("guess=tail\n")
    alice_transcript = tmp_path / "alice.bin"
    bob_transcript = tmp_path / "bob.bin"
    bob_proc = subprocess.Popen(
        [
            sys.executable, "-m", "qbcsim.cli", "session",
            "--role", "bob", "--port", str(port), "--seed", "21",
            "--script", str(bob_moves), "--out", str(bob_transcript),
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    assert "listening" in bob_proc.stdout.readline()
    alice = subprocess.run(
        [
            sys.executable, "-m", "qbcsim.cli", "session",
            "--role", "alice", "--port", str(port), "--seed", "21",
            "--script", alice_moves, "--out", str(alice_transcript),
        ],
        capture_output=True,
        text=True,
        timeout=30,
    )
    bob_out, _ = bob_proc.communicate(timeout=30)
    assert alice.returncode == 0, alice.stderr
    assert bob_proc.returncode == 0
    assert "verdict: accepted recovered=1" in alice.stdout
    assert "verdict: accepted outcome=1 recovered=1" in bob_out
    assert alice_transcript.read_bytes() == bob_transcript.read_bytes()
    # the same session run in process, through the same driver (bare --n 1
    # is the default-mask agreement)
    local = run_session(
        build_reveal_agreement(SchemeParams.default(1)),
        AliceScript(choice=0, element=1),
        BobScript(guess=1),
        seed=21,
    )
    assert b"".join(local.transcript) == bob_transcript.read_bytes()


def test_session_subcommand_cheating_reveal_exits_1(tmp_path, capsys):
    # the CI step "Two-process cheating parent-B session at MAX_N": Alice
    # commits element 5 of set 37 and reveals choice 12, Bob's verify lands
    # on the reject outcome 64, and both sides exit 1 with one transcript
    moves = write_moves(tmp_path, "choice=37\nelement=5\nreveal=12\n")
    bob_transcript, alice_transcript = tmp_path / "bob.ndjson", tmp_path / "alice.ndjson"
    bob_proc = subprocess.Popen(
        [
            sys.executable, "-m", "qbcsim.cli", "session", "--role", "bob", "--n", "6",
            "--port", "0", "--seed", "1", "--out", str(bob_transcript),
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        port = bob_proc.stdout.readline().split("port=")[1].strip()
        assert main(["session", "--role", "alice", "--n", "6", "--port", port, "--seed", "1",
                     "--script", moves, "--out", str(alice_transcript)]) == 1
        bob_out, _ = bob_proc.communicate(timeout=30)
    finally:
        bob_proc.kill()  # nothing to do once it has exited
    assert bob_proc.returncode == 1
    assert capsys.readouterr().out == "verdict: rejected recovered=None\n"
    assert bob_out == "verdict: rejected outcome=64 recovered=None\n"
    assert alice_transcript.read_bytes() == bob_transcript.read_bytes()


def test_session_subcommand_handshake_mismatch(tmp_path):
    port = free_port()
    bob_proc = subprocess.Popen(
        [
            sys.executable, "-m", "qbcsim.cli", "session",
            "--role", "bob", "--port", str(port), "--seed", "1", "--n", "2",
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    assert "listening" in bob_proc.stdout.readline()
    alice = subprocess.run(
        [
            sys.executable, "-m", "qbcsim.cli", "session",
            "--role", "alice", "--port", str(port), "--seed", "1", "--n", "1",
        ],
        capture_output=True,
        text=True,
        timeout=30,
    )
    bob_out, _ = bob_proc.communicate(timeout=30)
    assert alice.returncode == 2
    assert bob_proc.returncode == 2
    assert "handshake failed" in alice.stdout
    assert "handshake failed" in bob_out


def test_session_subcommand_bad_frame_exits_2():
    digest = scheme_hash(SchemeParams.paper_cointoss())
    garbage = '{"v":1,"kind":"commit","scheme_hash":"%s","state":42}\n' % digest
    assert _bob_last_line_after(garbage.encode()).startswith("session aborted: FramingError")
    # a commit 0.8e-9 off unit norm, which decoded before its reveal crashed
    # the Born check, is refused at the commit
    amp = f"{(1 + 0.8e-9) * INV_SQRT2:.17g} 0"
    state = f"qubits=2\n{amp}\n0 0\n{amp}\n0 0\n"
    near_unit = {"v": 1, "kind": "commit", "scheme_hash": digest, "state": state}
    last = _bob_last_line_after(json.dumps(near_unit).encode() + b"\n")
    assert last.startswith("session aborted: AmplitudeCountError: state not normalized")
    # out of phase: a guess where the commit is due
    guess = encode_message(Guess(0), digest)
    assert _bob_last_line_after(guess) == "session aborted: FramingError: expected a commit frame"


def test_session_subcommand_reveal_out_of_range_exits_2():
    # a valid commit, then, after bob's guess, a reveal of choice m = 2
    agreement = build_reveal_agreement(SchemeParams.paper_cointoss())
    commit = encode_message(Commit(agreement.element(0, 1)), agreement.descriptor_hash)
    reveal = encode_message(Reveal(2), agreement.descriptor_hash)
    last = _bob_last_line_after(commit, reveal)
    assert last == "session aborted: ChoiceRangeError: reveal choice 2 is not an int in 0..1"


def test_session_subcommand_over_limit_frame_exits_2():
    # an unterminated line one byte over the frame limit
    limit = frame_limit(SchemeParams.paper_cointoss())
    last = _bob_last_line_after(b"{" * (limit + 1))
    assert last == f"session aborted: FramingError: frame line exceeds {limit} bytes"


def _bob_last_line_after(*frames: bytes) -> str:
    """Run ``qbcsim session --role bob``, send a hello and then ``frames``
    from a raw socket, reading bob's answer to each frame before the next;
    check that bob exits 2 without a traceback and return the last line it
    printed."""
    bob_proc = subprocess.Popen(
        [
            sys.executable, "-m", "qbcsim.cli", "session",
            "--role", "bob", "--port", "0", "--seed", "1",
            "--preset", PRESET_PAPER_COINTOSS,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    port = int(bob_proc.stdout.readline().split("port=")[1])
    digest = scheme_hash(SchemeParams.paper_cointoss())
    with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
        reader = conn.makefile("rb")
        reader.readline()  # bob's hello
        conn.sendall(encode_message(Hello(), digest) + frames[0])
        for frame in frames[1:]:
            reader.readline()  # bob's answer to the frame before
            conn.sendall(frame)
        bob_out, bob_err = bob_proc.communicate(timeout=30)
        reader.close()
    assert bob_proc.returncode == 2
    assert "Traceback" not in bob_err
    return bob_out.splitlines()[-1]
