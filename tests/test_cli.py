"""Tests for the command-line front end."""

import io
import json
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from qbcsim.cli import (
    RunConfig,
    build_parser,
    cmd_analyze,
    cmd_audit,
    cmd_cointoss,
    config_from_args,
    main,
    parse_moves,
    resolve_params,
)
from qbcsim.scheme import PRESET_PAPER_COINTOSS, SchemeParams, scheme_hash
from qbcsim.session import frame_limit, hello_frame

GOLDEN = Path(__file__).parent / "golden"


def run_config(**kw):
    return RunConfig(subcommand=kw.pop("subcommand", "cointoss"), **kw)


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


def test_config_from_args_round_trip():
    args = build_parser().parse_args(
        ["analyze", "--n", "2", "--masks", "0x1", "0x2", "0x3", "0x4", "--seed", "7", "--trials", "10"]
    )
    config = config_from_args(args)
    assert config.subcommand == "analyze"
    assert config.masks == (1, 2, 3, 4)
    assert config.seed == 7 and config.trials == 10


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


def test_cointoss_bad_script(tmp_path):
    script = write_moves(tmp_path, "toss=sideways\nguess=head\n")
    out = io.StringIO()
    assert cmd_cointoss(run_config(seed=0, script=script), out) == 2
    assert "bad script" in out.getvalue()


def test_cointoss_interactive_mode(monkeypatch):
    answers = iter(["head", "head", ""])
    monkeypatch.setattr("builtins.input", lambda prompt: next(answers))
    out = io.StringIO()
    assert cmd_cointoss(run_config(seed=2), out) == 0
    assert "Bob wins: yes" in out.getvalue()


def test_cointoss_writes_transcript(tmp_path):
    script = write_moves(tmp_path, "toss=head\nguess=head\n")
    path = tmp_path / "transcript.bin"
    cmd_cointoss(run_config(seed=5, script=script, out=str(path)), io.StringIO())
    frames = path.read_bytes().splitlines()
    assert len(frames) == 4
    assert json.loads(frames[0])["kind"] == "commit"
    assert json.loads(frames[3])["kind"] == "verdict"


def test_audit_passes_and_fails():
    out = io.StringIO()
    assert cmd_audit(run_config(subcommand="audit", preset=PRESET_PAPER_COINTOSS), out) == 0
    text = out.getvalue()
    assert "result: pass (8/8)" in text
    assert text.count("check ") == 8

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


def test_analyze_human_table():
    out = io.StringIO()
    assert cmd_analyze(run_config(subcommand="analyze", preset=PRESET_PAPER_COINTOSS), out) == 0
    text = out.getvalue()
    assert "alice-cheat acceptance" in text
    assert "K=8: 0.00390625" in text
    assert "helstrom 0 vs 1: 0.75" in text
    assert "p_S=1.0: 1" in text
    assert "mc" not in text  # trials=0 keeps the sampled columns out


def test_main_dispatch(capsys):
    assert main(["audit", "--preset", PRESET_PAPER_COINTOSS]) == 0
    captured = capsys.readouterr()
    assert "result: pass" in captured.out


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


def test_session_subcommand_over_limit_frame_exits_2():
    # an unterminated line one byte over the frame limit
    limit = frame_limit(SchemeParams.paper_cointoss())
    last = _bob_last_line_after(b"{" * (limit + 1))
    assert last == f"session aborted: FramingError: frame line exceeds {limit} bytes"


def _bob_last_line_after(frame: bytes) -> str:
    """Run ``qbcsim session --role bob``, send a hello and then ``frame``
    from a raw socket; check that bob exits 2 without a traceback and
    return the last line it printed."""
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
        conn.sendall(hello_frame(digest) + frame)
        bob_out, bob_err = bob_proc.communicate(timeout=30)
        reader.close()
    assert bob_proc.returncode == 2
    assert "Traceback" not in bob_err
    return bob_out.splitlines()[-1]
