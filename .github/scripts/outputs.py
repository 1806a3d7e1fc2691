"""Write every seeded output whose bytes a change must keep, one file each.

    PYTHONPATH=src python .github/scripts/outputs.py OUT

``qbcsim`` is imported from PYTHONPATH (or the installed package), so
``PYTHONPATH=$other/src`` dumps another checkout's outputs with the same
script, and ``diff -r`` of the two directories names every output that
moved. The demos are read from the checkout that holds this script.
Written, each CLI run as its stdout, then its stderr and exit code:

* ``audit`` and ``analyze --json`` at n = 1..6, with ``--trials 0`` and
  ``--trials 2000``, and the n=3 text reports;
* the seed-66 flagged run, which exits 1;
* scripted coin tosses with their transcripts;
* 960 seeded in-process sessions (n = 1, 3, 6; default and seeded random
  masks; parents B and S, honest and cheating) and 36 over TCP, each as
  its frames, verdict and ``VerificationResult``;
* the bytes of every ``socket.sendall`` call of the TCP sessions, in
  order and hellos included, as ``wire.txt``;
* the five demos' stdout.

Each TCP session is also run in process with the same seed and scripts;
if its frames, verdict or ``VerificationResult`` differ, the script exits
non-zero, as the transports must give one transcript.
"""

import contextlib
import io
import runpy
import socket
import sys
from pathlib import Path

from qbcsim import cli
from qbcsim.scheme import SchemeParams, build_reveal_agreement
from qbcsim.session import PARENT_S, AliceScript, BobScript, run_session

DEMOS = Path(__file__).resolve().parents[2] / "demos"


def captured(run) -> tuple[str, str, object]:
    """Stdout, stderr and return value of ``run()``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        value = run()
    return stdout.getvalue(), stderr.getvalue(), value


def write_cli(out: Path, name: str, *argv: str) -> None:
    stdout, stderr, code = captured(lambda: cli.main(list(argv)))
    (out / name).write_text(f"{stdout}--- stderr\n{stderr}--- exit {code}\n")


@contextlib.contextmanager
def sends_written_to(wire, header: bytes):
    """Write ``header``, then the bytes of every ``socket.sendall`` call
    until exit, to ``wire``."""
    sendall = socket.socket.sendall

    def written(sock, data, *flags):
        wire.write(data)
        return sendall(sock, data, *flags)

    wire.write(header)
    socket.socket.sendall = written
    try:
        yield
    finally:
        socket.socket.sendall = sendall


def session_lines(n: int, params: SchemeParams, seeds, transport: str, wire=None):
    """Each session's lines for ``sessions.txt``; over TCP, what its
    sockets send also goes to ``wire``."""
    agreement = build_reveal_agreement(params)
    m = agreement.num_choices
    for seed in seeds:
        c, claim = seed % m, (seed + 1) % m
        scripts = {"B honest": AliceScript(),
                   "B cheat": AliceScript(choice=c, reveal_choice=claim),
                   "S honest": AliceScript(choice=c, parent=PARENT_S),
                   "S cheat": AliceScript(choice=c, parent=PARENT_S, reveal_choice=claim)}
        for label, script in scripts.items():
            header = f"# n={n} masks={params.masks} seed={seed} {label} {transport}\n"
            with sends_written_to(wire, header.encode()) if wire else contextlib.nullcontext():
                result = run_session(agreement, script, BobScript(), seed, transport)
            if transport == "tcp" and result != run_session(agreement, script, BobScript(), seed):
                sys.exit(f"n={n} seed={seed} {label}: the TCP session differs from in process")
            yield header
            yield from (frame.decode() for frame in result.transcript)
            yield f"{result.verdict!r}\n{result.verification!r}\n"


def main(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for n in range(1, 7):
        write_cli(out, f"audit-n{n}.txt", "audit", "--n", str(n))
        for trials in ("0", "2000"):
            write_cli(out, f"analyze-n{n}-trials{trials}.json",
                      "analyze", "--n", str(n), "--trials", trials, "--json")
    for trials in ("0", "2000"):
        write_cli(out, f"analyze-n3-trials{trials}.txt", "analyze", "--n", "3", "--trials", trials)
    write_cli(out, "analyze-flagged-seed66.json",
              "analyze", "--n", "1", "--trials", "2000", "--seed", "66", "--json")

    for name, moves in (("honest", "toss=head\nguess=tail\n"),
                        ("cheat", "toss=head\nguess=head\nreveal=tail\n")):
        script = out / f"cointoss-{name}.moves"
        script.write_text(moves)
        for seed in ("0", "7"):
            write_cli(out, f"cointoss-{name}-seed{seed}.txt", "cointoss", "--seed", seed,
                      "--script", str(script), "--out", str(out / f"cointoss-{name}-seed{seed}.ndjson"))

    with open(out / "sessions.txt", "w") as fh, open(out / "wire.txt", "wb") as wire:
        for n in (1, 3, 6):
            for params in (SchemeParams.default(n), SchemeParams.random_masks(n, 5)):
                fh.writelines(session_lines(n, params, range(40), "in-process"))
        for n in (1, 3, 6):
            fh.writelines(session_lines(n, SchemeParams.default(n), range(3), "tcp", wire))

    for demo in sorted(DEMOS.glob("*.py")):
        stdout, _, _ = captured(lambda: runpy.run_path(str(demo), run_name="__main__"))
        (out / f"demo-{demo.stem}.txt").write_text(stdout)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(Path(sys.argv[1]))
