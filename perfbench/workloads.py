"""The three benchmark workloads: seeded inputs, timed calls, output checks.

Every workload has the same shape. ``setup()`` builds the agreements the
workload needs (timed by the caller as ``setup_s``); ``run_pass(index)``
runs one pass of timed calls into qbcsim, checks every output, and returns
the seconds spent inside the timed calls. Inputs come only from the
workload seed and the pass index, so two workload objects made with the
same seed run identical passes; ``digests`` lets the traced run prove that
tracing left every output byte-identical.

Why each workload exists (see README.md for the metric mapping):

* ``exact-analysis`` -- ``audit`` and ``analyze --json`` (trials=0) at
  n = 1..4 through the CLI. n=4 dominates: tens of thousands of Born
  distributions on 512-dim completed bases. No wire code, no sampling.
* ``monte-carlo`` -- the README's ``analyze --n 1 --preset paper-cointoss
  --trials 100000 --json``. Its exact part is a few ms; the rest is the
  samplers. Completed bases are tiny, so the exact-engine work is bypassed.
* ``sessions`` -- a closed loop, one client, of ``run_session`` calls: in
  process at n=1, in process at n=4, and over TCP loopback at n=1. Wire
  encode/decode, the phase machine, ``scheme_hash``, ``build_set_s``, the
  TCP handshake, and one latency-bound Born distribution per verify.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import time

import numpy as np

import qbcsim.cli
import qbcsim.scheme
import qbcsim.session
from tracer import TAG_PASS, TAG_TCP

TOL = 1e-12
#: Monte Carlo rows are judged at 5 standard errors (of the exact value).
#: Two-sided normal tail: 5.7e-7 per row, about 1.3e-5 per 22-row pass.
MC_SIGMAS = 5.0


def derived_seed(*words: int) -> int:
    """A 32-bit seed derived from the workload seed and a position."""
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


def call_cli(argv):
    """Run ``qbcsim.cli.main(argv)`` in process; return (stdout, exit code, seconds)."""
    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = qbcsim.cli.main(argv)
    return buffer.getvalue(), code, time.perf_counter() - start


def scheme_args(params) -> list[str]:
    return ["--n", str(params.num_bob_qubits), "--masks", *(format(d, "#x") for d in params.masks)]


def audit_failures(text: str, code: int) -> list[str]:
    lines = text.splitlines()
    checks = [line for line in lines if line.startswith("check ")]
    problems = [line for line in checks if not line.endswith(": pass")]
    if code != 0 or not checks or not lines[-1].startswith("result: pass"):
        problems.append(f"audit exit {code}: {lines[-1] if lines else 'no output'}")
    return problems


def report_failures(text: str, trials: int) -> tuple[list[str], int]:
    """Check the paper's figures in the JSON report ``analyze --json`` printed.

    Returns the failed checks and the number of rows the CLI itself flags
    at 3 standard errors (informational: about 6% of healthy passes have one).
    """
    try:
        report, _ = json.JSONDecoder().raw_decode(text)
    except ValueError:
        return ["analyze printed no JSON report"], 0
    m = report["scheme"]["choices"]
    problems = []

    def near(label, got, want):
        if not abs(got - want) <= TOL:
            problems.append(f"{label}: {got!r} != {want!r}")

    def within(label, got, low, high):
        if not low - TOL <= got <= high + TOL:
            problems.append(f"{label}: {got!r} outside [{low}, {high}]")

    counts = {"alice_cheat": m * (m - 1), "block_fidelity": 8,
              "wrong_coupling": m * m * (m - 1), "strategies": 2, "s_protocol": 11}
    for section, expected in counts.items():
        if len(report[section]) != expected:
            problems.append(f"{section}: {len(report[section])} rows, expected {expected}")
    for row in report["alice_cheat"]:
        near(row["scenario"], row["exact"], 0.5)
    for row in report["block_fidelity"]:
        near(row["scenario"], row["exact"], 2.0 ** -row["parameters"]["K"])
    for row in report["wrong_coupling"]:
        near("wrong-coupling valid mass", row["valid_mass"], 0.5)
    wanted = {"declare-prior-guess": 1.0 / m, "update-on-reject": 3.0 / (2 * m)}
    for row in report["strategies"]:
        near(row["scenario"], row["exact"], wanted[row["scenario"]])
    for row in report["s_protocol"]:
        p_s = row["parameters"]["p_S"]
        near(row["scenario"], row["exact"], 1.0 / m + p_s * (1.0 - 1.0 / m))
    disc = report["discrimination"]
    for row in disc["helstrom_pairs"]:
        within(f"helstrom {row['a']} vs {row['b']}", row["bound"], 0.5, 1.0)
    within("pgm", disc["pgm_uniform"], 1.0 / m, 1.0)

    flags = 0
    sampled = [row for section in ("alice_cheat", "block_fidelity", "strategies", "s_protocol")
               for row in report[section] if "estimate" in row]
    for row in sampled:
        flags += row["consistent"] is False
        if row["trials"] != trials:
            problems.append(f"{row['scenario']}: {row['trials']} trials, expected {trials}")
        exact, estimate = row["exact"], row["estimate"]
        sigma = math.sqrt(exact * (1.0 - exact) / row["trials"])
        if abs(estimate - exact) > MC_SIGMAS * sigma + TOL:
            problems.append(f"{row['scenario']}: estimate {estimate} vs exact {exact}")
    if trials and len(sampled) != 22:
        problems.append(f"{len(sampled)} sampled rows, expected 22")
    return problems, flags


class Workload:
    """Shared bookkeeping: attempted/failed counts, output digests, details."""

    name = ""

    def __init__(self, seed: int, quick: bool, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.digests: list[str] = []
        self.mc_flags = 0

    def record(self, problems, what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"perfbench: {self.name} {what} failed: {'; '.join(problems[:5])}", file=sys.stderr)

    def finish(self) -> None:
        """Checks that need the whole run (overridden where used)."""

    def pass_seconds(self, pass_times) -> float:
        """The end-to-end ``pass_s``: the median pass."""
        return float(np.median(pass_times))


class ExactAnalysis(Workload):
    name = "exact-analysis"

    def __init__(self, seed, quick, tracer=None):
        super().__init__(seed, quick, tracer)
        sizes = (1, 2) if quick else (1, 2, 3, 4)
        self.params = [qbcsim.scheme.SchemeParams.random_masks(n, derived_seed(seed, 1, n))
                       for n in sizes]
        self.analyze_times: list[float] = []
        self.audit_times: list[float] = []

    def setup(self):
        # The CLI calls rebuild these agreements themselves; set-up measures
        # what building every agreement of the workload costs.
        self.agreements = [qbcsim.scheme.build_reveal_agreement(p) for p in self.params]

    def run_pass(self, index: int) -> float:
        digest = hashlib.sha256()
        audit_s = analyze_s = 0.0
        for params in self.params:
            text, code, seconds = call_cli(["audit", *scheme_args(params)])
            audit_s += seconds
            digest.update(text.encode())
            self.record(audit_failures(text, code), f"audit n={params.num_bob_qubits}")

            text, code, seconds = call_cli(["analyze", *scheme_args(params), "--json"])
            analyze_s += seconds
            digest.update(text.encode())
            problems, flags = report_failures(text, trials=0)
            self.mc_flags += flags
            if code != 0:
                problems.append(f"analyze exit {code}")
            self.record(problems, f"analyze n={params.num_bob_qubits}")
        self.audit_times.append(audit_s)
        self.analyze_times.append(analyze_s)
        self.digests.append(digest.hexdigest())
        return audit_s + analyze_s

    def expected_calls(self) -> dict[str, int]:
        """Per-pass call counts derived from the scheme sizes, for the call
        pattern of the analysis code at the benchmark's seed commit."""
        born = acceptance = 0
        for params in self.params:
            m = params.num_choices
            acceptance += 9 * m * m * (m - 1)  # alice-cheat table + 8 block sizes
            born += 9 * m * m * (m - 1) + m * m * (m - 1) + m**3 + 11 * (m + m * m)
        return {"analysis.alice_cheat_acceptance": acceptance, "quantum.born_distribution": born}

    def named_metrics(self) -> list[tuple[str, float, str]]:
        return [("analyze_s", float(np.median(self.analyze_times)), "s"),
                ("audit_s", float(np.median(self.audit_times)), "s")]


class MonteCarlo(Workload):
    name = "monte-carlo"

    def __init__(self, seed, quick, tracer=None):
        super().__init__(seed, quick, tracer)
        self.trials = 20_000 if quick else 100_000
        self.analyze_times: list[float] = []

    def setup(self):
        self.agreement = qbcsim.scheme.build_reveal_agreement(
            qbcsim.scheme.SchemeParams.paper_cointoss())

    def argv(self, index: int, trials: int) -> list[str]:
        return ["analyze", "--n", "1", "--preset", "paper-cointoss", "--trials", str(trials),
                "--json", "--seed", str(derived_seed(self.seed, 2, index))]

    def run_pass(self, index: int) -> float:
        text, code, seconds = call_cli(self.argv(index, self.trials))
        self.digests.append(hashlib.sha256(text.encode()).hexdigest())
        problems, flags = report_failures(text, self.trials)
        self.mc_flags += flags
        if code != (1 if flags else 0):  # the CLI exits 1 exactly when a 3-sigma flag is raised
            problems.append(f"analyze exit {code} with {flags} flagged rows")
        self.record(problems, f"pass {index}")
        self.analyze_times.append(seconds)
        return seconds

    def exact_only_seconds(self, index: int) -> float:
        """The same analyze call at trials=0: its exact part alone."""
        text, code, seconds = call_cli(self.argv(index, 0))
        problems, _ = report_failures(text, trials=0)
        if code != 0:
            problems.append(f"analyze exit {code}")
        self.record(problems, f"exact-only pass {index}")
        return seconds

    def expected_calls(self) -> dict[str, int]:
        m = 2
        acceptance = 9 * m * m * (m - 1)
        exact_born = acceptance + m * m * (m - 1) + m**3 + 11 * (m + m * m)
        sampled_born = m + 8 * m * m * (m - 1) + 11 * (m + m * m)
        return {"analysis.alice_cheat_acceptance": acceptance,
                "quantum.born_distribution": exact_born + sampled_born}

    def named_metrics(self):
        return [("analyze_s", float(np.median(self.analyze_times)), "s")]


#: One round of the closed loop runs ``batch`` sessions per phase in this
#: mix: 1/2 honest parent B, 1/4 cheating reveal (c' != c), 1/4 honest parent S.
MIX = ("honest", "cheat", "honest", "parent_s")
#: (metric prefix, agreement index, transport); agreement 0 is the n=1
#: paper preset, agreement 1 the seed-drawn n=4 (n=2 in quick mode) masks.
PHASES = (("sessions", 0, "in-process"), ("sessions_n4", 1, "in-process"), ("tcp_sessions", 0, "tcp"))
TCP_PHASE = 2


class Sessions(Workload):
    name = "sessions"

    def __init__(self, seed, quick, tracer=None):
        super().__init__(seed, quick, tracer)
        self.batch = len(MIX) if quick else 4 * len(MIX)
        big_n = 2 if quick else 4
        self.params = [qbcsim.scheme.SchemeParams.paper_cointoss(),
                       qbcsim.scheme.SchemeParams.random_masks(big_n, derived_seed(seed, 3, big_n))]
        self.rngs = [np.random.default_rng(derived_seed(seed, 4, phase)) for phase in range(len(PHASES))]
        self.latencies = [[] for _ in PHASES]
        self.outcomes = {kind: [0, 0] for kind in MIX}  # kind -> [useful, attempts]
        self.cheats = [[0, 0] for _ in PHASES]  # phase -> [accepted, attempts]

    def setup(self):
        self.agreements = [qbcsim.scheme.build_reveal_agreement(p) for p in self.params]

    def _script(self, rng, kind: str, m: int):
        choice, element, guess = (int(x) for x in rng.integers(m, size=3))
        other = (choice + 1 + int(rng.integers(m - 1))) % m
        seed = int(rng.integers(2**31))
        if kind == "parent_s":
            alice = qbcsim.session.AliceScript(choice=choice, parent=qbcsim.session.PARENT_S)
        else:
            alice = qbcsim.session.AliceScript(
                choice=choice, element=element, reveal_choice=other if kind == "cheat" else None)
        return alice, qbcsim.session.BobScript(guess=guess), seed, choice, element

    def run_pass(self, index: int) -> float:
        digest = hashlib.sha256()
        total = 0.0
        outer_tag = self.tracer.tag if self.tracer is not None else None
        for phase, (_, which, transport) in enumerate(PHASES):
            agreement = self.agreements[which]
            m = agreement.params.num_choices
            rng = self.rngs[phase]
            if outer_tag == TAG_PASS:  # spans of the TCP phase are kept apart
                self.tracer.tag = TAG_TCP if transport == "tcp" else TAG_PASS
            for j in range(self.batch):
                kind = MIX[j % len(MIX)]
                alice, bob, seed, choice, element = self._script(rng, kind, m)
                start = time.perf_counter()
                result = qbcsim.session.run_session(agreement, alice, bob, seed, transport)
                seconds = time.perf_counter() - start
                total += seconds
                self.latencies[phase].append(seconds)
                for frame in result.transcript:
                    digest.update(frame)
                self._check(result, kind, phase, choice, element)
        self.digests.append(digest.hexdigest())
        return total

    def _check(self, result, kind, phase, choice, element) -> None:
        verification = result.verification
        accepted = verification.accepted and result.verdict.accepted
        tally = self.outcomes[kind]
        tally[1] += 1
        if kind == "cheat":
            tally[0] += accepted
            self.cheats[phase][0] += accepted
            self.cheats[phase][1] += 1
            self.record([], "cheating session")
            return
        want = choice if kind == "parent_s" else element
        useful = accepted and verification.recovered_element == want
        tally[0] += useful
        self.record([] if useful else [f"{kind} session rejected or recovered "
                                       f"{verification.recovered_element}, expected {want}"],
                    f"{PHASES[phase][0]} session")

    def finish(self) -> None:
        """A phase whose cheat acceptance strays beyond 5 sigma of 1/2 fails
        all of its cheating sessions."""
        for phase, (accepted, attempts) in enumerate(self.cheats):
            if attempts and abs(accepted / attempts - 0.5) > MC_SIGMAS * 0.5 / math.sqrt(attempts):
                self.failed += attempts
                print(f"perfbench: {PHASES[phase][0]} cheat acceptance {accepted}/{attempts} "
                      "is not 1/2 within 5 sigma", file=sys.stderr)

    def pass_seconds(self, pass_times) -> float:
        """One round at each phase's median session latency. A burst of
        slow TCP hand-offs on a shared machine moves round sums far more
        than it moves per-session medians."""
        return float(sum(self.batch * np.median(latencies) for latencies in self.latencies))

    def expected_calls(self) -> dict[str, int]:
        per_phase = self.batch
        return {"quantum.born_distribution": per_phase * len(PHASES),
                "session.encode_message": 4 * per_phase * len(PHASES),
                "session.decode_message": 4 * per_phase * len(PHASES)}

    def named_metrics(self):
        out = []
        for phase, (prefix, _, _) in enumerate(PHASES):
            latencies = np.array(self.latencies[phase])
            out.append((f"{prefix}_per_s", float(len(latencies) / latencies.sum()), "1/s"))
            p95_name = prefix.replace("sessions", "session") + "_p95_ms"
            out.append((p95_name, float(np.percentile(latencies, 95) * 1e3), "ms"))
        return out

    def slow_share(self) -> float:
        """Share of TCP sessions slower than 3x the phase median."""
        latencies = np.array(self.latencies[TCP_PHASE])
        return float(np.mean(latencies > 3.0 * np.median(latencies)))


WORKLOADS = {cls.name: cls for cls in (ExactAnalysis, MonteCarlo, Sessions)}
