"""qbcsim benchmark entry point.

    python3 perfbench/run.py --workload exact-analysis --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20      # every workload
    python3 perfbench/run.py --workload sessions --quick --seconds 1   # tiny sizes

Run from the root of a checkout; qbcsim is imported from ``src/`` next to
this directory. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics, measured with tracing off. With
``--trace 1`` the run measures the workload untraced, proves the tracer
sees every call, measures it again traced, and reports the per-layer
metrics plus the tracing overhead. Lines before the last start with ``#``
and carry the environment and the workload's own named figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import (TAG_PASS, TAG_PROBE, TAG_SETUP, TAG_TCP, Tracer, UnwrappedAliasError,
                    add_count, add_key)

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"), ("ok_share", "ratio"))

PER_LAYER = (
    ("quantum.born_distribution.calls", "count"),
    ("quantum.born_distribution.self_s", "s"),
    ("quantum.born_distribution.bytes_computed", "bytes"),
    ("quantum.complete_basis.calls", "count"),
    ("quantum.complete_basis.self_s", "s"),
    ("quantum.measure.calls", "count"),
    ("quantum.measure.self_s", "s"),
    ("quantum.tensor.calls", "count"),
    ("quantum.tensor.self_s", "s"),
    ("quantum.state_to_text.self_s", "s"),
    ("quantum.state_from_text.self_s", "s"),
    ("scheme.build_reveal_agreement.calls", "count"),
    ("scheme.build_reveal_agreement.self_s", "s"),
    ("scheme.audit_scheme.self_s", "s"),
    ("scheme.build_set_s.calls", "count"),
    ("scheme.scheme_hash.calls", "count"),
    ("scheme.scheme_hash.self_s", "s"),
    ("session.encode_message.calls", "count"),
    ("session.encode_message.self_s", "s"),
    ("session.decode_message.calls", "count"),
    ("session.decode_message.self_s", "s"),
    ("session.frame_bytes", "bytes"),
    ("session.alice_commit.self_s", "s"),
    ("session.bob_verify.self_s", "s"),
    ("session.tcp.overhead_s", "s"),
    ("session.tcp.slow_share", "ratio"),
    ("session.accept_ratio.honest", "ratio"),
    ("session.accept_ratio.cheat", "ratio"),
    ("session.accept_ratio.parent_s", "ratio"),
    ("analysis.alice_cheat_report.self_s", "s"),
    ("analysis.block_cheat_report.self_s", "s"),
    ("analysis.bob_wrong_coupling_table.self_s", "s"),
    ("analysis.bob_premature_strategy.self_s", "s"),
    ("analysis.s_protocol_sweep.self_s", "s"),
    ("analysis.discrimination.self_s", "s"),
    ("analysis.alice_cheat_acceptance.calls", "count"),
    ("analysis.acceptance_useful_ratio", "ratio"),
    ("analysis.mc_s", "s"),
    ("analysis.mc_3sigma_flags", "count"),
    ("cli.render_s", "s"),
    ("trace.overhead.setup_s", "s"),
    ("trace.overhead.pass_s", "s"),
    ("trace.overhead.peak_rss_mb", "MB"),
    ("trace.overhead.ok_share", "ratio"),
)

ENDPOINT_HANDLERS = (
    "session.AliceEndpoint.commit_frame",
    "session.AliceEndpoint.handle_guess",
    "session.AliceEndpoint.handle_verdict",
    "session.BobEndpoint.handle_commit",
    "session.BobEndpoint.handle_reveal",
)

#: Between passes, set-up is repeated whenever its time since the first
#: set-up falls below this share of the time spent in passes, so that the
#: ``setup_s`` samples span the whole run, as the passes do, instead of one
#: moment of a shared host whose speed drifts.
SETUP_SHARE = 0.1


def targets():
    """(label, module, attribute, observer) for every function the tracer wraps."""

    def basis_bytes(args, kwargs, result):
        basis = args[1] if len(args) > 1 else kwargs["basis"]
        return 16 * basis.dimension * basis.dimension + 16 * basis.dimension  # complex128

    def acceptance_key(args, kwargs):
        agreement, c_true, element, c_claimed = args
        return agreement.params, c_true, element, c_claimed

    observers = {
        "quantum.born_distribution": add_count("born_bytes", basis_bytes),
        "session.encode_message": add_count("frame_bytes", lambda a, k, result: len(result)),
        "analysis.alice_cheat_acceptance": add_key("acceptance_keys", acceptance_key),
    }
    labels = (
        "quantum.born_distribution quantum.complete_basis quantum.measure quantum.tensor "
        "quantum.state_to_text quantum.state_from_text "
        "scheme.build_reveal_agreement scheme.audit_scheme scheme.build_set_s scheme.scheme_hash "
        "session.encode_message session.decode_message session.alice_commit session.bob_verify "
        "session.run_session "
        "analysis.alice_cheat_acceptance analysis.alice_cheat_report analysis.block_cheat_report "
        "analysis.bob_wrong_coupling_table analysis.bob_premature_strategy analysis.s_protocol_sweep "
        "analysis.ensemble_mixture analysis.helstrom_bound analysis.pgm_success "
        "analysis.run_full_analysis cli.main"
    ).split() + list(ENDPOINT_HANDLERS)
    return [(label, "qbcsim." + label.split(".", 1)[0], label.split(".", 1)[1], observers.get(label))
            for label in labels]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def time_run(workload, seconds: float, tracer=None) -> tuple[list[float], list[float]]:
    """Set up once, then a closed loop: passes back to back until ``seconds``
    have elapsed (at least one), with set-ups between them for SETUP_SHARE
    of the pass time. Returns the set-up and the pass times."""

    setup_times, pass_times = [], []
    setup_s = pass_s = 0.0

    def set_up() -> float:
        if tracer is not None:
            tracer.tag = TAG_SETUP
        began = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - began)
        return setup_times[-1]

    set_up()
    deadline = time.perf_counter() + seconds
    while not pass_times or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.tag, tracer.pass_no = TAG_PASS, len(pass_times)
        began = time.perf_counter()
        pass_times.append(workload.run_pass(len(pass_times)))
        pass_s += time.perf_counter() - began
        while setup_s < SETUP_SHARE * pass_s:
            setup_s += set_up()
    if tracer is not None:
        tracer.tag = 0
    workload.finish()
    return setup_times, pass_times


def ok_share(*workloads) -> float:
    attempted = sum(w.attempted for w in workloads)
    return 1.0 - sum(w.failed for w in workloads) / attempted


def untraced(workload_cls, seed, seconds, quick):
    workload = workload_cls(seed, quick)
    setup_times, pass_times = time_run(workload, seconds)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_s": workload.pass_seconds(pass_times),
        "peak_rss_mb": peak_rss_mb(),
        "ok_share": ok_share(workload),
    }
    notes = [f"{len(setup_times)} setups, {len(pass_times)} passes"]
    return [workload], metrics, notes


def traced(workload_cls, seed, seconds, quick):
    from workloads import TCP_PHASE, MonteCarlo, Sessions  # needs src/ on sys.path

    (plain,), plain_metrics, notes = untraced(workload_cls, seed, seconds, quick)
    exact_only = []
    if isinstance(plain, MonteCarlo):
        exact_only = [plain.exact_only_seconds(i) for i in range(len(plain.analyze_times))]

    tracer = Tracer()
    tracer.install(targets())
    try:
        probe = workload_cls(seed, True, tracer)

        def probe_pass():
            tracer.tag = TAG_PROBE
            probe.setup()
            probe.run_pass(0)
            tracer.tag = 0

        reached = tracer.count_original_calls(probe_pass)
        spans = tracer.summary([TAG_PROBE])
        missed = {label: (spans[label]["calls"], reached[label])
                  for label in tracer.originals if spans[label]["calls"] != reached[label]}
        if missed:
            raise UnwrappedAliasError(f"calls that bypassed the tracer (spans, calls): {missed}")

        work = workload_cls(seed, quick, tracer)
        setup_times, pass_times = time_run(work, seconds, tracer)
    finally:
        tracer.uninstall()
    common = min(len(plain.digests), len(work.digests))
    if plain.digests[:common] != work.digests[:common]:
        raise RuntimeError("tracing changed the workload's outputs")

    setup_spans = tracer.summary([TAG_SETUP])
    pass_spans = tracer.summary([TAG_PASS, TAG_TCP])

    def per(label, field):
        """Per set-up plus per pass: what one set-up and one pass cost."""
        return (setup_spans[label][field] / len(setup_times)
                + pass_spans[label][field] / len(pass_times))

    def per_counter(name):
        return (tracer.counter(name, [TAG_SETUP]) / len(setup_times)
                + tracer.counter(name, [TAG_PASS, TAG_TCP]) / len(pass_times))

    special = {
        "quantum.born_distribution.bytes_computed": per_counter("born_bytes"),
        "session.frame_bytes": per_counter("frame_bytes"),
        "analysis.discrimination.self_s": sum(per(f"analysis.{name}", "self_s") for name in
                                              ("ensemble_mixture", "helstrom_bound", "pgm_success")),
        "cli.render_s": per("cli.main", "self_s"),
        "analysis.mc_s": statistics.median(plain.analyze_times) - statistics.median(exact_only) if exact_only else 0.0,
        "analysis.mc_3sigma_flags": (plain.mc_flags + work.mc_flags) / (len(plain.digests) + len(work.digests)),
        "trace.overhead.setup_s": statistics.median(setup_times) - plain_metrics["setup_s"],
        "trace.overhead.pass_s": work.pass_seconds(pass_times) - plain_metrics["pass_s"],
        "trace.overhead.peak_rss_mb": peak_rss_mb() - plain_metrics["peak_rss_mb"],
        "trace.overhead.ok_share": ok_share(work, probe) - plain_metrics["ok_share"],
    }
    calls = pass_spans["analysis.alice_cheat_acceptance"]["calls"]
    special["analysis.acceptance_useful_ratio"] = (
        tracer.distinct("acceptance_keys", [TAG_PASS]) / calls if calls else 0.0)
    tcp_overhead = slow_share = 0.0
    ratios = {"honest": 0.0, "cheat": 0.0, "parent_s": 0.0}
    if isinstance(work, Sessions):
        tcp_spans = tracer.summary([TAG_TCP])
        handler_s = sum(tcp_spans[label]["total_s"] for label in ENDPOINT_HANDLERS)
        latencies = work.latencies[TCP_PHASE]
        tcp_overhead = (sum(latencies) - handler_s) / len(latencies)
        slow_share = plain.slow_share()
        for kind in ratios:
            useful = plain.outcomes[kind][0] + work.outcomes[kind][0]
            ratios[kind] = useful / (plain.outcomes[kind][1] + work.outcomes[kind][1])
    special["session.tcp.overhead_s"] = tcp_overhead
    special["session.tcp.slow_share"] = slow_share
    for kind, value in ratios.items():
        special[f"session.accept_ratio.{kind}"] = value

    metrics = {}
    for name, _ in PER_LAYER:
        if name in special:
            metrics[name] = special[name]
        else:
            label, field = name.rsplit(".", 1)
            metrics[name] = per(label, field)

    expected = work.expected_calls()
    got = {label: pass_spans[label]["calls"] / len(pass_times) for label in expected}
    if got == expected:
        notes.append("per-pass call counts match the seed-commit derivation " + json.dumps(expected))
    else:
        notes.append(f"per-pass call counts {json.dumps(got)} differ from the seed-commit "
                     f"derivation {json.dumps(expected)}")
    if tracer.missing:
        notes.append("not defined by qbcsim, reported as zero: " + ", ".join(tracer.missing))
    return [plain, work, probe], metrics, notes


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def run_all(args) -> int:
    """Run every workload untraced, each in its own process, and print one table."""
    from workloads import WORKLOADS

    rows, results = [], {}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        if args.quick:
            command.append("--quick")
        done = subprocess.run(command, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"perfbench: workload {name} exited {done.returncode}", file=sys.stderr)
            return done.returncode
        lines = done.stdout.splitlines()
        results[name] = json.loads(lines[-1])
        rows += [(name, *line.split()[2:5]) for line in lines if line.startswith("# metric ")]
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    width = max(len(row[1]) for row in rows)
    for workload, name, value, unit in rows:
        print(f"{workload:15s} {name:{width}s} {float(value):14.6g} {unit}")
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qbcsim benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qbcsim" / "__init__.py").is_file():
        print(f"perfbench: no qbcsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import qbcsim

    if Path(qbcsim.__file__).resolve().parent != ROOT / "src" / "qbcsim":
        print(f"perfbench: imported qbcsim from {qbcsim.__file__}, not from src/", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}, all")

    measure = traced if args.trace else untraced
    workloads, metrics, notes = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.quick)
    plain = workloads[0]
    attempted = sum(w.attempted for w in workloads)
    failed = sum(w.failed for w in workloads)

    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    for note in notes:
        print(f"# {note}")
    if not args.trace:
        named = plain.named_metrics() + [
            ("setup_s", metrics["setup_s"], "s"),
            ("failed_share", failed / attempted, "ratio"),
            ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
        ]
        for name, value, unit in named:
            print(f"# metric {name} {value!r} {unit}")
    units = dict(PER_LAYER if args.trace else END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
