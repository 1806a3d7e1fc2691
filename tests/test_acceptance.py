"""Acceptance gate: the eight release criteria, each timed and reported.

Every test prints one [PASS]/[FAIL] line with its headline numbers and
enforces the stated tolerance plus a runtime budget. The suite builds
everything it needs from scratch so the budgets are honest; run it alone
with ``pytest tests/test_acceptance.py -v``.
"""

import time
from pathlib import Path

import numpy as np

from test_analysis import (
    enumerate_s_protocol,
    enumerate_update_on_reject,
    jacobi_eigenvalues,
)
from test_scheme import coupled, product_measurement
from test_session import mismatched_session
from dense_oracle import (
    EnsembleMixture,
    HermitianMatrix,
    dense_sets,
    ensemble_mixture,
    gram_block_residuals,
    helstrom_bound,
)

from qbcsim.analysis import (
    STRATEGY_DECLARE_PRIOR,
    STRATEGY_UPDATE_ON_REJECT,
    alice_cheat_report,
    block_cheat_report,
    bob_premature_strategy,
    discrimination_bounds,
    run_full_analysis,
    s_protocol_sweep,
)
from qbcsim.quantum import ATOL, born_distribution, state_from_text
from qbcsim.scheme import SchemeParams, audit_scheme, build_reveal_agreement
from qbcsim.session import AliceScript, BobScript, HandshakeError, run_session

GOLDEN = Path(__file__).parent / "golden"


def report(number, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {label}{suffix}", flush=True)
    assert passed, f"criterion {number} failed: {label}{suffix}"


def golden(name):
    return state_from_text((GOLDEN / f"{name}.txt").read_text())


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    agreement = build_reveal_agreement(SchemeParams.paper_cointoss())
    worst = 0.0
    for c in range(2):
        for k in range(2):
            element = golden(f"cointoss_set{c}_elem{k}")
            product = golden(f"cointoss_product{c}_elem{k}")
            worst = max(
                worst,
                np.abs(
                    agreement.element(c, k).amplitudes - element.amplitudes
                ).max(),
                np.abs(
                    coupled(agreement, agreement.element(c, k), c).amplitudes
                    - product.amplitudes
                ).max(),
            )
    elapsed = time.perf_counter() - start
    report(
        1,
        "coin-toss preset set elements and products reproduced",
        worst < 1e-12 and elapsed < 1.0,
        f"max amplitude error {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_completeness():
    start = time.perf_counter()
    sessions_per_n = 10_000
    failures = 0
    worst = 0.0
    rng = np.random.default_rng(2024)
    for n in (1, 2, 3, 4):
        agreement = build_reveal_agreement(SchemeParams.default(n))
        m = 2**n
        dists = {}
        for c in range(m):
            basis = product_measurement(agreement, c)
            for k in range(m):
                product = coupled(agreement, agreement.element(c, k), c)
                dist = born_distribution(product, basis)
                dists[(c, k)] = dist
                worst = max(worst, abs(dist[k] - 1.0))
        # empirical sessions, batched by the committed (choice, element)
        cs = rng.integers(m, size=sessions_per_n)
        ks = rng.integers(m, size=sessions_per_n)
        for c in range(m):
            for k in range(m):
                count = int(np.sum((cs == c) & (ks == k)))
                if count == 0:
                    continue
                outcomes = rng.choice(len(dists[(c, k)]), size=count, p=dists[(c, k)])
                failures += int(np.sum(outcomes != k))
        # a full state-machine pass for every (choice, element)
        for c in range(m):
            for k in range(m):
                result = run_session(
                    agreement, AliceScript(choice=c, element=k), BobScript(), seed=c * m + k
                )
                if not (
                    result.verification.accepted
                    and result.verification.recovered_element == k
                ):
                    failures += 1
    elapsed = time.perf_counter() - start
    report(
        2,
        "honest sessions accept with probability 1 and recover the element",
        worst < 1e-12 and failures == 0 and elapsed < 30.0,
        f"exact error {worst:.2e}, {failures} failures in 4x{sessions_per_n} sessions, {elapsed:.1f}s",
    )


def test_criterion_3_binding():
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3, 4):
        agreement = build_reveal_agreement(SchemeParams.default(n))
        m = 2**n
        for c in range(m):
            for claim in range(m):
                if claim == c:
                    continue
                for k in range(m):
                    value = agreement.valid_masses[c, k, claim]
                    worst = max(worst, abs(value - 0.5))
    cointoss = build_reveal_agreement(SchemeParams.paper_cointoss())
    block_worst = max(
        abs(block_cheat_report(cointoss, K).exact - 0.5**K) for K in range(1, 17)
    )
    cheat_mc = alice_cheat_report(cointoss, 0, 1, trials=100_000, rng=33)
    block_mc = block_cheat_report(cointoss, 8, trials=100_000, rng=34)
    elapsed = time.perf_counter() - start
    report(
        3,
        "cheat acceptance 1/2 for all sizes; K-block fidelity 2^-K; MC within 3 sigma",
        worst < 1e-9
        and block_worst < 1e-9
        and cheat_mc.consistent()
        and block_mc.consistent()
        and elapsed < 60.0,
        f"max |p-1/2| {worst:.2e}, max block error {block_worst:.2e}, "
        f"mc {cheat_mc.estimate:.4f}/{block_mc.estimate:.5f}, {elapsed:.1f}s",
    )


def test_criterion_4_wrong_coupling_mass():
    start = time.perf_counter()
    worst = 0.0
    rows = 0
    for n in (1, 2, 3, 4):
        agreement = build_reveal_agreement(SchemeParams.default(n))
        table = run_full_analysis(agreement)["wrong_coupling"]
        rows += len(table)
        worst = max(worst, max(abs(r["valid_mass"] - 0.5) for r in table))
    elapsed = time.perf_counter() - start
    report(
        4,
        "every wrong-coupling product has valid-outcome mass 1/2",
        worst < 1e-9,
        f"{rows} products, max |mass-1/2| {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_structure_suite():
    start = time.perf_counter()
    failed = []
    audited = [SchemeParams.paper_cointoss()] + [SchemeParams.default(n) for n in (1, 2, 3, 4)]
    names_seen = set()
    for params in audited:
        for check in audit_scheme(params):
            names_seen.add(check.name)
            if not check.passed:
                failed.append((params.num_bob_qubits, check.name, check.detail))
        # orthogonality and the two partners at 1/2, from the dense Gram blocks
        agreement = build_reveal_agreement(params)
        reveals = agreement.reveals
        within, split, products = gram_block_residuals(dense_sets(agreement),
                                                       reveals.conj() @ reveals.T)
        if not (within <= ATOL and split and products <= ATOL):
            failed.append((params.num_bob_qubits, "dense Gram blocks", (within, split, products)))
    required = {
        "two-term-equal-superposition-cover",
        "reveal-states-orthonormal",
        "stabilizer-eigenoperators",
        "odd-z-masks-not-eigenoperators",
    }
    elapsed = time.perf_counter() - start
    report(
        5,
        "orthogonality, overlap, and stabilizer audits pass exhaustively",
        not failed and required <= names_seen and elapsed < 30.0,
        f"{len(audited)} schemes audited, {elapsed:.1f}s"
        + (f"; failures: {failed}" if failed else ""),
    )


def test_criterion_6_discrimination():
    start = time.perf_counter()
    same = EnsembleMixture(0, HermitianMatrix(np.eye(2, dtype=complex) / 2))
    identical_ok = helstrom_bound(same, same) == 0.5
    pure0 = EnsembleMixture(0, HermitianMatrix(np.diag([1.0, 0.0]).astype(complex)))
    pure1 = EnsembleMixture(1, HermitianMatrix(np.diag([0.0, 1.0]).astype(complex)))
    orthogonal_ok = helstrom_bound(pure0, pure1) == 1.0

    params = SchemeParams.paper_cointoss()
    mix0, mix1 = ensemble_mixture(params, 0), ensemble_mixture(params, 1)
    bound = discrimination_bounds(params)["helstrom_pairs"][0]["bound"]
    oracle_eigs = jacobi_eigenvalues(mix0.density.entries - mix1.density.entries)
    oracle = 0.5 + 0.25 * np.abs(oracle_eigs).sum()
    helstrom_err = abs(bound - oracle)

    agreement = build_reveal_agreement(params)
    strategy = bob_premature_strategy(agreement, STRATEGY_UPDATE_ON_REJECT)
    enum_err = abs(strategy.exact - enumerate_update_on_reject(agreement))
    strategy_mc = bob_premature_strategy(
        agreement, STRATEGY_UPDATE_ON_REJECT, trials=100_000, rng=66
    )
    elapsed = time.perf_counter() - start
    report(
        6,
        "discrimination bound matches the eigensolve oracle; strategy matches enumeration",
        identical_ok
        and orthogonal_ok
        and helstrom_err < 1e-9
        and enum_err < 1e-12
        and strategy_mc.consistent(),
        f"bound {bound:.6f} (oracle gap {helstrom_err:.1e}), strategy {strategy.exact} "
        f"(enum gap {enum_err:.1e}, mc {strategy_mc.estimate:.4f}), {elapsed:.1f}s",
    )


def test_criterion_7_transport_equivalence():
    start = time.perf_counter()
    agreement = build_reveal_agreement(SchemeParams.paper_cointoss())
    identical = True
    for seed in (0, 1, 99):
        scripts = (AliceScript(choice=seed % 2), BobScript())
        local = run_session(agreement, *scripts, seed=seed)
        loop = run_session(agreement, *scripts, seed=seed, transport="tcp")
        identical = identical and local.transcript == loop.transcript
    # a verifier on another agreement, as two processes meet it: both sides abort
    other = build_reveal_agreement(SchemeParams.default(2))
    errors = mismatched_session(agreement, other)
    mismatch_caught = sum(isinstance(error, HandshakeError) for error in errors)
    elapsed = time.perf_counter() - start
    report(
        7,
        "in-process and TCP transcripts byte-identical; hash mismatch aborts",
        identical and mismatch_caught == 2 and elapsed < 5.0,
        f"3 seeds compared, {mismatch_caught}/2 aborts, {elapsed:.1f}s",
    )


def test_criterion_8_s_protocol():
    start = time.perf_counter()
    agreement = build_reveal_agreement(SchemeParams.paper_cointoss())
    sweep = [r.exact for r in s_protocol_sweep(agreement)]
    b_only, full_info = sweep[0], sweep[-1]
    chance = bob_premature_strategy(agreement, STRATEGY_DECLARE_PRIOR).exact
    monotone = all(b >= a - 1e-12 for a, b in zip(sweep, sweep[1:]))
    grid = np.linspace(0.0, 1.0, 11)
    enum_err = max(
        abs(value - enumerate_s_protocol(agreement, p))
        for value, p in zip(sweep, grid)
    )
    elapsed = time.perf_counter() - start
    report(
        8,
        "parent-S sweep: endpoints correct, monotone, matches enumeration",
        abs(full_info - 1.0) < 1e-9
        and abs(b_only - chance) < 1e-9
        and monotone
        and enum_err < 1e-9,
        f"p=1 -> {full_info}, p=0 -> {b_only}, enum gap {enum_err:.1e}, {elapsed:.1f}s",
    )
