"""Tests for the binding/concealment figures and discrimination bounds.

Oracles here are deliberately independent of the package internals:
a hand-rolled Jacobi eigensolver for the two-hypothesis bound, direct
inner products against the valid products for acceptance probabilities,
scipy matrix functions for the square-root measurement, and explicit
branch enumerations for the strategies.
"""

import collections
import json
import sys

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from qbcsim import analysis
from qbcsim.analysis import (
    STRATEGIES,
    STRATEGY_DECLARE_PRIOR,
    STRATEGY_UPDATE_ON_REJECT,
    CheatReport,
    EnsembleMixture,
    alice_cheat_acceptance,
    alice_cheat_report,
    block_cheat_fidelity,
    block_cheat_report,
    bob_premature_strategy,
    bob_wrong_coupling_table,
    ensemble_mixture,
    helstrom_bound,
    pgm_success,
    run_full_analysis,
    s_protocol_analysis,
    s_protocol_sweep,
)
from qbcsim.quantum import (
    HermitianMatrix,
    born_distribution,
    inner,
    random_state,
    tensor,
)
from qbcsim.scheme import SchemeParams, build_reveal_agreement


def jacobi_eigenvalues(matrix, sweeps=60):
    """Independent eigensolver: cyclic Jacobi rotations on a real symmetric
    matrix (the mixtures here are real in the computational basis)."""
    assert np.abs(np.asarray(matrix).imag).max() < 1e-12
    a = np.asarray(matrix).real.astype(float)
    n = a.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
                if abs(a[p, q]) < 1e-15:
                    continue
                theta = 0.5 * np.arctan2(2 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
        if off < 1e-14:
            break
    return np.sort(np.diag(a))


def acceptance_by_inner_products(agreement, held, claimed):
    """Oracle: sum of |<valid product|held (x) G_claimed>|^2 without using
    born_distribution."""
    product = tensor(held, agreement.reveal_states[claimed].state)
    basis = agreement.bases[claimed]
    return sum(abs(inner(basis.vector(k), product)) ** 2 for k in sorted(basis.valid_outcomes))


def acceptance_by_born_distribution(agreement, held, claimed):
    """Oracle: Born distribution of held (x) G_claimed on the reveal
    measurement of the claimed choice, summed over valid outcomes."""
    basis = agreement.bases[claimed]
    product = tensor(held, agreement.reveal_states[claimed].state)
    return born_distribution(product, basis)[sorted(basis.valid_outcomes)].sum()


def test_valid_mass_table_matches_born_oracle(agreements):
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 4):
        m = 2**n
        for agreement in (
            agreements[n],
            build_reveal_agreement(SchemeParams.random_masks(n, rng)),
        ):
            table = analysis._valid_mass_table(agreement)
            assert table.shape == (m, m, m)
            for c in range(m):
                for k, elem in enumerate(agreement.sets[c].elements):
                    for claim in range(m):
                        oracle = acceptance_by_born_distribution(agreement, elem, claim)
                        assert abs(table[c, k, claim] - oracle) < 1e-12
            # the overlap formula holds for any held state, not only set elements
            for claim in range(m):
                held = random_state(n + 1, rng)
                mass = analysis._valid_mass(held.amplitudes, agreement.params.masks[claim])
                oracle = acceptance_by_born_distribution(agreement, held, claim)
                assert abs(mass - oracle) < 1e-12


def test_exact_masses_equal_closed_form(agreements):
    # cheat and wrong-coupling masses are exactly 1/2, not merely close
    for n in (1, 2, 3, 4):
        agreement = agreements[n]
        m = 2**n
        for c in range(m):
            for claim in range(m):
                if claim == c:
                    continue
                assert alice_cheat_report(agreement, c, claim).exact == 0.5
                for k in range(m):
                    assert alice_cheat_acceptance(agreement, c, k, claim) == 0.5
        assert all(row.valid_mass == 0.5 for row in bob_wrong_coupling_table(agreement))
        for blocks in range(1, 9):
            assert block_cheat_fidelity(agreement, blocks) == 2.0**-blocks


def test_exact_analysis_calls_born_only_from_s_protocol(agreements, monkeypatch):
    callers = collections.Counter()
    real = analysis.born_distribution

    def counting(state, basis):
        callers[sys._getframe(1).f_code.co_name] += 1
        return real(state, basis)

    monkeypatch.setattr(analysis, "born_distribution", counting)
    for n in (1, 2, 3, 4):
        m = 2**n
        callers.clear()
        run_full_analysis(agreements[n], trials=0)
        assert callers == {"s_protocol_analysis": 11 * (m + m**2)}


def test_cheat_report_consistency_logic():
    exact_only = CheatReport("s", 0.5)
    assert exact_only.consistent()
    good = CheatReport("s", 0.5, trials=100, estimate=0.52, stderr=0.05)
    bad = CheatReport("s", 0.5, trials=100, estimate=0.9, stderr=0.05)
    assert good.consistent() and not bad.consistent()
    d = good.as_dict()
    assert d["consistent"] is True and d["trials"] == 100
    assert "estimate" not in exact_only.as_dict()


def test_ensemble_mixture_validation():
    with pytest.raises(ValueError, match="semidefinite"):
        EnsembleMixture(0, HermitianMatrix(np.diag([1.5, -0.5]).astype(complex)))
    with pytest.raises(ValueError, match="trace"):
        EnsembleMixture(0, HermitianMatrix(np.eye(2, dtype=complex)))


def test_ensemble_mixture_closed_form():
    # averaging the pair projectors gives (I + XOR-permutation)/2^(n+1)
    for n in (1, 2):
        params = SchemeParams.default(n)
        dim = 2 ** (n + 1)
        for c in range(params.num_choices):
            mix = ensemble_mixture(params, c)
            perm = np.zeros((dim, dim))
            for i in range(dim):
                perm[i ^ params.masks[c], i] = 1.0
            assert_allclose(mix.density.entries, (np.eye(dim) + perm) / dim, atol=1e-12)


def test_alice_cheat_acceptance_values(cointoss_agreement):
    for c in range(2):
        for k in range(2):
            assert abs(alice_cheat_acceptance(cointoss_agreement, c, k, 1 - c) - 0.5) < 1e-12
            assert abs(alice_cheat_acceptance(cointoss_agreement, c, k, c) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        alice_cheat_acceptance(cointoss_agreement, 2, 0, 0)
    with pytest.raises(ValueError):
        alice_cheat_acceptance(cointoss_agreement, 0, 5, 1)


def test_alice_cheat_matches_inner_product_oracle(agreements):
    for n in (1, 2):
        agreement = agreements[n]
        for c in range(2**n):
            for k in range(2**n):
                for claim in range(2**n):
                    got = alice_cheat_acceptance(agreement, c, k, claim)
                    oracle = acceptance_by_inner_products(
                        agreement, agreement.sets[c].elements[k], claim
                    )
                    assert abs(got - oracle) < 1e-10


def test_alice_cheat_report_monte_carlo(cointoss_agreement):
    report = alice_cheat_report(cointoss_agreement, 0, 1, trials=20_000, rng=4)
    assert report.exact == 0.5
    assert report.consistent()
    assert report.stderr < 0.006


def test_block_cheat_fidelity(cointoss_agreement):
    with pytest.raises(ValueError):
        block_cheat_fidelity(cointoss_agreement, 0)
    for K in range(1, 17):
        assert abs(block_cheat_fidelity(cointoss_agreement, K) - 0.5**K) < 1e-12
    report = block_cheat_report(cointoss_agreement, 3, trials=20_000, rng=6)
    assert report.exact == 0.125
    assert report.consistent()


def test_wrong_coupling_table(cointoss_agreement):
    table = bob_wrong_coupling_table(cointoss_agreement)
    assert len(table) == 4
    for row in table:
        assert abs(row.valid_mass - 0.5) < 1e-12
    by_key = {(r.held_choice, r.element, r.coupled_choice): r for r in table}
    # hand expansions of the four wrong products (factors multiplied out)
    half = 0.5
    expected = {
        # (|00>+|01>)/sqrt2 (x) |->  ->  (|000>-|001>+|010>-|011>)/2
        (0, 0, 1): [half, -half, half, -half, 0, 0, 0, 0],
        # (|10>+|11>)/sqrt2 (x) |->  ->  (|100>-|101>+|110>-|111>)/2
        (0, 1, 1): [0, 0, 0, 0, half, -half, half, -half],
        # (|00>+|11>)/sqrt2 (x) |+>  ->  (|000>+|001>+|110>+|111>)/2
        (1, 0, 0): [half, half, 0, 0, 0, 0, half, half],
        # (|01>+|10>)/sqrt2 (x) |+>  ->  (|010>+|011>+|100>+|101>)/2
        (1, 1, 0): [0, 0, half, half, half, half, 0, 0],
    }
    for (c, k, claim), amplitudes in expected.items():
        assert (c, k, claim) in by_key
        product = tensor(
            cointoss_agreement.sets[c].elements[k],
            cointoss_agreement.reveal_states[claim].state,
        )
        assert_allclose(product.amplitudes, amplitudes, atol=1e-12)


def test_premature_strategy_validation(cointoss_agreement):
    with pytest.raises(ValueError, match="unknown strategy"):
        bob_premature_strategy(cointoss_agreement, "peek-really-hard")


def test_declare_prior_guess_is_chance(agreements):
    for n in (1, 2):
        report = bob_premature_strategy(agreements[n], STRATEGY_DECLARE_PRIOR)
        assert abs(report.exact - 0.5**n) < 1e-12
    mc = bob_premature_strategy(agreements[1], STRATEGY_DECLARE_PRIOR, trials=20_000, rng=2)
    assert mc.consistent()


def enumerate_update_on_reject(agreement):
    """Oracle: average over (choice, element, guess) of
    P(accept)*[guess right] + P(reject)*[uniform over the rest right]."""
    m = agreement.params.num_choices
    total = 0.0
    for c in range(m):
        for k in range(m):
            held = agreement.sets[c].elements[k]
            for g in range(m):
                p_acc = acceptance_by_inner_products(agreement, held, g)
                if g == c:
                    total += p_acc
                else:
                    total += (1.0 - p_acc) / (m - 1)
    return total / m**3


def test_update_on_reject_matches_enumeration(agreements):
    for n in (1, 2):
        agreement = agreements[n]
        report = bob_premature_strategy(agreement, STRATEGY_UPDATE_ON_REJECT)
        oracle = enumerate_update_on_reject(agreement)
        assert abs(report.exact - oracle) < 1e-12
        # closed form under the mask construction: 3/2^(n+1)
        assert abs(report.exact - 3.0 / 2 ** (n + 1)) < 1e-9
    mc = bob_premature_strategy(
        agreements[1], STRATEGY_UPDATE_ON_REJECT, trials=20_000, rng=9
    )
    assert mc.consistent()


def test_helstrom_trivial_cases():
    rho = EnsembleMixture(0, HermitianMatrix(np.eye(2, dtype=complex) / 2))
    assert helstrom_bound(rho, rho) == 0.5
    pure0 = EnsembleMixture(0, HermitianMatrix(np.diag([1.0, 0.0]).astype(complex)))
    pure1 = EnsembleMixture(1, HermitianMatrix(np.diag([0.0, 1.0]).astype(complex)))
    assert helstrom_bound(pure0, pure1) == 1.0
    with pytest.raises(ValueError):
        helstrom_bound(pure0, EnsembleMixture(0, HermitianMatrix(np.eye(4, dtype=complex) / 4)))


def test_helstrom_against_jacobi_oracle(cointoss_agreement):
    params = cointoss_agreement.params
    mix0 = ensemble_mixture(params, 0)
    mix1 = ensemble_mixture(params, 1)
    bound = helstrom_bound(mix0, mix1)
    eigenvalues = jacobi_eigenvalues(mix0.density.entries - mix1.density.entries)
    oracle = 0.5 + 0.25 * np.abs(eigenvalues).sum()
    assert abs(bound - oracle) < 1e-9
    assert abs(bound - 0.75) < 1e-9


def test_helstrom_monotone_under_mixing():
    rng = np.random.default_rng(14)
    params = SchemeParams.default(1)
    rho1 = ensemble_mixture(params, 0).density.entries
    rho2 = ensemble_mixture(params, 1).density.entries
    previous = None
    for t in np.linspace(0.0, 1.0, 9):
        mixed = EnsembleMixture(0, HermitianMatrix((1 - t) * rho1 + t * rho2))
        value = helstrom_bound(mixed, EnsembleMixture(1, HermitianMatrix(rho2)))
        assert value >= 0.5 - 1e-12
        if previous is not None:
            assert value <= previous + 1e-12
        previous = value
    # random PSD pairs stay above one half
    for _ in range(5):
        raw = rng.normal(size=(4, 4))
        rho = raw @ raw.T
        rho /= np.trace(rho)
        assert helstrom_bound(
            EnsembleMixture(0, HermitianMatrix(rho.astype(complex))),
            EnsembleMixture(1, HermitianMatrix(np.eye(4, dtype=complex) / 4)),
        ) >= 0.5 - 1e-12


def test_pgm_validation_and_trivial_cases():
    pure0 = EnsembleMixture(0, HermitianMatrix(np.diag([1.0, 0.0]).astype(complex)))
    pure1 = EnsembleMixture(1, HermitianMatrix(np.diag([0.0, 1.0]).astype(complex)))
    with pytest.raises(ValueError):
        pgm_success([pure0], [1.0])
    with pytest.raises(ValueError, match="sum"):
        pgm_success([pure0, pure1], [0.7, 0.7])
    with pytest.raises(ValueError):
        pgm_success([pure0, pure1], [1.5, -0.5])
    assert abs(pgm_success([pure0, pure1], [0.5, 0.5]) - 1.0) < 1e-12
    same = EnsembleMixture(0, HermitianMatrix(np.eye(2, dtype=complex) / 2))
    for count in (2, 4):
        value = pgm_success([same] * count, np.full(count, 1 / count))
        assert abs(value - 1 / count) < 1e-12


def test_pgm_against_scipy_oracle():
    params = SchemeParams.default(2)
    mixtures = [ensemble_mixture(params, c) for c in range(4)]
    priors = np.full(4, 0.25)
    got = pgm_success(mixtures, priors)
    average = sum(p * m.density.entries for p, m in zip(priors, mixtures))
    root = scipy.linalg.sqrtm(np.linalg.inv(average))
    oracle = sum(
        p**2 * np.trace(m.density.entries @ root @ m.density.entries @ root).real
        for p, m in zip(priors, mixtures)
    )
    assert abs(got - oracle) < 1e-9
    assert abs(got - 0.5) < 1e-9  # twice the chance rate of 1/4


def enumerate_s_protocol(agreement, p_s):
    """Oracle: exhaustive branches of the assume-parent-S strategy."""
    m = agreement.params.num_choices
    width = 2 ** agreement.params.num_alice_qubits

    def success_for(held_amplitudes, c):
        total = 0.0
        for outcome in range(width):
            prob = abs(held_amplitudes[outcome]) ** 2
            if outcome < m:
                total += prob * (1.0 if outcome == c else 0.0)
            else:
                total += prob / m
        return total

    s_branch = sum(
        success_for(np.eye(width)[c], c) for c in range(m)
    ) / m
    b_branch = sum(
        success_for(agreement.sets[c].elements[k].amplitudes, c)
        for c in range(m)
        for k in range(m)
    ) / m**2
    return p_s * s_branch + (1 - p_s) * b_branch


def test_s_protocol_endpoints_and_oracle(agreements):
    for n in (1, 2):
        agreement = agreements[n]
        assert abs(s_protocol_analysis(agreement, 1.0).exact - 1.0) < 1e-12
        b_only = s_protocol_analysis(agreement, 0.0).exact
        chance = bob_premature_strategy(agreement, STRATEGY_DECLARE_PRIOR).exact
        assert abs(b_only - chance) < 1e-12
        for p_s in (0.0, 0.3, 0.5, 0.9, 1.0):
            got = s_protocol_analysis(agreement, p_s).exact
            assert abs(got - enumerate_s_protocol(agreement, p_s)) < 1e-12
    with pytest.raises(ValueError):
        s_protocol_analysis(agreements[1], 1.5)


def test_s_protocol_sweep_monotone(cointoss_agreement):
    sweep = s_protocol_sweep(cointoss_agreement, points=11)
    values = [r.exact for r in sweep]
    assert len(values) == 11
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    mc = s_protocol_analysis(cointoss_agreement, 0.5, trials=20_000, rng=3)
    assert mc.consistent()


def test_run_full_analysis_structure(cointoss_agreement):
    report = run_full_analysis(cointoss_agreement, trials=0, seed=0)
    assert set(report) == {
        "scheme",
        "seed",
        "trials",
        "alice_cheat",
        "block_fidelity",
        "wrong_coupling",
        "strategies",
        "discrimination",
        "s_protocol",
    }
    assert report["scheme"]["masks"] == ["0x1", "0x3"]
    assert len(report["block_fidelity"]) == 8
    assert len(report["s_protocol"]) == 11
    assert [r["scenario"] for r in report["strategies"]] == list(STRATEGIES)
    # exact-only report carries no sampled columns
    flat = json.dumps(report)
    assert "estimate" not in flat
    # deterministic with a fixed seed, including the sampled columns
    once = json.dumps(run_full_analysis(cointoss_agreement, trials=500, seed=9))
    twice = json.dumps(run_full_analysis(cointoss_agreement, trials=500, seed=9))
    assert once == twice
