"""Tests for the binding/concealment figures and discrimination bounds.

Oracles here are deliberately independent of the package internals:
the dense mixtures and eigensolver bounds of ``dense_oracle`` for the
Walsh-diagonal discrimination bounds, a hand-rolled Jacobi eigensolver for
the two-hypothesis bound, direct inner products against the valid
products, formed in the (2n+1)-qubit product space, for acceptance
probabilities, scipy matrix functions for the square-root measurement,
and explicit branch enumerations for the strategies.
"""

import ast
import collections
import dataclasses
import inspect
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qbcsim import analysis
from qbcsim.analysis import (
    STRATEGIES,
    STRATEGY_DECLARE_PRIOR,
    STRATEGY_UPDATE_ON_REJECT,
    CheatReport,
    alice_cheat_report,
    block_cheat_report,
    bob_premature_strategy,
    discrimination_bounds,
    run_full_analysis,
    s_protocol_sweep,
)
from qbcsim import scheme
from qbcsim.quantum import StateVector, born_distribution, walsh_matrix
from qbcsim.scheme import SchemeParams, audit_scheme, build_reveal_agreement, scheme_hash
from qbcsim.session import BobEndpoint, BobScript, Commit, Reveal, encode_message
from dense_oracle import (
    EnsembleMixture,
    HermitianMatrix,
    dense_sets,
    ensemble_mixture,
    flip_valid_mass_table,
    helstrom_bound,
    pgm_success,
    walsh_valid_mass,
)
from test_quantum import hadamard_all, inner, random_state
from test_scheme import coupled, product_measurement, set_measurement


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
    product = coupled(agreement, held, claimed)
    basis = product_measurement(agreement, claimed)
    return sum(abs(inner(basis.vector(k), product)) ** 2 for k in range(len(basis.vectors)))


def acceptance_by_born_distribution(agreement, held, claimed, basis):
    """Oracle: Born distribution of held (x) G_claimed on ``basis``, the
    product-space reveal measurement of the claimed choice, summed over
    valid outcomes."""
    product = coupled(agreement, held, claimed)
    return born_distribution(product, basis)[:len(basis.vectors)].sum()


def test_valid_mass_table_matches_born_oracle(agreements):
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 4):
        m = 2**n
        for agreement in (
            agreements[n],
            build_reveal_agreement(SchemeParams.random_masks(n, rng)),
        ):
            table = agreement.valid_masses
            assert table.shape == (m, m, m)
            bases = [product_measurement(agreement, claim) for claim in range(m)]
            for c in range(m):
                for k in range(m):
                    for claim in range(m):
                        oracle = acceptance_by_born_distribution(
                            agreement, agreement.element(c, k), claim, bases[claim]
                        )
                        assert abs(table[c, k, claim] - oracle) < 1e-12
            # the Walsh formula holds for any held state, not only set elements
            for claim in range(m):
                held = random_state(n + 1, rng)
                mass = walsh_valid_mass(held.amplitudes, [agreement.params.masks[claim]])
                assert mass.shape == (1,)
                oracle = acceptance_by_born_distribution(agreement, held, claim, bases[claim])
                assert abs(mass[0] - oracle) < 1e-12
            # and one transform serves every mask at once
            held = random_state(n + 1, rng)
            masses = walsh_valid_mass(held.amplitudes, agreement.params.masks)
            assert masses.shape == (m,)
            for claim in range(m):
                oracle = acceptance_by_born_distribution(agreement, held, claim, bases[claim])
                assert abs(masses[claim] - oracle) < 1e-12


def test_sampled_thresholds_within_an_ulp_of_born_rows(agreements):
    # a sampled verification accepts below the valid mass, which sits within
    # 2^-52 of the reveal measurement's cumulative Born row at its last valid
    # outcome, so sampling that Born row instead would move a seeded verdict
    # only for a uniform in that gap
    for n in (1, 2, 3, 4):
        agreement = agreements[n]
        m = 2**n
        table = agreement.valid_masses
        measurements = [set_measurement(agreement, claim) for claim in range(m)]
        for c, k, claim in np.ndindex(table.shape):
            dist = born_distribution(agreement.element(c, k), measurements[claim])
            cdf = analysis._choice_cdf(dist)
            assert abs(table[c, k, claim] - cdf[m - 1]) <= 2.0**-52, (n, c, k, claim)


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
                assert (agreement.valid_masses[c, :, claim] == 0.5).all()
        rows = run_full_analysis(agreement)["wrong_coupling"]
        assert all(row["valid_mass"] == 0.5 for row in rows)
        for blocks in range(1, 9):
            assert block_cheat_report(agreement, blocks).exact == 2.0**-blocks


def count_valid_masses(monkeypatch, calls):
    """Count each computation of ``RevealAgreement.valid_masses``, not each
    read of it, in ``calls`` under ("valid_masses", the reading function)."""
    prop = vars(scheme.RevealAgreement)["valid_masses"]
    real = prop.func

    def counting(agreement):
        # frame 1 is the cached property's __get__, frame 2 the reader
        calls["valid_masses", sys._getframe(2).f_code.co_name] += 1
        return real(agreement)

    monkeypatch.setattr(prop, "func", counting)


def test_exact_analysis_calls_born_only_from_s_protocol(agreements, monkeypatch):
    # one exact report on a fresh agreement: the m + m^2 parent-S Born rows
    # once, the valid-mass table computed once, and no agreement rebuilt
    calls = collections.Counter()

    def counting(name, real):
        def wrapper(*args):
            calls[name, sys._getframe(1).f_code.co_name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(analysis, "born_distribution",
                        counting("born_distribution", analysis.born_distribution))
    count_valid_masses(monkeypatch, calls)
    monkeypatch.setattr(scheme, "build_reveal_agreement",
                        counting("build_reveal_agreement", scheme.build_reveal_agreement))
    # so no agreement can be rebuilt past the patch
    assert not hasattr(analysis, "build_reveal_agreement")
    for n in (1, 2, 3, 4):
        m = 2**n
        calls.clear()
        agreement = dataclasses.replace(agreements[n])  # the fixture's may hold the table
        run_full_analysis(agreement, trials=0)
        assert calls == {
            ("born_distribution", "s_protocol_sweep"): m + m**2,
            ("valid_masses", "run_full_analysis"): 1,
        }


def test_sampled_analysis_builds_each_born_row_once(agreements, monkeypatch):
    # trials > 0 adds no Born row to the m + m^2 parent-S rows of an exact
    # report: the cheat, block and strategy samplers read their thresholds
    # from the agreement's one valid-mass table, computed once on a fresh
    # agreement; no sampler calls Generator.choice
    calls = collections.Counter()
    pairs = collections.Counter()
    real_born = analysis.born_distribution

    def caller():
        frame = sys._getframe(2)
        while frame.f_code.co_name.startswith("<"):  # a comprehension's own frame
            frame = frame.f_back
        return frame.f_code.co_name

    def counting_born(state, basis):
        calls["born_distribution", caller()] += 1
        pairs[id(state), id(basis)] += 1
        return real_born(state, basis)

    monkeypatch.setattr(analysis, "born_distribution", counting_born)
    count_valid_masses(monkeypatch, calls)
    for n in (1, 2, 3, 4):
        m = 2**n
        calls.clear()
        pairs.clear()
        run_full_analysis(dataclasses.replace(agreements[n]), trials=20, seed=3)
        assert calls == {
            ("born_distribution", "s_protocol_sweep"): m + m**2,
            ("valid_masses", "run_full_analysis"): 1,
        }
        assert sum(pairs.values()) == len(pairs)  # no Born row computed twice
    tree = ast.parse(inspect.getsource(analysis))
    assert not any(isinstance(node, ast.Attribute) and node.attr == "choice"
                   for node in ast.walk(tree))


def test_negative_trial_counts_rejected(cointoss_agreement):
    agreement = cointoss_agreement
    reports = [
        lambda: alice_cheat_report(agreement, 0, 1, trials=-3, rng=1),
        lambda: block_cheat_report(agreement, 2, trials=-1, rng=1),
        lambda: s_protocol_sweep(agreement, trials=-1, rng=1),
        lambda: run_full_analysis(agreement, trials=-5),
    ]
    reports += [lambda s=s: bob_premature_strategy(agreement, s, trials=-1, rng=1)
                for s in STRATEGIES]
    for report in reports:
        with pytest.raises(ValueError, match="negative"):
            report()


@pytest.mark.parametrize("a, b", [(0, 0), (0, 5), (1, 1), (7, 3000), (8191, 8193), (65537, 3)])
def test_split_uniform_draws_equal_one_draw(a, b):
    # the samplers take their uniforms in blocks and rely on numpy keeping
    # random(a) then random(b) the stream of random(a + b), generator state
    # included; a numpy that breaks this must fail here
    split, whole = np.random.default_rng(a + b), np.random.default_rng(a + b)
    parts = np.concatenate([split.random(a), split.random(b)])
    assert parts.tobytes() == whole.random(a + b).tobytes()
    assert split.bit_generator.state == whole.bit_generator.state


@settings(derandomize=True, max_examples=150, deadline=None)
@given(n=st.integers(1, 4), groups=st.integers(1, 300), rows=st.integers(0, 3000),
       live_share=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(n=1, groups=1, rows=0, live_share=1.0, seed=1)  # no rows at all
@example(n=3, groups=300, rows=3000, live_share=1.0, seed=2)  # every group live, most rows
def test_one_draw_samplers_take_uniforms_in_row_order(n, groups, rows, live_share, seed):
    # the per-row reference: row i takes uniform i of one random(rows) call
    # and samples outcome searchsorted(cdf[group_i], u_i, "right"); then one
    # integers(2^n) call gives the rows past the last choice their guesses,
    # in row order. The samplers, drawing in blocks of 7 rows and fed the
    # rows as two segments, must give its acceptances (outcome below 2^n)
    # and its hits of the declare-outcome-else-guess rule, and leave the
    # generator where the reference leaves it
    data = np.random.default_rng(seed)
    weights = data.random((groups, 2**n + 1)) * (data.random((groups, 2**n + 1)) < 0.7)
    weights[np.arange(groups), data.integers(2**n + 1, size=groups)] += 0.5
    dists = weights / weights.sum(axis=1, keepdims=True)  # rows with exact zeros too
    live = np.flatnonzero(data.random(groups) < live_share)  # the rest stay empty
    if live.size == 0:
        live = np.array([groups - 1])
    group_index = data.choice(live, size=rows)
    cdfs = analysis._choice_cdf(dists)
    thresholds = cdfs[:, 2**n - 1]
    committed = data.integers(2**n, size=groups)  # the choice each group holds
    cut = int(data.integers(rows + 1))  # the second segment counts from its least group
    offset = int(group_index[cut:].min()) if cut < rows else 0
    segments = ((0, group_index[:cut]), (offset, group_index[cut:] - offset))

    def accepted(outcomes, reference):
        return outcomes < 2**n

    def declared_hits(outcomes, reference):
        guesses = iter(reference.integers(2**n, size=int(np.count_nonzero(outcomes >= 2**n))))
        declared = [o if o < 2**n else next(guesses) for o in outcomes]
        return sum(int(d == committed[g]) for d, g in zip(declared, group_index))

    samplers = (
        (lambda gen: analysis._sampled_acceptance(thresholds, group_index, gen), accepted),
        (lambda gen: analysis._declared_hits(cdfs, committed, 2**n, segments, gen),
         declared_hits),
    )
    for sampler, expected in samplers:
        reference, one_draw = (np.random.default_rng(seed + 1) for _ in range(2))
        uniforms = reference.random(rows)
        outcomes = np.array([cdfs[g].searchsorted(u, side="right")
                             for g, u in zip(group_index, uniforms)], dtype=np.int64)
        want = expected(outcomes, reference)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "_BLOCK_ROWS", 7)
            got = sampler(one_draw)
        assert type(got) is type(want) and np.array_equal(got, want)
        if isinstance(got, np.ndarray):
            assert got.dtype == want.dtype
        assert one_draw.random() == reference.random()


@pytest.mark.parametrize("groups", [3, 12])
def test_sampled_counts_keep_choice_ties(groups, monkeypatch):
    # uniforms equal to a cumulative entry, and its neighbours, must pick the
    # outcome searchsorted(side="right") picks; a seeded stream never hits a
    # tie, so the uniforms come from a stub generator, which hands them out
    # in order over blocks of 7 rows and the guesses in one call
    monkeypatch.setattr(analysis, "_BLOCK_ROWS", 7)
    base = np.array([[0.25, 0.25, 0.0, 0.5], [0.0, 0.5, 0.25, 0.25], [0.5, 0.0, 0.5, 0.0]])
    cdfs = analysis._choice_cdf(base[np.arange(groups) % 3])
    ties = np.unique(np.r_[cdfs[:, :-1].ravel(), 0.0])
    values = np.r_[ties, np.nextafter(ties, 0.0), np.nextafter(ties, 1.0)]
    values = values[(values >= 0.0) & (values < 1.0)]
    data = np.random.default_rng(groups)
    uniforms = data.permutation(np.tile(values, 3 * groups))
    group_index = data.integers(groups, size=len(uniforms))
    committed = data.integers(2, size=groups)
    guesses = data.integers(2, size=len(uniforms))

    class Stub:
        taken, integer_calls = 0, 0

        def random(self, size):
            assert size <= 7 and self.integer_calls == 0
            self.taken += size
            return uniforms[self.taken - size:self.taken]

        def integers(self, high, size):
            assert high == 2
            self.integer_calls += 1
            return guesses[:size]

    outcome = np.array([cdfs[g].searchsorted(u, side="right")
                        for g, u in zip(group_index, uniforms)])
    declared = outcome.copy()
    declared[outcome >= 2] = guesses[:np.count_nonzero(outcome >= 2)]  # in row order
    stub = Stub()
    assert analysis._declared_hits(cdfs, committed, 2, [(0, group_index)], stub) == \
        np.count_nonzero(declared == committed[group_index])
    assert (stub.taken, stub.integer_calls) == (len(uniforms), 1)
    stub = Stub()
    assert np.array_equal(analysis._sampled_acceptance(cdfs[:, 1], group_index, stub),
                          outcome < 2)
    assert (stub.taken, stub.integer_calls) == (len(uniforms), 0)


class CountingGenerator(np.random.Generator):
    """A Generator that counts the uniforms ``random`` hands out."""

    uniforms = 0

    def random(self, size, *args, **kwargs):
        self.uniforms += size
        return super().random(size, *args, **kwargs)


@pytest.mark.parametrize("blocks, trials, seed", [(1, 500, 1), (3, 2000, 2), (8, 5000, 3)])
def test_block_sampler_plays_only_surviving_trials(blocks, trials, seed):
    # the reference keeps an alive flag per trial; each round, the trials
    # still alive, in trial order, draw one (c, k, c') entry each and then
    # one uniform each, and survive below that entry's mass. Varied masses
    # make the drawn entries matter
    table = np.random.default_rng(seed).random((4, 4, 4))
    masses = table[analysis._off_diagonal(table.shape)]
    reference = np.random.default_rng(seed)
    alive = np.ones(trials, dtype=bool)
    survivors = []
    for _ in range(blocks):
        playing = np.flatnonzero(alive)
        draw = reference.integers(len(masses), size=len(playing))
        alive[playing] = reference.random(len(playing)) < masses[draw]
        survivors.append(int(np.count_nonzero(alive)))
    gen = CountingGenerator(np.random.PCG64(seed))
    assert analysis._survivors(masses, trials, blocks, gen) == survivors[-1]
    assert gen.bit_generator.state == reference.bit_generator.state
    assert gen.uniforms == trials + sum(survivors[:-1])


def test_block_sampler_memory_stays_small():
    # a trial that failed a block draws nothing more: 10^6 trials of K = 8
    # must peak under 64 bytes per trial
    agreement = build_reveal_agreement(SchemeParams.default(1))
    tracemalloc.start()
    try:
        block_cheat_report(agreement, 8, 10**6, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 10**6


@pytest.mark.parametrize("sampler", [
    lambda agreement, trials: alice_cheat_report(agreement, 0, 1, trials, 0),
    lambda agreement, trials: block_cheat_report(agreement, 8, trials, 0),
    lambda agreement, trials: bob_premature_strategy(agreement, STRATEGY_DECLARE_PRIOR, trials, 0),
    lambda agreement, trials: bob_premature_strategy(agreement, STRATEGY_UPDATE_ON_REJECT,
                                                     trials, 0),
    lambda agreement, trials: s_protocol_sweep(agreement, trials, 0),
], ids=["alice-pair", "block-8", "declare-prior", "update-on-reject", "parent-s"])
def test_sampler_memory_stays_under_24_bytes_per_trial(sampler, cointoss_agreement):
    # per-row work runs in fixed blocks, so a sampler holds only its whole
    # integers draws and a bool per row: at 10^6 trials of the paper preset
    # every sampler must peak under 24 bytes per trial
    tracemalloc.start()
    try:
        sampler(cointoss_agreement, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 10**6


def test_update_on_reject_peak_memory():
    # the exact figure's grouped sums form no m^3 temporary: with the
    # valid-mass table already built, it must peak under 1 MB, below one
    # m^3 float array (2.1 MB at n=6)
    agreement = build_reveal_agreement(SchemeParams.default(6))
    agreement.valid_masses
    tracemalloc.start()
    try:
        bob_premature_strategy(agreement, STRATEGY_UPDATE_ON_REJECT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6, peak


def test_report_block_rows_equal_standalone_reports():
    # the K = 1..8 block rows of a sampled report are the standalone reports' exacts
    agreement = build_reveal_agreement(SchemeParams.default(2))
    report = run_full_analysis(agreement, 200, seed=5)
    assert [row["exact"] for row in report["block_fidelity"]] == \
        [block_cheat_report(agreement, blocks).exact for blocks in range(1, 9)]


@pytest.mark.parametrize("n", [1, 2])
def test_block_reports_reject_uneven_cheat_acceptance(n):
    # set 1 carries set 0's pairs, so its elements pass reveal 0 with mass 1
    # while the other off-diagonal entries are 1/2: every block report, and
    # the full report through them, must refuse to raise one figure to the K
    honest = build_reveal_agreement(SchemeParams.default(n))
    pairs = honest.pairs.copy()
    pairs[1] = pairs[0]
    tampered = dataclasses.replace(honest, pairs=pairs)
    assert tampered.valid_masses[1, 0, 0] == 1.0 and tampered.valid_masses[0, 0, 1] == 0.5
    reports = [lambda blocks=blocks: block_cheat_report(tampered, blocks) for blocks in range(1, 9)]
    reports += [lambda: block_cheat_report(tampered, 3, 100, 0),
                lambda: run_full_analysis(tampered),
                lambda: run_full_analysis(tampered, 50, seed=1)]
    for report in reports:
        with pytest.raises(ValueError, match="cheat acceptance varies across scenarios"):
            report()


def test_cheat_report_consistency_logic():
    exact_only = CheatReport("s", 0.5)
    assert exact_only.consistent()
    good = CheatReport("s", 0.5, trials=100, estimate=0.52, stderr=0.05)
    bad = CheatReport("s", 0.5, trials=100, estimate=0.9, stderr=0.05)
    assert good.consistent() and not bad.consistent()
    d = good.as_dict()
    assert d["consistent"] is True and d["trials"] == 100
    assert "estimate" not in exact_only.as_dict()


def test_exact_zero_or_one_needs_an_equal_estimate():
    # the plug-in standard error of 19 999 hits in 20 000 is 5.0e-5, so three
    # of them would forgive a miss that an exact 1 cannot produce
    estimate = 19_999 / 20_000
    stderr = (estimate * (1 - estimate) / 20_000) ** 0.5
    assert not CheatReport("s", 1.0, 20_000, estimate, stderr).consistent()
    assert not CheatReport("s", 0.0, 20_000, 1 - estimate, stderr).consistent()
    assert CheatReport("s", 1.0, 20_000, 1.0, 0.0).consistent()
    assert CheatReport("s", 0.0, 20_000, 0.0, 0.0).consistent()


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
    table = cointoss_agreement.valid_masses
    for c in range(2):
        for k in range(2):
            assert abs(table[c, k, 1 - c] - 0.5) < 1e-12
            assert abs(table[c, k, c] - 1.0) < 1e-12


def test_free_alice_plus_state_passes_every_reveal():
    # the witness behind the binding caveat: |+>^(n+1) lies in every Q_c, so
    # a commit frame carrying it is accepted under every parent-B reveal
    schemes = [SchemeParams.paper_cointoss()]
    schemes += [SchemeParams.default(n) for n in range(1, scheme.MAX_N + 1)]
    for params in schemes:
        agreement = build_reveal_agreement(params)
        dim = 2**params.num_alice_qubits
        plus = StateVector(params.num_alice_qubits, np.full(dim, dim**-0.5))
        assert_allclose(walsh_valid_mass(plus.amplitudes, params.masks), 1.0,
                        rtol=0, atol=1e-12)
        digest = scheme_hash(params)
        commit = encode_message(Commit(plus), digest)
        for choice in range(params.num_choices):
            for seed in range(5):
                bob = BobEndpoint(agreement, BobScript(), seed)
                bob.handle_commit(commit)
                bob.handle_reveal(encode_message(Reveal(choice), digest))
                assert bob.result.accepted, (params, choice, seed)


@pytest.mark.parametrize("c_true, c_claimed, label", [
    (-1, 0, "c_true -1"), (4, 0, "c_true 4"), (0, -4, "c_claimed -4"), (0, 4, "c_claimed 4"),
])
def test_cheat_report_rejects_choices_out_of_range(agreements, c_true, c_claimed, label):
    # a negative index must not wrap to another set, nor a large one escape
    # as IndexError, sampled or not
    agreement = agreements[2]
    calls = [
        lambda: alice_cheat_report(agreement, c_true, c_claimed),
        lambda: alice_cheat_report(agreement, c_true, c_claimed, trials=10, rng=1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^{label} out of range$"):
            call()


def test_alice_cheat_matches_inner_product_oracle(agreements):
    for n in (1, 2):
        agreement = agreements[n]
        for c in range(2**n):
            for k in range(2**n):
                for claim in range(2**n):
                    got = agreement.valid_masses[c, k, claim]
                    oracle = acceptance_by_inner_products(
                        agreement, agreement.element(c, k), claim
                    )
                    assert abs(got - oracle) < 1e-10


def test_alice_cheat_report_monte_carlo(cointoss_agreement):
    report = alice_cheat_report(cointoss_agreement, 0, 1, trials=20_000, rng=4)
    assert report.exact == 0.5
    assert report.consistent()
    assert report.stderr < 0.006


def test_block_cheat_fidelity(cointoss_agreement):
    with pytest.raises(ValueError):
        block_cheat_report(cointoss_agreement, 0)
    for K in range(1, 17):
        assert abs(block_cheat_report(cointoss_agreement, K).exact - 0.5**K) < 1e-12
    report = block_cheat_report(cointoss_agreement, 3, trials=20_000, rng=6)
    assert report.exact == 0.125
    assert report.consistent()


def test_wrong_coupling_table(cointoss_agreement):
    table = run_full_analysis(cointoss_agreement)["wrong_coupling"]
    assert len(table) == 4
    for row in table:
        assert abs(row["valid_mass"] - 0.5) < 1e-12
    by_key = {(r["held_choice"], r["element"], r["coupled_choice"]): r for r in table}
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
        product = coupled(cointoss_agreement, cointoss_agreement.element(c, k), claim)
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
            held = agreement.element(c, k)
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
    # the law 3/(2m) under any distinct masks, to the last bit
    for n in range(1, scheme.MAX_N + 1):
        for params in (SchemeParams.default(n), SchemeParams.random_masks(n, 5)):
            report = bob_premature_strategy(build_reveal_agreement(params),
                                            STRATEGY_UPDATE_ON_REJECT)
            assert report.exact == 1.5 / 2**n, params.masks
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


def oracle_schemes():
    """Default masks, the paper preset, seeded random masks and the odd class
    of the all-ones string (the PGM exception), n <= 4."""
    rng = np.random.default_rng(31)
    yield SchemeParams.paper_cointoss()
    for n in (1, 2, 3, 4):
        yield SchemeParams.default(n)
        for _ in range(3):
            yield SchemeParams.random_masks(n, rng)
        yield SchemeParams(n, tuple(d for d in range(2 ** (n + 1)) if bin(d).count("1") % 2))


def test_discrimination_bounds_match_dense_oracle():
    for params in oracle_schemes():
        m = params.num_choices
        mixtures = [ensemble_mixture(params, c) for c in range(m)]
        got = discrimination_bounds(params)
        assert got["chance"] == 1.0 / m
        pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
        assert [(row["a"], row["b"]) for row in got["helstrom_pairs"]] == pairs
        for row in got["helstrom_pairs"]:
            oracle = helstrom_bound(mixtures[row["a"]], mixtures[row["b"]])
            assert abs(row["bound"] - oracle) < 1e-12, params.masks
        oracle = pgm_success(mixtures, np.full(m, 1.0 / m))
        assert abs(got["pgm_uniform"] - oracle) < 1e-12, params.masks


def test_set_mixtures_are_walsh_diagonal():
    # H^(n+1) rho_c H^(n+1) = diag((1 + W[d_c]) / 2^(n+1)) for the dense mixture
    for params in oracle_schemes():
        width = params.num_alice_qubits
        hadamard = hadamard_all(width)
        walsh = walsh_matrix(width)
        for c, d in enumerate(params.masks):
            rho = ensemble_mixture(params, c).density.entries
            expected = np.diag((1 + walsh[d]) / 2**width)
            assert_allclose(hadamard @ rho @ hadamard, expected, atol=1e-12)


def test_analysis_and_audit_run_no_eigensolver(agreements, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for n, agreement in agreements.items():
        run_full_analysis(agreement, trials=0)
        assert all(check.passed for check in audit_scheme(agreement.params))
    with pytest.raises(AssertionError, match="eigensolver"):
        ensemble_mixture(SchemeParams.default(1), 0)  # the dense oracle does call it


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
        success_for(agreement.element(c, k).amplitudes, c)
        for c in range(m)
        for k in range(m)
    ) / m**2
    return p_s * s_branch + (1 - p_s) * b_branch


def test_s_protocol_endpoints_and_oracle(agreements):
    for n in (1, 2):
        agreement = agreements[n]
        sweep = s_protocol_sweep(agreement)
        assert [r.parameters["p_S"] for r in sweep] == np.linspace(0.0, 1.0, 11).tolist()
        assert abs(sweep[-1].exact - 1.0) < 1e-12
        chance = bob_premature_strategy(agreement, STRATEGY_DECLARE_PRIOR).exact
        assert abs(sweep[0].exact - chance) < 1e-12
        for r in sweep:
            p_s = r.parameters["p_S"]
            assert abs(r.exact - enumerate_s_protocol(agreement, p_s)) < 1e-12


def test_s_protocol_sweep_monotone(cointoss_agreement):
    sweep = s_protocol_sweep(cointoss_agreement)
    values = [r.exact for r in sweep]
    assert len(values) == 11
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    mc = s_protocol_sweep(cointoss_agreement, trials=20_000, rng=3)
    assert [r.exact for r in mc] == values
    assert all(r.consistent() for r in mc)


#: The false-alarm level of each statistic of the sampler distribution test,
#: fixed before it was run: two-sided 10^-6, the normal quantile with
#: erfc(Z / sqrt 2) = 1.0e-6.
SAMPLER_Z = 4.89164


def sampled_rows_by_family(report):
    """(family, row) for every sampled row of a report: the alice-cheat pair,
    the block-cheat rows, each strategy and the parent-S sweep."""
    families = {"alice_cheat": "alice-cheat", "block_fidelity": "block-cheat",
                "s_protocol": "parent-S"}
    for section in ("alice_cheat", "block_fidelity", "strategies", "s_protocol"):
        for row in report[section]:
            if "estimate" in row:
                yield families.get(section, row["scenario"]), row


@pytest.mark.parametrize("n", [1, 2])
def test_samplers_match_exact_distribution(n):
    # every sampled row over seeds 0-199 at 2 000 trials. Under a correct
    # sampler the hits of a row are Binomial(N, p), p its exact value, and
    # z = (estimate - p) / sqrt(p (1 - p) / N) has mean 0 and variance 1.
    # Per family, the pooled z-scores of the rows with 0 < p < 1 are tested
    # twice at SAMPLER_Z:
    # * sum z / sqrt(count), normal by the central limit theorem;
    # * sum z^2, with mean count and variance sum(2 + (1 - 6pq) / (N pq)),
    #   q = 1 - p (the binomial kurtosis), read as a scaled chi-square with
    #   those two moments and standardised by the Wilson-Hilferty cube root.
    # A row with exact value 0 or 1 must match its estimate exactly.
    trials = 2000
    agreement = build_reveal_agreement(SchemeParams.default(n))
    pooled = collections.defaultdict(list)
    for seed in range(200):
        for family, row in sampled_rows_by_family(run_full_analysis(agreement, trials, seed)):
            p, estimate = row["exact"], row["estimate"]
            if p in (0.0, 1.0):
                assert estimate == p, (seed, row["scenario"])
            else:
                pooled[family].append((p, (estimate - p) / math.sqrt(p * (1 - p) / trials)))
    assert set(pooled) == {"alice-cheat", "block-cheat", *STRATEGIES, "parent-S"}
    for family, values in pooled.items():
        p, z = np.array(values).T
        count = len(z)
        assert abs(z.sum() / math.sqrt(count)) <= SAMPLER_Z, (family, z.mean())
        pq = p * (1 - p)
        variance = np.sum(2 + (1 - 6 * pq) / (trials * pq))
        dof = 2 * count**2 / variance  # count / dof * chi-square(dof) has both moments
        ratio = np.sum(z**2) / count  # chi-square(dof) / dof
        wilson_hilferty = (ratio ** (1 / 3) - (1 - 2 / (9 * dof))) / math.sqrt(2 / (9 * dof))
        assert abs(wilson_hilferty) <= SAMPLER_Z, (family, ratio)


def test_declared_guesses_are_uniform_over_every_choice():
    # a report's rows guess with the same share whatever the committed
    # choice, so its hit counts are the same under any guess distribution
    # and the test above cannot see a biased guess. Here every row guesses:
    # two groups put all their mass on outcomes >= m, both committed to the
    # last choice m - 1, so the hits are Binomial(N, 1/m) under a uniform
    # guess and 0 under one that never names m - 1
    m, rows = 4, 20_000
    dists = np.zeros((2, 2 * m + 1))
    dists[0, m:] = 1 / (m + 1)  # spread over the outcomes m..2m, reject included
    dists[1, -1] = 1.0  # reject only
    cdfs = analysis._choice_cdf(dists)
    committed = np.array([m - 1, m - 1])
    group_index = np.arange(rows) % 2
    rng = np.random.default_rng(0)
    hits = analysis._declared_hits(cdfs, committed, m, [(0, group_index)], rng)
    p = 1 / m
    assert abs(hits - rows * p) <= SAMPLER_Z * math.sqrt(rows * p * (1 - p)), hits


def test_run_full_analysis_structure(cointoss_agreement):
    report = run_full_analysis(cointoss_agreement)  # samples nothing by default
    assert report["trials"] == 0
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


def test_table_and_direct_paths_agree_exactly(agreements):
    # the report reads the cheat exacts and wrong-coupling rows from the
    # valid-mass table; a cheat report's own masses are its slices, to the
    # last bit, and the direct per-element masses stay the oracle
    for n in (1, 2, 3, 4):
        agreement = agreements[n]
        table = agreement.valid_masses
        elements = dense_sets(agreement)
        for c in range(2**n):
            for claim in range(2**n):
                masses = walsh_valid_mass(elements[c], [agreement.params.masks[claim]])[:, 0]
                assert masses.tobytes() == table[c, :, claim].tobytes()
                exact = alice_cheat_report(agreement, c, claim).exact
                assert exact == float(np.mean(table[c, :, claim]))
        rows = run_full_analysis(agreement)["wrong_coupling"]
        assert rows == [{"held_choice": c, "element": k, "coupled_choice": claim,
                         "valid_mass": float(table[c, k, claim])}
                        for c, k, claim in np.ndindex(table.shape) if c != claim]
        assert [list(row) for row in rows] == [["held_choice", "element", "coupled_choice",
                                                "valid_mass"]] * len(rows)
        # c, then k, then c', skipping c' == c
        assert [(r["held_choice"], r["element"], r["coupled_choice"]) for r in rows] == [
            t for t in np.ndindex((2**n,) * 3) if t[0] != t[2]]


def test_walsh_table_equals_flip_oracle_bit_for_bit():
    # the pair masses change no bit of the index-XOR table:
    # every entry is exactly 1 or 1/2 on both routes
    rng = np.random.default_rng(5)
    schemes = [SchemeParams.paper_cointoss()]
    for n in (1, 2, 3, 4, 5):
        schemes += [SchemeParams.default(n)] + [SchemeParams.random_masks(n, rng) for _ in range(3)]
    for params in schemes:
        agreement = build_reveal_agreement(params)
        table = agreement.valid_masses
        assert table.tobytes() == flip_valid_mass_table(agreement).tobytes(), params.masks
        assert set(np.unique(table)) <= {0.5, 1.0}


@pytest.mark.parametrize("trials", [0, 300])
def test_report_cheat_rows_equal_direct_reports(agreements, trials):
    # every exact-only row is the report alice_cheat_report makes on its own
    schemes = [agreements[n] for n in (1, 2, 3, 4)]
    schemes.append(build_reveal_agreement(SchemeParams.random_masks(3, 8)))
    for agreement in schemes:
        m = agreement.num_choices
        rows = run_full_analysis(agreement, trials, seed=4)["alice_cheat"]
        pairs = [(c, claim) for c in range(m) for claim in range(m) if claim != c]
        assert len(rows) == len(pairs)
        for row, (c, claim) in zip(rows, pairs):
            if trials and (c, claim) == (0, 1):
                assert row["trials"] == trials
                continue
            assert row == alice_cheat_report(agreement, c, claim).as_dict()
