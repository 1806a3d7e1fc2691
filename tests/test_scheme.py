"""Tests for the initial-agreement construction and audits.

The golden files under tests/golden hold hand-derived amplitude vectors
for the preset n=1 coin-toss instance: the four set elements and the
four valid products, each expanded by hand from its two factors.

Bob's reveal measurement is held on Alice's (n+1)-qubit register. The
explicit (2n+1)-qubit measurement onto element (x) reveal state, built
here by ``product_measurement``, is the oracle it is checked against.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qbcsim import analysis, quantum, scheme
from qbcsim.quantum import (
    MeasurementBasis,
    StateVector,
    born_distribution,
    inner,
    random_state,
    state_from_text,
    tensor,
)
from qbcsim.scheme import (
    MAX_N,
    CommitmentSet,
    SchemeAuditError,
    SchemeParams,
    RevealState,
    audit_scheme,
    bob_reveal_state,
    build_reveal_agreement,
    build_sets,
    descriptor_text,
    pauli_x_all_expectation,
    pauli_z_expectations,
    scheme_hash,
    stabilizer_audit,
    xor_pairs,
)

GOLDEN = Path(__file__).parent / "golden"


def load_golden(name: str) -> StateVector:
    return state_from_text((GOLDEN / f"{name}.txt").read_text())


def product_measurement(agreement, claimed: int) -> MeasurementBasis:
    """Oracle: Bob's coupled reveal measurement for ``claimed`` in the
    (2n+1)-qubit product space, row k = element k of set ``claimed``
    tensored with reveal state ``claimed``, plus the reject outcome."""
    reveal = agreement.reveal_states[claimed].state
    return MeasurementBasis([tensor(e, reveal).amplitudes
                             for e in agreement.sets[claimed].elements])


def test_scheme_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(0, ())
    with pytest.raises(ValueError):
        SchemeParams(7, tuple(range(1, 129)))
    for n in (-1, 0, MAX_N + 1, 99999999):  # checked before 2**n is formed
        with pytest.raises(ValueError, match="num_bob_qubits"):
            SchemeParams.default(n)
        with pytest.raises(ValueError, match="num_bob_qubits"):
            SchemeParams.random_masks(n, 0)
    with pytest.raises(ValueError):
        SchemeParams(1, (1,))  # wrong count
    with pytest.raises(ValueError):
        SchemeParams(1, (0, 1))  # zero mask pairs nothing
    with pytest.raises(ValueError):
        SchemeParams(1, (1, 4))  # mask wider than n+1 bits
    with pytest.raises(ValueError, match="distinct"):
        SchemeParams(1, (3, 3))


def test_scheme_params_presets():
    preset = SchemeParams.paper_cointoss()
    assert (preset.num_bob_qubits, preset.masks) == (1, (1, 3))
    default = SchemeParams.default(2)
    assert default.masks == (1, 2, 3, 4)
    assert default.num_choices == 4
    assert default.num_alice_qubits == 3
    random = SchemeParams.random_masks(2, 99)
    assert len(set(random.masks)) == 4
    assert SchemeParams.random_masks(2, 99).masks == random.masks


def test_xor_pairs_partition():
    params = SchemeParams.paper_cointoss()
    assert xor_pairs(params, 0) == ((0, 1), (2, 3))
    assert xor_pairs(params, 1) == ((0, 3), (1, 2))
    for n in (2, 3):
        p = SchemeParams.default(n)
        for c in range(p.num_choices):
            pairs = xor_pairs(p, c)
            flat = [i for pair in pairs for i in pair]
            assert sorted(flat) == list(range(2 ** (n + 1)))


def test_build_sets_matches_golden_files(cointoss_agreement):
    for c in range(2):
        for k in range(2):
            expected = load_golden(f"cointoss_set{c}_elem{k}")
            got = cointoss_agreement.sets[c].elements[k]
            assert_allclose(got.amplitudes, expected.amplitudes, atol=1e-12)


def test_valid_products_match_golden_files(cointoss_agreement):
    for c in range(2):
        for k in range(2):
            expected = load_golden(f"cointoss_product{c}_elem{k}")
            got = product_measurement(cointoss_agreement, c).vector(k)
            assert_allclose(got.amplitudes, expected.amplitudes, atol=1e-12)


def test_reveal_state_closed_form():
    # expected: (|0,c2..cn> + (-1)^c1 |1,~c2..~cn>)/sqrt(2)
    for n in (1, 2, 3, 4):
        params = SchemeParams.default(n)
        for c in range(params.num_choices):
            state = bob_reveal_state(params, c).state
            c1 = (c >> (n - 1)) & 1
            tail = c & ((1 << (n - 1)) - 1)
            flipped = tail ^ ((1 << (n - 1)) - 1)
            expected = np.zeros(2**n, dtype=complex)
            expected[tail] = np.sqrt(0.5)
            expected[(1 << (n - 1)) | flipped] += (-1) ** c1 * np.sqrt(0.5)
            assert_allclose(state.amplitudes, expected, atol=1e-12), (n, c)
    with pytest.raises(ValueError):
        bob_reveal_state(SchemeParams.default(1), 2)


def test_reveal_states_cointoss_preset(cointoss_agreement):
    plus, minus = (r.state.amplitudes for r in cointoss_agreement.reveal_states)
    assert_allclose(plus, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-15)
    assert_allclose(minus, [np.sqrt(0.5), -np.sqrt(0.5)], atol=1e-15)


def test_agreement_basis_shape(agreements):
    # each reveal measurement is the 2^n elements of set c (+ reject) on
    # Alice's register, row k being element k of set c
    for n, agreement in agreements.items():
        count = 2**n
        dim = 2 ** (n + 1)
        sets = build_sets(agreement.params)
        assert len(agreement.measurements) == count
        for c, basis in enumerate(agreement.measurements):
            assert basis.dimension == dim
            assert basis.vectors.shape == (count, dim)
            for k in range(count):
                assert_allclose(basis.vectors[k], sets[c].elements[k].amplitudes, atol=1e-15)


def test_register_measurement_equals_product_measurement(agreements):
    # <e (x) G_c|psi (x) G_c> = <e|psi>: measuring psi on the set rows gives
    # Bob's coupled product-space distribution, for set elements and for
    # arbitrary held states, under every reveal
    rng = np.random.default_rng(31)
    for n, agreement in agreements.items():
        for c in range(agreement.num_choices):
            reveal = agreement.reveal_states[c].state
            oracle = product_measurement(agreement, c)
            held = [e for s in (c, (c + 1) % agreement.num_choices)
                    for e in agreement.sets[s].elements]
            held += [random_state(n + 1, rng) for _ in range(5)]
            for psi in held:
                assert_allclose(
                    born_distribution(psi, agreement.measurements[c]),
                    born_distribution(tensor(psi, reveal), oracle),
                    atol=1e-12,
                )


def test_factorised_product_gram_matches_explicit_gram(agreements):
    # the audit's <e (x) G|e' (x) G'> = <e|e'><G|G'> against the explicit
    # Gram of every valid product of every choice in the product space
    for n, agreement in agreements.items():
        m = agreement.num_choices
        stacked = np.concatenate([product_measurement(agreement, c).vectors for c in range(m)])
        explicit = stacked.conj() @ stacked.T
        elements = np.array([e.amplitudes for s in agreement.sets for e in s.elements])
        reveals = np.array([r.state.amplitudes for r in agreement.reveal_states])
        factorised = (elements.conj() @ elements.T) * np.kron(
            reveals.conj() @ reveals.T, np.ones((m, m))
        )
        assert_allclose(factorised, explicit, atol=1e-15)
        assert np.abs(explicit - np.eye(m * m)).max() <= 1e-9


def test_pauli_expectations_against_dense_oracle():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        state = random_state(n, rng)
        dim = 2**n
        # X^(x)n is the anti-diagonal permutation
        x_full = np.eye(dim)[::-1]
        expected_x = np.vdot(state.amplitudes, x_full @ state.amplitudes).real
        assert abs(pauli_x_all_expectation(state) - expected_x) < 1e-12
        for z_mask in range(dim):
            signs = np.array(
                [(-1) ** bin(i & z_mask).count("1") for i in range(dim)], dtype=float
            )
            expected_z = np.vdot(state.amplitudes, signs * state.amplitudes).real
            assert abs(pauli_z_expectations(state)[z_mask] - expected_z) < 1e-12


def test_stabilizer_audit_passes_for_reveal_states(agreements):
    for n, agreement in agreements.items():
        for reveal in agreement.reveal_states:
            report = stabilizer_audit(reveal)
            c1 = (reveal.choice >> (n - 1)) & 1
            assert report.x_eigenvalue == (-1) ** c1
            assert set(report.z_eigenvalues.values()) <= {1, -1}
            assert all(bin(z).count("1") % 2 == 0 for z in report.z_eigenvalues)


def test_stabilizer_audit_rejects_non_eigen_state():
    from qbcsim.quantum import make_basis_state

    fake = RevealState(0, make_basis_state("00"))  # X^(x)2 expectation is 0
    with pytest.raises(SchemeAuditError):
        stabilizer_audit(fake)


def test_cross_set_overlaps(cointoss_agreement):
    # |<e_{c,k}|e_{c',p}>| for every element and every other set: exactly
    # two partners, each of magnitude 1/2; the audit makes the same check
    sets = cointoss_agreement.sets
    elements = np.array([[e.amplitudes for e in s.elements] for s in sets])  # [c, k, x]
    magnitudes = np.abs(np.einsum("akx,bpx->abkp", elements.conj(), elements))
    rows = [magnitudes[a, b, k] for a in range(2) for b in range(2) if b != a for k in range(2)]
    assert len(rows) == 4  # 2 sets x 2 elements x 1 other set
    for row in rows:
        partners = row[row > 1e-9]
        assert len(partners) == 2
        assert np.abs(partners - 0.5).max() < 1e-12
    checks = {c.name: c.passed for c in audit_scheme(cointoss_agreement.params)}
    assert checks["cross-set-two-partners-overlap-half"]


def test_cross_set_overlap_values_by_hand(cointoss_agreement):
    # (|00>+|01>)/sqrt(2) vs (|00>+|11>)/sqrt(2): shared term |00> -> 1/2
    a = cointoss_agreement.sets[0].elements[0]
    b = cointoss_agreement.sets[1].elements[0]
    assert abs(inner(a, b) - 0.5) < 1e-12


def test_audit_scheme_makes_no_inner_calls(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return quantum.inner(a, b)

    monkeypatch.setattr(quantum, "inner", counting)
    monkeypatch.setattr(scheme, "inner", counting, raising=False)
    for n in (1, 2, 3):
        checks = audit_scheme(SchemeParams.default(n))
        assert all(c.passed for c in checks)
    assert calls == []


def test_audit_scheme_flags_tampered_agreements(monkeypatch):
    # negative controls for the array-based checks: the audit is handed an
    # agreement with one set or one reveal state swapped for another's
    params = SchemeParams.default(2)
    honest = build_reveal_agreement(params)

    def failed_checks(**changes):
        tampered = dataclasses.replace(honest, **changes)
        monkeypatch.setattr(scheme, "build_reveal_agreement", lambda _: tampered)
        return {c.name for c in audit_scheme(params) if not c.passed}

    sets = list(honest.sets)
    sets[1] = CommitmentSet(1, sets[0].elements)  # set 1 no longer overlaps set 0 at 1/2
    assert failed_checks(sets=tuple(sets)) == {
        "cross-set-two-partners-overlap-half", "reveal-bases-complete"}
    # an even superposition of set 0 meets all four of its elements at 1/2
    spread = StateVector(3, sum(e.amplitudes for e in honest.sets[0].elements) / 2)
    sets[1] = CommitmentSet(1, (spread,) + honest.sets[1].elements[1:])
    assert failed_checks(sets=tuple(sets)) == {
        "within-set-orthogonality", "two-term-equal-superposition-cover",
        "cross-set-two-partners-overlap-half", "valid-products-orthogonal", "reveal-bases-complete"}
    reveals = list(honest.reveal_states)
    reveals[1] = RevealState(1, reveals[0].state)  # products of choices 0 and 1 overlap
    assert failed_checks(reveal_states=tuple(reveals)) == {
        "reveal-states-orthonormal", "valid-products-orthogonal"}


def test_audit_scheme_all_pass():
    for params in (
        SchemeParams.paper_cointoss(),
        SchemeParams.default(2),
        SchemeParams.random_masks(2, 3),
    ):
        checks = audit_scheme(params)
        failed = [c.name for c in checks if not c.passed]
        assert failed == [], failed
    names = [c.name for c in audit_scheme(SchemeParams.paper_cointoss())]
    assert names == [
        "within-set-orthogonality",
        "two-term-equal-superposition-cover",
        "cross-set-two-partners-overlap-half",
        "reveal-states-orthonormal",
        "stabilizer-eigenoperators",
        "odd-z-masks-not-eigenoperators",
        "valid-products-orthogonal",
        "reveal-bases-complete",
    ]


def test_scheme_hash_ignores_preset_name():
    assert "masks=0x1,0x2,0x3,0x4" in descriptor_text(SchemeParams.default(2))
    bare = SchemeParams(1, (1, 3))
    assert scheme_hash(SchemeParams.paper_cointoss()) == scheme_hash(bare)
    assert scheme_hash(bare) != scheme_hash(SchemeParams.default(1))
    assert len(scheme_hash(bare)) == 64


def test_honest_products_are_distinguishable(cointoss_agreement):
    # every valid product lands on its own outcome with probability 1
    for c in range(2):
        basis = product_measurement(cointoss_agreement, c)
        for k in range(2):
            product = tensor(
                cointoss_agreement.sets[c].elements[k],
                cointoss_agreement.reveal_states[c].state,
            )
            dist = born_distribution(product, basis)
            assert abs(dist[k] - 1.0) < 1e-12
            held = cointoss_agreement.sets[c].elements[k]
            dist = born_distribution(held, cointoss_agreement.measurements[c])
            assert abs(dist[k] - 1.0) < 1e-12


#: Derandomised examples per n: few where one audit costs the most.
RANDOM_MASK_EXAMPLES = {1: 20, 2: 20, 3: 10, 4: 5, 5: 2, 6: 1}


@pytest.mark.parametrize("n", range(1, MAX_N + 1))
def test_random_masks_pass_audit_and_half_law(n):
    @settings(max_examples=RANDOM_MASK_EXAMPLES[n], derandomize=True, deadline=None,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def check(seed):
        params = SchemeParams.random_masks(n, seed)
        failed = [c.name for c in audit_scheme(params) if not c.passed]
        assert failed == [], (params.masks, failed)
        table = analysis._valid_mass_table(build_reveal_agreement(params))
        c, _, claim = np.indices(table.shape)
        assert (table[c != claim] == 0.5).all(), params.masks
        # concealment: every Helstrom pair is exactly 3/4, and the square-root
        # measurement is |supp S| / (m 2^n), y outside supp S when every mask
        # has odd parity with it
        bounds = analysis.discrimination_bounds(params)
        assert all(row["bound"] == 0.75 for row in bounds["helstrom_pairs"]), params.masks
        m = params.num_choices
        support = sum(
            any(bin(d & y).count("1") % 2 == 0 for d in params.masks)
            for y in range(2 ** (n + 1))
        )
        assert bounds["pgm_uniform"] == support / (m * 2**n), params.masks

    check()
