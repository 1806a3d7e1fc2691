"""Tests for the initial-agreement construction and audits.

The golden files under tests/golden hold hand-derived amplitude vectors
for the preset n=1 coin-toss instance: the four set elements and the
four valid products, each expanded by hand from its two factors.
"""

from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qbcsim.quantum import StateVector, inner, random_state, state_from_text, tensor
from qbcsim.scheme import (
    SchemeAuditError,
    SchemeParams,
    RevealState,
    audit_scheme,
    bob_reveal_state,
    build_reveal_agreement,
    build_set_s,
    build_sets,
    cross_set_overlap_audit,
    descriptor_text,
    params_from_descriptor,
    pauli_x_all_expectation,
    pauli_z_expectation,
    scheme_hash,
    stabilizer_audit,
    xor_pairs,
)

GOLDEN = Path(__file__).parent / "golden"


def load_golden(name: str) -> StateVector:
    return state_from_text((GOLDEN / f"{name}.txt").read_text())


def test_scheme_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(0, ())
    with pytest.raises(ValueError):
        SchemeParams(5, tuple(range(1, 33)))
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
            got = cointoss_agreement.bases[c].vector(k)
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
    # each reveal measurement is the 2^n valid products (+ reject), row k
    # being element k of set c tensored with reveal state c
    for n, agreement in agreements.items():
        count = 2**n
        dim = 2 ** (2 * n + 1)
        sets = build_sets(agreement.params)
        assert len(agreement.bases) == count
        for c, basis in enumerate(agreement.bases):
            assert basis.dimension == dim
            assert basis.vectors.shape == (count, dim)
            assert basis.valid_outcomes == frozenset(range(count))
            reveal = bob_reveal_state(agreement.params, c).state
            for k in range(count):
                assert_allclose(
                    basis.vectors[k],
                    tensor(sets[c].elements[k], reveal).amplitudes,
                    atol=1e-15,
                )


def test_set_s_binding():
    params = SchemeParams.default(2)
    set_s = build_set_s(params)
    assert len(set_s.elements) == 8
    for c in range(4):  # choice c is bound to element index c
        assert set_s.elements[c].amplitudes[c] == 1.0


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
            assert abs(pauli_z_expectation(state, z_mask) - expected_z) < 1e-12
    with pytest.raises(ValueError):
        pauli_z_expectation(random_state(2, rng), 4)


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
    entries = cross_set_overlap_audit(cointoss_agreement.sets)
    assert len(entries) == 4  # 2 sets x 2 elements x 1 other set
    for entry in entries:
        assert len(entry.partners) == 2
        for _, magnitude in entry.partners:
            assert abs(magnitude - 0.5) < 1e-12


def test_cross_set_overlap_values_by_hand(cointoss_agreement):
    # (|00>+|01>)/sqrt(2) vs (|00>+|11>)/sqrt(2): shared term |00> -> 1/2
    a = cointoss_agreement.sets[0].elements[0]
    b = cointoss_agreement.sets[1].elements[0]
    assert abs(inner(a, b) - 0.5) < 1e-12


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


def test_descriptor_round_trip():
    params = SchemeParams.default(2)
    text = descriptor_text(params)
    again = params_from_descriptor(text)
    assert again == params
    assert "masks=0x1,0x2,0x3,0x4" in text
    with pytest.raises(ValueError):
        params_from_descriptor("masks=0x1,0x3\n")  # missing n
    with pytest.raises(ValueError):
        params_from_descriptor("n=1\nmasks=0x1,0x3\n???\n")


def test_scheme_hash_ignores_preset_name():
    bare = SchemeParams(1, (1, 3))
    assert scheme_hash(SchemeParams.paper_cointoss()) == scheme_hash(bare)
    assert scheme_hash(bare) != scheme_hash(SchemeParams.default(1))
    assert len(scheme_hash(bare)) == 64


def test_honest_products_are_distinguishable(cointoss_agreement):
    # every valid product lands on its own outcome with probability 1
    from qbcsim.quantum import born_distribution

    for c in range(2):
        basis = cointoss_agreement.bases[c]
        for k in range(2):
            product = tensor(
                cointoss_agreement.sets[c].elements[k],
                cointoss_agreement.reveal_states[c].state,
            )
            dist = born_distribution(product, basis)
            assert abs(dist[k] - 1.0) < 1e-12
