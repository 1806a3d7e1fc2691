"""Tests for the initial-agreement construction and audits.

The golden files under tests/golden hold hand-derived amplitude vectors
for the preset n=1 coin-toss instance: the four set elements and the
four valid products, each expanded by hand from its two factors.

Bob's reveal measurement is formed on Alice's (n+1)-qubit register. The
explicit (2n+1)-qubit measurement onto element (x) reveal state, built
here by ``product_measurement``, is the oracle it is checked against.
"""

import dataclasses
import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dense_oracle import dense_sets, generation_circuit, gram_block_residuals
from qbcsim import analysis, quantum, scheme
from qbcsim.quantum import (
    ATOL,
    INV_SQRT2,
    MeasurementBasis,
    StateVector,
    born_distribution,
    state_from_text,
)
from qbcsim.scheme import (
    MAX_N,
    SchemeParams,
    audit_scheme,
    build_reveal_agreement,
    descriptor_text,
    scheme_hash,
    xor_pairs,
)
from qbcsim.session import PARENT_S, AliceScript, BobScript, run_session
from test_quantum import inner, ket, random_state

GOLDEN = Path(__file__).parent / "golden"


def load_golden(name: str) -> StateVector:
    return state_from_text((GOLDEN / f"{name}.txt").read_text())


def set_measurement(agreement, claimed: int) -> MeasurementBasis:
    """Set ``claimed`` as Bob's reveal measurement on Alice's register, from
    its dense rows: valid outcome k is element k, outcome 2^n rejects."""
    return MeasurementBasis(dense_sets(agreement)[claimed])


def coupled(agreement, psi: StateVector, claimed: int) -> StateVector:
    """psi (x) G_claimed in the (2n+1)-qubit product space, the qubits of
    ``psi`` most significant."""
    return StateVector(psi.num_qubits + agreement.params.num_bob_qubits,
                       np.kron(psi.amplitudes, agreement.reveals[claimed]))


def product_measurement(agreement, claimed: int) -> MeasurementBasis:
    """Oracle: Bob's coupled reveal measurement for ``claimed`` in the
    (2n+1)-qubit product space, row k = element k of set ``claimed``
    tensored with reveal state ``claimed``, plus the reject outcome."""
    return MeasurementBasis([coupled(agreement, agreement.element(claimed, k), claimed).amplitudes
                             for k in range(agreement.num_choices)])


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


def test_scheme_params_take_integers_alone():
    # a float mask was once rounded (so two peers disagreeing on it agreed on
    # the hash) and a float n failed only at the build; a bool n or mask read
    # as 1, as the wire never does; numpy integers work
    for n, masks in ((1, (1, 2.5)), (1.0, (1, 2)), (True, (1, 3)), (1, (True, 3)),
                     (1, (np.int64(2), True))):
        with pytest.raises(TypeError):
            SchemeParams(n, masks)
    for factory in (SchemeParams.default, lambda n: SchemeParams.random_masks(n, 0)):
        with pytest.raises(TypeError, match="bool"):
            factory(True)
    params = SchemeParams(np.int64(1), (np.int64(1), 3))
    assert params == SchemeParams(1, (1, 3))
    assert type(params.num_bob_qubits) is int and all(type(d) is int for d in params.masks)
    assert scheme_hash(params) == scheme_hash(SchemeParams(1, (1, 3)))


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
            got = cointoss_agreement.element(c, k)
            assert_allclose(got.amplitudes, expected.amplitudes, atol=1e-12)
            row = set_measurement(cointoss_agreement, c).vector(k)
            assert_allclose(row.amplitudes, expected.amplitudes, atol=1e-12)


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
        agreement = build_reveal_agreement(params)
        for c in range(params.num_choices):
            c1 = (c >> (n - 1)) & 1
            tail = c & ((1 << (n - 1)) - 1)
            flipped = tail ^ ((1 << (n - 1)) - 1)
            expected = np.zeros(2**n, dtype=complex)
            expected[tail] = np.sqrt(0.5)
            expected[(1 << (n - 1)) | flipped] += (-1) ** c1 * np.sqrt(0.5)
            assert_allclose(agreement.reveals[c], expected, atol=1e-12), (n, c)


def test_reveal_states_match_generation_circuit():
    # the closed form against the paper's H + CNOT circuit as dense operators;
    # the oracle's 1/sqrt(2) may differ from INV_SQRT2 by an ulp
    schemes = [SchemeParams.default(n) for n in range(1, MAX_N + 1)]
    for params in schemes + [SchemeParams.paper_cointoss()]:
        n = params.num_bob_qubits
        agreement = build_reveal_agreement(params)
        for c in range(params.num_choices):
            circuit = generation_circuit(n, c)
            assert_allclose(agreement.reveals[c], circuit, rtol=0, atol=1e-15)
            assert np.count_nonzero(circuit) == 2, (n, c)


def test_reveal_states_cointoss_preset(cointoss_agreement):
    plus, minus = cointoss_agreement.reveals
    assert_allclose(plus, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-15)
    assert_allclose(minus, [np.sqrt(0.5), -np.sqrt(0.5)], atol=1e-15)


def test_agreement_basis_shape(agreements):
    # set c is held as its XOR pairs, [c, k, 2]; its reveal measurement on
    # Alice's register has the 2^n elements (+ reject), row k being
    # (|x> + |y>)/sqrt(2) for the k-th pair
    for n, agreement in agreements.items():
        count = 2**n
        dim = 2 ** (n + 1)
        assert [f.name for f in dataclasses.fields(agreement)] == [
            "params", "pairs", "reveals"]
        assert agreement.pairs.shape == (count, count, 2)
        assert agreement.reveals.shape == (count, count)
        assert not any(array.flags.writeable for array in (agreement.pairs, agreement.reveals))
        for c in range(count):
            assert agreement.pairs[c].tolist() == [list(p) for p in xor_pairs(agreement.params, c)]
            basis = set_measurement(agreement, c)
            assert isinstance(basis, MeasurementBasis)
            assert basis.dimension == dim
            assert basis.vectors.shape == (count, dim)
            for k, (x, y) in enumerate(xor_pairs(agreement.params, c)):
                expected = np.zeros(dim, dtype=complex)
                expected[[x, y]] = INV_SQRT2
                assert basis.vector(k).amplitudes.tobytes() == expected.tobytes()
                assert agreement.element(c, k).amplitudes.tobytes() == expected.tobytes()
        for k in (-1, count):
            with pytest.raises(ValueError, match="element"):
                agreement.element(0, k)


def test_build_forms_no_state_vector(monkeypatch):
    # the build writes arrays only: no StateVector and no MeasurementBasis is
    # constructed, and each is formed (and validated) on demand
    built = []
    for cls in (StateVector, MeasurementBasis):
        original = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda obj, original=original: built.append(obj) or original(obj))
    for n in range(1, MAX_N + 1):
        build_reveal_agreement(SchemeParams.default(n))
    agreement = build_reveal_agreement(SchemeParams.paper_cointoss())
    assert built == []
    agreement.element(1, 0)
    assert [type(obj) for obj in built] == [StateVector]


def test_valid_masses_read_only_and_lazy():
    # neither a build nor an in-process session of any kind computes the
    # valid-mass table; the first read computes it, once, read-only
    agreement = build_reveal_agreement(SchemeParams.default(2))
    assert "valid_masses" not in vars(agreement)
    for alice in (AliceScript(choice=3, element=1), AliceScript(choice=3, reveal_choice=0),
                  AliceScript(choice=2, parent=PARENT_S)):
        run_session(agreement, alice, BobScript(guess=1), seed=0)
    assert "valid_masses" not in vars(agreement)
    table = agreement.valid_masses
    assert vars(agreement)["valid_masses"] is table and agreement.valid_masses is table
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0, 0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        agreement.valid_masses = table


def closed_form_stack(params) -> np.ndarray:
    """Oracle: reveal state c written choice by choice from its closed form,
    (|0,c2..cn> + (-1)^c1 |1,~c2..~cn>)/sqrt(2), into zeroed rows, stacked."""
    n = params.num_bob_qubits
    rows = []
    for c in range(params.num_choices):
        low = c & (2 ** (n - 1) - 1)
        amplitudes = np.zeros(2**n, dtype=complex)
        amplitudes[low] = INV_SQRT2
        amplitudes[2**n - 1 - low] = -INV_SQRT2 if c >> (n - 1) else INV_SQRT2
        rows.append(amplitudes)
    return np.array(rows)


def test_reveals_equal_closed_form_stack():
    # byte for byte, signed zeros included, for every preset and pinned mask set
    schemes = [SchemeParams.default(n) for n in range(1, MAX_N + 1)]
    schemes += [SchemeParams.paper_cointoss(), SchemeParams.random_masks(2, 5),
                SchemeParams.random_masks(3, 11), SchemeParams.random_masks(5, 7)]
    for params in schemes:
        agreement = build_reveal_agreement(params)
        assert agreement.reveals.tobytes() == closed_form_stack(params).tobytes()


def test_measurement_distribution_equals_dense_born_rows():
    # the verify's O(m) pair route against the dense measurement: byte for
    # byte for set elements and |+>^(n+1) under every reveal, n = 1..6. Up to
    # n = 4 every element is held under every reveal; at n = 5 and 6 (all
    # 32 x 1025 + 64 x 4097 checks take about 9 s) each reveal meets four
    # sets, its own among them, and every element is held under four
    # reveals. Random states may differ from the dense product in the last bit
    schemes = [SchemeParams.default(n) for n in range(1, MAX_N + 1)]
    schemes += [SchemeParams.paper_cointoss(), SchemeParams.random_masks(3, 11)]
    rng = np.random.default_rng(29)
    for params in schemes:
        agreement = build_reveal_agreement(params)
        m, n = params.num_choices, params.num_bob_qubits
        elements = [[agreement.element(c, k) for k in range(m)] for c in range(m)]
        plus = StateVector(n + 1, np.full(2 * m, 1 / np.sqrt(2 * m)))
        noisy = [random_state(n + 1, rng) for _ in range(3)]
        for claim in range(m):
            measurement = set_measurement(agreement, claim)
            sets = range(m) if n < 5 else {(claim + step) % m for step in (0, 1, 21, 42)}
            for psi in [plus] + [e for c in sets for e in elements[c]]:
                got = agreement.measurement_distribution(claim, psi)
                assert got.tobytes() == born_distribution(psi, measurement).tobytes()
            for psi in noisy:
                assert_allclose(agreement.measurement_distribution(claim, psi),
                                born_distribution(psi, measurement), rtol=1e-14, atol=1e-16)
    with pytest.raises(ValueError, match="dimensions"):
        agreement.measurement_distribution(0, ket("0"))


def test_build_peak_memory_stays_quadratic():
    # the pairs are O(m^2): building the n=6 agreement peaks far below the
    # 8.4 MB that its 64 dense 64 x 128 complex sets would take
    params = SchemeParams.default(6)
    build_reveal_agreement(params)  # a first call's one-time allocations are not counted
    tracemalloc.start()
    try:
        build_reveal_agreement(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6, peak


def test_audit_peak_memory():
    # the pair checks form no complex [c', c, k, 2] gather: the n=6 audit
    # peaks below the 8.4 MB that one such array alone would take
    params = SchemeParams.default(6)
    audit_scheme(params)  # a first call's one-time allocations are not counted
    tracemalloc.start()
    try:
        audit_scheme(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10**6, peak


#: SHA-256 over every set's dense rows [c, k, x] and then the reveal-state array [c, x],
#: as complex128 bytes in choice order, keyed by (n, masks).
AGREEMENT_PINS = {
    (1, (1, 2)): "671eeb26268792712b3f3f7d10900db630a70fa2695640bb4b39eba52015ef7c",
    (2, (1, 2, 3, 4)): "90f0609e045b98dcd7886a52ab8ccd309dd4f01da2d65c47fe4554363ab6c898",
    (3, tuple(range(1, 9))): "e78548d892bc6b90fc6f6c31793d56248949bc7714c5327c31d6ac5848a3d367",
    (4, tuple(range(1, 17))): "8a76061d11e3bfc9bd071349e1f0f830d7c03d2dbd0773fb69ce912cb7ac85e2",
    (5, tuple(range(1, 33))): "3ee35785adf5614e3d1c944f51c09f2e2c5555a31da720530fb36041d78921ee",
    (6, tuple(range(1, 65))): "997b94b3c96ef3265d9b49ccbcdc67581362d5a1d760311e1ac9b43abab78f27",
    (1, (1, 3)): "44d73408b4b5c500402306b08c799e9e6cfc495c4eb5925f6b6060d866cee618",
    (2, (3, 1, 6, 5)): "623030fa77a29eb3e1f0c694c49226a7ab416283f6b4f1f6cd2e3cf398d4288d",
    (3, (1, 10, 2, 13, 12, 8, 9, 6)):
        "2a4a27951d2aa4e91ebcce59b96e57da9ce401f842c7efc7e2a1412dd67e1bd9",
    (5, SchemeParams.random_masks(5, 7).masks):
        "4dc2d30c7720f4d547c7def9875bba1c40ad748539b7f200affff7d2a8dcca08",
}


def test_agreement_bytes_pinned():
    schemes = [SchemeParams.default(n) for n in range(1, MAX_N + 1)]
    schemes += [SchemeParams.paper_cointoss(), SchemeParams.random_masks(2, 5),
                SchemeParams.random_masks(3, 11), SchemeParams.random_masks(5, 7)]
    assert [(p.num_bob_qubits, p.masks) for p in schemes] == list(AGREEMENT_PINS)
    for params in schemes:
        agreement = build_reveal_agreement(params)
        digest = hashlib.sha256(dense_sets(agreement).tobytes())
        digest.update(agreement.reveals.tobytes())
        assert digest.hexdigest() == AGREEMENT_PINS[params.num_bob_qubits, params.masks]


def test_register_measurement_equals_product_measurement(agreements):
    # <e (x) G_c|psi (x) G_c> = <e|psi>: measuring psi on the set rows gives
    # Bob's coupled product-space distribution, for set elements and for
    # arbitrary held states, under every reveal
    rng = np.random.default_rng(31)
    for n, agreement in agreements.items():
        for c in range(agreement.num_choices):
            oracle = product_measurement(agreement, c)
            measurement = set_measurement(agreement, c)
            held = [agreement.element(s, k) for s in (c, (c + 1) % agreement.num_choices)
                    for k in range(agreement.num_choices)]
            held += [random_state(n + 1, rng) for _ in range(5)]
            for psi in held:
                assert_allclose(
                    born_distribution(psi, measurement),
                    born_distribution(coupled(agreement, psi, c), oracle),
                    atol=1e-12,
                )


def test_factorised_product_gram_matches_explicit_gram(agreements):
    # the audit's <e (x) G|e' (x) G'> = <e|e'><G|G'> against the explicit
    # Gram of every valid product of every choice in the product space
    for n, agreement in agreements.items():
        m = agreement.num_choices
        stacked = np.concatenate([product_measurement(agreement, c).vectors for c in range(m)])
        explicit = stacked.conj() @ stacked.T
        elements = dense_sets(agreement).reshape(m * m, -1)
        reveals = agreement.reveals
        factorised = (elements.conj() @ elements.T) * np.kron(
            reveals.conj() @ reveals.T, np.ones((m, m))
        )
        assert_allclose(factorised, explicit, atol=1e-15)
        assert np.abs(explicit - np.eye(m * m)).max() <= 1e-9


def test_pauli_expectations_against_dense_oracle():
    # the audit's stacked X^(x)n and Walsh-transform Z expectations, against
    # dense operators applied to each random state in turn
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        states = np.array([random_state(n, rng).amplitudes for _ in range(4)])
        x_values, z_values = scheme._pauli_expectations(states)
        assert x_values.shape == (4,) and z_values.shape == (4, 2**n)
        dim = 2**n
        # X^(x)n is the anti-diagonal permutation
        x_full = np.eye(dim)[::-1]
        for state, x_value, z_row in zip(states, x_values, z_values):
            expected_x = np.vdot(state, x_full @ state).real
            assert abs(x_value - expected_x) < 1e-12
            for z_mask in range(dim):
                signs = np.array(
                    [(-1) ** bin(i & z_mask).count("1") for i in range(dim)], dtype=float
                )
                expected_z = np.vdot(state, signs * state).real
                assert abs(z_row[z_mask] - expected_z) < 1e-12


def test_stabilizer_audit_passes_for_reveal_states(agreements):
    # X^(x)n has eigenvalue (-1)^c1 on reveal state c, every even-parity Z
    # mask is a +-1 eigenoperator, and every odd one has expectation 0
    for n, agreement in agreements.items():
        reveals = agreement.reveals
        x_values, z_values = scheme._pauli_expectations(reveals)
        even = np.array([bin(z).count("1") % 2 == 0 for z in range(2**n)])
        for c in range(agreement.num_choices):
            c1 = (c >> (n - 1)) & 1
            assert abs(x_values[c] - (-1) ** c1) <= 1e-9
            assert (np.abs(np.abs(z_values[c, even]) - 1.0) <= 1e-9).all()
            assert (np.abs(z_values[c, ~even]) <= 1e-9).all()
        checks = {check.name: check.passed for check in audit_scheme(agreement.params)}
        assert checks["stabilizer-eigenoperators"]
        assert checks["odd-z-masks-not-eigenoperators"]


def test_stabilizer_audit_rejects_non_eigen_state(monkeypatch):
    # |00> in place of reveal state 3: its X^(x)2 expectation is 0
    params = SchemeParams.default(2)
    honest = build_reveal_agreement(params)
    reveals = honest.reveals.copy()
    reveals[3] = ket("00").amplitudes
    tampered = dataclasses.replace(honest, reveals=reveals)
    monkeypatch.setattr(scheme, "build_reveal_agreement", lambda _: tampered)
    checks = {check.name: check for check in audit_scheme(params)}
    assert not checks["stabilizer-eigenoperators"].passed
    assert checks["stabilizer-eigenoperators"].detail == \
        "X^n expectation 0.0 is not +-1 for choice 3"


def test_cross_set_overlaps(cointoss_agreement):
    # |<e_{c,k}|e_{c',p}>| for every element and every other set: exactly
    # two partners, each of magnitude 1/2; the audit makes the same check
    elements = dense_sets(cointoss_agreement)  # [c, k, x]
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
    a = cointoss_agreement.element(0, 0)
    b = cointoss_agreement.element(1, 0)
    assert abs(inner(a, b) - 0.5) < 1e-12


def test_audit_scheme_makes_no_inner_calls(monkeypatch):
    # every overlap and expectation comes from stacked arrays: with the
    # agreement built beforehand, the audit computes no vector overlap one
    # pair at a time, and the package has no inner product to call
    assert not hasattr(quantum, "inner") and not hasattr(scheme, "inner")

    def refuse(*args):
        raise AssertionError("np.vdot called")

    for n in (1, 2, 3):
        agreement = build_reveal_agreement(SchemeParams.default(n))
        with monkeypatch.context() as patch:
            patch.setattr(scheme, "build_reveal_agreement", lambda _: agreement)
            patch.setattr(np, "vdot", refuse)
            checks = audit_scheme(agreement.params)
        assert all(c.passed for c in checks)


def test_audit_scheme_flags_tampered_agreements(monkeypatch):
    # negative controls for the array-based checks: the audit is handed an
    # agreement with one set or one reveal state swapped for another's
    params = SchemeParams.default(2)
    honest = build_reveal_agreement(params)

    def failures(**changes):
        tampered = dataclasses.replace(honest, **changes)
        monkeypatch.setattr(scheme, "build_reveal_agreement", lambda _: tampered)
        return {c.name: c.detail for c in audit_scheme(params) if not c.passed}

    def failed_checks(**changes):
        return set(failures(**changes))

    pairs = honest.pairs.copy()
    pairs[1] = pairs[0]  # set 1 no longer overlaps set 0 at 1/2
    assert failed_checks(pairs=pairs) == {
        "cross-set-two-partners-overlap-half", "reveal-bases-complete"}
    # two elements of one set swapped: still a valid set of the same span, but
    # element k is no longer the k-th XOR pair of the scheme
    pairs = honest.pairs.copy()
    pairs[2] = pairs[2][[1, 0, 2, 3]]
    assert failed_checks(pairs=pairs) == {"reveal-bases-complete"}
    # an even superposition of the four elements of set 0, which meets each
    # of them at 1/2, as element 0 of set 1 has no pair form; the dense route
    # sees it in every check that the audit failed with it as a dense row:
    # eight terms (no cover), within-set, cross-set and product residuals,
    # and not the scheme's rows
    rows = dense_sets(honest)
    rows[1, 0] = rows[0].sum(axis=0) / 2
    reveals = honest.reveals
    within, split, products = gram_block_residuals(rows, reveals.conj() @ reveals.T)
    assert np.count_nonzero(rows[1, 0]) == 8
    assert within > ATOL and not split and products > ATOL
    assert not np.array_equal(rows, dense_sets(honest))
    reveals = honest.reveals.copy()
    reveals[1] = reveals[0]  # products of choices 0 and 1 overlap
    assert failed_checks(reveals=reveals) == {
        "reveal-states-orthonormal", "valid-products-orthogonal"}

    # reveal states that are not stabilizer states of the scheme; each
    # failed set and detail text is the one recorded before the stabilizer
    # checks were read from one Walsh table
    def reveal_failures(*replaced):
        reveals = honest.reveals.copy()
        for c, amplitudes in replaced:
            reveals[c] = StateVector(2, amplitudes).amplitudes
        return failures(reveals=reveals)

    half = 2**-0.5
    basis_01, plus_plus, zero_plus = [0, 1, 0, 0], [0.5] * 4, [half, half, 0, 0]
    tilt = (np.pi / 2 - 1e-5) / 2  # X^(x)2 expectation 1 - 5e-11, Z on qubit 2 about 1e-5
    orthonormal, products = "reveal-states-orthonormal", "valid-products-orthogonal"
    stabilizer, odd = "stabilizer-eigenoperators", "odd-z-masks-not-eigenoperators"
    # a computational basis state: X^(x)2 expectation 0, Z on each qubit +1
    assert reveal_failures((2, basis_01)) == {
        orthonormal: "max |gram - I| = 7.07e-01",
        stabilizer: "X^n expectation 0.0 is not +-1 for choice 2",
        odd: "",
        products: "max |gram - I| = 3.54e-01"}
    # |++>: X^(x)2 passes, Z^(x)2 has expectation 0, no odd mask fails
    assert reveal_failures((1, plus_plus)) == {
        orthonormal: "max |gram - I| = 7.07e-01",
        stabilizer: "even-parity Z mask 0x3 expectation 0.0 is not +-1 for choice 1",
        products: "max |gram - I| = 3.54e-01"}
    # |0+>: fails X^(x)2 first; Z on qubit 1 (z1 = 1) has expectation 1
    assert reveal_failures((2, zero_plus)) == {
        orthonormal: "max |gram - I| = 5.00e-01",
        stabilizer: "X^n expectation 0.0 is not +-1 for choice 2",
        odd: "",
        products: "max |gram - I| = 2.50e-01"}
    # the detail names the first failing choice, here the even mask of choice 1
    assert reveal_failures((1, plus_plus), (2, zero_plus)) == {
        orthonormal: "max |gram - I| = 7.07e-01",
        stabilizer: "even-parity Z mask 0x3 expectation 0.0 is not +-1 for choice 1",
        odd: "",
        products: "max |gram - I| = 3.54e-01"}
    # a tilted reveal state 0 passes X^(x)2 within ATOL, but a z1 = 0 odd mask
    # has expectation above ATOL
    assert reveal_failures((0, [np.cos(tilt), 0, 0, np.sin(tilt)])) == {
        orthonormal: "max |gram - I| = 5.00e-06",
        odd: "",
        products: "max |gram - I| = 2.50e-06"}


def test_audit_flags_tampers_of_each_integer_fact(monkeypatch):
    # tampers of default(1), masks (1, 2), each aimed at one fact the
    # pair checks read, each set given as its pairs
    params = SchemeParams.default(1)
    honest = build_reveal_agreement(params)

    def failures(set0=None, set1=None):
        pairs = honest.pairs.copy()
        for c, tampered_set in enumerate((set0, set1)):
            if tampered_set is not None:
                pairs[c] = tampered_set
        tampered = dataclasses.replace(honest, pairs=pairs)
        monkeypatch.setattr(scheme, "build_reveal_agreement", lambda _: tampered)
        return {c.name: c.detail for c in audit_scheme(params) if not c.passed}

    # set 1 from mask 0x3, which the scheme does not use: it still partitions
    # the indices and splits every pair of set 0
    assert failures(set1=[[0, 3], [1, 2]]) == {"reveal-bases-complete": ""}
    # pairs that do not partition the indices fail the cover and every check
    # that needs it: one pair held twice; a pair index outside 0..2m-1, which
    # is never used as an index
    unmet = "needs two-term-equal-superposition-cover"
    uncovered = {
        "within-set-orthogonality": unmet, "two-term-equal-superposition-cover": "",
        "cross-set-two-partners-overlap-half": unmet, "valid-products-orthogonal": unmet,
        "reveal-bases-complete": ""}
    assert failures(set0=[[0, 1], [0, 1]]) == uncovered
    assert failures(set0=[[0, 1], [2, 4]]) == uncovered


class AgreementRecorder(pytest.MonkeyPatch):
    """A monkeypatch that applies every patch and keeps each agreement a
    test hands the audit through ``scheme.build_reveal_agreement``."""

    def __init__(self):
        super().__init__()
        self.agreements = []

    def setattr(self, target, name, value, raising=True):
        if name == "build_reveal_agreement":
            self.agreements.append(value(None))
        super().setattr(target, name, value, raising)


def test_pair_residuals_match_dense_gram_blocks():
    # the audit's pair checks against the dense Gram block per pair of sets,
    # its rows written from the pairs: same pass/fail and residuals wherever
    # the cover holds, on honest agreements and on every tamper of the two
    # tamper tests
    honest = [SchemeParams.paper_cointoss()] + [SchemeParams.default(n) for n in (1, 2, 3, 4)]
    honest += [SchemeParams.random_masks(n, seed) for n in (1, 2, 3, 4) for seed in (0, 1, 2, 3)]
    recorder = AgreementRecorder()
    try:
        test_audit_scheme_flags_tampered_agreements(recorder)
        test_audit_flags_tampers_of_each_integer_fact(recorder)
    finally:
        recorder.undo()
    assert len(recorder.agreements) == 11
    covered = 0
    for agreement in [build_reveal_agreement(p) for p in honest] + recorder.agreements:
        reveals = agreement.reveals
        reveal_gram = reveals.conj() @ reveals.T
        cover, within, split, products = scheme._pair_residuals(agreement.pairs, reveal_gram)
        if not cover:
            assert (within, split, products) == (np.inf, False, np.inf)
            continue
        covered += 1
        dense_within, dense_split, dense_products = gram_block_residuals(
            dense_sets(agreement), reveal_gram)
        assert split == dense_split
        for got, want in ((within, dense_within), (products, dense_products)):
            assert abs(got - want) <= 1e-15 and (got <= ATOL) == (want <= ATOL)
    assert covered == len(honest) + 9


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
            held = cointoss_agreement.element(c, k)
            dist = born_distribution(coupled(cointoss_agreement, held, c), basis)
            assert abs(dist[k] - 1.0) < 1e-12
            dist = born_distribution(held, set_measurement(cointoss_agreement, c))
            assert abs(dist[k] - 1.0) < 1e-12


#: Derandomised examples per n; one example costs about 0.02 s at n=5 and 0.09 s at n=6.
RANDOM_MASK_EXAMPLES = {1: 20, 2: 20, 3: 10, 4: 5, 5: 10, 6: 4}


@pytest.mark.parametrize("n", range(1, MAX_N + 1))
def test_random_masks_pass_audit_and_half_law(n):
    @settings(max_examples=RANDOM_MASK_EXAMPLES[n], derandomize=True, deadline=None,
              database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def check(seed):
        params = SchemeParams.random_masks(n, seed)
        failed = [c.name for c in audit_scheme(params) if not c.passed]
        assert failed == [], (params.masks, failed)
        table = build_reveal_agreement(params).valid_masses
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
