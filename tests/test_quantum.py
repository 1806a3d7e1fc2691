"""Unit tests for the statevector engine."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qbcsim.quantum import (
    ATOL,
    INV_SQRT2,
    MeasurementBasis,
    StateVector,
    apply_gate,
    as_generator,
    bits_to_index,
    born_distribution,
    computational_basis,
    index_to_bits,
    ket_string,
    make_basis_state,
    measure,
    state_from_text,
    state_to_text,
    tensor,
    walsh_matrix,
)

from dense_oracle import HermitianMatrix, hermitian_eig

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I = np.eye(2, dtype=complex)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b>: conjugate-linear in ``a``, linear in ``b``."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("dimension mismatch in inner product")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def random_state(num_qubits: int, rng) -> StateVector:
    """Haar-ish random test state (normalized complex Gaussian amplitudes)."""
    gen = as_generator(rng)
    amps = gen.normal(size=2**num_qubits) + 1j * gen.normal(size=2**num_qubits)
    return StateVector(num_qubits, amps / np.linalg.norm(amps))


def full_operator(gate_matrix, qubits, n):
    """Oracle: embed a gate into the full 2^n space by explicit kron chain.

    Works for single-qubit gates on qubit q and for CNOT on adjacent
    (control, control+1). Non-adjacent CNOT is handled in its test by a
    direct index permutation instead.
    """
    if gate_matrix.shape == (2, 2):
        (q,) = qubits
        op = np.eye(1)
        for position in range(1, n + 1):
            op = np.kron(op, gate_matrix if position == q else _I)
        return op
    control, target = qubits
    assert target == control + 1
    op = np.eye(1)
    position = 1
    while position <= n:
        if position == control:
            op = np.kron(op, _CNOT)
            position += 2
        else:
            op = np.kron(op, _I)
            position += 1
    return op


def test_bits_index_round_trip():
    assert bits_to_index("110") == 6
    assert index_to_bits(6, 3) == "110"
    for i in range(16):
        assert bits_to_index(index_to_bits(i, 4)) == i


def test_bits_index_rejects_garbage():
    with pytest.raises(ValueError):
        bits_to_index("10a")
    with pytest.raises(ValueError):
        bits_to_index("")
    with pytest.raises(ValueError):
        index_to_bits(8, 3)
    with pytest.raises(ValueError):
        index_to_bits(-1, 3)


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector(2, np.array([1.0, 0.0]))  # wrong length
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))  # not normalized
    with pytest.raises(ValueError):
        StateVector(0, np.array([1.0]))


def test_state_vector_rejects_non_finite():
    # a NaN norm compares False against the tolerance, so finiteness is
    # checked on its own
    for amps in ([np.nan, 0.0], [1.0, np.nan], [complex(0.6, np.inf), 0.8]):
        with pytest.raises(ValueError, match="finite"):
            StateVector(1, np.array(amps))
    with pytest.raises(ValueError, match="finite"):
        state_from_text("qubits=1\nnan 0\n0 0\n")


def test_state_vector_is_read_only():
    state = make_basis_state("01")
    with pytest.raises(ValueError):
        state.amplitudes[0] = 1.0


def test_state_vector_equality_is_bit_exact():
    a = make_basis_state("01")
    b = make_basis_state("01")
    c = make_basis_state("10")
    assert a == b
    assert a != c
    assert a != "not a state"


def test_make_basis_state_places_unit_amplitude():
    state = make_basis_state("110")
    assert state.num_qubits == 3
    assert state.amplitudes[6] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1
    assert state.amplitude("110") == 1.0


def test_tensor_keeps_first_factor_most_significant():
    # |1> (x) |0> must be |10>, amplitude index 2
    product = tensor(make_basis_state("1"), make_basis_state("0"))
    assert product.num_qubits == 2
    assert product.amplitudes[2] == 1.0


def test_inner_product():
    plus = apply_gate(make_basis_state("0"), "H", 1)
    assert abs(inner(plus, plus) - 1.0) < 1e-15
    assert abs(inner(make_basis_state("0"), make_basis_state("1"))) == 0.0
    assert abs(inner(plus, make_basis_state("0")) - INV_SQRT2) < 1e-15
    with pytest.raises(ValueError):
        inner(make_basis_state("0"), make_basis_state("00"))


def test_hadamard_on_single_qubit():
    plus = apply_gate(make_basis_state("0"), "H", 1)
    assert_allclose(plus.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)
    back = apply_gate(plus, "H", 1)
    assert_allclose(back.amplitudes, [1.0, 0.0], atol=1e-15)


def test_x_and_z_gates():
    flipped = apply_gate(make_basis_state("00"), "X", 2)
    assert flipped.amplitudes[1] == 1.0
    minus = apply_gate(apply_gate(make_basis_state("0"), "H", 1), "Z", 1)
    assert_allclose(minus.amplitudes, [INV_SQRT2, -INV_SQRT2], atol=1e-15)


def test_cnot_truth_table_both_orientations():
    # control 1, target 2
    for bits, expected in (("00", "00"), ("01", "01"), ("10", "11"), ("11", "10")):
        out = apply_gate(make_basis_state(bits), "CNOT", (1, 2))
        assert out.amplitude(expected) == 1.0, bits
    # control 2, target 1
    for bits, expected in (("00", "00"), ("01", "11"), ("10", "10"), ("11", "01")):
        out = apply_gate(make_basis_state(bits), "CNOT", (2, 1))
        assert out.amplitude(expected) == 1.0, bits


def test_cnot_non_adjacent_matches_index_permutation():
    # oracle: CNOT(control=1, target=3) on 3 qubits maps index b1b2b3 to
    # b1 b2 (b3 xor b1); build the permutation directly
    rng = np.random.default_rng(7)
    state = random_state(3, rng)
    moved = apply_gate(state, "CNOT", (1, 3))
    permuted = np.empty(8, dtype=complex)
    for i in range(8):
        b1, b2, b3 = (i >> 2) & 1, (i >> 1) & 1, i & 1
        j = (b1 << 2) | (b2 << 1) | (b3 ^ b1)
        permuted[j] = state.amplitudes[i]
    assert_allclose(moved.amplitudes, permuted, atol=1e-15)


def test_gates_match_dense_operator_oracle():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 4):
        state = random_state(n, rng)
        for name, mat in (("H", _H), ("X", _X), ("Z", _Z)):
            for q in range(1, n + 1):
                fast = apply_gate(state, name, q)
                dense = full_operator(mat, (q,), n) @ state.amplitudes
                assert_allclose(fast.amplitudes, dense, atol=1e-12)
        for control in range(1, n):
            fast = apply_gate(state, "CNOT", (control, control + 1))
            dense = full_operator(_CNOT, (control, control + 1), n) @ state.amplitudes
            assert_allclose(fast.amplitudes, dense, atol=1e-12)


def test_apply_gate_rejects_bad_input():
    state = make_basis_state("00")
    with pytest.raises(ValueError):
        apply_gate(state, "T", 1)
    with pytest.raises(ValueError):
        apply_gate(state, "H", 3)
    with pytest.raises(ValueError):
        apply_gate(state, "CNOT", (1, 1))
    with pytest.raises(ValueError):
        apply_gate(state, "CNOT", (0, 2))


def test_measurement_basis_validation():
    with pytest.raises(ValueError, match="orthonormal"):
        MeasurementBasis(np.array([[1, 0], [1, 0]], dtype=complex))
    basis = computational_basis(4)
    assert basis.dimension == 4 and len(basis.vectors) == 4
    assert basis.vector(2).amplitudes[2] == 1.0


def test_computational_basis_is_shared_and_binds_rows():
    # one read-only basis per dimension; row c is the basis ket of index c,
    # the state a reduced-qubit commit to choice c carries
    for k in range(1, 8):
        basis = computational_basis(2**k)
        assert computational_basis(2**k) is basis
        assert not basis.vectors.flags.writeable
        with pytest.raises(ValueError):
            basis.vectors[0, 0] = 0
        for c in range(2**k):
            expected = make_basis_state(index_to_bits(c, k)).amplitudes
            assert basis.vector(c).amplitudes.tobytes() == expected.tobytes()


def pair(x, y):
    """(|x> + |y>)/sqrt(2) for distinct bit strings of one length."""
    amplitudes = make_basis_state(x).amplitudes + make_basis_state(y).amplitudes
    return StateVector(len(x), amplitudes * INV_SQRT2)


def test_partial_basis_measures_rows_plus_complement():
    rows = [pair("00", "01"), pair("10", "11")]
    rows = np.array([r.amplitudes for r in reversed(rows)])
    basis = MeasurementBasis(rows)
    assert np.array_equal(basis.vectors, rows)  # rows kept in the given order
    assert basis.dimension == 4
    assert basis.vector(0) == pair("10", "11")
    for k in (-1, len(rows)):  # a row index, not wrapped and not the reject outcome
        with pytest.raises(ValueError, match="not in 0..1"):
            basis.vector(k)
    with pytest.raises(ValueError, match="orthonormal"):
        MeasurementBasis([make_basis_state("00").amplitudes, pair("00", "11").amplitudes])
    for shape_error in (
        [make_basis_state("00").amplitudes, make_basis_state("0").amplitudes],  # row lengths
        make_basis_state("00").amplitudes,  # one bare row, not a row list
        np.eye(3, 2, dtype=complex),  # more rows than their length
        np.zeros((0, 4), dtype=complex),  # no row
    ):
        with pytest.raises(ValueError):
            MeasurementBasis(shape_error)
    # (|00> + |10>)/sqrt(2): mass 1/4 on each row, 1/2 outside both
    state = pair("00", "10")
    probs = born_distribution(state, basis)
    assert probs.shape == (3,)
    assert_allclose(probs, [0.25, 0.25, 0.5], atol=1e-15)
    assert_allclose(born_distribution(make_basis_state("11"), basis), [0.5, 0.0, 0.5], atol=1e-15)
    outcomes = {measure(state, basis, seed) for seed in range(40)}
    assert outcomes == {0, 1, 2}
    assert all(measure(pair("00", "01"), basis, s) == 1 for s in range(5))
    # a complete basis gets no complement entry
    assert born_distribution(state, computational_basis(4)).shape == (4,)


def test_as_generator():
    gen = as_generator(123)
    assert isinstance(gen, np.random.Generator)
    assert as_generator(123).integers(1000) == as_generator(123).integers(1000)
    same = np.random.default_rng(0)
    assert as_generator(same) is same
    with pytest.raises(TypeError):
        as_generator(0.5)
    with pytest.raises(TypeError):
        as_generator(None)


def test_born_distribution_plus_state():
    plus = apply_gate(make_basis_state("0"), "H", 1)
    dist = born_distribution(plus, computational_basis(2))
    assert_allclose(dist, [0.5, 0.5], atol=1e-15)
    with pytest.raises(ValueError):
        born_distribution(plus, computational_basis(4))


def test_born_distribution_sums_to_one():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3):
        state = random_state(n, rng)
        dist = born_distribution(state, computational_basis(2**n))
        assert abs(dist.sum() - 1.0) < 1e-12
        assert_allclose(dist, np.abs(state.amplitudes) ** 2, atol=1e-12)


def test_measure_is_seed_deterministic_and_unbiased():
    plus = apply_gate(make_basis_state("0"), "H", 1)
    basis = computational_basis(2)
    assert measure(plus, basis, 42) == measure(plus, basis, 42)
    rng = np.random.default_rng(11)
    trials = 4000
    ones = sum(measure(plus, basis, rng) for _ in range(trials))
    sigma = 0.5 * np.sqrt(trials)
    assert abs(ones - trials / 2) <= 3 * sigma


def test_hermitian_matrix_and_eig():
    with pytest.raises(ValueError, match="Hermitian"):
        HermitianMatrix(np.array([[0, 1], [0, 0]], dtype=complex))
    mat = HermitianMatrix(np.array([[0, 1], [1, 0]], dtype=complex))
    assert mat.dimension == 2
    assert mat.trace() == 0.0
    values, vectors = hermitian_eig(mat)
    assert_allclose(values, [-1.0, 1.0], atol=1e-12)
    recon = (vectors * values) @ vectors.conj().T
    assert_allclose(recon, mat.entries, atol=1e-12)


def hadamard_all(k):
    """H on every qubit of a k-qubit register, column x the image of |x>."""
    columns = []
    for x in range(2**k):
        state = make_basis_state(index_to_bits(x, k))
        for q in range(1, k + 1):
            state = apply_gate(state, "H", q)
        columns.append(state.amplitudes)
    return np.array(columns).T


def test_walsh_matrix_is_scaled_hadamard_transform():
    assert walsh_matrix(0).tolist() == [[1]]
    for k in range(1, 5):
        walsh = walsh_matrix(k)
        assert walsh.shape == (2**k, 2**k)
        assert_allclose(walsh / 2 ** (k / 2), hadamard_all(k), atol=1e-12)
        # exact +-1 entries with the parity of x AND y
        for x in range(2**k):
            for y in range(2**k):
                assert walsh[x, y] == (-1) ** bin(x & y).count("1")
    assert not walsh_matrix(3).flags.writeable  # shared between callers


def test_state_text_round_trip_is_exact():
    rng = np.random.default_rng(3)
    for n in (1, 2, 4):
        state = random_state(n, rng)
        again = state_from_text(state_to_text(state))
        assert again == state  # bit-exact through the 17g format


def test_state_from_text_rejects_malformed():
    with pytest.raises(ValueError, match="header"):
        state_from_text("0.5 0\n")
    with pytest.raises(ValueError, match="malformed"):
        state_from_text("qubits=x\n1 0\n")
    with pytest.raises(ValueError, match="amplitude lines"):
        state_from_text("qubits=2\n1 0\n0 0\n")
    with pytest.raises(ValueError, match="pair"):
        state_from_text("qubits=1\n1 0\n0\n")


def test_ket_string():
    assert ket_string(make_basis_state("01")) == "+1.0000|01>"
    plus = apply_gate(make_basis_state("0"), "H", 1)
    assert ket_string(plus) == "+0.7071|0> +0.7071|1>"
    assert ket_string(plus, max_terms=1).endswith("...")
