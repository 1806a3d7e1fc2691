"""Unit tests for the statevector engine."""

import functools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qbcsim.quantum import (
    ATOL,
    INV_SQRT2,
    MeasurementBasis,
    StateVector,
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

from dense_oracle import HermitianMatrix, cnot_operator, hadamard_operator, hermitian_eig


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


def plus_state() -> StateVector:
    """|+> = H|0>, from the dense Hadamard of the circuit oracle."""
    return StateVector(1, hadamard_operator(1, 1)[:, 0])


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
    plus = plus_state()
    assert abs(inner(plus, plus) - 1.0) < 1e-15
    assert abs(inner(make_basis_state("0"), make_basis_state("1"))) == 0.0
    assert abs(inner(plus, make_basis_state("0")) - INV_SQRT2) < 1e-15
    with pytest.raises(ValueError):
        inner(make_basis_state("0"), make_basis_state("00"))


def test_hadamard_on_single_qubit():
    # the generation circuit's dense H on qubit 1: H|0> = |+>, H|+> = |0>,
    # and on n <= 3 qubits every basis column and H H = I
    plus = hadamard_operator(1, 1) @ make_basis_state("0").amplitudes
    assert_allclose(plus, [INV_SQRT2, INV_SQRT2], atol=1e-15)
    back = hadamard_operator(1, 1) @ plus
    assert_allclose(back, [1.0, 0.0], atol=1e-15)
    for n in (1, 2, 3):
        hadamard = hadamard_operator(n, 1)
        assert_allclose(hadamard @ hadamard, np.eye(2**n), atol=1e-15)
        for x in range(2**n):
            low = x & (2 ** (n - 1) - 1)
            sign = -1 if x >> (n - 1) else 1
            expected = np.zeros(2**n)
            expected[[low, low | 2 ** (n - 1)]] = [INV_SQRT2, sign * INV_SQRT2]
            assert_allclose(hadamard[:, x], expected, atol=1e-15)


def cnot_image(operator: np.ndarray, n: int, bits: str) -> str:
    """The basis state a permutation gate sends ``|bits>`` to."""
    image = operator @ make_basis_state(bits).amplitudes
    assert np.count_nonzero(np.abs(image) > 1e-12) == 1
    assert abs(image.sum() - 1.0) < 1e-12
    return index_to_bits(int(np.argmax(np.abs(image))), n)


def test_cnot_truth_table_both_orientations():
    # control 1, target 2: the oracle's CNOT(1, 2)
    forward = cnot_operator(2, 2)
    for bits, expected in (("00", "00"), ("01", "01"), ("10", "11"), ("11", "10")):
        assert cnot_image(forward, 2, bits) == expected, bits
    # control 2, target 1: CNOT(1, 2) conjugated by H on both qubits
    both = hadamard_operator(2, 1) @ hadamard_operator(2, 2)
    reverse = both @ forward @ both
    for bits, expected in (("00", "00"), ("01", "11"), ("10", "10"), ("11", "01")):
        assert cnot_image(reverse, 2, bits) == expected, bits


def test_cnot_non_adjacent_matches_index_permutation():
    # CNOT(control=1, target=3) on 3 qubits maps index b1b2b3 to
    # b1 b2 (b3 xor b1); build the permutation directly
    state = random_state(3, np.random.default_rng(7))
    moved = cnot_operator(3, 3) @ state.amplitudes
    permuted = np.empty(8, dtype=complex)
    for i in range(8):
        b1, b2, b3 = (i >> 2) & 1, (i >> 1) & 1, i & 1
        j = (b1 << 2) | (b2 << 1) | (b3 ^ b1)
        permuted[j] = state.amplitudes[i]
    assert_allclose(moved, permuted, atol=1e-15)
    # and CNOT(1, t) flips bit t when bit 1 is set, for every t up to n=4
    for n in (2, 3, 4):
        for target in range(2, n + 1):
            for x in range(2**n):
                bits = index_to_bits(x, n)
                flipped = str(int(bits[target - 1]) ^ int(bits[0]))
                expected = bits[:target - 1] + flipped + bits[target:]
                image = cnot_image(cnot_operator(n, target), n, bits)
                assert image == expected, (n, target, bits)


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
    plus = plus_state()
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
    plus = plus_state()
    basis = computational_basis(2)
    assert measure(plus, basis, 42) == measure(plus, basis, 42)
    rng = np.random.default_rng(11)
    trials = 4000
    ones = sum(measure(plus, basis, rng) for _ in range(trials))
    sigma = 0.5 * np.sqrt(trials)
    assert abs(ones - trials / 2) <= 3 * sigma


def test_measure_draws_as_generator_choice():
    # Generator.choice is the oracle: one uniform through the same cumulative
    # table gives the outcome and the generator state that
    # rng.choice(len(p), p=p) gives, on Born distributions with zero entries
    # and, when the rows do not span, a reject entry (itself zero at times)
    rng = np.random.default_rng(19)
    rejects = zeros = 0
    for trial in range(2000):
        n = 1 + trial % 3
        dim = 2**n
        amplitudes = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        amplitudes[rng.random(dim) < 0.4] = 0
        amplitudes[rng.integers(dim)] += 1  # never the zero vector
        state = StateVector(n, amplitudes / np.linalg.norm(amplitudes))
        rows = np.eye(dim)[rng.permutation(dim)[:rng.integers(1, dim + 1)]]
        basis = MeasurementBasis(rows)
        p = born_distribution(state, basis)
        rejects += len(p) > len(rows)
        zeros += (p == 0).any()
        got, want = np.random.default_rng(trial), np.random.default_rng(trial)
        for _ in range(3):
            assert measure(state, basis, got) == want.choice(len(p), p=p)
            assert got.bit_generator.state == want.bit_generator.state
    assert rejects > 500 and zeros > 500, (rejects, zeros)


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
    """H on every qubit of a k-qubit register, the product of the circuit
    oracle's per-qubit dense operators."""
    return functools.reduce(np.matmul, (hadamard_operator(k, q) for q in range(1, k + 1)))


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


def old_state_text(num_qubits, amplitudes) -> str:
    """Oracle: the commit-frame text as one f-string line per amplitude."""
    lines = [f"qubits={num_qubits}"] + [f"{a.real:.17g} {a.imag:.17g}" for a in amplitudes]
    return "\n".join(lines) + "\n"


def test_state_text_matches_line_format():
    # the one-format-call text equals the per-line f-strings byte for byte,
    # signed zeros, subnormals and the extremes of the float64 range included,
    # and every value parses back exactly
    tiny = 5e-324  # the smallest subnormal
    states = [random_state(n, np.random.default_rng(n)) for n in (1, 2, 3, 6)]
    states.append(StateVector(2, [1, complex(-0.0, tiny), complex(-0.0, -0.0), -2.5e-310]))
    for state in states:
        text = state_to_text(state)
        assert text == old_state_text(state.num_qubits, state.amplitudes)
        assert state_from_text(text).amplitudes.tobytes() == state.amplitudes.tobytes()
    # amplitudes no state can hold reach the formatter through a stand-in
    extremes = np.array([complex(1e308, -1e308), complex(-0.0, -tiny),
                         complex(np.finfo(float).max, -np.finfo(float).tiny), 0j])
    stand_in = StateVector.__new__(StateVector)
    object.__setattr__(stand_in, "num_qubits", 2)
    object.__setattr__(stand_in, "amplitudes", extremes)
    text = state_to_text(stand_in)
    assert text == old_state_text(2, extremes)
    parsed = [complex(float(re), float(im)) for re, im in
              (line.split() for line in text.splitlines()[1:])]
    assert np.array(parsed).tobytes() == extremes.tobytes()


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
    plus = plus_state()
    assert ket_string(plus) == "+0.7071|0> +0.7071|1>"
    assert ket_string(plus, max_terms=1).endswith("...")
