"""Statevectors, one dense measurement and the outcome draw.

A ``StateVector`` is a validated unit-norm amplitude vector, the form in
which states cross the wire and the golden files (``state_to_text``,
``state_from_text``) and are printed (``ket_string``). The one dense
measurement is the computational basis of the reduced-qubit variant:
``born_distribution`` gives its outcome probabilities, orthonormal rows plus
one reject outcome when they do not span the space. The commitment sets are
measured from their pairs instead (``scheme``); both distributions are
checked by ``_outcome_distribution`` and drawn by ``_draw_outcome``, one
uniform each. The Walsh matrix W[x, y] = (-1)^popcount(x AND y), whose
W / 2^(k/2) is the k-qubit Hadamard transform, is the one parity table
behind the Pauli-Z expectations (the Walsh transform of the basis
probabilities) and the discrimination bounds (the set mixtures are diagonal
in the Hadamard basis), so no eigensolver is needed.

Conventions
-----------
* Qubit indices are 1-based. Qubit 1 is the leftmost symbol of a ket and
  maps to the most significant bit of the amplitude index, so ``|110>``
  has its unit amplitude at index 6.
* All states are unit-norm complex128 vectors; ``StateVector`` validates
  <psi|psi> to within ``ATOL / 2``, so the Born distribution of every
  valid state passes ``born_distribution``'s check at ``ATOL = 1e-9``.
* Randomness is never implicit. Every stochastic operation takes a seed
  or a ``numpy.random.Generator`` (PCG64 via ``numpy.random.default_rng``),
  so runs are bit-reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

#: Tolerance for normalization and orthogonality checks.
ATOL = 1e-9

#: 1/sqrt(2) correctly rounded to double precision.
INV_SQRT2 = float(np.sqrt(0.5))


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm amplitude vector over the computational basis.

    ``amplitudes[i]`` is the amplitude of the basis state whose bit string
    is the big-endian expansion of ``i`` (qubit 1 = most significant bit).
    The array is read-only; operations return new instances. Equality is
    bit-exact on the amplitudes.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.num_qubits == other.num_qubits and np.array_equal(
            self.amplitudes, other.amplitudes
        )

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        arr = _frozen_array(self.amplitudes)
        if arr.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes, got shape {arr.shape}"
            )
        norm2 = float(np.vdot(arr, arr).real)  # a Python float compares faster
        # any NaN or inf amplitude makes <psi|psi> non-finite, and a NaN
        # would pass the tolerance test below
        if not math.isfinite(norm2):
            raise ValueError(f"<psi|psi> is {norm2}: amplitudes must be finite")
        # a Born distribution sums to <psi|psi> up to rounding, so half of
        # ATOL leaves born_distribution's own ATOL check a margin
        if abs(norm2 - 1.0) > ATOL / 2:
            raise ValueError(f"state not normalized: |<psi|psi> - 1| = {abs(norm2 - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dimension(self) -> int:
        return 2**self.num_qubits

    def __repr__(self):  # keep reprs short; full kets via ket_string()
        return f"StateVector({self.num_qubits} qubits, {ket_string(self, max_terms=4)})"


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """Projective measurement onto 1..d orthonormal rows of length d.

    Outcome k < ``len(vectors)`` projects onto row k, a valid outcome. When
    the rows do not span the space, outcome ``len(vectors)`` is the reject
    outcome, the projector onto their orthogonal complement. Orthonormality
    is checked on construction (pairwise overlaps below ``ATOL``)."""

    vectors: np.ndarray

    def __post_init__(self):
        vecs = _frozen_array(self.vectors)
        if vecs.ndim != 2 or not 1 <= len(vecs) <= vecs.shape[1]:
            raise ValueError(f"need 1..d orthonormal rows of length d, got shape {vecs.shape}")
        gram = vecs @ vecs.conj().T
        if np.abs(gram - np.eye(len(vecs))).max() > ATOL:
            raise ValueError("basis vectors are not orthonormal")
        object.__setattr__(self, "vectors", vecs)

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    def vector(self, k: int) -> StateVector:
        """Row ``k`` as a StateVector; ValueError unless 0 <= k < len(vectors)
        and the dimension is 2^n."""
        if not 0 <= k < len(self.vectors):
            raise ValueError(f"row {k} is not in 0..{len(self.vectors) - 1}")
        return StateVector(self.dimension.bit_length() - 1, self.vectors[k])


@functools.cache
def computational_basis(dimension: int) -> MeasurementBasis:
    """The standard basis of the given dimension; row ``i`` is the basis ket
    of index ``i``. Built once per dimension and shared, read-only."""
    return MeasurementBasis(np.eye(dimension, dtype=complex))


def as_generator(rng) -> np.random.Generator:
    """Coerce an int seed or Generator into a Generator (no implicit entropy)."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError("rng must be an int seed or numpy.random.Generator")


def born_distribution(state: StateVector, basis: MeasurementBasis) -> np.ndarray:
    """Exact outcome probabilities |<basis_k|state>|^2, then the complement
    mass when the rows do not span the space."""
    if state.dimension != basis.dimension:
        raise ValueError("state and basis dimensions differ")
    # |<b|s>| = |<s|b>|: conjugate the state, not the basis
    return _outcome_distribution(np.abs(basis.vectors @ state.amplitudes.conj()) ** 2,
                                 basis.dimension)


def _outcome_distribution(probs: np.ndarray, dimension: int) -> np.ndarray:
    """The valid-outcome masses ``probs`` of a measurement of ``dimension``,
    then the complement mass max(0, 1 - sum) when the rows do not span the
    space; ValueError unless the whole sums to 1 within ATOL, then normalised."""
    if len(probs) < dimension:
        probs = np.concatenate((probs, [max(0.0, 1.0 - probs.sum())]))
    total = probs.sum()
    if abs(total - 1.0) > ATOL:
        raise ValueError(f"probabilities sum to {total}, not 1")
    return probs / total


def _choice_cdf(dist) -> np.ndarray:
    """The cumulative table of each row of ``dist`` (along the last axis),
    scaled to end at exactly 1: a uniform u picks outcome
    ``cdf.searchsorted(u, "right")``. It is the table ``Generator.choice``
    builds from ``p``, so one uniform picks the outcome that choice would."""
    cdf = np.cumsum(dist, axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def _draw_outcome(dist: np.ndarray, rng) -> int:
    """Sample one outcome index of the distribution ``dist``; deterministic
    per seed.

    One uniform of ``rng`` picks the outcome from ``_choice_cdf``: the same
    draw and the same outcome as ``rng.choice(len(dist), p=dist)``, without
    its checks of ``dist``, which ``born_distribution`` and
    ``RevealAgreement.measurement_distribution`` have already normalised and
    checked."""
    return int(_choice_cdf(dist).searchsorted(as_generator(rng).random(), "right"))


@functools.cache
def walsh_matrix(k: int) -> np.ndarray:
    """The 2^k x 2^k Sylvester matrix W[x, y] = (-1)^popcount(x AND y).

    Built by Kronecker doubling, W_k = [[1, 1], [1, -1]] (x) W_(k-1), so
    the leading bit of x and y picks the block; entries are exact +-1.
    Built once per k and returned read-only.
    """
    walsh = np.ones((1, 1), dtype=np.int64)
    for _ in range(k):
        walsh = np.kron([[1, 1], [1, -1]], walsh)
    walsh.setflags(write=False)
    return walsh


# --- text serialization -------------------------------------------------
#
# One line per amplitude, "re im" with 17 significant digits (round-trips
# float64 exactly), preceded by "qubits=<n>". Shared by the wire format
# and the golden files.


def state_to_text(state: StateVector) -> str:
    # one format call over the interleaved (re, im) float64 pairs
    parts = tuple(state.amplitudes.view(float).tolist())
    return f"qubits={state.num_qubits}\n" + ("%.17g %.17g\n" * state.dimension) % parts


def state_from_text(text: str) -> StateVector:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("qubits="):
        raise ValueError("missing 'qubits=<n>' header line")
    try:
        n = int(lines[0].split("=", 1)[1])
    except ValueError:
        raise ValueError("malformed qubit count in header") from None
    body = lines[1:]
    # n is compared with the line count before 2**n is formed: a huge n costs nothing
    if n != len(body).bit_length() - 1 or len(body) != 2**n:
        raise ValueError(f"header says {n} qubits, found {len(body)} amplitude lines")
    amps = np.empty(len(body), dtype=complex)
    for i, line in enumerate(body):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"amplitude line {i} is not a 're im' pair")
        amps[i] = complex(float(parts[0]), float(parts[1]))
    return StateVector(n, amps)


def ket_string(state: StateVector, max_terms: int | None = None) -> str:
    """Human-readable ket expansion to four decimals, zero terms omitted."""
    terms = []
    for i, a in enumerate(state.amplitudes):
        if abs(a) < 1e-12:
            continue
        label = format(i, f"0{state.num_qubits}b")  # qubit 1 most significant
        if abs(a.imag) < 1e-12:
            coeff = f"{a.real:+.4f}"
        else:
            coeff = f"+({a.real:.4f}{a.imag:+.4f}i)"
        terms.append(f"{coeff}|{label}>")
    if max_terms is not None and len(terms) > max_terms:
        terms = terms[:max_terms] + ["..."]
    return " ".join(terms) if terms else "0"
