"""Dense reference implementation of the discrimination bounds.

Each set mixture is formed as a dense 2^(n+1) x 2^(n+1) density matrix,
validated positive semidefinite with unit trace, and the bounds come from
a Hermitian eigendecomposition: the trace norm for the Helstrom bound and
the inverse square root of the average state for the square-root
measurement. ``qbcsim.analysis.discrimination_bounds`` computes the same
figures from Walsh diagonals; the tests check it against this module, and
this module against a Jacobi eigensolver and scipy matrix functions.

It also keeps the Walsh valid mass of any held state and the index-XOR
valid mass, the references for ``RevealAgreement.valid_masses`` (the
second for its bits), and the
Gram block per pair of sets, over dense rows written from the pairs,
whose orthogonality and two partners at 1/2 the tests derive from the
facts that ``qbcsim.scheme.audit_scheme`` checks, and
the paper's generation circuit as dense operators (H on qubit 1, then
CNOT(1, t) for t = 2..n, on |c>), the reference for the closed-form
reveal states, ``RevealAgreement.reveals``. The circuit uses
nothing from ``qbcsim``.

Last, ``figure_laws`` is the table of closed-form laws that every exact
figure of an analysis report meets, written from the scheme's n, m and
masks alone, with nothing from ``qbcsim.analysis``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qbcsim.quantum import ATOL, INV_SQRT2, _frozen_array, walsh_matrix
from qbcsim.scheme import RevealAgreement, SchemeParams, build_reveal_agreement

#: Eigenvalues below this are treated as zero on the support of an
#: average state (rank-deficient mixtures are generic here).
SUPPORT_CUTOFF = 1e-10


def dense_sets(agreement: RevealAgreement) -> np.ndarray:
    """Every set of ``agreement`` as dense rows [c, k, x], 1/sqrt(2) at both
    indices of each pair: set c as Bob's reveal measurement, row k being
    element k, and the rows the Gram blocks and the index-XOR table below
    read."""
    pairs = agreement.pairs
    rows = np.zeros(pairs.shape[:2] + (2 * pairs.shape[1],), dtype=complex)
    np.put_along_axis(rows, pairs, INV_SQRT2, axis=-1)
    return rows


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """Square conjugate-symmetric matrix (density-operator carrier)."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("entries must be a square matrix")
        if np.abs(arr - arr.conj().T).max() > ATOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        object.__setattr__(self, "entries", arr)

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.entries).real)


def hermitian_eig(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns.

    Accepts a HermitianMatrix or a raw ndarray; the input is validated
    for conjugate symmetry either way.
    """
    if not isinstance(matrix, HermitianMatrix):
        matrix = HermitianMatrix(np.asarray(matrix, dtype=complex))
    return np.linalg.eigh(matrix.entries)


@dataclass(frozen=True, eq=False)
class EnsembleMixture:
    """Density operator labelled by the choice it averages over.

    Validated positive semidefinite (eigenvalues >= -1e-9) with unit
    trace. Arbitrary densities may be wrapped for bound computations.
    """

    choice: int
    density: HermitianMatrix

    def __post_init__(self):
        if not isinstance(self.density, HermitianMatrix):
            object.__setattr__(self, "density", HermitianMatrix(self.density))
        eigenvalues = np.linalg.eigvalsh(self.density.entries)
        if eigenvalues.min() < -1e-9:
            raise ValueError(f"not positive semidefinite: min eigenvalue {eigenvalues.min():.3e}")
        if abs(self.density.trace() - 1.0) > 1e-9:
            raise ValueError(f"trace is {self.density.trace()}, not 1")

    @property
    def dimension(self) -> int:
        return self.density.dimension


def ensemble_mixture(params: SchemeParams, choice: int) -> EnsembleMixture:
    """Uniform mixture of projectors onto the elements of one set."""
    elements = dense_sets(build_reveal_agreement(params))[choice]
    rho = np.zeros((elements.shape[1],) * 2, dtype=complex)
    for elem in elements:
        rho += np.outer(elem, elem.conj())
    return EnsembleMixture(choice, HermitianMatrix(rho / len(elements)))


def helstrom_bound(rho1: EnsembleMixture, rho2: EnsembleMixture) -> float:
    """Optimal two-hypothesis success at uniform priors:
    1/2 + (trace norm of rho1 - rho2)/4."""
    if rho1.dimension != rho2.dimension:
        raise ValueError("mixture dimensions differ")
    diff = rho1.density.entries - rho2.density.entries
    eigenvalues, _ = hermitian_eig(diff)
    return float(0.5 + 0.25 * np.abs(eigenvalues).sum())


def pgm_success(ensembles, priors) -> float:
    """Success probability of the square-root measurement.

    The measurement operators are S^(-1/2) p_i rho_i S^(-1/2) with S the
    prior-weighted average state; the inverse square root acts on the
    support of S (eigenvalues below SUPPORT_CUTOFF treated as zero).
    """
    ensembles = list(ensembles)
    if len(ensembles) < 2:
        raise ValueError("need at least two ensembles")
    priors = np.asarray(priors, dtype=float)
    if priors.shape != (len(ensembles),) or priors.min() < 0:
        raise ValueError("priors must be nonnegative, one per ensemble")
    if abs(priors.sum() - 1.0) > 1e-9:
        raise ValueError(f"priors sum to {priors.sum()}, not 1")
    dim = ensembles[0].dimension
    if any(e.dimension != dim for e in ensembles):
        raise ValueError("mixture dimensions differ")
    average = sum(
        p * e.density.entries for p, e in zip(priors, ensembles)
    )
    eigenvalues, vectors = hermitian_eig(average)
    inv_sqrt_diag = np.where(eigenvalues > SUPPORT_CUTOFF, eigenvalues, np.inf) ** -0.5
    root = (vectors * inv_sqrt_diag) @ vectors.conj().T
    success = 0.0
    for p, e in zip(priors, ensembles):
        reshaped = root @ e.density.entries @ root
        success += p**2 * float(np.trace(e.density.entries @ reshaped).real)
    return success


def walsh_valid_mass(amplitudes: np.ndarray, masks) -> np.ndarray:
    """Valid-outcome mass <psi|Q_c|psi> / <psi|psi> of each state along the
    last axis of ``amplitudes`` under each mask d_c in ``masks``, indexed
    [..., len(masks)].

    Q_c = (I + X^{d_c})/2, and X^d is diagonal in the Hadamard basis with
    entries W[d, y] of the Walsh matrix W, so the mass is
    (1 + sum_y W[d, y] p(y)) / 2 for the Hadamard-basis distribution
    p = |psi W|^2 / (2^(n+1) |psi|^2): one transform per state serves every
    mask, for any held state.
    """
    dim = amplitudes.shape[-1]
    walsh = walsh_matrix(dim.bit_length() - 1)
    norm2 = np.sum(np.abs(amplitudes) ** 2, axis=-1, keepdims=True)
    spectrum = np.abs(amplitudes @ walsh) ** 2 / (dim * norm2)
    return (1.0 + spectrum @ walsh[list(masks)].T) / 2.0


def flip_valid_mass_table(agreement: RevealAgreement) -> np.ndarray:
    """Valid mass <psi|Q_c'|psi> / <psi|psi> of element k of set c under
    reveal c', indexed [c, k, c'], from one index-XOR gather per reveal.

    Q_c = (I + X^{d_c})/2 and X^d permutes indices by XOR, so the mass is
    (|psi|^2 + Re sum_x conj(psi_x) psi_{x^d}) / (2 |psi|^2).
    """
    elements = dense_sets(agreement)
    conj, norm2 = elements.conj(), np.sum(np.abs(elements) ** 2, axis=-1)
    index = np.arange(elements.shape[-1])
    return np.stack([(norm2 + np.sum((conj * elements[..., index ^ d]).real, axis=-1))
                     / (2.0 * norm2) for d in agreement.params.masks], axis=-1)


def gram_block_residuals(amplitudes: np.ndarray, reveal_gram: np.ndarray):
    """(within, split, products) of the stacked set rows [c, k, x] from one
    Gram block per pair of sets c <= c', gram[c' - c, k, j] = <e_{c,k}|e_{c',j}>.

    ``within`` is max |gram - I| within a set; ``split`` holds when every
    element meets exactly two elements of every other set, each at 1/2;
    ``products`` is max |gram - I| of the valid products, from
    <e (x) G_c|e' (x) G_c'> = <e|e'><G_c|G_c'> and the reveal-state Gram.
    """
    identity = np.eye(len(amplitudes))
    within = products = 0.0
    split = True
    for c in range(len(amplitudes)):
        gram = amplitudes[c].conj() @ amplitudes[c:].transpose(0, 2, 1)
        within = max(within, np.abs(gram[0] - identity).max())
        magnitudes = np.abs(gram[1:])
        partners = magnitudes > ATOL  # exactly two per foreign set, each 1/2
        split &= bool(
            (partners.sum(axis=-1) == 2).all() and (partners.sum(axis=-2) == 2).all()
            and np.abs(magnitudes[partners] - 0.5).max(initial=0.0) <= ATOL
        )
        block = gram * reveal_gram[c, c:, None, None]
        block[0] -= identity
        products = max(products, np.abs(block).max())
    return within, split, products


_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def hadamard_operator(n: int, qubit: int) -> np.ndarray:
    """H on ``qubit`` of an n-qubit register (qubit 1 the most significant
    bit), the Kronecker product I_(2^(qubit-1)) (x) H (x) I_(2^(n-qubit))."""
    return np.kron(np.kron(np.eye(2 ** (qubit - 1)), _HADAMARD), np.eye(2 ** (n - qubit)))


def cnot_operator(n: int, target: int) -> np.ndarray:
    """CNOT(1, target) on an n-qubit register as the permutation matrix of
    its index permutation: x -> x XOR bit(target) where x has bit 1 set."""
    index = np.arange(2**n)
    moved = np.where(index >> (n - 1), index ^ 1 << (n - target), index)
    operator = np.zeros((2**n, 2**n), dtype=complex)
    operator[moved, index] = 1
    return operator


def generation_circuit(n: int, choice: int) -> np.ndarray:
    """Amplitudes of the generation circuit's output on |choice>: H on
    qubit 1, then CNOT(1, t) for t = 2..n."""
    state = np.zeros(2**n, dtype=complex)
    state[choice] = 1
    state = hadamard_operator(n, 1) @ state
    for target in range(2, n + 1):
        state = cnot_operator(n, target) @ state
    return state


def support_size(params: SchemeParams) -> int:
    """|supp S|: the Hadamard indices y at which the average set mixture S
    is nonzero, the y with sum_c W[d_c, y] > -m, counted with
    W[d, y] = (-1)^popcount(d AND y)."""
    masks, m = params.masks, params.num_choices
    return sum(1 for y in range(2 ** (params.num_bob_qubits + 1))
               if sum((-1) ** bin(d & y).count("1") for d in masks) > -m)


def figure_laws(params: SchemeParams) -> dict:
    """Each exact figure of ``run_full_analysis`` by its closed-form law,
    keyed by report section (a callable of the row's parameters where the
    figure varies along the section):

    ============================================  =====================
    figure                                        law
    ============================================  =====================
    valid mass, element of set c under reveal c'  (1 + delta_cc')/2
    alice-cheat, c' != c                          1/2
    block-cheat K                                 2^-K
    declare-prior guess, and chance               1/m
    update-on-reject                              3/(2m)
    Helstrom, every pair                          3/4
    square-root measurement (PGM)                 |supp S|/(m 2^n)
    parent-S sweep at p_S                         p_S + (1 - p_S)/m
    ============================================  =====================

    Update-on-reject is right on accept when the guess is c (1/m of the
    trials, accepted always) and otherwise, accepted half the time, right on
    reject one time in m - 1: 1/m + ((m - 1)/m)(1/2)(1/(m - 1)). Under the
    parent-S sweep an S state is measured onto its own index, and element k
    of set c lands on x or x XOR d_c with 1/2 each, every index hit once over
    the m elements, so the B branch succeeds with 1/m. Every law is a dyadic
    number, so a report that meets it does so exactly.
    """
    n, m = params.num_bob_qubits, params.num_choices
    return {
        "wrong_coupling": lambda held, coupled: (1 + (held == coupled)) / 2,
        "alice_cheat": 1 / 2,
        "block_fidelity": lambda blocks: 2.0 ** -blocks,
        "declare-prior-guess": 1 / m,
        "update-on-reject": 3 / (2 * m),
        "chance": 1 / m,
        "helstrom_pairs": 3 / 4,
        "pgm_uniform": support_size(params) / (m * 2**n),
        "s_protocol": lambda p_s: p_s + (1 - p_s) / m,
    }
