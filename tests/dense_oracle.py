"""Dense reference implementation of the discrimination bounds.

Each set mixture is formed as a dense 2^(n+1) x 2^(n+1) density matrix,
validated positive semidefinite with unit trace, and the bounds come from
a Hermitian eigendecomposition: the trace norm for the Helstrom bound and
the inverse square root of the average state for the square-root
measurement. ``qbcsim.analysis.discrimination_bounds`` computes the same
figures from Walsh diagonals; the tests check it against this module, and
this module against a Jacobi eigensolver and scipy matrix functions.

It also keeps the index-XOR valid mass that the Walsh-transform masses
of ``qbcsim.analysis`` replace, as the reference for their bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qbcsim.quantum import ATOL, _frozen_array
from qbcsim.scheme import RevealAgreement, SchemeParams, build_reveal_agreement

#: Eigenvalues below this are treated as zero on the support of an
#: average state (rank-deficient mixtures are generic here).
SUPPORT_CUTOFF = 1e-10


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
    elements = build_reveal_agreement(params).sets[choice].vectors
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


def flip_valid_mass_table(agreement: RevealAgreement) -> np.ndarray:
    """Valid mass <psi|Q_c'|psi> / <psi|psi> of element k of set c under
    reveal c', indexed [c, k, c'], from one index-XOR gather per reveal.

    Q_c = (I + X^{d_c})/2 and X^d permutes indices by XOR, so the mass is
    (|psi|^2 + Re sum_x conj(psi_x) psi_{x^d}) / (2 |psi|^2).
    """
    elements = np.array([s.vectors for s in agreement.sets])
    conj, norm2 = elements.conj(), np.sum(np.abs(elements) ** 2, axis=-1)
    index = np.arange(elements.shape[-1])
    return np.stack([(norm2 + np.sum((conj * elements[..., index ^ d]).real, axis=-1))
                     / (2.0 * norm2) for d in agreement.params.masks], axis=-1)
