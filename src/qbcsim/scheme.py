"""Construction and auditing of the initial agreement.

A scheme with ``n`` receiver qubits offers ``2^n`` commitment choices.
Choice ``c`` is bound to:

* a commitment set of ``2^n`` mutually orthogonal (n+1)-qubit states,
  each an equal two-term superposition ``(|x> + |x XOR d_c>)/sqrt(2)``
  built from a nonzero pairing mask ``d_c`` (one element per XOR pair,
  ordered by the smaller pair member);
* the receiver's n-qubit reveal state, generated by a Hadamard on
  qubit 1 followed by CNOTs fanning out from qubit 1;
* a (2n+1)-qubit reveal measurement onto the ``2^n`` products
  "set element (x) reveal state" -- the valid outcomes that make an honest
  reveal deterministically verifiable -- plus one reject outcome for
  everything orthogonal to them.

Distinct nonzero masks guarantee the concealment structure: every element
of one set overlaps exactly two elements of every other set, each with
inner product 1/2.

The module also builds the computational-basis set S used by the
reduced-qubit protocol variant, and provides structural audits over all
of the above.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

import numpy as np

from .quantum import (
    ATOL,
    MeasurementBasis,
    StateVector,
    apply_gate,
    equal_superposition_pair,
    index_to_bits,
    inner,
    make_basis_state,
    tensor,
)

#: Largest supported receiver register; keeps the product space at <= 512 dims.
MAX_N = 4

PRESET_PAPER_COINTOSS = "paper-cointoss"
PRESET_DEFAULT_MASKS = "default-masks"


class SchemeAuditError(AssertionError):
    """A structural invariant of the agreement failed."""


@dataclass(frozen=True)
class SchemeParams:
    """Scheme parameters: receiver qubit count and the pairing masks.

    ``masks[c]`` is the nonzero (n+1)-bit integer that pairs basis strings
    for choice ``c``. Masks must be pairwise distinct.
    """

    num_bob_qubits: int
    masks: tuple[int, ...]
    preset: str | None = None

    def __post_init__(self):
        n = self.num_bob_qubits
        if not 1 <= n <= MAX_N:
            raise ValueError(f"num_bob_qubits must be in 1..{MAX_N}, got {n}")
        masks = tuple(int(m) for m in self.masks)
        if len(masks) != 2**n:
            raise ValueError(f"need {2**n} masks for {2**n} choices, got {len(masks)}")
        for d in masks:
            if not 1 <= d < 2 ** (n + 1):
                raise ValueError(f"mask {d:#x} out of range (nonzero, {n + 1} bits)")
        if len(set(masks)) != len(masks):
            raise ValueError("masks must be pairwise distinct")
        object.__setattr__(self, "masks", masks)

    @property
    def num_choices(self) -> int:
        return 2**self.num_bob_qubits

    @property
    def num_alice_qubits(self) -> int:
        return self.num_bob_qubits + 1

    @classmethod
    def default(cls, num_bob_qubits: int) -> "SchemeParams":
        """Default mask assignment d_c = c + 1."""
        count = 2**num_bob_qubits
        return cls(num_bob_qubits, tuple(range(1, count + 1)), PRESET_DEFAULT_MASKS)

    @classmethod
    def paper_cointoss(cls) -> "SchemeParams":
        """The named coin-toss instance: n=1, masks (01, 11)."""
        return cls(1, (0b01, 0b11), PRESET_PAPER_COINTOSS)

    @classmethod
    def random_masks(cls, num_bob_qubits: int, rng) -> "SchemeParams":
        """Uniformly drawn valid mask assignment (distinct nonzero masks)."""
        from .quantum import as_generator

        gen = as_generator(rng)
        pool = np.arange(1, 2 ** (num_bob_qubits + 1))
        picked = gen.choice(pool, size=2**num_bob_qubits, replace=False)
        return cls(num_bob_qubits, tuple(int(d) for d in picked))


def xor_pairs(params: SchemeParams, choice: int) -> tuple[tuple[int, int], ...]:
    """The basis-index pairs {x, x XOR d_c}, ordered by smaller member."""
    d = params.masks[choice]
    reps = sorted(x for x in range(2**params.num_alice_qubits) if x < x ^ d)
    return tuple((x, x ^ d) for x in reps)


@dataclass(frozen=True)
class CommitmentSet:
    """The 2^n orthogonal two-term states bound to one commitment choice."""

    choice: int
    elements: tuple[StateVector, ...]
    pairs: tuple[tuple[int, int], ...] = field(default=(), compare=False)


def build_sets(params: SchemeParams) -> list[CommitmentSet]:
    """All commitment sets, element k covering the k-th XOR pair."""
    width = params.num_alice_qubits
    sets = []
    for c in range(params.num_choices):
        pairs = xor_pairs(params, c)
        elements = tuple(
            equal_superposition_pair(index_to_bits(x, width), index_to_bits(y, width))
            for x, y in pairs
        )
        sets.append(CommitmentSet(c, elements, pairs))
    return sets


@dataclass(frozen=True)
class RevealState:
    """Receiver-side n-qubit state for one choice (generation-circuit output)."""

    choice: int
    state: StateVector


def bob_reveal_state(params: SchemeParams, choice: int) -> RevealState:
    """Run the generation circuit on the big-endian bits of ``choice``.

    Inputs |c1>,|c2>,...,|cn> feed the circuit; Hadamard on qubit 1, then
    CNOT from qubit 1 to each later qubit. The output is
    (|0,c2..cn> + (-1)^c1 |1, ~c2..~cn>)/sqrt(2).
    """
    n = params.num_bob_qubits
    if not 0 <= choice < params.num_choices:
        raise ValueError(f"choice {choice} out of range 0..{params.num_choices - 1}")
    state = make_basis_state(index_to_bits(choice, n))
    state = apply_gate(state, "H", 1)
    for target in range(2, n + 1):
        state = apply_gate(state, "CNOT", (1, target))
    return RevealState(choice, state)


@dataclass(frozen=True)
class RevealAgreement:
    """The full initial agreement: sets, reveal states, and reveal bases.

    ``bases[c]`` is the (2n+1)-qubit reveal measurement for choice ``c``:
    2^n valid products + reject. Row ``k`` is element k of set c tensored
    with reveal state c (valid outcome ``k``); outcome ``2^n`` rejects.
    """

    params: SchemeParams
    sets: tuple[CommitmentSet, ...]
    reveal_states: tuple[RevealState, ...]
    bases: tuple[MeasurementBasis, ...]

    @property
    def num_choices(self) -> int:
        return self.params.num_choices


def build_reveal_agreement(params: SchemeParams) -> RevealAgreement:
    """Construct sets, reveal states, and the reveal measurements."""
    sets = tuple(build_sets(params))
    reveal_states = tuple(bob_reveal_state(params, c) for c in range(params.num_choices))
    dimension = 2 ** (2 * params.num_bob_qubits + 1)
    bases = tuple(
        MeasurementBasis(
            dimension,
            np.array([tensor(e, reveal_states[c].state).amplitudes for e in sets[c].elements]),
            frozenset(range(params.num_choices)),
        )
        for c in range(params.num_choices)
    )
    return RevealAgreement(params, sets, reveal_states, bases)


@dataclass(frozen=True)
class SetS:
    """Computational-basis parent set of the reduced-qubit variant.

    All 2^(n+1) basis states in ascending index order. Choice ``c`` is
    bound to element index ``c``, so indices ``2^n ..`` stay unbound.
    """

    elements: tuple[StateVector, ...]


def build_set_s(params: SchemeParams) -> SetS:
    width = params.num_alice_qubits
    return SetS(tuple(make_basis_state(index_to_bits(i, width)) for i in range(2**width)))


# --- stabilizer audit ----------------------------------------------------


def pauli_x_all_expectation(state: StateVector) -> float:
    """<state| X^(x)n |state> (real for the states built here)."""
    flipped = state.amplitudes[::-1]  # XOR with all-ones reverses the index order
    return float(np.vdot(state.amplitudes, flipped).real)


def pauli_z_expectation(state: StateVector, z_mask: int) -> float:
    """<state| Z^z |state> for a Z on every set bit of ``z_mask``."""
    n = state.num_qubits
    if not 0 <= z_mask < 2**n:
        raise ValueError("z mask wider than the register")
    indices = np.arange(2**n)
    signs = 1.0 - 2.0 * (_popcount(indices & z_mask) % 2)
    return float(np.sum(signs * np.abs(state.amplitudes) ** 2))


def _popcount(arr: np.ndarray) -> np.ndarray:
    counts = np.zeros_like(arr)
    work = arr.copy()
    while work.any():
        counts += work & 1
        work >>= 1
    return counts


@dataclass(frozen=True)
class StabilizerReport:
    """Eigenvalues of the reveal state under its stabilizer generators."""

    choice: int
    x_eigenvalue: int
    z_eigenvalues: dict[int, int]  # even-weight z mask -> +-1


def stabilizer_audit(reveal: RevealState) -> StabilizerReport:
    """Check X^(x)n and every even-weight Z mask are +-1 eigenoperators.

    Raises SchemeAuditError when any expectation deviates from +-1 by
    more than 1e-9.
    """
    state = reveal.state
    n = state.num_qubits
    x_val = pauli_x_all_expectation(state)
    if abs(abs(x_val) - 1.0) > ATOL:
        raise SchemeAuditError(
            f"X^n expectation {x_val} is not +-1 for choice {reveal.choice}"
        )
    z_eigs = {}
    for z in range(2**n):
        if bin(z).count("1") % 2 != 0:
            continue
        val = pauli_z_expectation(state, z)
        if abs(abs(val) - 1.0) > ATOL:
            raise SchemeAuditError(
                f"even-weight Z mask {z:#x} expectation {val} is not +-1 "
                f"for choice {reveal.choice}"
            )
        z_eigs[z] = int(round(val))
    return StabilizerReport(reveal.choice, int(round(x_val)), z_eigs)


# --- overlap audit -------------------------------------------------------


@dataclass(frozen=True)
class OverlapEntry:
    """Non-orthogonal partners of one element within one foreign set."""

    choice: int
    element: int
    other_choice: int
    partners: tuple[tuple[int, float], ...]  # (element index, |inner|)


def cross_set_overlap_audit(sets) -> list[OverlapEntry]:
    """For each element and each other set, list partners with |inner| > 1e-9."""
    entries = []
    for a in sets:
        for k, elem in enumerate(a.elements):
            for b in sets:
                if b.choice == a.choice:
                    continue
                magnitudes = [abs(inner(elem, other)) for other in b.elements]
                partners = tuple(
                    (j, mag) for j, mag in enumerate(magnitudes) if mag > ATOL
                )
                entries.append(OverlapEntry(a.choice, k, b.choice, partners))
    return entries


# --- whole-scheme audit --------------------------------------------------


@dataclass(frozen=True)
class AuditCheck:
    name: str
    passed: bool
    detail: str


def audit_scheme(params: SchemeParams) -> list[AuditCheck]:
    """Run every structural invariant; one named pass/fail entry per check."""
    checks = []

    def record(name, passed, detail=""):
        checks.append(AuditCheck(name, bool(passed), detail))

    agreement = build_reveal_agreement(params)
    sets, reveal_states = agreement.sets, agreement.reveal_states
    count = params.num_choices

    # within-set orthogonality and two-term structure
    worst = 0.0
    structure_ok = True
    for s in sets:
        mat = np.array([e.amplitudes for e in s.elements])
        gram = mat @ mat.conj().T
        worst = max(worst, np.abs(gram - np.eye(count)).max())
        covered = set()
        for e in s.elements:
            support = np.flatnonzero(np.abs(e.amplitudes) > ATOL)
            amps = e.amplitudes[support]
            if len(support) != 2 or np.abs(np.abs(amps) - np.sqrt(0.5)).max() > ATOL:
                structure_ok = False
            covered.update(int(i) for i in support)
        if len(covered) != 2 ** params.num_alice_qubits:
            structure_ok = False
    record("within-set-orthogonality", worst <= ATOL, f"max |gram - I| = {worst:.2e}")
    record("two-term-equal-superposition-cover", structure_ok)

    # cross-set: exactly two partners, each overlap 1/2
    overlap_ok = True
    for entry in cross_set_overlap_audit(sets):
        mags = [m for _, m in entry.partners]
        if len(mags) != 2 or any(abs(m - 0.5) > ATOL for m in mags):
            overlap_ok = False
    record("cross-set-two-partners-overlap-half", overlap_ok)

    # reveal states orthonormal
    mat = np.array([r.state.amplitudes for r in reveal_states])
    gram = mat @ mat.conj().T
    err = np.abs(gram - np.eye(count)).max()
    record("reveal-states-orthonormal", err <= ATOL, f"max |gram - I| = {err:.2e}")

    # stabilizer generators, plus the odd-weight negative control
    try:
        for r in reveal_states:
            stabilizer_audit(r)
        record("stabilizer-eigenoperators", True)
    except SchemeAuditError as exc:
        record("stabilizer-eigenoperators", False, str(exc))
    odd_ok = True
    n = params.num_bob_qubits
    for r in reveal_states:
        for z in range(2**n):
            if bin(z).count("1") % 2 == 0:
                continue
            val = pauli_z_expectation(r.state, z)
            if z < 2 ** (n - 1) and abs(val) > ATOL:  # z1 = 0 masks
                odd_ok = False
            if abs(val) >= 1.0 - 1e-6:
                odd_ok = False
    record("odd-z-masks-not-eigenoperators", odd_ok)

    # all valid products across all choices pairwise orthogonal
    stacked = np.concatenate([b.vectors for b in agreement.bases])
    gram = stacked @ stacked.conj().T
    err = np.abs(gram - np.eye(len(stacked))).max()
    record("valid-products-orthogonal", err <= ATOL, f"max |gram - I| = {err:.2e}")

    # each reveal measurement is the 2^n valid products (+ reject)
    shape = (count, 2 ** (2 * n + 1))
    bases_ok = all(
        b.valid_outcomes == frozenset(range(count)) and b.vectors.shape == shape
        for b in agreement.bases
    )
    record("reveal-bases-complete", bases_ok)

    return checks


# --- descriptor file -----------------------------------------------------
#
# Plain-text scheme descriptor: receiver qubit count, hex mask list, and
# optional preset name. Its SHA-256 hash identifies the agreement during
# the session handshake.


def descriptor_text(params: SchemeParams) -> str:
    lines = [
        f"n={params.num_bob_qubits}",
        "masks=" + ",".join(format(d, "#x") for d in params.masks),
    ]
    if params.preset:
        lines.append(f"preset={params.preset}")
    return "\n".join(lines) + "\n"


def params_from_descriptor(text: str) -> SchemeParams:
    fields = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = re.fullmatch(r"(\w+)=(.*)", line)
        if not match:
            raise ValueError(f"malformed descriptor line: {line!r}")
        fields[match.group(1)] = match.group(2)
    if "n" not in fields or "masks" not in fields:
        raise ValueError("descriptor needs 'n' and 'masks' lines")
    masks = tuple(int(tok, 16) for tok in fields["masks"].split(","))
    return SchemeParams(int(fields["n"]), masks, fields.get("preset"))


def scheme_hash(params: SchemeParams) -> str:
    """SHA-256 of the canonical descriptor text (preset name excluded)."""
    canonical = SchemeParams(params.num_bob_qubits, params.masks, None)
    return hashlib.sha256(descriptor_text(canonical).encode()).hexdigest()
