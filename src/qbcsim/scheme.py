"""Construction and auditing of the initial agreement.

A scheme with ``n`` receiver qubits offers ``2^n`` commitment choices.
Choice ``c`` is bound to:

* a commitment set of ``2^n`` mutually orthogonal (n+1)-qubit states,
  each an equal two-term superposition ``(|x> + |x XOR d_c>)/sqrt(2)``
  built from a nonzero pairing mask ``d_c`` (one element per XOR pair,
  ordered by the smaller pair member);
* the receiver's n-qubit reveal state, generated by a Hadamard on
  qubit 1 followed by CNOTs fanning out from qubit 1.

Set c is held as its reveal measurement, one ``MeasurementBasis`` on
Alice's (n+1)-qubit register: row k is element k, a valid outcome, and
outcome ``2^n`` rejects. It is Bob's measurement onto the ``2^n`` valid
products "set element (x) reveal state" plus reject, since
<e (x) G_c|psi (x) G_c> = <e|psi>: no product is ever formed.

Distinct nonzero masks guarantee the concealment structure: every element
of one set overlaps exactly two elements of every other set, each with
inner product 1/2.

The module also provides structural audits over all of the above, from
one Gram block per pair of sets and one Walsh table of the stacked reveal
states: their Pauli-Z expectations for every mask, indexed [choice, mask],
beside X^(x)n, with the mask parity classes as boolean arrays.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .quantum import (
    ATOL,
    INV_SQRT2,
    MeasurementBasis,
    StateVector,
    apply_gate,
    as_generator,
    index_to_bits,
    make_basis_state,
    walsh_matrix,
)

#: Largest supported receiver register; no product space is formed, so the cap bounds
#: the m^2(m-1)-row wrong-coupling report (258 k rows at n=6).
MAX_N = 6

PRESET_PAPER_COINTOSS = "paper-cointoss"
PRESET_DEFAULT_MASKS = "default-masks"


def _checked_num_bob_qubits(n: int) -> int:
    """``n`` if supported, else ValueError; checked before 2**n is formed."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"num_bob_qubits must be in 1..{MAX_N}, got {n}")
    return n


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
        n = _checked_num_bob_qubits(self.num_bob_qubits)
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
        count = 2 ** _checked_num_bob_qubits(num_bob_qubits)
        return cls(num_bob_qubits, tuple(range(1, count + 1)), PRESET_DEFAULT_MASKS)

    @classmethod
    def paper_cointoss(cls) -> "SchemeParams":
        """The named coin-toss instance: n=1, masks (01, 11)."""
        return cls(1, (0b01, 0b11), PRESET_PAPER_COINTOSS)

    @classmethod
    def random_masks(cls, num_bob_qubits: int, rng) -> "SchemeParams":
        """Uniformly drawn valid mask assignment (distinct nonzero masks)."""
        gen = as_generator(rng)
        pool = np.arange(1, 2 ** (_checked_num_bob_qubits(num_bob_qubits) + 1))
        picked = gen.choice(pool, size=2**num_bob_qubits, replace=False)
        return cls(num_bob_qubits, tuple(int(d) for d in picked))


def xor_pairs(params: SchemeParams, choice: int) -> tuple[tuple[int, int], ...]:
    """The basis-index pairs {x, x XOR d_c}, ordered by smaller member."""
    d = params.masks[choice]
    reps = sorted(x for x in range(2**params.num_alice_qubits) if x < x ^ d)
    return tuple((x, x ^ d) for x in reps)


def bob_reveal_state(params: SchemeParams, choice: int) -> StateVector:
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
    return state


@dataclass(frozen=True)
class RevealAgreement:
    """The full initial agreement: one value per choice in each tuple.

    ``sets[c]`` is set c as its reveal measurement on Alice's (n+1)-qubit
    register: row ``k`` is element k of set c (valid outcome ``k``, read as
    ``sets[c].vector(k)``), outcome ``2^n`` rejects. It is Bob's coupled
    measurement onto e_{c,k} (x) G_c, as <e (x) G_c|psi (x) G_c> = <e|psi>.
    ``reveal_states[c]`` is G_c, Bob's n-qubit reveal state.
    """

    params: SchemeParams
    sets: tuple[MeasurementBasis, ...]
    reveal_states: tuple[StateVector, ...]

    @property
    def num_choices(self) -> int:
        return self.params.num_choices


def build_reveal_agreement(params: SchemeParams) -> RevealAgreement:
    """Construct the sets, element k = (|x> + |y>)/sqrt(2) for the k-th XOR
    pair (x, y), and the reveal states."""
    sets = []
    for c in range(params.num_choices):
        pairs = xor_pairs(params, c)
        rows = np.zeros((len(pairs), 2**params.num_alice_qubits), dtype=complex)
        rows[np.arange(len(pairs))[:, None], pairs] = INV_SQRT2
        sets.append(MeasurementBasis(rows))
    reveal_states = tuple(bob_reveal_state(params, c) for c in range(params.num_choices))
    return RevealAgreement(params, tuple(sets), reveal_states)


# --- stabilizer audit ----------------------------------------------------


def _pauli_expectations(reveals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pauli expectations of the stacked states ``reveals`` [c, x] (real for
    the states built here): <G_c|X^(x)n|G_c> per state, and <G_c|Z^z|G_c> for
    every z mask, indexed [c, z], as the Walsh transform of the basis
    probabilities, W[x, z] = (-1)^popcount(x AND z)."""
    flipped = reveals[:, ::-1]  # XOR with all-ones reverses the index order
    x_values = (reveals.conj() * flipped).sum(axis=-1).real
    z_values = np.abs(reveals) ** 2 @ walsh_matrix(reveals.shape[-1].bit_length() - 1)
    return x_values, z_values


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
    identity = np.eye(count)
    amplitudes = np.array([s.vectors for s in sets])  # [c, k, x]
    reveals = np.array([r.amplitudes for r in reveal_states])
    reveal_gram = reveals.conj() @ reveals.T  # <G_c|G_c'>

    # one Gram block per pair of sets c <= c', gram[c' - c, k, j] =
    # <e_{c,k}|e_{c',j}>: within-set orthogonality (c = c'), cross-set
    # overlaps (c < c', rows and columns), and the valid products, since
    # <e (x) G_c|e' (x) G_c'> = <e|e'><G_c|G_c'>
    within = products = 0.0
    overlap_ok = True
    for c in range(count):
        gram = amplitudes[c].conj() @ amplitudes[c:].transpose(0, 2, 1)
        within = max(within, np.abs(gram[0] - identity).max())
        magnitudes = np.abs(gram[1:])
        partners = magnitudes > ATOL  # exactly two per foreign set, each 1/2
        overlap_ok &= bool(
            (partners.sum(axis=-1) == 2).all() and (partners.sum(axis=-2) == 2).all()
            and np.abs(magnitudes[partners] - 0.5).max(initial=0.0) <= ATOL
        )
        block = gram * reveal_gram[c, c:, None, None]
        block[0] -= identity
        products = max(products, np.abs(block).max())

    # two terms of equal magnitude per element; each set covers every index
    support = np.abs(amplitudes) > ATOL
    structure_ok = (
        (support.sum(axis=-1) == 2).all()
        and np.abs(np.abs(amplitudes[support]) - np.sqrt(0.5)).max() <= ATOL
        and support.any(axis=1).all()
    )
    record("within-set-orthogonality", within <= ATOL, f"max |gram - I| = {within:.2e}")
    record("two-term-equal-superposition-cover", structure_ok)
    record("cross-set-two-partners-overlap-half", overlap_ok)

    # reveal states orthonormal
    err = np.abs(reveal_gram - identity).max()
    record("reveal-states-orthonormal", err <= ATOL, f"max |gram - I| = {err:.2e}")

    # stabilizer generators: X^(x)n and every even-parity Z mask are +-1
    # eigenoperators of each reveal state. Operator 0 is X^(x)n and operator
    # 1 + z is Z^z, so the first failing cell in C order is the first choice,
    # X^(x)n before the Z masks in ascending order
    n = params.num_bob_qubits
    x_values, z_values = _pauli_expectations(reveals)
    odd = walsh_matrix(n)[:, -1] < 0  # W[z, all-ones] = (-1)^popcount(z)
    values = np.c_[x_values, z_values]
    off = np.abs(np.abs(values) - 1.0) > ATOL
    off[:, 1:] &= ~odd
    detail = ""
    if off.any():
        c, op = (int(i) for i in np.argwhere(off)[0])
        value = float(values[c, op])
        detail = (f"X^n expectation {value} is not +-1 for choice {c}" if op == 0 else
                  f"even-parity Z mask {op - 1:#x} expectation {value} is not +-1 for choice {c}")
    record("stabilizer-eigenoperators", not off.any(), detail)
    # the odd-parity negative control: no odd mask is an eigenoperator, and
    # those with z1 = 0 have expectation 0
    magnitude = np.abs(z_values)
    z1_clear = np.arange(2**n) < 2 ** (n - 1)
    odd_eigen = odd & ((z1_clear & (magnitude > ATOL)) | (magnitude >= 1.0 - 1e-6))
    record("odd-z-masks-not-eigenoperators", not odd_eigen.any())

    # all valid products across all choices pairwise orthogonal
    record("valid-products-orthogonal", products <= ATOL, f"max |gram - I| = {products:.2e}")

    # row k of set c is (|x_k> + |x_k XOR d_c>)/sqrt(2) for the k-th XOR pair
    pairs = np.array([xor_pairs(params, c) for c in range(count)])  # [c, k, 2]
    expected = np.zeros_like(amplitudes)
    np.put_along_axis(expected, pairs, INV_SQRT2, axis=-1)
    record("reveal-bases-complete", np.array_equal(amplitudes, expected))

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


def scheme_hash(params: SchemeParams) -> str:
    """SHA-256 of the canonical descriptor text (preset name excluded)."""
    canonical = SchemeParams(params.num_bob_qubits, params.masks, None)
    return hashlib.sha256(descriptor_text(canonical).encode()).hexdigest()
