"""Construction and auditing of the initial agreement.

A scheme with ``n`` receiver qubits offers ``2^n`` commitment choices.
Choice ``c`` is bound to:

* a commitment set of ``2^n`` mutually orthogonal (n+1)-qubit states,
  each an equal two-term superposition ``(|x> + |x XOR d_c>)/sqrt(2)``
  built from a nonzero pairing mask ``d_c`` (one element per XOR pair,
  ordered by the smaller pair member);
* the receiver's n-qubit reveal state G_c, written from its closed form
  ``(|0,c2..cn> + (-1)^c1 |1,~c2..~cn>)/sqrt(2)``: the output of the
  paper's generation circuit (a Hadamard on qubit 1, then CNOTs fanning
  out from qubit 1) on |c>, against which the tests check it.

Set c is held as its pairs: the index pairs [k, 2] that ``xor_pairs``
yields, 2^n elements of two terms each, so the agreement is O(m^2) for
m = 2^n choices. The reveal states are one array [c, x], written by one
writer of the closed form. No StateVector
or MeasurementBasis is formed by the build: ``element(c, k)`` forms and
validates one element on demand. Set c is Bob's reveal measurement on
Alice's (n+1)-qubit register, whose valid outcome k is element k and
whose outcome ``2^n`` rejects: his measurement onto the
``2^n`` valid products "set element (x) reveal state" plus reject, since
<e (x) G_c|psi (x) G_c> = <e|psi>, so no product is ever formed. A verify
reads its distribution from the pairs in O(m)
(``measurement_distribution``), with no dense row formed. The analysis
reads ``valid_masses``, the [c, k, c'] valid mass of every element under
every reveal, also from the pairs; the build leaves it to first use.

Distinct nonzero masks guarantee the concealment structure: every element
of one set overlaps exactly two elements of every other set, each with
inner product 1/2.

The module also provides structural audits over all of the above, from
the pairs and one Walsh table of the reveal-state array: their Pauli-Z
expectations for every mask, indexed [choice, mask], beside X^(x)n, with
the mask parity classes as boolean arrays.
"""

from __future__ import annotations

import functools
import hashlib
import operator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .quantum import (
    ATOL,
    INV_SQRT2,
    StateVector,
    _outcome_distribution,
    as_generator,
    walsh_matrix,
)

#: Largest supported receiver register; no product space is formed, so the cap bounds
#: the m^2(m-1)-row wrong-coupling report (258 k rows at n=6).
MAX_N = 6

PRESET_PAPER_COINTOSS = "paper-cointoss"
PRESET_DEFAULT_MASKS = "default-masks"


def _checked_num_bob_qubits(n: int) -> int:
    """int ``n`` if supported, else TypeError (a bool too) or ValueError;
    checked before 2**n is formed."""
    if type(n) is bool:
        raise TypeError("num_bob_qubits must be an integer, not a bool")
    n = operator.index(n)
    if not 1 <= n <= MAX_N:
        raise ValueError(f"num_bob_qubits must be in 1..{MAX_N}, got {n}")
    return n


@dataclass(frozen=True)
class SchemeParams:
    """Scheme parameters: receiver qubit count and the pairing masks.

    ``masks[c]`` is the nonzero (n+1)-bit integer that pairs basis strings
    for choice ``c``. Masks must be pairwise distinct integers; numpy
    integers are taken and a bool, for n or a mask, is a TypeError.
    """

    num_bob_qubits: int
    masks: tuple[int, ...]
    preset: str | None = None

    def __post_init__(self):
        n = _checked_num_bob_qubits(self.num_bob_qubits)
        given = tuple(self.masks)
        if bool in map(type, given):  # True would pass as the int 1
            raise TypeError("masks must be integers, not bools")
        masks = tuple(map(operator.index, given))  # a float is a TypeError, not rounded
        if len(masks) != 2**n:
            raise ValueError(f"need {2**n} masks for {2**n} choices, got {len(masks)}")
        top = 2 ** (n + 1)
        for d in masks:
            if not 1 <= d < top:
                raise ValueError(f"mask {d:#x} out of range (nonzero, {n + 1} bits)")
        if len(set(masks)) != len(masks):
            raise ValueError("masks must be pairwise distinct")
        object.__setattr__(self, "num_bob_qubits", n)
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
        return cls(num_bob_qubits, tuple(picked))


def xor_pairs(params: SchemeParams, choice: int) -> tuple[tuple[int, int], ...]:
    """The basis-index pairs {x, x XOR d_c}, ordered by smaller member
    (ascending x, each pair met at its smaller member)."""
    d = params.masks[choice]
    return tuple((x, x ^ d) for x in range(2**params.num_alice_qubits) if x < x ^ d)


def _xor_pair_array(params: SchemeParams) -> np.ndarray:
    """Every set's ``xor_pairs`` as one array [c, k, 2]."""
    count = params.num_choices
    # fromiter over the flat indices, as np.array of nested tuples costs 2-3x at n >= 4
    indices = chain.from_iterable(chain.from_iterable(xor_pairs(params, c) for c in range(count)))
    return np.fromiter(indices, dtype=int, count=2 * count**2).reshape(count, count, 2)


def _reveal_table(n: int) -> np.ndarray:
    """Every reveal state, row c = G_c ([c, x]):
    (|c & (m/2 - 1)> + (-1)^c1 |its complement>)/sqrt(2) for m = 2^n, that
    is (|0,c2..cn> + (-1)^c1 |1,~c2..~cn>)/sqrt(2), every other entry +0."""
    m = 2**n
    table = np.zeros((m, m), dtype=complex)
    for rows, sign in ((table[: m // 2], 1), (table[m // 2:], -1)):  # c1 = 0, then 1
        flat = rows.reshape(-1)  # row i of the half, column x, at i*m + x
        flat[:: m + 1] = INV_SQRT2  # [i, i]: |0,c2..cn>
        flat[m - 1:: m - 1] = sign * INV_SQRT2  # [i, m-1-i]: its complement
    return table


@dataclass(frozen=True, eq=False)
class RevealAgreement:
    """The full initial agreement, indexed by choice.

    Every element is (|x> + |y>)/sqrt(2): element k of set c has
    ``(x, y) = pairs[c, k]``, the k-th XOR pair, y = x XOR d_c, in one
    read-only array [c, k, 2]. Set c is its reveal
    measurement on Alice's (n+1)-qubit register (valid outcome k is element
    k, outcome ``2^n`` rejects): Bob's coupled measurement onto
    e_{c,k} (x) G_c, as <e (x) G_c|psi (x) G_c> = <e|psi>.
    ``measurement_distribution(c, psi)`` is its Born distribution, read from
    the pairs. ``reveals[c]`` holds G_c, Bob's n-qubit reveal state, in one
    read-only array [c, x].
    ``descriptor_hash`` is the scheme hash and ``valid_masses`` [c, k, c']
    the valid mass of every element under every reveal, each computed on
    first use. Equality is identity, as the arrays have no single truth
    value.
    """

    params: SchemeParams
    pairs: np.ndarray
    reveals: np.ndarray

    @property
    def num_choices(self) -> int:
        return self.params.num_choices

    @functools.cached_property
    def descriptor_hash(self) -> str:
        """``scheme_hash(params)``, computed once per agreement."""
        return scheme_hash(self.params)

    @functools.cached_property
    def valid_masses(self) -> np.ndarray:
        """Valid mass of element k of set c under reveal c', indexed
        [c, k, c'], read-only and computed once per agreement.

        X^d maps the element onto itself when d = x XOR y and off its
        support otherwise, so its mass under Q_c' = (I + X^{d_c'})/2 is 1 when
        its pair differs by d_c' (c' = c) and 1/2 otherwise. Each entry is
        also the acceptance threshold of every sampled verification of that
        element under that reveal.
        """
        masks = np.asarray(self.params.masks)
        on_pair = (self.pairs[..., 0, None] ^ self.pairs[..., 1, None]) == masks
        table = np.where(on_pair, 1.0, 0.5)
        table.setflags(write=False)
        return table

    def element(self, choice: int, k: int) -> StateVector:
        """Element ``k`` of set ``choice`` as a StateVector on Alice's register."""
        if not 0 <= k < self.num_choices:
            raise ValueError(f"element {k} is not in 0..{self.num_choices - 1}")
        amplitudes = np.zeros(2**self.params.num_alice_qubits, dtype=complex)
        amplitudes[self.pairs[choice, k]] = INV_SQRT2
        return StateVector(self.params.num_alice_qubits, amplitudes)

    def measurement_distribution(self, choice: int, state: StateVector) -> np.ndarray:
        """The Born distribution of ``state`` under set ``choice`` as Bob's
        reveal measurement, from the pairs in O(m):
        <e_k|psi> = psi[x_k]/sqrt(2) + psi[y_k]/sqrt(2) for the k-th pair
        (x_k, y_k), then the reject mass, checked and normalised as
        ``born_distribution`` does."""
        if state.num_qubits != self.params.num_alice_qubits:
            raise ValueError("state and basis dimensions differ")
        terms = INV_SQRT2 * state.amplitudes[self.pairs[choice]]
        return _outcome_distribution(np.abs(terms[:, 0] + terms[:, 1]) ** 2, state.dimension)


def build_reveal_agreement(params: SchemeParams) -> RevealAgreement:
    """Construct the sets, element k = (|x> + |y>)/sqrt(2) for the k-th pair
    (x, y) that ``xor_pairs`` lists, and the reveal-state array. No dense
    row, StateVector or MeasurementBasis is formed."""
    pairs = _xor_pair_array(params)  # [c, k, 2]
    reveals = _reveal_table(params.num_bob_qubits)  # [c, x]
    for array in (pairs, reveals):
        array.setflags(write=False)
    return RevealAgreement(params, pairs, reveals)


# --- structural audit ----------------------------------------------------


def _pauli_expectations(reveals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pauli expectations of the stacked states ``reveals`` [c, x] (real for
    the states built here): <G_c|X^(x)n|G_c> per state, and <G_c|Z^z|G_c> for
    every z mask, indexed [c, z], as the Walsh transform of the basis
    probabilities, W[x, z] = (-1)^popcount(x AND z)."""
    flipped = reveals[:, ::-1]  # XOR with all-ones reverses the index order
    x_values = (reveals.conj() * flipped).sum(axis=-1).real
    z_values = np.abs(reveals) ** 2 @ walsh_matrix(reveals.shape[-1].bit_length() - 1)
    return x_values, z_values


def _pair_residuals(pairs: np.ndarray, reveal_gram: np.ndarray):
    """(cover, within, split, products) of the sets held as index pairs
    [c, k, 2], every element (|x> + |y>)/sqrt(2), with the reveal-state Gram
    <G_c|G_c'>. Cover: every set's pairs a partition of the indices
    0..2m-1, so owner[c, x], the element of set c holding x, is defined;
    without it, (False, inf, False, inf), whatever the indices are. within,
    products: max |gram - I| of the sets and the valid products; split: each
    set splits all other sets' pairs, none of its own."""
    count = len(pairs)
    dim = pairs[0].size
    if not (np.sort(pairs.reshape(count, dim), axis=-1) == np.arange(dim)).all():
        return False, np.inf, False, np.inf
    owner = np.empty((count, dim), dtype=np.intp)  # [c, x]
    owner[np.arange(count)[:, None, None], pairs] = np.arange(count)[:, None]
    # disjoint supports: within a set only <e|e> can differ from the identity
    norm = 2 * INV_SQRT2**2
    # (x, y) in set c meets two elements of set c' iff owner[c', x] != owner[c', y]
    split = owner[:, pairs[..., 0]] != owner[:, pairs[..., 1]]  # [c', c, k]
    # <e (x) G_c|e' (x) G_c'> = <e|e'><G_c|G_c'>: a split pair meets e' in one
    # term, at INV_SQRT2**2, an unsplit pair in both, at its norm; each block
    # [c', c] takes the largest over its pairs
    products = np.abs(reveal_gram) * np.where(split.all(axis=-1), INV_SQRT2**2, norm)
    products[np.diag_indices(count)] = np.abs(norm * reveal_gram.diagonal() - 1)
    own = np.eye(count, dtype=bool)[..., None]
    return True, abs(norm - 1), bool((split != own).all()), products.max()


@dataclass(frozen=True)
class AuditCheck:
    name: str
    passed: bool
    detail: str


def audit_scheme(params: SchemeParams) -> list[AuditCheck]:
    """Run every structural invariant; one named pass/fail entry per check.
    The set and product checks need the cover, and without it fail naming it."""
    checks = []

    def record(name, passed, detail=""):
        checks.append(AuditCheck(name, bool(passed), detail))

    agreement = build_reveal_agreement(params)
    count = params.num_choices
    reveals = agreement.reveals
    reveal_gram = reveals.conj() @ reveals.T  # <G_c|G_c'>
    cover, within, split, products = _pair_residuals(agreement.pairs, reveal_gram)
    unmet = "" if cover else "needs two-term-equal-superposition-cover"
    record("within-set-orthogonality", within <= ATOL, unmet or f"max |gram - I| = {within:.2e}")
    record("two-term-equal-superposition-cover", cover)
    record("cross-set-two-partners-overlap-half", split, unmet)

    # reveal states orthonormal
    err = np.abs(reveal_gram - np.eye(count)).max()
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

    record("valid-products-orthogonal", products <= ATOL,
           unmet or f"max |gram - I| = {products:.2e}")

    # element k of set c is (|x_k> + |x_k XOR d_c>)/sqrt(2) for the k-th XOR
    # pair; the order within a pair does not change the element
    expected = _xor_pair_array(params)
    record("reveal-bases-complete", np.array_equal(np.sort(agreement.pairs, axis=-1), expected))

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
