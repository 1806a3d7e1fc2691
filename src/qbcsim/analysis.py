"""Binding and concealment, quantified.

Every scenario is computed two ways where feasible: an exact probability
and a seeded Monte Carlo estimate of the same experiment. Bob's reveal
state factors out of every valid-outcome mass, so exact figures are
overlaps <psi|Q_c|psi> on the (n+1)-qubit register, Q_c = (I + X^{d_c})/2.
Every sampled verification (cheat, block cheat, update-on-reject) goes
through one acceptance sampler, the only user of Born distributions over
the reveal measurements (2^n valid products + reject).
Discrimination bounds (two-hypothesis optimum and the square-root
measurement) bound what any pre-reveal strategy could achieve, so the
concealment claim is tested rather than assumed. Functions report
numbers side by side and do not editorialize.

Priors are uniform over choices and elements wherever a strategy needs
them; that matches the arbitrary-guess baseline the scheme is judged
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quantum import (
    HermitianMatrix,
    as_generator,
    born_distribution,
    computational_basis,
    hermitian_eig,
    tensor,
)
from .scheme import RevealAgreement, SchemeParams, build_set_s, build_sets

STRATEGY_DECLARE_PRIOR = "declare-prior-guess"
STRATEGY_UPDATE_ON_REJECT = "update-on-reject"
STRATEGIES = (STRATEGY_DECLARE_PRIOR, STRATEGY_UPDATE_ON_REJECT)

#: Eigenvalues below this are treated as zero on the support of an
#: average state (rank-deficient mixtures are generic here).
SUPPORT_CUTOFF = 1e-10


@dataclass(frozen=True)
class CheatReport:
    """One scenario: exact probability plus an optional sampled estimate."""

    scenario: str
    exact: float
    trials: int = 0
    estimate: float | None = None
    stderr: float | None = None
    parameters: dict = field(default_factory=dict)

    def consistent(self) -> bool:
        """Estimate within three standard errors of exact (True if exact-only)."""
        if self.trials == 0:
            return True
        return bool(abs(self.exact - self.estimate) <= 3.0 * self.stderr)

    def as_dict(self) -> dict:
        out = {
            "scenario": self.scenario,
            "exact": self.exact,
            "trials": self.trials,
            "parameters": dict(self.parameters),
        }
        if self.trials > 0:
            out["estimate"] = self.estimate
            out["stderr"] = self.stderr
            out["consistent"] = self.consistent()
        return out


def _finish_report(scenario, exact, hits, trials, parameters) -> CheatReport:
    exact = float(exact)
    if trials == 0:
        return CheatReport(scenario, exact, parameters=parameters)
    estimate = hits / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return CheatReport(scenario, exact, trials, estimate, stderr, parameters)


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
    elements = build_sets(params)[choice].elements
    dim = elements[0].dimension
    rho = np.zeros((dim, dim), dtype=complex)
    for elem in elements:
        rho += np.outer(elem.amplitudes, elem.amplitudes.conj())
    return EnsembleMixture(choice, HermitianMatrix(rho / len(elements)))


# --- binding: Alice's cheat acceptance ------------------------------------


def _valid_mass(amplitudes: np.ndarray, masks) -> np.ndarray:
    """Valid-outcome mass <psi|Q_c|psi> / <psi|psi> along the last axis.

    Q_c = (I + X^{d_c})/2 and X^d permutes indices by XOR, so the mass is
    (|psi|^2 + Re sum_x conj(psi_x) psi_{x^d}) / (2 |psi|^2). ``masks``
    holds the d_c, with one axis fewer than ``amplitudes``, and broadcasts
    against its leading axes.
    """
    flips = np.bitwise_xor.outer(np.asarray(masks), np.arange(amplitudes.shape[-1]))
    flipped = np.take_along_axis(amplitudes, flips, axis=-1)
    norm2 = np.sum(np.abs(amplitudes) ** 2, axis=-1)
    cross = np.sum((amplitudes.conj() * flipped).real, axis=-1)
    return (norm2 + cross) / (2.0 * norm2)


def _valid_mass_table(agreement: RevealAgreement) -> np.ndarray:
    """Valid mass of element k of set c under reveal c', indexed [c, k, c']."""
    elements = np.array([[e.amplitudes for e in s.elements] for s in agreement.sets])
    masks = np.array(agreement.params.masks)
    return _valid_mass(elements[:, :, None, :], masks[None, None, :])


def alice_cheat_acceptance(
    agreement: RevealAgreement, c_true: int, element: int, c_claimed: int
) -> float:
    """Exact acceptance probability when Alice reveals ``c_claimed`` after
    committing the given element of the set bound to ``c_true``.

    Equal choices are allowed as the honest control and return 1. The
    wrong-claim value 1/2 holds for an Alice who commits a genuine set
    element; a state outside every set, such as |+>^(n+1), lies in every
    Q_c and passes every reveal.
    """
    params = agreement.params
    for label, value in (("c_true", c_true), ("c_claimed", c_claimed)):
        if not 0 <= value < params.num_choices:
            raise ValueError(f"{label} {value} out of range")
    if not 0 <= element < params.num_choices:
        raise ValueError(f"element index {element} out of range")
    held = agreement.sets[c_true].elements[element]
    return float(_valid_mass(held.amplitudes, params.masks[c_claimed]))


def alice_cheat_report(
    agreement: RevealAgreement,
    c_true: int,
    c_claimed: int,
    trials: int = 0,
    rng=None,
) -> CheatReport:
    """Cheat acceptance averaged over a uniform element, exact and sampled."""
    params = agreement.params
    m = params.num_choices
    elements = np.array([e.amplitudes for e in agreement.sets[c_true].elements])
    exact = float(np.mean(_valid_mass(elements, [params.masks[c_claimed]])))
    hits = 0
    if trials > 0:
        gen = as_generator(rng)
        ks = gen.integers(m, size=trials)
        combos = [(c_true, k, c_claimed) for k in range(m)]
        hits = int(_sampled_acceptance(agreement, combos, ks, gen).sum())
    return _finish_report(
        f"alice-cheat commit {c_true} reveal {c_claimed}",
        exact,
        hits,
        trials,
        {"n": params.num_bob_qubits, "c_true": c_true, "c_claimed": c_claimed},
    )


def _grouped_outcomes(dists, group_index: np.ndarray, rng) -> np.ndarray:
    """Per-row categorical sample where row i draws from dists[group_index[i]]."""
    out = np.empty(len(group_index), dtype=np.int64)
    for g, dist in enumerate(dists):
        sel = np.flatnonzero(group_index == g)
        if sel.size:
            out[sel] = rng.choice(len(dist), size=sel.size, p=dist)
    return out


def _sampled_acceptance(agreement: RevealAgreement, combos, draw, rng) -> np.ndarray:
    """Sampled verification per draw: draw i couples element k of set c with
    reveal state c' and measures in basis c', (c, k, c') = combos[draw[i]].

    Outcomes 0..2^n - 1 of a reveal measurement are its valid products and
    outcome 2^n rejects, so a draw is accepted iff its outcome is below 2^n.
    """
    dists = [
        born_distribution(
            tensor(agreement.sets[c].elements[k], agreement.reveal_states[claim].state),
            agreement.bases[claim],
        )
        for c, k, claim in combos
    ]
    return _grouped_outcomes(dists, draw, rng) < agreement.num_choices


def _cheat_acceptance_common(agreement: RevealAgreement) -> float:
    """The per-block cheat acceptance, verified identical across (c, c', k)."""
    table = _valid_mass_table(agreement)
    c, _, claim = np.indices(table.shape)
    values = table[c != claim]
    lo, hi = values.min(), values.max()
    if hi - lo > 1e-12:
        raise ValueError(f"cheat acceptance varies across scenarios: [{lo}, {hi}]")
    return float(np.mean(values))


def block_cheat_fidelity(agreement: RevealAgreement, blocks: int) -> float:
    """Exact probability that a per-block cheat survives ``blocks`` independent
    verifications (product of per-block acceptances).

    Like the single-block 1/2, the 2^-K law holds for an Alice who commits
    genuine set elements; |+>^(n+1) in every block passes every reveal.
    """
    if blocks < 1:
        raise ValueError("block count must be at least 1")
    return _cheat_acceptance_common(agreement) ** blocks


def block_cheat_report(
    agreement: RevealAgreement, blocks: int, trials: int = 0, rng=None
) -> CheatReport:
    """K-block cheat survival, exact and by independent-product simulation."""
    params = agreement.params
    exact = block_cheat_fidelity(agreement, blocks)
    hits = 0
    if trials > 0:
        gen = as_generator(rng)
        combos = [t for t in np.ndindex((params.num_choices,) * 3) if t[0] != t[2]]
        draw = gen.integers(len(combos), size=trials * blocks)
        accepted = _sampled_acceptance(agreement, combos, draw, gen)
        hits = int(accepted.reshape(trials, blocks).all(axis=1).sum())
    return _finish_report(
        f"block-cheat K={blocks}",
        exact,
        hits,
        trials,
        {"n": params.num_bob_qubits, "K": blocks},
    )


# --- concealment: Bob's premature strategies ------------------------------


@dataclass(frozen=True, eq=False)
class WrongCouplingEntry:
    """One row of the wrong-coupling table: held element, coupled reveal
    state, and the mass of their product on the valid outcomes."""

    held_choice: int
    element: int
    coupled_choice: int
    valid_mass: float


def bob_wrong_coupling_table(agreement: RevealAgreement) -> tuple[WrongCouplingEntry, ...]:
    """Valid mass of every (held element, wrong reveal state) coupling."""
    table = _valid_mass_table(agreement)
    return tuple(
        WrongCouplingEntry(c, k, claim, float(table[c, k, claim]))
        for c, k, claim in np.ndindex(table.shape)
        if claim != c
    )


def bob_premature_strategy(
    agreement: RevealAgreement, strategy: str, trials: int = 0, rng=None
) -> CheatReport:
    """Success probability of identifying the committed choice pre-reveal.

    declare-prior-guess: couple an arbitrary guess, ignore the outcome,
    declare the guess. update-on-reject: declare the guess when its
    verification accepts, otherwise declare uniformly among the remaining
    choices (a rejection rules the guess out).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; known: {STRATEGIES}")
    params = agreement.params
    m = params.num_choices
    parameters = {"n": params.num_bob_qubits, "strategy": strategy}

    if strategy == STRATEGY_DECLARE_PRIOR:
        exact = float(np.mean([[g == c for g in range(m)] for c in range(m)]))
        hits = 0
        if trials > 0:
            gen = as_generator(rng)
            cs = gen.integers(m, size=trials)
            gs = gen.integers(m, size=trials)
            hits = int((cs == gs).sum())
        return _finish_report(strategy, exact, hits, trials, parameters)

    # update-on-reject: average over (c, k, guess) of the two branches
    table = _valid_mass_table(agreement)
    c, _, g = np.indices(table.shape)
    correct_on_reject = np.where(g == c, 0.0, 1.0 / (m - 1))
    # a running sum keeps the sequential (c, k, guess) order of the branch sum
    exact = np.cumsum(table * (g == c) + (1.0 - table) * correct_on_reject)[-1] / m**3
    hits = 0
    if trials > 0:
        gen = as_generator(rng)
        combos = list(np.ndindex(table.shape))
        draw = gen.integers(len(combos), size=trials)
        accepted = _sampled_acceptance(agreement, combos, draw, gen)
        fallback = gen.integers(m - 1, size=trials)  # index among remaining choices
        cs, gs = draw // m**2, draw % m
        declared = np.where(accepted, gs, fallback + (fallback >= gs))
        hits = int((declared == cs).sum())
    return _finish_report(strategy, exact, hits, trials, parameters)


# --- discrimination bounds -------------------------------------------------


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


# --- the reduced-qubit variant ---------------------------------------------


def s_protocol_analysis(
    agreement: RevealAgreement, p_s: float, trials: int = 0, rng=None
) -> CheatReport:
    """Bob's identification probability under "assume parent S, measure
    computationally" when Alice commits from S with probability ``p_s``.

    The rule declares outcome o when o < 2^n and guesses uniformly
    otherwise. The exact value sums every (parent, choice, element, outcome)
    branch; the sampled estimate replays the same experiment.
    """
    if not 0.0 <= p_s <= 1.0:
        raise ValueError(f"parent-S probability {p_s} out of [0, 1]")
    params = agreement.params
    m = params.num_choices
    comp = computational_basis(2 ** params.num_alice_qubits)
    # row c < m: the S state bound to choice c; row m + c*m + k: element k of set c
    states = build_set_s(params).elements[:m] + sum((s.elements for s in agreement.sets), ())
    dists = []
    for state in states:
        dists.append(born_distribution(state, comp))
    dists = np.array(dists)
    committed = np.r_[np.arange(m), np.arange(m * m) // m][:, None]
    outcome = np.arange(dists.shape[1])
    terms = dists * np.where(outcome < m, outcome == committed, 1.0 / m)
    # running sums keep the sequential (row, outcome) order of the branch sum
    success_s = np.cumsum(terms[:m] / m)[-1]
    success_b = np.cumsum(terms[m:] / m**2)[-1]
    exact = p_s * success_s + (1.0 - p_s) * success_b

    hits = 0
    if trials > 0:
        gen = as_generator(rng)
        from_s = gen.random(trials) < p_s
        cs = gen.integers(m, size=trials)
        ks = gen.integers(m, size=trials)
        guesses = gen.integers(m, size=trials)
        combo = np.where(from_s, cs, m + cs * m + ks)
        outcomes = _grouped_outcomes(dists, combo, gen)
        declared = np.where(outcomes < m, outcomes, guesses)
        hits = int((declared == cs).sum())
    return _finish_report(
        f"assume-parent-S p_S={p_s:g}",
        exact,
        hits,
        trials,
        {"n": params.num_bob_qubits, "p_S": p_s},
    )


def s_protocol_sweep(
    agreement: RevealAgreement, points: int = 11, trials: int = 0, rng=None
) -> tuple[CheatReport, ...]:
    """s_protocol_analysis over an even grid of parent-S probabilities."""
    gen = as_generator(rng) if trials > 0 else None
    return tuple(
        s_protocol_analysis(agreement, float(p), trials, gen)
        for p in np.linspace(0.0, 1.0, points)
    )


# --- batch report -----------------------------------------------------------


def run_full_analysis(agreement: RevealAgreement, trials: int = 0, seed: int = 0) -> dict:
    """The full battery as a JSON-ready dict.

    Exact values cover every scenario; Monte Carlo columns appear only
    when ``trials`` > 0, drawn from one generator seeded by ``seed`` so
    identical configurations produce identical reports.
    """
    params = agreement.params
    m = params.num_choices
    gen = np.random.default_rng(seed)
    report: dict = {
        "scheme": {
            "n": params.num_bob_qubits,
            "choices": m,
            "masks": [format(d, "#x") for d in params.masks],
            "preset": params.preset,
        },
        "seed": seed,
        "trials": trials,
    }

    pair_reports = []
    for c in range(m):
        for claim in range(m):
            if claim == c:
                continue
            pair_trials = trials if (c, claim) == (0, 1) else 0
            pair_reports.append(
                alice_cheat_report(agreement, c, claim, pair_trials, gen).as_dict()
            )
    report["alice_cheat"] = pair_reports

    report["block_fidelity"] = [
        block_cheat_report(agreement, blocks, trials, gen).as_dict()
        for blocks in range(1, 9)
    ]

    report["wrong_coupling"] = [dict(vars(row)) for row in bob_wrong_coupling_table(agreement)]

    report["strategies"] = [
        bob_premature_strategy(agreement, strategy, trials, gen).as_dict()
        for strategy in STRATEGIES
    ]

    mixtures = [ensemble_mixture(params, c) for c in range(m)]
    report["discrimination"] = {
        "chance": 1.0 / m,
        "helstrom_pairs": [
            {"a": a, "b": b, "bound": helstrom_bound(mixtures[a], mixtures[b])}
            for a in range(m)
            for b in range(a + 1, m)
        ],
        "pgm_uniform": pgm_success(mixtures, np.full(m, 1.0 / m)),
    }

    report["s_protocol"] = [
        r.as_dict() for r in s_protocol_sweep(agreement, 11, trials, gen)
    ]
    return report
