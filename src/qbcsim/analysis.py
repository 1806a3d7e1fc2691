"""Binding and concealment, quantified.

Every scenario is computed two ways where feasible: an exact probability
and a seeded Monte Carlo estimate of the same experiment. Bob's reveal
state factors out of every valid-outcome mass, so exact figures are
overlaps <psi|Q_c|psi> on the (n+1)-qubit register, Q_c = (I + X^{d_c})/2.
Every figure of a set element reads ``agreement.valid_masses``, the
[c, k, c'] table of set elements under reveals that the agreement
computes from its pairs on first use: it holds every exact figure and the
acceptance threshold of every sampled verification (cheat, block cheat,
update-on-reject), so no reveal measurement is formed. Its off-diagonal
entries, in the one order ``_off_diagonal`` fixes, are the wrong-coupling
rows and the masses each block report checks and samples; only a sampled
cheat pair makes a cheat report of its own. Born distributions are left
to the parent-S sweep, over the computational basis, at
p_S = 0, 0.1, ..., 1.

Each sampler takes one uniform per sampled row from consecutive
``rng.random(block)`` calls over blocks of ``_BLOCK_ROWS`` rows, which
numpy draws exactly as one ``rng.random(rows)`` call, so row i takes the
i-th uniform. Uniforms, gathers and comparisons live one 64 KiB block at a
time, in cache and under glibc's 128 KiB mmap threshold; a per-trial array
(800 KB at 10^5 trials) is mapped, its pages faulted in afresh, on every
call. Each ``rng.integers`` call draws for all its rows at once. A
verification is accepted when its uniform is below the exact valid mass.
Rows are drawn only for what a trial reads: only the K-block trials still
alive play the next block, and each parent-S point splits its trials by
parent with one binomial draw. That sampler forms no outcome: u picks
outcome c exactly when cdf[c-1] <= u < cdf[c], so its hits are counted
from the uniforms; the rows past cdf[m-1] then draw guesses, in row order.
A sampled row is consistent when its estimate lies within ``MC_FLAG_Z``
standard errors of its exact value (the exact value's, not the plug-in
``stderr`` the report shows), so an exact 0 or 1 needs an equal estimate.

Discrimination bounds (two-hypothesis optimum and the square-root
measurement) bound what any pre-reveal strategy could achieve, so the
concealment claim is tested rather than assumed. Set c's uniform mixture
is rho_c = (I + X^{d_c})/2^(n+1), diagonal in the Hadamard basis with
entries (1 + W[d_c, y])/2^(n+1) for the Walsh matrix W, so both bounds are
sums over those diagonals: no density matrix is formed and no eigensolver
runs. Functions report numbers side by side and do not editorialize.

Priors are uniform over choices and elements wherever a strategy needs
them; that matches the arbitrary-guess baseline the scheme is judged
against.

Every exact figure of the report meets a closed-form law in m = 2^n, to
the last bit (every law is dyadic; ``tests/dense_oracle.py`` keeps the
table and the tests compare each figure with ``==``):

============================================  ========================
figure                                        law
============================================  ========================
valid mass of element k of set c, reveal c'   (1 + delta_cc')/2
alice-cheat, c' != c                          1/2
block-cheat, K blocks                         2^-K
declare-prior guess, and chance               1/m
update-on-reject                              3/(2m)
Helstrom, every pair of sets                  3/4
square-root measurement, uniform priors       |supp S|/(m 2^n)
parent-S sweep at p_S                         p_S + (1 - p_S)/m
============================================  ========================

|supp S| counts the Hadamard indices y with sum_c W[d_c, y] > -m: 2^(n+1)
unless the masks are exactly an odd class (see ``discrimination_bounds``).
"""

from __future__ import annotations

import itertools
import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .quantum import (
    _choice_cdf,
    as_generator,
    born_distribution,
    computational_basis,
    walsh_matrix,
)
from .scheme import RevealAgreement, SchemeParams

STRATEGY_DECLARE_PRIOR = "declare-prior-guess"
STRATEGY_UPDATE_ON_REJECT = "update-on-reject"
STRATEGIES = (STRATEGY_DECLARE_PRIOR, STRATEGY_UPDATE_ON_REJECT)

#: Exact standard errors a sampled row may stray, about 3.84: the Sidak z for a
#: report's 22 sampled rows at a family-wise 0.0027, the two-sided 3-sigma level.
MC_FLAG_Z = statistics.NormalDist().inv_cdf(1 - (1 - (1 - 0.0027) ** (1 / 22)) / 2)


def exact_stderr(exact: float, trials: int) -> float:
    """Standard error of ``trials`` Bernoulli trials of success rate ``exact``."""
    return math.sqrt(exact * (1.0 - exact) / trials)


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
        """Estimate within ``MC_FLAG_Z`` exact standard errors of the exact
        value (True if exact-only), so equal to an exact 0 or 1."""
        return self.trials == 0 or bool(
            abs(self.exact - self.estimate) <= MC_FLAG_Z * exact_stderr(self.exact, self.trials))

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
    """Every report ends here, so a negative trial count raises in each."""
    if trials < 0:
        raise ValueError(f"trial count {trials} is negative")
    exact = float(exact)
    if trials == 0:
        return CheatReport(scenario, exact, parameters=parameters)
    estimate = hits / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return CheatReport(scenario, exact, trials, estimate, stderr, parameters)


# --- binding: Alice's cheat acceptance ------------------------------------


def _off_diagonal(shape) -> np.ndarray:
    """Boolean mask of the (c, k, c') entries with c' != c: the m x m
    off-diagonal repeated over k, materialised, as numpy gathers through a
    broadcast mask about twice as slowly. Indexing with it reads the entries
    in C order: c, then k, then c'."""
    held, elements, claim = shape
    return np.repeat(~np.eye(held, claim, dtype=bool)[:, None], elements, axis=1)


def _wrong_coupling_rows(table: np.ndarray):
    """(held choice, element, coupled choice, valid mass) per off-diagonal
    entry of ``table`` as Python ints and floats, in ``_off_diagonal`` order."""
    mask = _off_diagonal(table.shape)
    return zip(*(i.tolist() for i in np.nonzero(mask)), table[mask].tolist())


#: The keys of a report's wrong-coupling row, in ``_wrong_coupling_rows`` order.
WRONG_COUPLING_KEYS = ("held_choice", "element", "coupled_choice", "valid_mass")


def alice_cheat_report(
    agreement: RevealAgreement,
    c_true: int,
    c_claimed: int,
    trials: int = 0,
    rng=None,
) -> CheatReport:
    """Cheat acceptance averaged over a uniform element, exact and sampled.

    The element masses, valid_masses[c_true, :, c_claimed], are both the
    exact figure's terms and the sampled verification's acceptance
    thresholds. Equal choices are allowed as the honest control and give 1.
    The wrong-claim value 1/2 holds for an Alice who commits a genuine set
    element; a state outside every set, such as |+>^(n+1), lies in every
    Q_c and passes every reveal.
    """
    params = agreement.params
    for label, value in (("c_true", c_true), ("c_claimed", c_claimed)):
        if not 0 <= value < params.num_choices:
            raise ValueError(f"{label} {value} out of range")
    masses = agreement.valid_masses[c_true, :, c_claimed]
    exact = float(np.mean(masses))
    hits = _survivors(masses, trials, 1, as_generator(rng)) if trials > 0 else 0
    return _alice_cheat_finish(params, c_true, c_claimed, exact, hits, trials)


def _alice_cheat_finish(params: SchemeParams, c_true: int, c_claimed: int, exact: float,
                        hits: int = 0, trials: int = 0) -> CheatReport:
    """The cheat report of one (c_true, c_claimed) pair from its numbers."""
    return _finish_report(
        f"alice-cheat commit {c_true} reveal {c_claimed}",
        exact,
        hits,
        trials,
        {"n": params.num_bob_qubits, "c_true": c_true, "c_claimed": c_claimed},
    )


#: Rows per sampler block: a float64 block is 64 KiB (see the module docstring).
_BLOCK_ROWS = 8192


def _blocks(rows: int):
    """A slice per sampler block over ``rows`` rows, in order."""
    return (slice(start, start + _BLOCK_ROWS) for start in range(0, rows, _BLOCK_ROWS))


def _sampled_acceptance(thresholds: np.ndarray, group_index: np.ndarray, rng) -> np.ndarray:
    """Sampled verification per row: row i is accepted iff the i-th uniform
    ``rng`` draws is below thresholds[group_index[i]]."""
    accepted = np.empty(len(group_index), dtype=bool)
    for block in _blocks(len(group_index)):
        rows = group_index[block]
        accepted[block] = rng.random(len(rows)) < thresholds[rows]
    return accepted


def _survivors(masses: np.ndarray, trials: int, rounds: int, rng) -> int:
    """Trials that pass ``rounds`` sampled verifications in a row. Each
    round draws a uniform index into ``masses`` per trial still alive, then
    accepts it below that mass; only the survivors play the next round."""
    alive = trials
    for _ in range(rounds):
        draw = rng.integers(len(masses), size=alive)
        alive = int(np.count_nonzero(_sampled_acceptance(masses, draw, rng)))
    return alive


def _declared_hits(cdfs: np.ndarray, committed: np.ndarray, choices: int, segments, rng) -> int:
    """Rows whose declared choice is the committed one. ``segments`` holds
    (offset, indices) pairs whose rows, in order, belong to the groups
    offset + indices. Row i samples an outcome o from its group's cdf with
    the i-th uniform ``rng`` draws, declares o when o < m = ``choices`` and
    otherwise the next guess of one ``rng.integers(m)`` call; committed[g]
    is the choice group g holds.

    No outcome is formed: u picks outcome c exactly when
    cdf[c - 1] <= u < cdf[c], and an outcome >= m exactly when
    u >= cdf[m - 1], so the hits are counted from the uniforms.
    """
    groups = np.arange(len(cdfs))
    upper = cdfs[groups, committed]
    lower = np.where(committed > 0, cdfs[groups, committed - 1], 0.0)
    guessing = cdfs[:, choices - 1]
    hits = 0
    held = [committed[:0]]  # the committed choice of each guessing row, in row order
    for offset, indices in segments:
        for block in _blocks(len(indices)):
            group = offset + indices[block]
            u = rng.random(len(group))
            hits += int(np.count_nonzero((lower[group] <= u) & (u < upper[group])))
            held.append(np.compress(u >= guessing[group], committed[group]))
    held = np.concatenate(held)
    return hits + int(np.count_nonzero(rng.integers(choices, size=len(held)) == held))


def block_cheat_report(agreement: RevealAgreement, blocks: int, trials: int = 0,
                       rng=None) -> CheatReport:
    """K-block cheat survival, exact and by independent-product simulation.

    The exact figure is the per-block acceptance to the power K. Like the
    single-block 1/2, the 2^-K law holds for an Alice who commits genuine
    set elements; |+>^(n+1) in every block passes every reveal. The
    per-block acceptance is the mean off-diagonal (c, k, c') entry of
    ``agreement.valid_masses``, after checking that those entries agree;
    each sampled block draws one of them and accepts below its mass.
    """
    if blocks < 1:
        raise ValueError("block count must be at least 1")
    table = agreement.valid_masses
    masses = table[_off_diagonal(table.shape)]
    lo, hi = masses.min(), masses.max()
    if hi - lo > 1e-12:
        raise ValueError(f"cheat acceptance varies across scenarios: [{lo}, {hi}]")
    exact = float(np.mean(masses)) ** blocks
    params = agreement.params
    hits = _survivors(masses, trials, blocks, as_generator(rng)) if trials > 0 else 0
    return _finish_report(
        f"block-cheat K={blocks}",
        exact,
        hits,
        trials,
        {"n": params.num_bob_qubits, "K": blocks},
    )


# --- concealment: Bob's premature strategies ------------------------------


def bob_premature_strategy(agreement: RevealAgreement, strategy: str, trials: int = 0,
                           rng=None) -> CheatReport:
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
        exact = 1.0 / m  # an arbitrary guess is right for one choice in m
        hits = 0
        if trials > 0:
            gen = as_generator(rng)
            cs = gen.integers(m, size=trials)
            gs = gen.integers(m, size=trials)
            hits = int(np.count_nonzero(cs == gs))
        return _finish_report(strategy, exact, hits, trials, parameters)

    # update-on-reject: average over (c, k, guess) of the two branches
    table = agreement.valid_masses
    # right on accept when guess = c, on reject 1 time in m - 1 otherwise;
    # grouped so that every partial sum is a multiple of 1/2, and so exact
    diag = np.einsum("ckc->", table)
    off = table.sum() - diag
    exact = (diag + (m**3 - m**2 - off) / (m - 1)) / m**3
    hits = 0
    if trials > 0:
        gen = as_generator(rng)
        draw = gen.integers(table.size, size=trials)  # one (c, k, guess) per trial, C order
        accepted = _sampled_acceptance(table.ravel(), draw, gen)
        fallback = gen.integers(m - 1, size=trials)  # index among remaining choices
        for block in _blocks(trials):
            cs, gs, rest = draw[block] // m**2, draw[block] % m, fallback[block]
            declared = np.where(accepted[block], gs, rest + (rest >= gs))
            hits += int(np.count_nonzero(declared == cs))
    return _finish_report(strategy, exact, hits, trials, parameters)


# --- discrimination bounds -------------------------------------------------


def discrimination_bounds(params: SchemeParams) -> dict:
    """The report's ``discrimination`` section: chance, the Helstrom bound of
    every pair of set mixtures, and the uniform-prior square-root measurement.

    In the Hadamard basis rho_c(y) = (1 + W[d_c, y])/2^(n+1), so the Helstrom
    bound of a pair is 1/2 + (1/4) sum_y |rho_a(y) - rho_b(y)| (3/4 for any
    two distinct masks), and the square-root measurement succeeds with
    sum_y sum_c rho_c(y)^2 / (m^2 S(y)) over the support of the average
    S = sum_c rho_c / m. That is |supp S| / (m 2^n): 2/m, unless the masks
    are exactly the odd class {d : popcount(d AND y) odd} of some y, which
    leaves y outside the support. Every entry is a multiple of 2^-n and the
    sum over c comes before the division by S(y), so the values are exact.
    """
    n, m = params.num_bob_qubits, params.num_choices
    rho = (1 + walsh_matrix(n + 1)[list(params.masks)]) / 2 ** (n + 1)  # [c, y]
    distance = np.abs(rho[:, None] - rho[None]).sum(axis=-1)  # sum_y |rho_a - rho_b|
    average = rho.sum(axis=0)  # m S(y)
    support = average > 0
    pgm = np.sum((rho**2).sum(axis=0)[support] / (m * average[support]))
    return {
        "chance": 1.0 / m,
        "helstrom_pairs": [
            {"a": a, "b": b, "bound": float(0.5 + 0.25 * distance[a, b])}
            for a in range(m)
            for b in range(a + 1, m)
        ],
        "pgm_uniform": float(pgm),
    }


# --- the reduced-qubit variant ---------------------------------------------


def s_protocol_sweep(
    agreement: RevealAgreement, trials: int = 0, rng=None
) -> tuple[CheatReport, ...]:
    """Bob's identification probability under "assume parent S, measure
    computationally" when Alice commits from S with probability p_S, at
    p_S = 0, 0.1, ..., 1.

    The rule declares outcome o when o < 2^n and guesses uniformly
    otherwise. The exact value sums every (parent, choice, element, outcome)
    branch; the sampled estimate replays the same experiment. Every point
    reads one set of m + m^2 Born rows, the set elements formed one at a
    time from the agreement's pairs; each sampled point splits its trials
    by parent with one binomial draw from ``rng``.
    """
    params = agreement.params
    m = params.num_choices
    comp = computational_basis(2 ** params.num_alice_qubits)
    # row c < m: the S state bound to choice c; row m + c*m + k: element k of set c
    states = [comp.vector(c) for c in range(m)]
    states += [agreement.element(c, k) for c in range(m) for k in range(m)]
    dists = []
    for state in states:
        dists.append(born_distribution(state, comp))
    dists = np.array(dists)
    committed = np.r_[np.arange(m), np.arange(m * m) // m]
    outcome = np.arange(dists.shape[1])
    terms = dists * np.where(outcome < m, outcome == committed[:, None], 1.0 / m)
    # every term is dyadic, so every partial sum is exact in any order
    success_s = np.sum(terms[:m] / m)
    success_b = np.sum(terms[m:] / m**2)

    if trials > 0:
        gen = as_generator(rng)
        cdfs = _choice_cdf(dists)
    reports = []
    for p_s in np.linspace(0.0, 1.0, 11).tolist():
        exact = p_s * success_s + (1.0 - p_s) * success_b
        hits = 0
        if trials > 0:
            from_s = gen.binomial(trials, p_s)  # the parent-S rows come first
            segments = ((0, gen.integers(m, size=from_s)),
                        (m, gen.integers(m * m, size=trials - from_s)))
            hits = _declared_hits(cdfs, committed, m, segments, gen)
        parameters = {"n": params.num_bob_qubits, "p_S": p_s}
        reports.append(_finish_report(f"assume-parent-S p_S={p_s:g}", exact, hits, trials, parameters))
    return tuple(reports)


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
    table = agreement.valid_masses
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

    # exact-only cheat rows read their means from the table; only the
    # sampled pair makes a report of its own, drawing from gen
    means = table.mean(axis=1).tolist()  # [c][c']; entries 1/2 or 1, so every sum is exact
    report["alice_cheat"] = [
        alice_cheat_report(agreement, c, claim, trials, gen).as_dict()
        if trials and (c, claim) == (0, 1)
        else _alice_cheat_finish(params, c, claim, means[c][claim]).as_dict()
        for c, claim in itertools.permutations(range(m), 2)
    ]

    report["block_fidelity"] = [
        block_cheat_report(agreement, blocks, trials, gen).as_dict() for blocks in range(1, 9)
    ]

    held, element, coupled, mass = WRONG_COUPLING_KEYS
    report["wrong_coupling"] = [{held: c, element: k, coupled: claim, mass: value}
                                for c, k, claim, value in _wrong_coupling_rows(table)]

    report["strategies"] = [
        bob_premature_strategy(agreement, strategy, trials, gen).as_dict()
        for strategy in STRATEGIES
    ]

    report["discrimination"] = discrimination_bounds(params)

    report["s_protocol"] = [
        r.as_dict() for r in s_protocol_sweep(agreement, trials, gen)
    ]
    return report
