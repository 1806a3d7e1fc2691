"""How much can Bob learn before the reveal?

Bob holds one element of the committed set, drawn uniformly. This script
compares his concrete pre-reveal strategies against the optimal
measurement bounds on the uniform set mixtures:

  * declare-prior-guess: couple a guess, ignore the outcome. Chance level.
  * update-on-reject: a rejected verification rules the guess out.
  * Helstrom bound: best possible two-hypothesis discrimination, 3/4 for
    every pair of sets.
  * pretty-good measurement: multi-hypothesis lower bound on the optimum,
    2/m for m choices, or (2/m)(1 - 2^-(n+1)) when the masks are the odd
    class of one string, as for every n=1 scheme.

Each set mixture is diagonal in the Hadamard basis, so both bounds come
from its Walsh diagonal (``discrimination_bounds``) without an eigensolver.
"""

from qbcsim.analysis import (
    STRATEGY_DECLARE_PRIOR,
    STRATEGY_UPDATE_ON_REJECT,
    bob_premature_strategy,
    discrimination_bounds,
)
from qbcsim.scheme import SchemeParams, build_reveal_agreement


def main():
    for n in (1, 2):
        params = SchemeParams.default(n)
        agreement = build_reveal_agreement(params)
        m = 2**n
        print(f"n={n} ({m} choices, chance {1 / m}):")

        for strategy in (STRATEGY_DECLARE_PRIOR, STRATEGY_UPDATE_ON_REJECT):
            report = bob_premature_strategy(agreement, strategy, trials=100_000, rng=n)
            print(
                f"  {strategy}: exact {report.exact:.6f}, "
                f"mc {report.estimate:.4f} +- {report.stderr:.4f}"
            )

        bounds = discrimination_bounds(params)
        worst = max(row["bound"] for row in bounds["helstrom_pairs"])
        print(f"  helstrom, best pairwise: {worst:.6f}")
        print(f"  pretty-good measurement, all {m} at once: {bounds['pgm_uniform']:.6f}")
        print()

    print("update-on-reject beats chance yet stays far from certainty;")
    print("the mixtures themselves overlap too much for any better readout.")


if __name__ == "__main__":
    main()
