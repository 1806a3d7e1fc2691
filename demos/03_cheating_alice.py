"""What happens when Alice reveals a choice she never committed.

For any committed element and any wrong claim the verification accepts
with probability exactly 1/2, independent of the scheme size. Committing
K independent qubit blocks drives a full falsified reveal to 2^-K.

Adversary model: Alice commits a genuine element of one set. An Alice
free to commit any state is not bound by these figures: |+>^(n+1) lies in
the valid subspace Q_c of every choice and passes every reveal.
"""

import numpy as np

from qbcsim.analysis import (
    alice_cheat_acceptance,
    alice_cheat_report,
    block_cheat_report,
)
from qbcsim.scheme import SchemeParams, build_reveal_agreement


def main():
    for n in (1, 2, 3):
        agreement = build_reveal_agreement(SchemeParams.default(n))
        m = 2**n
        values = [
            alice_cheat_acceptance(agreement, c, k, claim)
            for c in range(m)
            for claim in range(m)
            if claim != c
            for k in range(m)
        ]
        print(
            f"n={n}: wrong-claim acceptance over all {len(values)} cases: "
            f"min {min(values):.12f}, max {max(values):.12f}"
        )

    agreement = build_reveal_agreement(SchemeParams.paper_cointoss())
    report = alice_cheat_report(agreement, 0, 1, trials=200_000, rng=np.random.default_rng(5))
    print(
        f"\nMonte Carlo, 200k cheating reveals: {report.estimate:.4f} "
        f"+- {report.stderr:.4f} (exact {report.exact})"
    )

    print("\nblock commitment, all K blocks must survive a false reveal:")
    for K in (1, 2, 4, 8, 16):
        print(f"  K={K:2d}: {block_cheat_report(agreement, K).exact:.3e}")


if __name__ == "__main__":
    main()
