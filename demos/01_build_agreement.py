"""Walk through constructing a reveal agreement from scratch.

Builds the preset two-choice instance, prints every commitment set
element, the reveal states, the valid products, and finishes with the
structural audit. Run with: python3 demos/01_build_agreement.py
"""

from qbcsim.quantum import ket_string
from qbcsim.scheme import (
    SchemeParams,
    audit_scheme,
    build_reveal_agreement,
    descriptor_text,
    scheme_hash,
    xor_pairs,
)


def main():
    params = SchemeParams.paper_cointoss()
    print("descriptor:")
    print(descriptor_text(params))
    print(f"hash: {scheme_hash(params)[:16]}...")
    print()

    # Each commitment choice c owns a mask d_c; the set elements are the
    # equal superpositions over the pairs {x, x XOR d_c}.
    for c, d in enumerate(params.masks):
        print(f"choice {c}: mask {d:#04b}, pairs {xor_pairs(params, c)}")
    print()

    agreement = build_reveal_agreement(params)
    for c in range(params.num_choices):
        print(f"commitment set {c}:")
        for k, elem in enumerate(agreement.sets[c].elements):
            print(f"  element {k}: {ket_string(elem)}")
        print(f"  reveal state: {ket_string(agreement.reveal_states[c].state)}")
        basis = agreement.bases[c]
        for k in sorted(basis.valid_outcomes):
            print(f"  valid product {k}: {ket_string(basis.vector(k))}")
        print(
            f"  reveal measurement: {len(basis.vectors)} valid products + 1 reject outcome"
            f" on {basis.dimension} dims, valid outcomes {sorted(basis.valid_outcomes)}"
        )
        print()

    print("structural audit:")
    for check in audit_scheme(params):
        print(f"  {check.name}: {'pass' if check.passed else 'fail'}  {check.detail}")


if __name__ == "__main__":
    main()
