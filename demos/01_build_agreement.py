"""Walk through constructing a reveal agreement from scratch.

Builds the preset two-choice instance, prints every commitment set
element, the reveal states, the valid products, and finishes with the
structural audit. Run with: python3 demos/01_build_agreement.py
"""

from qbcsim.quantum import ket_string, tensor
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
        measurement = agreement.measurement(c)  # valid outcome k is element k
        elements = [measurement.vector(k) for k in range(params.num_choices)]
        for k, elem in enumerate(elements):
            print(f"  element {k}: {ket_string(elem)}")
        reveal = agreement.reveal_state(c)
        print(f"  reveal state: {ket_string(reveal)}")
        # Bob's coupled measurement: element (x) reveal state per valid outcome
        products = [tensor(elem, reveal) for elem in elements]
        for k, product in enumerate(products):
            print(f"  valid product {k}: {ket_string(product)}")
        print(
            f"  reveal measurement: {len(products)} valid products + 1 reject outcome"
            f" on {products[0].dimension} dims, valid outcomes {list(range(len(products)))}"
        )
        print()

    print("structural audit:")
    for check in audit_scheme(params):
        print(f"  {check.name}: {'pass' if check.passed else 'fail'}  {check.detail}")


if __name__ == "__main__":
    main()
