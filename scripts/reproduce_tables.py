#!/usr/bin/env python3
"""Regenerate the small reference tables from the library.

Prints the order-3 Q table (defect coefficients of the Kahan-Darboux
equation), the determinant expansion terms, and a few worked aromatic
functions on the special Lotka-Volterra flow.
"""

from kahan_aromas import (
    TWO_CYCLE,
    LOOP,
    AromaMultiset,
    enumerate_multisets,
    eta,
    q_row,
)
from kahan_aromas.corpus import lv_special
from kahan_aromas.rationals import format_rat


def main() -> None:
    print("Q table, |alpha| <= 3  (<Q(g), alpha> as linear forms in g):")
    for alpha in enumerate_multisets(3):
        row = q_row(alpha)
        expr = " + ".join(
            f"({format_rat(v)}) g[{k.encoding}]"
            for k, v in sorted(row.items(), key=lambda kv: (kv[0].order, kv[0].encoding))
        )
        print(f"  {alpha.encoding:<18} {expr or '0'}")

    print("\ndet(I + u h f') expansion terms through order 4:")
    for mset in enumerate_multisets(4):
        if not mset.is_cycle_product():
            continue
        coeff = eta(1, mset) / mset.sigma()
        print(f"  (uh)^{mset.order} * ({format_rat(coeff)}) F({mset.encoding})")

    f = lv_special()
    g1 = f.aroma_function(AromaMultiset((LOOP, LOOP))) - f.aroma_function(TWO_CYCLE) * 2
    print("\nspecial Lotka-Volterra flow (x(y+z), -y(x+z), z(y-x)):")
    print(f"  div f                 = {f.divergence()}")
    print(f"  F(2-cycle)            = {f.aroma_function(TWO_CYCLE)}")
    print(f"  -2 F(2-cycle) + F(loop)^2 = {g1}   (the h-independent density)")


if __name__ == "__main__":
    main()
