#!/usr/bin/env python3
"""Exercise the twistor-fibre machinery on the hexagonal rank-2 lattice.

For each polarization degree d the script enumerates all isometric
embeddings of T = ((2,-1),(-1,2)) into T + Z(d) compatible with the
Eisenstein period, and compares the count against twice the number of roots
of unity.  It closes with the universal bound table by field degree.
"""

import argparse
import time
from fractions import Fraction

from k3lat.cm import (CMField, PeriodVector, enumerate_period_embeddings,
                      max_root_of_unity_order, pairing_sigma_sigmabar,
                      twistor_fiber_bound)
from k3lat.lattice import Lattice


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--degrees", type=int, nargs="+", default=[2, 4, 6, 8])
    ap.add_argument("--overlattice-index", type=int, default=1)
    args = ap.parse_args()

    field = CMField.imaginary_quadratic(3)
    zeta6 = field.element((Fraction(1, 2), Fraction(1, 2)))
    t = Lattice([[2, -1], [-1, 2]])
    pv = PeriodVector(t, (field.one(), zeta6))
    roots = len(field.roots_of_unity())
    bound = twistor_fiber_bound(field.degree, roots)
    print(f"period pairing (sigma.sigmabar) = {pairing_sigma_sigmabar(pv).coords[0]}")
    print(f"roots of unity: {roots}, fibre bound: {bound}")
    print(f"{'d':>4} {'embeddings':>10} {'nu = 0':>7} {'time':>9}")
    for d in args.degrees:
        start = time.perf_counter()
        found = enumerate_period_embeddings(
            pv, d, overlattice_index=args.overlattice_index)
        ms = (time.perf_counter() - start) * 1000
        trivial = sum(1 for pe in found if pe.nu == field.zero())
        print(f"{d:>4} {len(found):>10} {trivial:>7} {ms:>7.1f}ms")

    print("\nuniversal bound by transcendental rank:")
    for degree in (2, 4, 8, 12, 16, 20, 21):
        print(f"  rank {degree:>2}: largest order {max_root_of_unity_order(degree):>3}, "
              f"bound {twistor_fiber_bound(degree):>3}")


if __name__ == "__main__":
    main()
