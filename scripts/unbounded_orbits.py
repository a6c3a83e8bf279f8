#!/usr/bin/env python3
"""Build degree-4*d0 orbit certificates for a range of primes p = 3 mod 4.

Prints one row per prime: the class number h(-p), how many ternary isometry
witnesses the level walk found, the largest level |z| among them, the
certified orbit counts, and two times: build (build_unbounded_family) and
verify (certificate_to_json, a json round trip, certificate_from_json and
verify_certificate on the document read back).  The two are the halves of
one operation of the k3bench census workload.
With --out-dir every certificate is also written as a JSON golden file.
"""

import argparse
import json
import pathlib
import time

from k3lat.arith import is_prime
from k3lat.census import (CensusError, build_unbounded_family, certificate_from_json,
                          certificate_to_json, verify_certificate, write_certificate)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-prime", type=int, default=100)
    ap.add_argument("--d0", type=int, default=1)
    ap.add_argument("--height-bound", type=int, default=10,
                    help="largest level |z| the witness walk may reach")
    ap.add_argument("--out-dir", type=pathlib.Path)
    args = ap.parse_args()

    primes = [p for p in range(3, args.max_prime + 1)
              if is_prime(p) and p % 4 == 3]
    print(f"{'p':>5} {'h':>3} {'witnesses':>9} {'level':>6} {'oriented':>8} "
          f"{'orbits>=':>8} {'build':>8} {'verify':>8}")
    for p in primes:
        start = time.perf_counter()
        try:
            cert = build_unbounded_family(p, args.d0,
                                          height_bound=args.height_bound)
        except CensusError as exc:
            print(f"{p:>5}  skipped: {exc}")
            continue
        built = time.perf_counter()
        doc = json.loads(json.dumps(certificate_to_json(cert)))
        verify_certificate(certificate_from_json(doc))
        verified = time.perf_counter()
        found = cert.h - len(cert.witness_gaps)
        level = max(abs(a[2]) for a in cert.classes if a is not None)
        print(f"{p:>5} {cert.h:>3} {found:>6}/{cert.h:<2} {level:>6} "
              f"{len(set(cert.complement_invariants)):>8} "
              f"{cert.distinct_orbit_lower_bound:>8} {built - start:>7.3f}s"
              f" {verified - built:>7.3f}s")
        if args.out_dir:
            args.out_dir.mkdir(parents=True, exist_ok=True)
            write_certificate(cert, args.out_dir / f"family_p{p}_d0{args.d0}.json")


if __name__ == "__main__":
    main()
