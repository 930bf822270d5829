#!/usr/bin/env python3
"""Exact MAST of the swap-permutation pairs, rooted and unrooted.

The construction is conjectured extremal: the rooted pair of height 2k is
proved to have MAST <= 2^k, and the open question is whether 2^(m/2) leaves
are always achievable for balanced pairs.  This script records the observed
values next to both references.  Measured times (two runs, shared 2-core VM,
Python 3.11.7), rooted then unrooted: k = 3 (n = 64) 0.00-0.01 s and
0.01 s; k = 4 (n = 256) 0.02-0.03 s and 0.10-0.11 s; k = 5 (n = 1024)
0.42-0.44 s and 1.80-1.85 s.

Usage: python scripts/swap_pair_study.py [--kmax 3]
"""

import argparse
import time

from agreetree.exactmast import mast_rooted, mast_unrooted
from agreetree.generators import gen_swap_pair


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--kmax", type=int, default=3)
    args = parser.parse_args()

    for k in range(1, args.kmax + 1):
        n = 4**k
        t1, t2 = gen_swap_pair(k)
        start = time.perf_counter()
        rooted = mast_rooted(t1, t2)
        rooted_secs = time.perf_counter() - start
        u1, u2 = gen_swap_pair(k, rooted=False)
        start = time.perf_counter()
        unrooted = mast_unrooted(u1, u2)
        unrooted_secs = time.perf_counter() - start
        print(
            f"k={k} n={n}: rooted mast={rooted.size} (cap 2^k={2**k}, "
            f"conjectured floor 2^(m/2)={2**k}) [{rooted_secs:.2f}s]  "
            f"unrooted mast={unrooted.size} (cap 3*2^(k-1)={3 * 2 ** (k - 1)}) "
            f"[{unrooted_secs:.2f}s]"
        )
        print(f"  rooted witness: {sorted(rooted.witness)}")


if __name__ == "__main__":
    main()
