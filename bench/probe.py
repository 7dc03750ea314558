"""A fixed reference task that measures how fast the host runs Python right now.

It shares no code with lamlat: it starts an interpreter, counts the
partial orders on four labeled elements by brute force over bitmask
relations (the same kind of small-integer and tuple work lamlat does)
a few times, checks the count, and prints the CLOCK_MONOTONIC time at
which it finished. run.py times it from launch, interleaved with the
theorem runs, and divides their times by it. It lasts about 0.1 s, long
enough to average over the host's fastest speed swings.
"""

import sys
import time

N = 4
EXPECTED = 219  # OEIS A001035(4)
REPEATS = 3


def count_partial_orders(n: int) -> int:
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    count = 0
    for rel in range(1 << len(pairs)):
        up = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if rel >> k & 1:
                up[i] |= 1 << j
        # antisymmetric and transitive: whatever is above j is above i
        if all(not (up[i] >> j & 1 and up[j] >> i & 1) for i, j in pairs) and all(
            up[j] & ~up[i] == 0 for i in range(n) for j in range(n) if up[i] >> j & 1
        ):
            count += 1
    return count


if __name__ == "__main__":
    for _ in range(REPEATS):
        if count_partial_orders(N) != EXPECTED:
            sys.exit("reference task miscounted")
    print(time.clock_gettime(time.CLOCK_MONOTONIC))
