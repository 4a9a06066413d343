"""The two suprema behind the sweep-cut analysis, both in closed form, plus
the cyclic block function with its concavity and merge identity.

The power-increment supremum p^2/(2p-1) controls the level-set telescoping
for p > 1/2 and is at most 1/(2p-1), the constant of the sweep guarantee;
the telescoping ratio chain controls the p = 1/2 case and tops out at
(1/2) log(1/b0), which is where the extra log factor in the p = 1/2 bound
comes from.
"""

import math

from isoperim import (
    PartitionBlocks,
    block_log_sum,
    block_merge_residual,
    geometric_chain_sum,
    power_increment_supremum,
)


def main():
    print("power-increment supremum p^2/(2p-1) vs its bound 1/(2p-1):")
    for p in (0.51, 0.6, 0.75, 0.9, 1.0):
        sup = power_increment_supremum(p)
        print(f"  p={p:<5} supremum={sup:8.4f}   bound={1 / (2 * p - 1):8.4f}")

    print("\ntelescoping ratio chain -> (1/2) log(1/b0):")
    for b0 in (0.25, 0.01):
        limit = 0.5 * math.log(1 / b0)
        ladder = ", ".join(f"m={m}: {geometric_chain_sum(b0, m):.5f}" for m in (0, 2, 10, 1000))
        print(f"  b0={b0}: {ladder}  (limit {limit:.5f})")

    print("\ncyclic block function h (single sets positive, even blocks negative):")
    pb = PartitionBlocks((4, 3, 2, 7))
    print(f"  h{pb.sizes} = {block_log_sum(pb):.6f}")
    print("  concavity in a split of the first two A-blocks:")
    s = 6
    for x in range(s + 1):
        val = block_log_sum(PartitionBlocks((x, 3, s - x, 7)))
        print(f"    x={x}: h = {val:.6f}")
    print("  (concave, so the minimum sits at an endpoint: contiguous sets win)")
    residual = block_merge_residual(PartitionBlocks((4, 0, 2, 7)))
    print(f"  merge identity h(4,0,2,7) = h(6,7): residual {residual:.2e}")


if __name__ == "__main__":
    main()
