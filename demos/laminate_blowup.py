"""Laminates: the exact counterexample machine for the linear pair.

The order-m measure concentrates all but 2^-m of its mass on skew matrices,
so the symmetric-part moment collapses like 2^-m while the full first moment
only decays like m 2^-m: their ratio grows linearly and defeats any candidate
constant for the (L1, L1) inequality.  The measure is realized as a nested
sawtooth displacement whose gradients take the atom values outside ramp
layers of measure O(1/depth).
"""

import numpy as np

from orlicz_korn import laminate, young

cat = young.load_catalog()

print("blow-up table for the linear pair (ratio grows ~ linearly in m):")
for row in laminate.blowup_curve(cat["L1"], cat["L1"], 8, 1.0):
    print(f"  m={row['m']:2d}  t_m={row['t_m']:9.4g}  ratio={row['ratio']:.4f}")

print()
print("square pair for contrast (bounded):")
for row in laminate.blowup_curve(cat["L2"], cat["L2"], 8, 1.0)[1:9:3]:
    print(f"  m={row['m']:2d}  ratio={row['ratio']:.4f}")

print()
print("realized displacement, moment convergence at depth 64:")
frob = lambda M: np.linalg.norm(M, axis=(-2, -1))
for m in (1, 2, 3):
    L = laminate.build_laminate(m, 1.0)
    real = laminate.realize_field(L, 1.0, 64)
    exact = laminate.moment(L, frob)
    realized = real.moment(frob)
    print(f"  m={m}: exact first moment {exact:.6f}, realized {realized:.6f}, "
          f"gap {abs(realized-exact)/exact:.2%}")

print()
print("exact Korn L1 ratio of the realized fields (resolution-free):")
ratios = [laminate.exact_korn_l1_ratio(m) for m in range(1, 9)]
print("  m=1..8:", " ".join(f"{r:.3f}" for r in ratios))
