"""Discrete Korn and Poincare ratios on box grids.

Measures ||grad u||_B / ||deviatoric sym grad u||_A over trial fields: smooth
and random zero-boundary suites stay bounded for the square pair, while the
Poincare-type ratio is finite for every Young function, fast or slow growth
alike.
"""

from orlicz_korn import fields, young

cat = young.load_catalog()

g = fields.Grid.box(16, dim=3)
print("square pair, zero-boundary random suite on a 16^3 grid:")
ratios = [fields.korn_ratio(cat["L2"], cat["L2"], u, "zero_bc", "ED")
          for u in fields.random_suite(g, 10, seed=21)]
print("  ratios:", " ".join(f"{r:.3f}" for r in ratios))

print()
print("full-domain mode subtracts the kernel projection first; kernel fields")
print("are reported as kernel members instead of ratios:")
basis = fields.KernelBasis(g, "sigma")
u = fields.GridField(g, [c.copy() for c in basis.generators[8]])
try:
    fields.korn_ratio(cat["L2"], cat["L2"], u, "full_domain", "ED")
except fields.KernelMembership as exc:
    print(f"  {exc}")

print()
print("Poincare ratios across growth regimes (any Young function works):")
g2 = fields.Grid.box(12, dim=3)
suite = fields.random_suite(g2, 4, seed=3)
for name in ("L1", "L2", "LlogL", "expL", "Linf"):
    rs = [fields.poincare_ratio(cat[name], u, "zero_bc") for u in suite]
    print(f"  {name:6s}: max ratio {max(rs):.4f}")

print()
print("radial spike fields drive the linear-pair ratio up (the gradient")
print("picks up a logarithm the symmetric part never sees):")
import math
gg = fields.Grid.box(32, lengths=2.2, origin=(-1.1, -1.1, -1.1), dim=3)
from orlicz_korn import hardy
omega = 4.0 * math.pi / 3.0
for delta in (0.3, 0.03, 0.003):
    u = fields.radial_test_field(hardy.spike(omega, delta * omega), gg)
    r = fields.korn_ratio(cat["L1"], cat["L1"], u, "zero_bc", "E")
    print(f"  spike sharpness {delta:6.3f}: ratio {r:.3f}")
