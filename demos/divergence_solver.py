"""The integral right inverse of the divergence.

Solves div v = f with v vanishing on the boundary, via the explicit kernel
built from a bump in the ball of star-shapedness.  The divergence identity is
measured, never assumed, and the gradient norm ratios follow the same balance
dichotomy as the Korn inequalities.
"""

import numpy as np

from orlicz_korn import bogovskii, young

cat = young.load_catalog()
cfg = bogovskii.make_config(48)

# apply takes a stack of sources and builds the kernel once for all of them
print("divergence residuals over the smooth suite (48^2 grid):")
smooth = bogovskii.smooth_suite(cfg)
for i, (f, v) in enumerate(zip(smooth, bogovskii.apply(cfg, np.array(smooth)))):
    res = bogovskii.div_residual(cfg, f, v)
    print(f"  source {i}: ||div v - f||_inf / ||f||_inf = {res:.4f}")

print()
print("gradient norm ratios on sharpening dipoles:")
spikes = bogovskii.spike_suite(cfg)
solved = bogovskii.apply(cfg, np.array(spikes))
for a, b in (("L2", "L2"), ("LlogL", "L1"), ("L1", "L1")):
    rs = [bogovskii.norm_bound_ratio(cfg, cat[a], cat[b], f, v)
          for f, v in zip(spikes, solved)]
    trend = "grows" if rs[-1] > rs[0] * 1.2 else "bounded"
    print(f"  ({a:6s},{b:6s}): " + " ".join(f"{r:6.3f}" for r in rs)
          + f"   -> {trend}")
