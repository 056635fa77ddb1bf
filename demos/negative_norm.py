"""Negative-norm lower bounds from a bump dictionary.

The dual pairing sup integral(u div phi) / ||grad phi|| over compactly
supported test fields is bounded above by an absolute constant times the
Orlicz distance of u from its mean; the dictionary maximum certifies a lower
bound and never crosses that trivial upper bound.
"""

import numpy as np

from orlicz_korn import fields, young

cat = young.load_catalog()
g = fields.Grid.box(14, dim=3)
Xc = g.cell_coords()

sources = {
    "constant": np.ones(g.extents),
    "center bump": np.exp(-30 * sum((x - 0.5) ** 2 for x in Xc)),
    "off-center bump": np.exp(-50 * sum((x - c) ** 2
                                        for x, c in zip(Xc, (0.35, 0.6, 0.45)))),
    "two bumps": (np.exp(-60 * sum((x - 0.3) ** 2 for x in Xc))
                  - np.exp(-60 * sum((x - 0.7) ** 2 for x in Xc))),
}

for label, u in sources.items():
    for name in ("L2", "LlogL", "expL"):
        lb = fields.negative_norm_lower_bound(cat[name], u, g)
        ub = fields.negative_norm_upper_bound(cat[name], u, g)
        frac = lb / ub if ub > 0 else 0.0
        print(f"{label:16s} {name:6s}: lower {lb:9.5f} <= {ub:9.5f} "
              f"trivial bound  (fills {frac:5.1%})")
