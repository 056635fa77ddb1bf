"""Classify Young-function pairs through the integral balance conditions.

The built-in example pairs all admit constants (c, t0); the self-pairs built
from t log(1+t) and e^t - 1 each lose exactly one side of the balance, which
is why their Korn inequalities need a weaker gradient space.
"""

from orlicz_korn import balance, young

cat = young.load_catalog()

print("built-in example pairs (all must hold):")
print(f"{'deviatoric side':>18s} {'gradient side':>18s} {'primal':>7s} {'dual':>6s} {'c':>6s} {'t0':>5s}")
for row in balance.classify_catalog_pairs(cat):
    r = row["report"]
    print(f"{row['name_A']:>18s} {row['name_B']:>18s} {str(r.primal.holds):>7s} "
          f"{str(r.dual.holds):>6s} {r.witness_c:>6g} {r.threshold_t0:>5g}")

print()
print("negative controls:")
for a, b in (("LlogL", "LlogL"), ("expL", "expL"), ("L1", "L1"), ("L2", "L2")):
    r = balance.check_balance(cat[a], cat[b])
    verdict = "holds" if r.holds else "fails"
    side = ("" if r.holds else
            (" (primal side)" if not r.primal.holds else " (dual side)"))
    print(f"  ({a}, {b}): {verdict}{side}")
    for side, v in (("primal", r.primal), ("dual", r.dual)):
        if not v.holds:
            d = v.diagnostics
            print(f"      {side} log-ratio at increasing t: {[round(x, 2) for x in d['ratio_trend_ln']]}; "
                  f"certificate ln t = {d['certificate_tau'][0]:.6g}, "
                  f"log-ratio there {d['certificate_margin_ln'][0]:.6g}")
