"""An independent construction of ``laminate.build_laminate``'s measure, the
oracle its closed form is checked against."""

from fractions import Fraction

from orlicz_korn.laminate import Laminate


def build_laminate_recursive(m: int, t: float) -> Laminate:
    """The same measure via the level recursion: at level j the previous
    measure keeps weight 1/2 and two skew atoms at scale 2^-j enter with
    weights 1/3 and 1/6."""
    atoms = {(Fraction(1), Fraction(1)): Fraction(1)}
    for j in range(1, m + 1):
        nxt = {}
        for key, w in atoms.items():
            nxt[key] = nxt.get(key, Fraction(0)) + w * Fraction(1, 2)
        a1 = (Fraction(1, 2 ** j), -Fraction(1, 2 ** j))
        a2 = (-Fraction(2, 2 ** j), Fraction(2, 2 ** j))
        nxt[a1] = nxt.get(a1, Fraction(0)) + Fraction(1, 3)
        nxt[a2] = nxt.get(a2, Fraction(0)) + Fraction(1, 6)
        atoms = nxt
    ordered = sorted(atoms.items(), key=lambda kv: (-kv[0][0], -kv[0][1]))
    return Laminate(tuple((w, al, be) for (al, be), w in ordered), m, float(t))
