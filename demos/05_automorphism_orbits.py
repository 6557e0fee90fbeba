"""Automorphism orbits of the ml-mzss.

Aut(G) acts on the minimal zero-sum sequences of maximal length, and the
census counts them orbit by orbit: each orbit is represented by its least
member, and by orbit-stabiliser it has |Aut(G)| / |Stab(S)| members. The
orbit sizes add up to the total.
"""

from zerosum import automorphisms, count_ml_mzss, make_group, orbit

for factors in ([2, 4], [3, 3], [2, 6], [4, 4]):
    G = make_group(factors)
    auts = len(automorphisms(G))
    report = count_ml_mzss(G)
    print(f"{G}: |Aut(G)| = {auts}, {report.total} ml-mzss in {report.orbits} orbit(s)")
    sizes = []
    for S in report.representatives:
        sizes.append(len(orbit(G, S)))
        print(f"  {S}")
        print(f"    orbit {sizes[-1]}, stabiliser {auts // sizes[-1]}")
    print(f"  orbit sizes {' + '.join(map(str, sizes))} = {sum(sizes)}")
    print()
