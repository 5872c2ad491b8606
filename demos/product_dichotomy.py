"""One group, two cones: F2 x Z connects or disconnects by who leads.

With the central Z factor leading, powers of z are cofinal and every pair
of positives is joined by an explicit positive path through the z ladder.
With the free factor leading, the cone inherits the tree's disconnection
and only evidence-level verdicts are possible (the product graph is no
tree). The width-1 component counts inside balls also show a boundary
artifact of ball restriction: stranded positives whose reconnecting paths
need one extra unit of width.
"""

import conescope as cs


def main():
    magnus = cs.magnus_order(cs.FreeGroup(2))
    z_nat = cs.hyperplane_order(cs.FreeAbelian(1), [(1, 0)], name="z-natural")
    z_leading = cs.lex_pair_sign(z_nat, magnus, leading_factor=1,
                                 name="z-leading")
    f2_leading = cs.lex_pair_sign(magnus, z_nat, leading_factor=0,
                                  name="f2-leading")
    model = z_leading.model

    print("z-leading cone (z is central and cofinal):")
    print("  declared cofinal central generator:",
          z_leading.declared_cofinal_central)
    g, h = model.element("Ac"), model.element("bc")
    path = cs.cofinal_positive_path(z_leading, g, h)
    print(f"  positive path {g} -> {h}: " + " -> ".join(path.words()))
    for r in (1, 2):
        counts = [cs.r_components(z_leading, r, R).count for R in (3, 4, 5)]
        print(f"  width-{r} component counts at R=3,4,5: {counts}")
    stranded = cs.r_components(z_leading, 1, 3).components[1:]
    print("  width-1 strands at R=3:",
          [[str(g) for g in comp] for comp in stranded],
          "(their z-ladder exits the ball)")

    print("\nf2-leading cone (tree-like disconnection):")
    survey = cs.connectivity_survey(f2_leading, 1, [3, 4, 5])
    print(f"  counts {survey.counts} -> {survey.verdict}")
    cert = cs.product_column_swamp(f2_leading, 1, 5)
    result = cs.verify_separation(cert, radius=5)
    print(f"  column swamp |S| = {len(cert.swamp)} around {cert.center}, "
          f"witnesses {cert.witnesses[0]} | {cert.witnesses[1]}: "
          f"verdict {result.verdict.value}")


if __name__ == "__main__":
    main()
