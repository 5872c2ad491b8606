"""Every cone on Z^2 is a half-plane, and half-planes are connected.

Cones on the lattice come from a hyperplane through the origin (plus a
lexicographic rule for lattice points on the hyperplane, when there are
any). Both kinds stay in one piece at every scale, and products of
connected cones admit explicit three-leg positive paths.
"""

import conescope as cs


def main():
    z2 = cs.FreeAbelian(2)
    irrational = cs.hyperplane_order(z2, cs.sqrt2_weights(),
                                     name="weights (1, sqrt2)")
    lex_tie = cs.hyperplane_order(z2, [(1, 0), (0, 0)],
                                  name="weights (1, 0) + lex tie-break")

    for oracle in (irrational, lex_tie):
        survey = cs.connectivity_survey(oracle, 1, [2, 4, 6])
        print(f"{oracle.name}: counts {survey.counts} -> {survey.verdict}")

    print("\nthree-leg positive path in Z x Z (lex order):")
    lead = cs.hyperplane_order(cs.FreeAbelian(1), [(1, 0)], name="lead")
    trail = cs.hyperplane_order(cs.FreeAbelian(1), [(1, 0)], name="trail")
    lex = cs.lex_pair_sign(lead, trail, name="zz-lex")
    model = lex.model
    g = model.element("b")        # (0, 1)
    h = model.element("aBBBBB")   # (1, -5)
    path = cs.product_positive_path(lex, g, h, r=1)
    pretty = []
    for p in path.points:
        m = model.factors[0].exponents(model.project(p, 0))[0]
        n = model.factors[1].exponents(model.project(p, 1))[0]
        pretty.append(f"({m},{n})")
    print("  " + " -> ".join(pretty))

    print("\na single lattice point never separates (width 1):")
    center = z2.element("a")
    cert = cs.SwampCertificate(
        r=1, center=center, swamp=frozenset({center}),
        witnesses=(z2.element("b"), z2.element("aa")),
        verdict=cs.Verdict.EVIDENCE)
    result = cs.verify_separation(cert, radius=3)
    print(f"  verdict {result.verdict.value}: "
          + " -> ".join(result.avoiding_path.words()))


if __name__ == "__main__":
    main()
