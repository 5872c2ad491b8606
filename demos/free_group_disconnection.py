"""No positive cone in a free group is coarsely connected: exact certificates.

The negative ball around the inverted ball-maximum cuts the Cayley tree,
and positives live on both sides. The certificate is structural (a tree
cut), so the verdict is exact at every width, not just sampled.
"""

import conescope as cs


def main():
    f2 = cs.FreeGroup(2)
    order = cs.magnus_order(f2)

    print("component counts of the positive set inside B(1, R), width 1:")
    for radius in (3, 4, 5, 6):
        report = cs.r_components(order, 1, radius)
        print(f"  R={radius}: {report.count:3d} classes, sizes "
              f"{sorted((len(c) for c in report.components), reverse=True)[:6]}...")

    print("\nwidth-r swamp certificates (S = negative ball around the center):")
    for r in (1, 2, 3):
        cert = cs.tree_swamp_certificate(order, r)
        sep = cs.verify_separation(cert)
        u, v = cert.witnesses
        print(f"  r={r}: center {cert.center}, |S| = {len(cert.swamp)}, "
              f"witnesses {u} | {v}, verdict {sep.verdict.value}")

    cert = cs.tree_swamp_certificate(order, 2)
    paths = cs.sample_tree_paths(cert, 100, seed=20260808)
    hits = sum(1 for p in paths if any(q in cert.swamp for q in p.points))
    print(f"\n100 random width-2 paths between the witnesses: {hits} meet S")

    survey = cs.connectivity_survey(order, 1, [4, 5, 6])
    print(f"\nsurvey verdict: {survey.verdict}")


if __name__ == "__main__":
    main()
