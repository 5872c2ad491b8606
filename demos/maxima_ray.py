"""Ball maxima trace a geodesic ray whose inverses sink into the negative cone.

For any left-order, let g_n be the largest element of the radius-n ball.
The inverses g_n^-1 march off to infinity along a geodesic, and the whole
ball B(g_n^-1, n-1) consists of negative elements: the negative cone
contains arbitrarily large balls. This script watches that happen for
three different orders.
"""

import conescope as cs


def show(oracle, depth):
    print(f"\n== {oracle.name} on {oracle.model.descriptor()['kind']} ==")
    report = cs.verify_maxima_ray(oracle, depth)
    print("ball maxima:     ", " ".join(str(g) for g in report.maxima))
    print("inverse ray:     ", " ".join(str(g.inverse()) for g in report.maxima))
    # the model grew B(depth) for the report; B(n - 1) is a prefix of it
    for n in (depth,):
        center = report.maxima[n - 1].inverse()
        inner = oracle.model.ball(n - 1)
        signs = {oracle.sign(center * b).value for b in inner.sorted_elements()}
        print(f"B({center}, {n - 1}):  {len(inner)} elements, signs = {signs}")
    print("all checks pass: ", report.passed)


def main():
    show(cs.magnus_order(cs.FreeGroup(2)), 5)
    show(cs.hyperplane_order(cs.FreeAbelian(2), cs.sqrt2_weights(),
                             name="hyperplane-irrational"), 6)
    show(cs.klein_order(), 6)


if __name__ == "__main__":
    main()
