"""Walk through the quadric immersion t -> (sqrt(2) t, t^2) into CP^2.

This case is the engine's headline: its second fundamental form is
parallel, its normal and intrinsic curvature tensors are parallel, and its
sectional curvature is half the ambient holomorphic curvature.  The script
evaluates the full extrinsic package at a few points and prints the
quantities behind those statements.
"""

import numpy as np

from kaehlerlab import recurrence, submanifold


def main():
    case = submanifold.get_case("veronese_cp2")
    print(f"case: {case.name}  ambient c = {case.ambient.c:g}  "
          f"m = {case.m}  l = {case.l}\n")
    for u in ([0.0, 0.0], [0.4, -0.7], [0.9, 0.9]):
        data = submanifold.extrinsic_data(case, u)
        # The norms, the classifier and the verdicts take a case's stack of
        # points; one point is the stack of one.
        norms = {key: value[0] for key, value in
                 submanifold.tensor_norms([data]).items()}
        result, = recurrence.classify([data])
        verdict, = recurrence.verify_theorems([data], [result])
        print(f"point u = {np.asarray(u)}")
        print(f"  induced metric:\n{np.array2string(data.g, prefix='  ')}")
        print(f"  |b| = {norms['b']:.6f}   |nabla b| = {norms['nabla_b']:.2e}")
        print(f"  |R_perp| = {norms['r_perp']:.6f}   "
              f"|nabla R_perp| = {norms['nabla_r_perp']:.2e}")
        print(f"  |R| = {norms['r']:.6f}   |nabla R| = {norms['nabla_r']:.2e}")
        print(f"  sectional curvature = "
              f"{submanifold.sectional_curvature(data):.12f}")
        print(f"  classification = {result.classification}   "
              f"|mu| = {result.mu_norm:.2e}")
        print(f"  theorem verdict: applicable = {verdict['applicable']}, "
              f"passed = {verdict['passed']}\n")


if __name__ == "__main__":
    main()
