"""The vacuum plane wave H = x1^2 - x2^2.

The transverse Hessian is traceless, so psi = 0: the Ricci tensor
vanishes while the Riemann and Weyl tensors do not.  The wave-curvature
conditions (cyclic, decomposition, quartic, Riemann-square) still hold,
and Ricci recurrence is reported vacuous rather than pass -- there is no
tensor left to be recurrent.
"""
from fractions import Fraction as F

from ppcheck import EXACT, build_ppwave
from ppcheck.checks import CHECKS, PointContext
from ppcheck.geometry import CurvatureBundle, metric_at_point
from ppcheck.polynomials import parse_polynomial
from ppcheck.tensors import sup_norm

COORDS = ("u", "x1", "x2", "v")


def main():
    H = parse_polynomial("x1^2 - x2^2", COORDS)
    spec = build_ppwave(H, d=2)
    point = (F(1), F(1, 3), F(-1, 5), F(2, 7))
    m = metric_at_point(spec, point, order=4, mode=EXACT)
    bundle = CurvatureBundle(m)
    ctx = PointContext(spec=spec, point=point, mode=EXACT, bundle=bundle)

    print(f"H = {H!r}, point = {point}")
    print(f"|Riemann| = {sup_norm(bundle.riemann)}")
    print(f"|Ricci|   = {sup_norm(bundle.ricci)}")
    print(f"|Weyl|    = {sup_norm(bundle.weyl)}\n")

    for name in ("pure_radiation", "ricci_recurrence", "schimming",
                 "field_equations"):
        r = CHECKS[name](ctx)
        line = f"{name:18s} -> {r.status}"
        if "psi" in r.witnesses:
            line += f"  (psi = {r.witnesses['psi']})"
        print(line)
    print("\na gravitational wave through empty space: curvature without "
          "matter, and the checks distinguish 'vacuously true' from 'true'.")


if __name__ == "__main__":
    main()
