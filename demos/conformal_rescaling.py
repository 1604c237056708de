"""Conformal invariance of the (1,3) Weyl tensor, two ways.

Rescaling a metric by a positive factor leaves the once-raised Weyl
tensor unchanged.  In exact mode the factor (1 + s)^2 keeps everything
rational and the comparison is literal equality; in float mode the
genuine exponential factor e^{2 sigma} is used and the comparison is a
relative residual against 1e-9.
"""
from fractions import Fraction as F

from ppcheck import EXACT, FLOAT, build_galaev, conformal_rescale
from ppcheck.geometry import CurvatureBundle, metric_at_point
from ppcheck.polynomials import parse_polynomial
from ppcheck.tensors import sup_norm

COORDS = ("u", "x1", "x2", "x3", "v")
POINT = (F(3, 2), F(1, 3), F(-1, 5), F(2, 7), F(1, 2))


def weyl_mixed_at(spec, mode, order=4):
    m = metric_at_point(spec, POINT, order, mode)
    return CurvatureBundle(m).weyl_mixed      # point values of C_{jkl}^m


def main():
    zero = parse_polynomial("0", COORDS)
    spec = build_galaev(d=3, lambdas=[1, 1, -2], a=zero,
                        F=parse_polynomial("u", COORDS))
    sigma = parse_polynomial("u/5", COORDS)

    base = weyl_mixed_at(spec, EXACT)
    squared = weyl_mixed_at(conformal_rescale(spec, sigma, kind="square"),
                            EXACT)
    print(f"exact mode, factor (1 + u/5)^2:")
    print(f"  sup|C - C_rescaled| = {sup_norm(base - squared)}  (exact zero)")

    base_f = weyl_mixed_at(spec, FLOAT)
    exped = weyl_mixed_at(conformal_rescale(spec, sigma, kind="exp"), FLOAT)
    rel = sup_norm(base_f - exped) / sup_norm(base_f)
    print(f"float mode, factor exp(2u/5):")
    print(f"  relative residual = {rel:.3e}  (tolerance 1e-9)")
    assert rel <= 1e-9


if __name__ == "__main__":
    main()
