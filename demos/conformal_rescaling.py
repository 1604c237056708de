"""Conformal invariance of the (1,3) Weyl tensor, two ways.

Rescaling a metric by a positive factor leaves the once-raised Weyl
tensor unchanged.  The rescaled metric's jets are the point's own jets
times a factor jet (`rescaled`).  In exact mode the factor (1 + s)^2 keeps
everything rational and the comparison is literal equality; in float mode
the genuine exponential factor e^{2s} is used and the comparison is a
relative residual against 1e-9.
"""
from fractions import Fraction as F

from ppcheck import EXACT, FLOAT, build_galaev, rescaled
from ppcheck.geometry import CurvatureBundle, metric_at_point
from ppcheck.jets import jet_exp, jet_from_polynomial
from ppcheck.polynomials import parse_polynomial
from ppcheck.tensors import sup_norm

COORDS = ("u", "x1", "x2", "x3", "v")
POINT = (F(3, 2), F(1, 3), F(-1, 5), F(2, 7), F(1, 2))
ORDER = 4


def weyl_mixed(m):
    return CurvatureBundle(m).weyl_mixed      # point values of C_{jkl}^m


def main():
    zero = parse_polynomial("0", COORDS)
    spec = build_galaev(d=3, lambdas=[1, 1, -2], a=zero,
                        F=parse_polynomial("u", COORDS))
    sigma = parse_polynomial("u/5", COORDS)

    m = metric_at_point(spec, POINT, ORDER, EXACT)
    w = jet_from_polynomial(parse_polynomial("1 + u/5", COORDS), POINT, ORDER,
                            EXACT)
    base, squared = weyl_mixed(m), weyl_mixed(rescaled(m, w * w))
    print(f"exact mode, factor (1 + u/5)^2:")
    print(f"  sup|C - C_rescaled| = {sup_norm(base - squared)}  (exact zero)")

    m_f = metric_at_point(spec, POINT, ORDER, FLOAT)
    factor = jet_exp(jet_from_polynomial(sigma, POINT, ORDER, FLOAT) * 2.0)
    base_f, exped = weyl_mixed(m_f), weyl_mixed(rescaled(m_f, factor))
    rel = sup_norm(base_f - exped) / sup_norm(base_f)
    print(f"float mode, factor exp(2u/5):")
    print(f"  relative residual = {rel:.3e}  (tolerance 1e-9)")
    assert rel <= 1e-9


if __name__ == "__main__":
    main()
