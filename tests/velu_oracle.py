"""Velu's point map, the oracle of the isogeny tests.

curves.velu_isogeny returns the codomain alone; velu_isogeny here wraps it
as a map that sends P to (x(P) + sum (x(P + Q) - x(Q)), y(P) + sum (y(P +
Q) - y(Q))), the sums over the finite points Q of the kernel (Velu, C. R.
Acad. Sci. Paris 273, 1971).
"""

from weilchar import curves
from weilchar.curves import CurvePoint, point_add


class Isogeny:
    """Separable isogeny with cyclic kernel of odd prime order, via Velu."""

    def __init__(self, domain, codomain, degree, kernel_points):
        self.domain = domain
        self.codomain = codomain
        self.degree = degree
        self._kernel_points = kernel_points  # all ell-1 finite kernel points

    def __call__(self, P: CurvePoint) -> CurvePoint:
        if P.is_infinity():
            return CurvePoint.infinity()
        # compute in the larger of the point's and the kernel's field; the
        # coordinates of the other embed in mixed arithmetic
        field = max(P.x.field, self._kernel_points[0].x.field,
                    key=lambda f: f.r)
        E = self.domain.over(field)
        xs, ys = P.x, P.y
        for Q in self._kernel_points:
            T = point_add(E, P, Q)
            if T.is_infinity():
                return CurvePoint.infinity()   # P was a kernel point
            xs = xs + (T.x - Q.x)
            ys = ys + (T.y - Q.y)
        return CurvePoint(xs, ys)


def velu_isogeny(E, K, ell) -> Isogeny:
    """The quotient isogeny E -> E/<K> for K of odd prime order ell, its
    codomain from curves.velu_isogeny, which also validates K."""
    codomain = curves.velu_isogeny(E, K, ell)
    Eh = E.over(K.x.field)
    mults = [K]
    for _ in range(ell - 2):
        mults.append(point_add(Eh, mults[-1], K))
    return Isogeny(E, codomain, ell, mults)
