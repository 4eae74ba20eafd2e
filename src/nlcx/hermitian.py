"""The Hermitian curve y^l + y = x^(l+1) over F_q with q = l**2.

The workbench uses three pieces of its geometry: the q-rational affine
points plus the single point at infinity; the automorphism
phi(x, y) = (g x, g^(l+1) y) for the field's primitive g, whose orbits on
points with x != 0 are l cycles of length q - 1; and an explicit rational
function h with a simple pole at a chosen point Q and a pole of order
2g - 1 at infinity (g the genus).  Evaluating h along the non-Q orbits,
one orbit after another, yields the curve sequence of length
(q - 1)(l - 1).

The automorphism acts on functions by the inverse substitution
x -> g^(-t) x, y -> g^(-(l+1)t) y, so that (phi^t h)(phi^t P) == h(P)
holds exactly.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .finite_field import Field, check_field_order, make_field, prime_power
from .generators import Sequence

DEFAULT_MAX_ELL = 5


class CurvePoint(NamedTuple):
    x: Optional[int]
    y: Optional[int]

    @property
    def is_infinity(self) -> bool:
        return self.x is None


INFINITY = CurvePoint(None, None)


def _reduce_y(field: Field, ell: int, terms: dict) -> dict:
    """Rewrite y-degrees >= l via y^l = x^(l+1) - y."""
    terms = {k: v for k, v in terms.items() if v}
    while True:
        high = next(((i, j) for (i, j) in terms if j >= ell), None)
        if high is None:
            return terms
        i, j = high
        c = terms.pop(high)
        for key, delta in (((i + ell + 1, j - ell), c),
                           ((i, j - ell + 1), field.neg(c))):
            cur = field.add(terms.get(key, 0), delta)
            if cur:
                terms[key] = cur
            else:
                terms.pop(key, None)


def valuation_at_infinity(field: Field, ell: int, terms: dict) -> int:
    """Pole order at infinity of a polynomial expression in x and y.

    x has valuation -l and y has -(l+1) there; after reducing y-degrees
    below l the monomial weights i*l + j*(l+1) are pairwise distinct, so
    the valuation is minus the largest weight present.
    """
    terms = _reduce_y(field, ell, terms)
    if not terms:
        raise ValueError("the zero expression has no valuation")
    return -max(i * ell + j * (ell + 1) for (i, j) in terms)


class PoleFunction(NamedTuple):
    """scale * (y - r_2)...(y - r_l) / (x - a), the r_i being the other
    roots of z^l + z = a^(l+1) besides b.  Simple pole at Q = (a, b), pole
    of order 2g - 1 at infinity, finite everywhere else."""

    field: Field
    ell: int
    a: int
    b: int
    cofactor_roots: tuple[int, ...]
    scale: int = 1

    @property
    def genus(self) -> int:
        return self.ell * (self.ell - 1) // 2

    @property
    def q_point(self) -> CurvePoint:
        return CurvePoint(self.a, self.b)

    def numerator_terms(self) -> dict:
        f = self.field
        terms = {(0, 0): self.scale}
        for r in self.cofactor_roots:
            nxt: dict = {}
            for (i, j), c in terms.items():
                for key, delta in (((i, j + 1), c), ((i, j), f.mul(f.neg(r), c))):
                    cur = f.add(nxt.get(key, 0), delta)
                    if cur:
                        nxt[key] = cur
                    else:
                        nxt.pop(key, None)
            terms = nxt
        return terms

    def valuation_at_infinity(self) -> int:
        num = valuation_at_infinity(self.field, self.ell, self.numerator_terms())
        den = valuation_at_infinity(self.field, self.ell, {(1, 0): 1, (0, 0): self.field.neg(self.a)})
        return num - den

    def eval(self, P: CurvePoint) -> int:
        """Value at an affine point; ZeroDivisionError at the pole Q.

        On the fiber x == a the numerator and denominator both vanish; the
        removable value there is a^l * prod(b_i - b_i') over the other
        cofactor roots, which is the series value using y - b_i = a^l (x - a) + ...
        """
        f = self.field
        if P.is_infinity:
            raise ValueError("h is evaluated at affine points only")
        px, py = P
        if px == self.a:
            if py == self.b:
                raise ZeroDivisionError("simple pole at Q")
            if py not in self.cofactor_roots:
                raise ValueError("point does not lie on the curve fiber over a")
            acc = f.pow(self.a, self.ell)
            for r in self.cofactor_roots:
                if r != py:
                    acc = f.mul(acc, f.sub(py, r))
        else:
            acc = f.inv(f.sub(px, self.a))
            for r in self.cofactor_roots:
                acc = f.mul(acc, f.sub(py, r))
        return f.mul(self.scale, acc) if self.scale != 1 else acc

    def __str__(self):
        num = "".join(f"(y - {r})" for r in self.cofactor_roots) or "1"
        s = f"{num}/(x - {self.a})"
        if self.scale != 1:
            s = f"{self.scale} * " + s
        return s


class OrbitTable(NamedTuple):
    """The l automorphism orbits of size q - 1 (x != 0), ordered by their
    lexicographically smallest point; each orbit is listed in iteration
    order P, phi(P), phi^2(P), ...  Orbit 0 starts at the canonical Q.
    other_points collects the x == 0 points and the point at infinity."""

    ell: int
    orbits: tuple[tuple[CurvePoint, ...], ...]
    q_orbit_index: int
    other_points: tuple[CurvePoint, ...]

    @property
    def q_point(self) -> CurvePoint:
        return self.orbits[self.q_orbit_index][0]

    @property
    def representatives(self) -> list[CurvePoint]:
        """Starting points of the non-Q orbits, in table order."""
        return [orb[0] for i, orb in enumerate(self.orbits) if i != self.q_orbit_index]


class HermitianCurve:
    """Geometry helper bound to one l and its canonical field F_(l**2)."""

    def __init__(self, ell: int, *, allow_large: bool = False):
        if ell < 2:
            raise ValueError("l must be >= 2")
        check_field_order(ell * ell)  # before prime_power's trial division
        pp = prime_power(ell)
        if pp is None:
            raise ValueError(f"l={ell} must be a prime power")
        if ell > DEFAULT_MAX_ELL and not allow_large:
            raise ValueError(
                f"l={ell} exceeds the default range (2..{DEFAULT_MAX_ELL}); "
                "pass allow_large=True to proceed")
        p, s = pp
        self.ell = ell
        self.field = make_field(p, 2 * s)
        self.genus = ell * (ell - 1) // 2
        self._points: Optional[list[CurvePoint]] = None
        self._orbits: Optional[OrbitTable] = None
        self._h: Optional[PoleFunction] = None

    def on_curve(self, P: CurvePoint) -> bool:
        if P.is_infinity:
            return True
        f, ell = self.field, self.ell
        return f.add(f.pow(P.y, ell), P.y) == f.pow(P.x, ell + 1)

    def points(self) -> list[CurvePoint]:
        """All q-rational points: l**3 affine ones plus infinity."""
        if self._points is None:
            f, ell = self.field, self.ell
            pts = [CurvePoint(x, y)
                   for x in range(f.q) for y in range(f.q)
                   if f.add(f.pow(y, ell), y) == f.pow(x, ell + 1)]
            pts.append(INFINITY)
            if len(pts) != ell ** 3 + 1:
                raise AssertionError("point count disagrees with l**3 + 1")
            self._points = pts
        return list(self._points)

    def phi(self, P: CurvePoint, t: int = 1) -> CurvePoint:
        """t-fold automorphism on points: (x, y) -> (g^t x, g^((l+1)t) y)."""
        if P.is_infinity:
            return INFINITY
        f, ell = self.field, self.ell
        g = f.primitive
        return CurvePoint(f.mul(f.pow(g, t), P.x),
                          f.mul(f.pow(g, (ell + 1) * t), P.y))

    def orbits(self) -> OrbitTable:
        if self._orbits is None:
            f, ell = self.field, self.ell
            q = f.q
            moving = sorted(P for P in self.points()
                            if not P.is_infinity and P.x != 0)
            seen: set[CurvePoint] = set()
            orbits = []
            for P in moving:
                if P in seen:
                    continue
                orb = [P]
                cur = self.phi(P)
                while cur != P:
                    orb.append(cur)
                    cur = self.phi(cur)
                if len(orb) != q - 1:
                    raise AssertionError("orbit of an x != 0 point must have size q-1")
                seen.update(orb)
                orbits.append(tuple(orb))
            if len(orbits) != ell:
                raise AssertionError("expected exactly l orbits")
            others = tuple(P for P in self.points()
                           if P.is_infinity or P.x == 0)
            self._orbits = OrbitTable(ell=ell, orbits=tuple(orbits),
                                      q_orbit_index=0, other_points=others)
        return self._orbits

    def construct_h(self) -> PoleFunction:
        """Pole function for the canonical orbit-table Q, built once."""
        if self._h is not None:
            return self._h
        f, ell = self.field, self.ell
        a, b = self.orbits().q_point
        rhs = f.pow(a, ell + 1)
        roots = [y for y in range(f.q) if f.add(f.pow(y, ell), y) == rhs]
        if len(roots) != ell or b not in roots:
            raise AssertionError("fiber over a must consist of l distinct roots")
        h = PoleFunction(field=f, ell=ell, a=a, b=b,
                         cofactor_roots=tuple(r for r in sorted(roots) if r != b))
        if h.valuation_at_infinity() != -(2 * self.genus - 1):
            raise AssertionError("pole order at infinity disagrees with 2g-1")
        self._h = h
        return h

    def sequence(self) -> Sequence:
        """Evaluate h along the l - 1 orbits that avoid Q, in table order;
        length (q - 1)(l - 1)."""
        table = self.orbits()
        h = self.construct_h()
        vals = []
        for i, orb in enumerate(table.orbits):
            if i == table.q_orbit_index:
                continue
            vals.extend(h.eval(P) for P in orb)
        expected = (self.field.q - 1) * (self.ell - 1)
        if len(vals) != expected:
            raise AssertionError("curve sequence has the wrong length")
        return Sequence(self.field, vals, {"kind": "hermitian", "ell": self.ell})


def apply_automorphism_to_h(h: PoleFunction, t: int) -> PoleFunction:
    """The function phi^t(h): substitute x -> g^(-t) x, y -> g^(-(l+1)t) y.

    The result is the pole function of phi^t(Q) times g^((2 - l**2) t).
    """
    f, ell = h.field, h.ell
    g = f.primitive
    gt = f.pow(g, t)
    gy = f.pow(g, (ell + 1) * t)
    return PoleFunction(
        field=f, ell=ell,
        a=f.mul(gt, h.a),
        b=f.mul(gy, h.b),
        cofactor_roots=tuple(f.mul(gy, r) for r in h.cofactor_roots),
        scale=f.mul(h.scale, f.pow(g, (2 - ell * ell) * t)),
    )


def eval_h(h: PoleFunction, P: CurvePoint) -> int:
    return h.eval(P)


def curve_points(ell: int, **kw) -> list[CurvePoint]:
    return HermitianCurve(ell, **kw).points()


def orbit_decomposition(ell: int, **kw) -> OrbitTable:
    return HermitianCurve(ell, **kw).orbits()


def hermitian_sequence(ell: int, **kw) -> Sequence:
    return HermitianCurve(ell, **kw).sequence()
