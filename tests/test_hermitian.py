import pytest

import nlcx.complexity as cx
from nlcx.finite_field import field_of_order
from nlcx.generators import least_period
from nlcx.hermitian import (INFINITY, CurvePoint, HermitianCurve,
                            apply_automorphism_to_h, curve_points, eval_h,
                            hermitian_sequence, orbit_decomposition,
                            valuation_at_infinity)


class Dual:
    """u + v*t with t*t = 0, over a finite field; enough structure to read
    off first-order behavior along a curve branch."""

    def __init__(self, f, u, v=0):
        self.f, self.u, self.v = f, u, v

    def __add__(self, o):
        return Dual(self.f, self.f.add(self.u, o.u), self.f.add(self.v, o.v))

    def __sub__(self, o):
        return Dual(self.f, self.f.sub(self.u, o.u), self.f.sub(self.v, o.v))

    def __mul__(self, o):
        f = self.f
        return Dual(f, f.mul(self.u, o.u),
                    f.add(f.mul(self.u, o.v), f.mul(self.v, o.u)))

    def __pow__(self, e):
        out = Dual(self.f, 1, 0)
        for _ in range(e):
            out = out * self
        return out


@pytest.mark.parametrize("ell", [2, 3, 4, 5])
def test_point_count(ell):
    curve = HermitianCurve(ell)
    pts = curve.points()
    assert len(pts) == ell ** 3 + 1
    assert INFINITY in pts
    for P in pts:
        assert curve.on_curve(P)


@pytest.mark.parametrize("ell", [2, 3, 4, 5])
def test_orbit_structure(ell):
    curve = HermitianCurve(ell)
    q = ell * ell
    table = curve.orbits()
    assert len(table.orbits) == ell
    for orb in table.orbits:
        assert len(orb) == q - 1
        assert len(set(orb)) == q - 1
        for P in orb:
            assert P.x != 0
    # x = 0 points plus infinity make up the rest
    assert len(table.other_points) == ell ** 3 + 1 - ell * (q - 1)
    flat = {P for orb in table.orbits for P in orb}
    assert flat.isdisjoint(table.other_points)
    assert table.q_point in table.orbits[table.q_orbit_index]


@pytest.mark.parametrize("ell", [2, 3, 4, 5])
def test_phi_is_a_curve_automorphism(ell):
    curve = HermitianCurve(ell)
    q = ell * ell
    pts = [P for P in curve.points() if not P.is_infinity]
    img = {curve.phi(P) for P in pts}
    assert img == set(pts)
    # phi has order q - 1 on each x != 0 orbit
    P = curve.orbits().orbits[0][0]
    R, seen = P, set()
    for _ in range(q - 1):
        seen.add(R)
        R = curve.phi(R)
    assert R == P and len(seen) == q - 1


@pytest.mark.parametrize("ell", [2, 3, 4, 5])
def test_pole_function_shape(ell):
    curve = HermitianCurve(ell)
    h = curve.construct_h()
    g = curve.genus
    assert g == ell * (ell - 1) // 2
    assert h.valuation_at_infinity() == -(2 * g - 1)
    assert len(h.cofactor_roots) == ell - 1
    q_pt = curve.orbits().q_point
    assert (h.a, h.b) == (q_pt.x, q_pt.y)
    with pytest.raises(ZeroDivisionError):
        h.eval(q_pt)
    with pytest.raises(ValueError):
        h.eval(INFINITY)


def test_valuation_weighted_degree():
    # val of x^i y^j at infinity is -(i*ell + j*(ell+1)) after y-reduction
    curve = HermitianCurve(3)
    f = curve.field
    assert valuation_at_infinity(f, 3, {(1, 0): 1}) == -3
    assert valuation_at_infinity(f, 3, {(0, 1): 1}) == -4
    assert valuation_at_infinity(f, 3, {(2, 1): 1}) == -10
    with pytest.raises(ValueError):
        valuation_at_infinity(f, 3, {})
    # y^ell rewrites via the curve equation before weighing
    assert valuation_at_infinity(f, 3, {(0, 3): 1}) == -12  # = x^4 - y


@pytest.mark.parametrize("ell", [2, 3])
def test_automorphism_identity_exhaustive(ell):
    curve = HermitianCurve(ell)
    f = curve.field
    h = curve.construct_h()
    q_pt = curve.orbits().q_point
    pts = [P for P in curve.points()
           if not P.is_infinity and P != q_pt]
    for t in range(f.q - 1):
        ht = apply_automorphism_to_h(h, t)
        for P in pts:
            assert ht.eval(curve.phi(P, t)) == h.eval(P)


@pytest.mark.parametrize("ell", [2, 3])
def test_removable_value_series_oracle(ell):
    """First-order check of the 0/0 rule.

    Walking the branch x = a + t, the curve forces y = y0 + a^ell * t up
    to t^2 (plug dual numbers into y^ell + y = x^(ell+1)), so the value
    of prod(y - r)/(x - a) at the removable point must be the t-coefficient
    of prod(y0 + a^ell t - r), divided by t.
    """
    curve = HermitianCurve(ell)
    f = curve.field
    h = curve.construct_h()
    a = h.a
    a_ell = f.pow(a, ell)
    for y0 in h.cofactor_roots:
        # c1 = a^ell satisfies the curve equation to first order
        x = Dual(f, a, 1)
        y = Dual(f, y0, a_ell)
        lhs = y ** ell + y
        rhs = x ** (ell + 1)
        assert (lhs.u, lhs.v) == (rhs.u, rhs.v)
        # numerator expanded in dual numbers; constant term vanishes,
        # the t-coefficient is the limit value
        num = Dual(f, 1, 0)
        for r in h.cofactor_roots:
            num = num * (y - Dual(f, r, 0))
        num = num * Dual(f, h.scale, 0)
        assert num.u == 0
        assert h.eval(CurvePoint(a, y0)) == num.v


@pytest.mark.parametrize("ell", [2, 3])
def test_eval_h_total_coverage(ell):
    # every affine point is a pole, a removable 0/0, or a plain evaluation
    curve = HermitianCurve(ell)
    h = curve.construct_h()
    q_pt = curve.orbits().q_point
    for P in curve.points():
        if P.is_infinity:
            continue
        if P == q_pt:
            with pytest.raises(ZeroDivisionError):
                h.eval(P)
        else:
            v = h.eval(P)
            assert 0 <= v < curve.field.q


def test_sequence_worked_example():
    # ell=2 derived by hand: one non-Q orbit of 3 points gives (1, 0, 0)
    assert hermitian_sequence(2).values == [1, 0, 0]


@pytest.mark.parametrize("ell", [2, 3, 4])
def test_sequence_shape(ell):
    s = hermitian_sequence(ell)
    q = ell * ell
    assert len(s) == (q - 1) * (ell - 1)
    assert s.field.q == q
    assert s.provenance == {"kind": "hermitian", "ell": ell}
    assert any(s.values)


@pytest.mark.parametrize("ell", [2, 3])
def test_sequence_matches_direct_evaluation(ell):
    # term i of block j is h applied to phi^i of the block's representative
    curve = HermitianCurve(ell)
    h = curve.construct_h()
    table = curve.orbits()
    s = hermitian_sequence(ell)
    q = ell * ell
    reps = table.representatives
    assert len(reps) == ell - 1
    idx = 0
    for rep in reps:
        for i in range(q - 1):
            assert s.values[idx] == eval_h(h, curve.phi(rep, i))
            idx += 1
    assert idx == len(s)


def test_sequence_blocks_have_full_period():
    # within one block the points are distinct, so values need not repeat;
    # across blocks nothing aligns: check the whole thing is not constant
    s = hermitian_sequence(3)
    assert least_period(s.values) > 1


def test_wrapper_functions():
    assert len(curve_points(2)) == 9
    table = orbit_decomposition(2)
    assert len(table.orbits) == 2
    with pytest.raises(ValueError):
        HermitianCurve(6)  # not a prime power
    with pytest.raises(ValueError):
        HermitianCurve(1)
    with pytest.raises(ValueError):
        HermitianCurve(7)  # above the size guard without allow_large


def test_curve_size_checked_before_factoring(monkeypatch):
    from test_finite_field import forbid_factoring_above_max
    forbid_factoring_above_max(monkeypatch)
    for ell in (257, 10 ** 14 + 31):
        for allow_large in (False, True):
            with pytest.raises(ValueError, match="exceeds the supported maximum 65536"):
                HermitianCurve(ell, allow_large=allow_large)
    # up to l = 256, where q = l**2 is in range, the messages are as before
    with pytest.raises(ValueError, match="l=6 must be a prime power"):
        HermitianCurve(6)
    with pytest.raises(ValueError, match="l=256 exceeds the default range"):
        HermitianCurve(256)
    with pytest.raises(ValueError, match="l must be >= 2"):
        HermitianCurve(1)


def test_allow_large_escape_hatch():
    curve = HermitianCurve(7, allow_large=True)
    assert curve.field.q == 49


def test_hermitian_profile_sane():
    s = hermitian_sequence(3)
    prof = cx.profile(s, 1, "nk")
    assert all(a <= b for a, b in zip(prof, prof[1:]))
    assert prof[-1] == cx.nonlinear_complexity(s, 1, witness=False).value
