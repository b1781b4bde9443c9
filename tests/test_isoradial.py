"""Isoradial validation, boundary angles, and the weight systems."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import off_center_triangle
from isingtree.correspondence import verify_main_theorem
from isingtree.generators import cycle, rhombic
from isingtree.isoradial import (AngleOutOfRangeError, NotIsoradialError,
                                 boundary_angles, critical_couplings,
                                 dimer_weights, outer_center,
                                 validate_isoradial)
from isingtree.maps import PlanarMap, build_map


def test_c3_angles_and_couplings(c3):
    assert c3.iso.theta == pytest.approx((math.pi / 6,) * 3)
    assert c3.iso.theta_exact == (Fraction(1, 6),) * 3
    assert c3.iso.regular
    assert critical_couplings(c3.iso) == pytest.approx((math.log(3) / 4,) * 3)


def test_c4_angles_and_couplings(c4):
    assert c4.iso.theta == pytest.approx((math.pi / 4,) * 4)
    J = critical_couplings(c4.iso)
    assert J == pytest.approx((0.5 * math.log(1 + math.sqrt(2)),) * 4)


def test_off_center_face_is_not_regular():
    m = off_center_triangle()
    assert validate_isoradial(m).regular is False
    # the reflected phantom centers then disagree with the closure
    with pytest.raises(NotIsoradialError):
        verify_main_theorem(m)


def test_a_boundary_angle_failure_names_the_off_center_face():
    iso = validate_isoradial(off_center_triangle())
    inner = [f for f in range(len(iso.map.faces)) if f != iso.map.outer_face]
    with pytest.raises(NotIsoradialError) as info:
        boundary_angles(iso)
    assert str(info.value) == (
        "face %d does not contain its circumcenter, so closure and "
        "reflected-center boundary angles disagree by 2.14" % inner[0])


def ray_cast_inside(pt, poly):
    """Even-odd ray cast towards +x: is pt inside the polygon poly?"""
    inside = False
    for a, b in zip(poly, poly[1:] + poly[:1]):
        if (a.imag > pt.imag) != (b.imag > pt.imag):
            t = (pt.imag - a.imag) / (b.imag - a.imag)
            if pt.real < a.real + t * (b.real - a.real):
                inside = not inside
    return inside


def test_regular_matches_a_ray_cast_on_random_inscribed_cycles():
    # random angles in increasing order put the vertices 0..n-1 of the
    # cycle counterclockwise on their circle; an arc of less than pi puts
    # the center outside the face
    rng = random.Random(27)
    seen = {True: 0, False: 0}
    for _ in range(2500):
        n = rng.randint(3, 8)
        span = rng.choice((rng.uniform(0.5, math.pi), 2 * math.pi))
        angles = sorted(rng.uniform(0.0, span) for _ in range(n))
        center = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        pts = [center + cmath.exp(1j * a) for a in angles]
        if not all(1e-6 < abs(b - a) < 2 - 1e-6
                   for a, b in zip(pts, pts[1:] + pts[:1])):
            continue
        # the rotations of `cycle`: vertex k between edges k - 1 and k
        m = build_map({k: [(k - 1) % n, k] for k in range(n)}, (0, n - 1),
                      coords=dict(enumerate(pts)))
        iso = validate_isoradial(m)
        (c,) = iso.centers.values()
        assert abs(c - center) < 1e-9
        assert iso.regular == ray_cast_inside(c, pts)
        seen[iso.regular] += 1
    assert min(seen.values()) > 500 and sum(seen.values()) >= 2000, seen


@pytest.mark.parametrize("name,expected", [
    ("C3", {Fraction(2, 3)}),
    ("C4", {Fraction(1, 2)}),
    ("grid", {Fraction(1, 4), Fraction(1, 2)}),
])
def test_boundary_angle_exact_values(pipelines, name, expected):
    bnd = pipelines[name].bnd
    assert set(bnd.exact.values()) == expected
    assert bnd.max_mismatch < 1e-9
    for delta, q in bnd.exact.items():
        assert bnd.theta[delta] == pytest.approx(math.pi * float(q))


def test_grid_boundary_angle_multiset(grid33):
    vals = sorted(grid33.bnd.theta.values())
    assert vals == pytest.approx([math.pi / 4] * 4 + [math.pi / 2] * 4)


def test_phantom_centers_at_unit_distance(pipelines):
    for p in pipelines.values():
        m = p.m
        for delta in m.outer_orbit:
            u = outer_center(p.iso, delta)
            e = delta >> 1
            for v in m.endpoints(e):
                assert abs(abs(m.coords[v] - u) - 1.0) < 1e-12


def test_missing_coordinates_rejected():
    m, _ = cycle(3)
    bare = PlanarMap(m.sigma, min(m.outer_orbit))
    with pytest.raises(NotIsoradialError):
        validate_isoradial(bare, None)


def test_scaled_square_is_not_isoradial():
    m, _ = cycle(4)
    # scaling by 1.3 moves the circumradius off 1 but keeps edges admissible
    scaled = PlanarMap(m.sigma, min(m.outer_orbit),
                       coords=[1.3 * z for z in m.coords])
    with pytest.raises(NotIsoradialError):
        validate_isoradial(scaled, None)


def test_degenerate_edge_length_rejected():
    m, _ = cycle(4)
    # side sqrt(2) scaled to length 2: the rhombus flattens out
    flat = PlanarMap(m.sigma, min(m.outer_orbit),
                     coords=[math.sqrt(2) * z for z in m.coords])
    with pytest.raises(AngleOutOfRangeError):
        validate_isoradial(flat, None)


def test_wrong_exact_angle_rejected():
    m, _ = cycle(3)
    with pytest.raises(NotIsoradialError):
        validate_isoradial(m, {e: Fraction(1, 4) for e in range(3)})


@given(st.floats(min_value=0.1, max_value=math.pi / 2 - 0.1))
def test_critical_couplings_satisfy_sinh_tan(beta):
    m, theta = rhombic(2, 2, beta)
    iso = validate_isoradial(m, theta)
    for J, t in zip(critical_couplings(iso), iso.theta):
        assert math.sinh(2.0 * J) == pytest.approx(math.tan(t), rel=1e-12)


def test_dimer_weights_critical_values(c3):
    J = critical_couplings(c3.iso)
    nu = dimer_weights(J, c3.gq)
    for key, w in nu.items():
        kind, d = key
        if kind == "ex":
            assert w == 1.0
        elif kind == "cp":
            assert w == pytest.approx(math.cos(c3.iso.theta[d >> 1]))
        else:
            assert w == pytest.approx(math.sin(c3.iso.theta[d >> 1]))


def test_dimer_weights_generic_couplings(c4):
    J = (0.3, 0.9, 0.4, 1.1)
    nu = dimer_weights(J, c4.gq)
    for key, w in nu.items():
        kind, d = key
        if kind == "cp":
            assert w == pytest.approx(1.0 / math.cosh(2 * J[d >> 1]))
        elif kind == "cd":
            assert w == pytest.approx(math.tanh(2 * J[d >> 1]))


def test_tau_weights_tables(c4):
    tw, bnd = c4.tw, c4.bnd
    for key, w in tw.primal.items():
        assert w == pytest.approx(math.tan(c4.iso.theta[key[1]]))
    for delta in c4.m.outer_orbit:
        assert tw.spoke[("bd", delta)] == pytest.approx(
            2 * math.sin(bnd.theta[delta] / 2))
        assert tw.rim_cw[("rim", delta)] == pytest.approx(
            cmath.exp(-0.5j * bnd.theta[delta]))


def test_tau_arc_directionality(c4):
    tw = c4.tw
    delta = min(c4.m.outer_orbit)
    # spokes only point at the root, rims conjugate when reversed
    assert tw.arc(("bd", delta), ("p", 0), ("r",)) > 0
    assert tw.arc(("bd", delta), ("r",), ("p", 0)) == 0.0
    cw = tw.arc(("rim", delta), ("u", 99), ("u", delta))
    ccw = tw.arc(("rim", delta), ("u", delta), ("u", 99))
    assert ccw == cw.conjugate()
    assert tw.arc(("dual", 0), ("f", 0), ("u", delta)) == 1.0


def test_double_weight_tables(pipelines):
    for p in pipelines.values():
        for key in p.dd.edge_keys:
            kind = key[0]
            rs, t2 = p.rho_star[key], p.tau2[key]
            if kind == "hp":
                assert rs == t2 == pytest.approx(math.sin(p.iso.theta[key[1] >> 1]))
            elif kind == "hd":
                assert rs == t2 == pytest.approx(1j * math.cos(p.iso.theta[key[1] >> 1]))
            elif kind == "hb":
                tb = p.bnd.theta[key[1]]
                assert rs == pytest.approx(cmath.exp(-1j * tb) - 1)
                assert t2 == pytest.approx(2 * math.sin(tb / 2))
                # the two forms differ by the unit factor -i e^{-i tb/2}
                assert rs == pytest.approx(-1j * cmath.exp(-0.5j * tb) * t2)
            else:
                assert rs == 1.0
                sign = 1.0 if key[2] == 0 else -1.0
                assert t2 == pytest.approx(
                    1j * cmath.exp(sign * -0.5j * p.bnd.theta[key[1]]))
