"""Generator geometry: exact angles, unit circumradius, orientations."""

import math
from fractions import Fraction

import pytest

from isingtree.generators import cycle, grid, rhombic
from isingtree.isoradial import validate_isoradial
from isingtree.maps import NotSimpleError


@pytest.mark.parametrize("n,q", [(3, Fraction(1, 6)), (4, Fraction(1, 4)),
                                 (5, Fraction(3, 10)), (8, Fraction(3, 8))])
def test_cycle_exact_angle(n, q):
    m, theta = cycle(n)
    assert set(theta.values()) == {q}
    assert (m.n_vertices, m.n_edges, len(m.faces)) == (n, n, 2)


def test_cycle_vertices_on_unit_circle():
    m, _ = cycle(7)
    assert all(abs(abs(z) - 1.0) < 1e-12 for z in m.coords)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_cycle_too_small(n):
    with pytest.raises(NotSimpleError):
        cycle(n)


def test_grid_is_quarter_pi_rhombic():
    m, theta = grid(3, 3)
    assert set(theta.values()) == {Fraction(1, 4)}
    side = abs(m.coords[1] - m.coords[0])
    assert side == pytest.approx(math.sqrt(2.0))


def test_rhombic_exact_angles():
    m, theta = rhombic(2, 3, Fraction(1, 6))
    assert (m.n_vertices, m.n_edges, len(m.faces)) == (6, 7, 3)
    assert sorted(theta.values()) == [Fraction(1, 6)] * 3 + [Fraction(1, 3)] * 4
    assert len(validate_isoradial(m, theta).centers) == 2   # inner faces


def test_rhombic_float_beta_has_no_exact_form():
    m, theta = rhombic(2, 2, 0.7)
    assert set(theta.values()) == {None}
    iso = validate_isoradial(m, theta)
    got = sorted(set(round(t, 9) for t in iso.theta))
    assert got == pytest.approx([0.7, math.pi / 2 - 0.7])


@pytest.mark.parametrize("args", [(1, 3, Fraction(1, 4)),
                                  (3, 1, Fraction(1, 4)),
                                  (2, 2, Fraction(1, 2)),
                                  (2, 2, 0.0)])
def test_rhombic_rejects_bad_parameters(args):
    with pytest.raises(ValueError):
        rhombic(*args)


def test_outer_orbit_walks_clockwise(pipelines):
    # the boundary polygon traced by the outer orbit has negative signed area
    for p in pipelines.values():
        m = p.m
        pts = [m.coords[m.vertex_of[d]] for d in m.outer_orbit]
        area = sum(a.real * b.imag - b.real * a.imag
                   for a, b in zip(pts, pts[1:] + pts[:1])) / 2.0
        assert area < 0


def test_every_generated_face_has_unit_circumradius(pipelines):
    for p in pipelines.values():
        m = p.m
        for f, c in p.iso.centers.items():
            for d in m.faces[f]:
                assert abs(abs(m.coords[m.vertex_of[d]] - c) - 1.0) < 1e-12


@pytest.mark.parametrize("m", [cycle(3)[0], cycle(8)[0], grid(2, 2)[0],
                               grid(3, 5)[0], rhombic(6, 4, Fraction(1, 5))[0],
                               rhombic(3, 3, 0.7)[0]])
def test_every_generator_roots_its_map_at_the_outer_face_least_dart(m):
    # the dart the JSON loader roots a map at
    assert m.outer_dart == min(m.outer_orbit) == m.outer_orbit[0]
