"""Isoradial geometry: rhombus half-angles, boundary angles, and the weight
systems derived from them.

An embedding is isoradial when every inner face is inscribed in a circle of
radius 1 whose center lies in the face.  Each edge e = xy is then a diagonal
of the unit rhombus spanned by x, y and the two circumcenters, and carries a
half-angle theta_e = arccos(|e|/2) in (0, pi/2).  An inscribed face is
convex, and its center lies sin theta_e from the line of each edge e, never
on it once theta_e is in range: the center is in the closed face exactly
when it lies strictly left of every counterclockwise edge.

Boundary corners get an extra angle: reflecting the circumcenter of the inner
face across a boundary edge produces the phantom outer center u of that edge,
and the boundary angle of corner delta at vertex x is half the clockwise
angle at x from u_{alpha sigma delta} to u_delta.  Around any vertex the edge
half-angles and boundary angles add up to pi (to 2 pi nothing is lost: the
rhombus half-angle enters once per side).  That closure identity is what the
package treats as the primary definition -- it is exact in rational multiples
of pi whenever the edge angles are -- and the geometric reflection serves as
an independent cross-check.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Mapping, NamedTuple

from .maps import PlanarMap

EPS_GEOM = 1e-9


class NotIsoradialError(Exception):
    """Embedding violates the unit-circumradius condition."""


class AngleOutOfRangeError(Exception):
    """A rhombus half-angle or boundary angle leaves its open range."""


class IsoradialData(NamedTuple):
    """Validated isoradial structure of an embedded map.

    theta[e] is the rhombus half-angle of edge e; theta_exact[e] its exact
    value as a Fraction q (meaning q*pi) when known, else None.  centers maps
    each inner face id to its circumcenter.  regular is True when every
    circumcenter lies in the closure of its face.
    """
    map: PlanarMap
    theta: tuple[float, ...]
    theta_exact: tuple[Fraction | None, ...]
    centers: Mapping[int, complex]
    regular: bool


def validate_isoradial(m: PlanarMap,
                       theta_exact: Mapping[int, Fraction | None] | None = None
                       ) -> IsoradialData:
    """Check the embedding of m is isoradial, to EPS_GEOM, and extract its
    angles.

    Raises NotIsoradialError when some inner face has no common unit-distance
    center for its vertices (or an exact angle disagrees with the geometry),
    AngleOutOfRangeError when an edge is degenerate (length 0 or 2).
    `regular` takes one half-plane test per edge, with no tolerance: past
    the range check each center lies sin theta_e > 4e-5 off every edge line.
    """
    if m.coords is None:
        raise NotIsoradialError("map carries no coordinates")

    coords = m.coords
    theta = []
    for e in range(m.n_edges):
        u, v = m.endpoints(e)
        half = abs(coords[v] - coords[u]) / 2.0
        if half <= EPS_GEOM or half >= 1.0 - EPS_GEOM:
            raise AngleOutOfRangeError(
                "edge %d has length %.12g; need theta in (0, pi/2)"
                % (e, 2 * half))
        theta.append(math.acos(half))

    exact: list[Fraction | None] = [None] * m.n_edges
    if theta_exact is not None:
        for e, q in theta_exact.items():
            if q is None:
                continue
            if abs(theta[e] - math.pi * float(q)) > EPS_GEOM:
                raise NotIsoradialError(
                    "edge %d: exact angle pi*%s disagrees with geometry %.12g"
                    % (e, q, theta[e]))
            exact[e] = q

    centers: dict[int, complex] = {}
    regular = True
    for f in range(len(m.faces)):
        if f == m.outer_face:
            continue
        pts = [m.coords[m.vertex_of[d]] for d in m.faces[f]]
        c = _circumcenter_unit(pts)
        if c is None:
            raise NotIsoradialError("face %d is not inscribed in a unit circle" % f)
        centers[f] = c
        regular = regular and _contains(pts, c)

    return IsoradialData(map=m, theta=tuple(theta), theta_exact=tuple(exact),
                         centers=centers, regular=regular)


def _contains(pts: list[complex], c: complex) -> bool:
    """Whether c lies strictly left of every edge a -> b of the
    counterclockwise polygon pts: (c - a) / (b - a) has a positive
    imaginary part."""
    return all(((c - a) * (b - a).conjugate()).imag > 0.0
               for a, b in zip(pts, pts[1:] + pts[:1]))


def _off_center(iso: IsoradialData, why: str) -> str:
    """`why`, led by the first inner face whose circumcenter lies outside
    it when the embedding is not regular: the cause a boundary-angle
    failure then has."""
    if iso.regular:
        return why
    m = iso.map
    f = next(f for f, c in iso.centers.items() if not _contains(
        [m.coords[m.vertex_of[d]] for d in m.faces[f]], c))
    return "face %d does not contain its circumcenter, so %s" % (f, why)


def _circumcenter_unit(pts: list[complex]) -> complex | None:
    """Common point at distance 1 from all of pts, or None.

    Uses the two intersection candidates of the unit circles around the
    first two points and keeps the one (if any) unit-distant from the rest.
    """
    a, b = pts[0], pts[1]
    chord = b - a
    half = abs(chord) / 2.0
    if half > 1.0 + EPS_GEOM:
        return None
    h2 = max(1.0 - half * half, 0.0)
    n = 1j * chord / abs(chord)
    mid = (a + b) / 2.0
    for cand in (mid + n * math.sqrt(h2), mid - n * math.sqrt(h2)):
        if all(abs(abs(p - cand) - 1.0) <= EPS_GEOM for p in pts):
            return cand
    return None


# ---------------------------------------------------------------------------
# boundary angles
# ---------------------------------------------------------------------------

class BoundaryAngles(NamedTuple):
    """Boundary angle per boundary corner (keyed by outer-orbit dart).

    theta[delta] is the closure value (primary), exact[delta] its Fraction-
    of-pi form when available, and max_mismatch the largest |closure -
    reflected-center value| seen.
    """
    theta: Mapping[int, float]
    exact: Mapping[int, Fraction | None]
    max_mismatch: float


def boundary_angles(iso: IsoradialData) -> BoundaryAngles:
    """Boundary angles by closure at each boundary vertex, checked against
    the phantom centers u_delta, each reflected once per outer dart."""
    m = iso.map
    u = {delta: outer_center(iso, delta) for delta in m.outer_orbit}
    corners_at: dict[int, list[int]] = {}
    for delta in m.outer_orbit:
        corners_at.setdefault(m.vertex_of[delta], []).append(delta)

    theta: dict[int, float] = {}
    exact: dict[int, Fraction | None] = {}
    max_mismatch = 0.0
    for x, corners in corners_at.items():
        # left folds: sum() compensates float adds from CPython 3.12 on,
        # which would change the last digits of every boundary angle
        residual = math.pi - reduce(
            add, (iso.theta[d >> 1] for d in m.vertices[x]), 0.0)
        if residual <= EPS_GEOM:
            raise AngleOutOfRangeError(_off_center(
                iso, "boundary vertex %d leaves no room for a boundary angle"
                % x))
        fracs = [iso.theta_exact[d >> 1] for d in m.vertices[x]]
        res_exact = (Fraction(1) - sum(fracs)) if all(q is not None for q in fracs) else None
        # half the clockwise angle at x from u_{alpha sigma delta} to u_delta
        z = m.coords[x]
        geometric = [cmath.phase((u[m.sigma[d] ^ 1] - z) / (u[d] - z))
                     % (2.0 * math.pi) / 2.0 for d in corners]
        max_mismatch = max(max_mismatch,
                           abs(residual - reduce(add, geometric, 0.0)))
        if len(corners) == 1:
            theta[corners[0]], exact[corners[0]] = residual, res_exact
        else:
            # several boundary corners at one vertex: take each geometrically,
            # the closure then constrains only their sum
            theta.update(zip(corners, geometric))
            exact.update(dict.fromkeys(corners))
    if max_mismatch > 1e-7:
        raise NotIsoradialError(_off_center(
            iso, "closure and reflected-center boundary angles disagree by "
            "%.3g" % max_mismatch))
    return BoundaryAngles(theta=theta, exact=exact, max_mismatch=max_mismatch)


def outer_center(iso: IsoradialData, delta: int) -> complex:
    """Phantom center u_delta: the circumcenter of the inner face of the
    boundary edge e(delta), reflected across that edge."""
    m = iso.map
    c = iso.centers[m.face_of[delta ^ 1]]
    a, b = (m.coords[v] for v in m.endpoints(delta >> 1))
    return a + (b - a) * ((c - a) / (b - a)).conjugate()


# ---------------------------------------------------------------------------
# weight systems
# ---------------------------------------------------------------------------

def critical_couplings(iso: IsoradialData) -> tuple[float, ...]:
    """Self-dual couplings J_e = (1/2) log((1 + sin theta_e)/cos theta_e),
    i.e. sinh(2 J_e) = tan theta_e."""
    return tuple(0.5 * math.log((1.0 + math.sin(t)) / math.cos(t))
                 for t in iso.theta)


def dimer_weights(J: tuple[float, ...], gq: PlanarMap) -> dict:
    """Low-temperature expansion weights on the quadri-tiling graph.

    For any positive couplings J (not only critical ones): an edge crossing
    primal edge e weighs 1/cosh(2 J_e), one crossing its dual weighs
    tanh(2 J_e), external edges weigh 1.  At the critical couplings these
    are cos theta_e and sin theta_e.
    """
    if gq.edge_keys is None:
        raise ValueError("quadri-tiling map without edge keys")
    out = {}
    for key in gq.edge_keys:
        kind, d = key
        if kind == "ex":
            out[key] = 1.0
        elif kind == "cp":
            out[key] = 1.0 / math.cosh(2.0 * J[d >> 1])
        elif kind == "cd":
            out[key] = math.tanh(2.0 * J[d >> 1])
        else:
            raise ValueError("unexpected quadri-tiling edge %r" % (key,))
    return out


class TauWeights(NamedTuple):
    """Directed weights on the extended pair.

    Primal edges carry tan theta_e in both directions; the boundary spoke
    ('bd', delta) carries 2 sin(theta_bd/2) towards the root and 0 back.
    Dual edges carry 1 both ways; the rim edge ('rim', delta) carries
    exp(-i theta_bd/2) in the clockwise direction u_{alpha sigma delta} ->
    u_delta and the conjugate backwards.
    """
    primal: Mapping[tuple, float]
    spoke: Mapping[tuple, float]
    rim_cw: Mapping[tuple, complex]

    def arc(self, edge_key: tuple, tail_key: tuple, head_key: tuple) -> complex:
        kind = edge_key[0]
        if kind == "e":
            return self.primal[edge_key]
        if kind == "bd":
            return self.spoke[edge_key] if head_key == ("r",) else 0.0
        if kind == "dual":
            return 1.0
        if kind == "rim":
            delta = edge_key[1]
            if head_key == ("u", delta):
                return self.rim_cw[edge_key]
            return self.rim_cw[edge_key].conjugate()
        raise ValueError("unexpected extended-pair edge %r" % (edge_key,))


def tree_weights_tau(iso: IsoradialData, bnd: BoundaryAngles) -> TauWeights:
    primal = {("e", e): math.tan(iso.theta[e]) for e in range(iso.map.n_edges)}
    spoke = {("bd", d): 2.0 * math.sin(bnd.theta[d] / 2.0)
             for d in iso.map.outer_orbit}
    rim_cw = {("rim", d): cmath.exp(-0.5j * bnd.theta[d])
              for d in iso.map.outer_orbit}
    return TauWeights(primal=primal, spoke=spoke, rim_cw=rim_cw)


def double_weights(iso: IsoradialData, bnd: BoundaryAngles,
                   dd: PlanarMap) -> tuple[dict, dict]:
    """(rho_star, tau2) on the edges of the extended double graph.

    rho_star are the tree weights transported from the directed boundary
    graph; tau2 the dimer weights whose per-matching product reproduces a
    whole tree class up to the constant unit-modulus prefactor.
    """
    rho_star: dict = {}
    tau2: dict = {}
    for key in dd.edge_keys:
        kind = key[0]
        if kind == "hp":
            w = math.sin(iso.theta[key[1] >> 1])
            rho_star[key] = w
            tau2[key] = w
        elif kind == "hd":
            w = 1j * math.cos(iso.theta[key[1] >> 1])
            rho_star[key] = w
            tau2[key] = w
        elif kind == "hb":
            tb = bnd.theta[key[1]]
            rho_star[key] = cmath.exp(-1j * tb) - 1.0
            tau2[key] = 2.0 * math.sin(tb / 2.0)
        elif kind == "hr":
            tb = bnd.theta[key[1]]
            rho_star[key] = 1.0
            tau2[key] = 1j * cmath.exp(-0.5j * tb if key[2] == 0 else 0.5j * tb)
        else:
            raise ValueError("unexpected double edge %r" % (key,))
    return rho_star, tau2
