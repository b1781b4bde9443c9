"""Kasteleyn theory on the quadri-tiling graph.

The critical dimer weights on the quadri-tiling graph of an isoradial map
admit a flat phasing: each edge weight nu_uv is multiplied by a unit complex
e^{i phi_uv} so that around every face the alternating product of phases is
trivial, after which the dimer partition function is |det K| for the
white-by-black weighted adjacency matrix K.

Phase convention (edges named by their quadri-tiling keys):

* ``('cd', d)``  (crossing the dual edge):    phi = 0,      |K| = sin theta
* ``('cp', d)``  (crossing the primal edge):  phi = pi/2,   |K| = cos theta
* ``('ex', d)``  (external, corner d):        |K| = 1 and
    phi = 3 pi/2 - theta_{e(sigma d)}                      (interior corner)
    phi = 3 pi/2 - theta_{e(sigma d)} - theta_bd(d)        (boundary corner)

With this convention every white row of K sums to zero at interior corners;
at a boundary corner the row sums to i e^{-i theta} (1 - e^{-i theta_bd}),
which is exactly minus the weight carried by the root arc of the directed
corner graph built downstream.

Both the phases and K are computed in closed form over the darts of the
primal map, black by black: black d owns ``('cp', d)`` (row d, column d),
``('cd', alpha d)`` (row alpha d, column d) and ``('ex', d)`` (row sigma d,
column d), visited for d ascending, which is the edge order of
:func:`~isingtree.derived.quadri_tiling`.  The quadri-tiling map itself is
not read: the ``gq`` parameter of `assign_phases` and `build_kasteleyn` is
kept for the callers that pass it first, and may be None.
"""

from __future__ import annotations

import cmath
import math
from typing import Mapping, NamedTuple

from .isoradial import BoundaryAngles, IsoradialData
from .maps import PlanarMap
from .oracles import complex_det


def assign_phases(gq: PlanarMap | None, iso: IsoradialData,
                  bnd: BoundaryAngles) -> dict:
    """Phase (argument) per quadri-tiling edge key, following the module
    convention above, keyed in the quadri-tiling's edge order.  ``gq`` is
    not read."""
    m = iso.map
    theta, bnd_theta = iso.theta, bnd.theta
    face_of, outer = m.face_of, m.outer_face
    cp, ex = math.pi / 2.0, 1.5 * math.pi
    phases = {}
    for d, sd in enumerate(m.sigma):
        phases["cp", d] = cp
        phases["cd", d ^ 1] = 0.0
        phi = ex - theta[sd >> 1]
        if face_of[d] == outer:
            phi -= bnd_theta[d]
        phases["ex", d] = phi
    return phases


class FlatnessReport(NamedTuple):
    curvatures: tuple[complex, ...]     # by face id
    max_deviation: float                # max |curvature - 1|


def check_flat(gq: PlanarMap, phases: Mapping) -> FlatnessReport:
    """Curvature of every face, by face id, read clockwise.

    For a face of length 2k with clockwise vertex sequence
    w1 b1 w2 b2 ... wk bk the curvature is
    (-1)^(k-1) * prod e^{i phi(w_j b_j)} / prod e^{i phi(w_{j+1} b_j)},
    i.e. numerator over white->black steps, denominator over black->white
    steps of the clockwise walk.  A flat phasing has curvature 1 everywhere,
    so ``max_deviation`` is zero up to rounding; the caller judges it at its
    own tolerance.  Each e^{i phi} is computed once per edge (see
    `_unit_phases`), and each face's darts are folded in reverse, a dart
    into the numerator when the origin of the next dart of the face (the
    step's start, clockwise) is white.  ``gq`` is a `quadri_tiling` map,
    whose white darts are exactly the odd ones.
    """
    unit = _unit_phases(gq, phases)
    curv = []
    for orb in gq.faces:
        num, den = 1.0 + 0j, 1.0 + 0j
        nxt = orb[0]
        for d in reversed(orb):
            if nxt & 1:
                num *= unit[d >> 1]
            else:
                den *= unit[d >> 1]
            nxt = d
        curv.append((-1) ** (len(orb) // 2 - 1) * num / den)
    return FlatnessReport(curvatures=tuple(curv),
                          max_deviation=max(abs(c - 1.0) for c in curv))


def _unit_phases(gq: PlanarMap, phases: Mapping) -> list[complex]:
    """e^{i phi} per edge id of gq."""
    return [cmath.exp(1j * phases[key]) for key in gq.edge_keys]


class KasteleynMatrix(NamedTuple):
    """White-by-black phased adjacency matrix of the quadri-tiling graph;
    row i maps the index of each black neighbour to its entry, ascending.
    Row i is the white ``('w', i)`` and column j the black ``('b', j)``:
    ``whites`` and ``blacks`` list those keys by index."""
    rows: tuple[dict[int, complex], ...]

    @property
    def whites(self) -> tuple:
        return tuple(("w", i) for i in range(len(self.rows)))

    @property
    def blacks(self) -> tuple:
        return tuple(("b", j) for j in range(len(self.rows)))

    def det(self) -> complex:
        return complex_det(self.rows)


def build_kasteleyn(gq: PlanarMap | None, iso: IsoradialData,
                    bnd: BoundaryAngles,
                    phases: Mapping | None = None) -> KasteleynMatrix:
    """K[w, b] = nu_wb e^{i phi_wb}, summed over the quadri-tiling edges in
    edge order into one sparse row per white.  Each edge key names its
    entry: ``('cp', d)`` is (w(d), b(d)), ``('cd', d)`` is (w(d), b(alpha d))
    and ``('ex', d)`` is (w(sigma d), b(d)).  The edges are visited black by
    black from the primal darts (see the module docstring), so the keys of
    every row arrive in ascending column order; ``gq`` is not read.

    The phasing's flatness is not measured here: |det K| equals the dimer
    sum only for a flat phasing, as the default `assign_phases` is, and
    `check_flat` measures it.
    """
    if phases is None:
        phases = assign_phases(gq, iso, bnd)
    sigma, theta = iso.map.sigma, iso.theta
    exp, cos, sin = cmath.exp, math.cos, math.sin
    rows: list[dict[int, complex]] = [{} for _ in sigma]
    for d, sd in enumerate(sigma):
        t, a = theta[d >> 1], d ^ 1
        r = rows[d]
        r[d] = r.get(d, 0j) + cos(t) * exp(1j * phases["cp", d])
        r = rows[a]
        r[d] = r.get(d, 0j) + sin(t) * exp(1j * phases["cd", a])
        r = rows[sd]
        r[d] = r.get(d, 0j) + 1.0 * exp(1j * phases["ex", d])   # modulus 1
    return KasteleynMatrix(rows=tuple(rows))
