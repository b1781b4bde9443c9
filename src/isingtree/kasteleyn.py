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
"""

from __future__ import annotations

import cmath
import math
from typing import Mapping, NamedTuple

from .isoradial import BoundaryAngles, IsoradialData
from .maps import PlanarMap
from .oracles import complex_det


def assign_phases(gq: PlanarMap, iso: IsoradialData,
                  bnd: BoundaryAngles) -> dict:
    """Phase (argument) per quadri-tiling edge key, following the module
    convention above."""
    m = iso.map
    phases = {}
    for key in gq.edge_keys:
        kind, d = key
        if kind == "cd":
            phases[key] = 0.0
        elif kind == "cp":
            phases[key] = math.pi / 2.0
        elif kind == "ex":
            th = iso.theta[m.sigma[d] >> 1]
            phi = 1.5 * math.pi - th
            if m.is_outer_dart(d):
                phi -= bnd.theta[d]
            phases[key] = phi
        else:
            raise ValueError("unexpected quadri-tiling edge %r" % (key,))
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
    `_unit_phases`).  ``gq`` is a `quadri_tiling` map (whites: odd darts).
    """
    return _flatness(gq, _unit_phases(gq, phases))


def _unit_phases(gq: PlanarMap, phases: Mapping) -> list[complex]:
    """e^{i phi} per edge id of gq."""
    return [cmath.exp(1j * phases[key]) for key in gq.edge_keys]


def _flatness(gq: PlanarMap, unit: list[complex]) -> FlatnessReport:
    """`check_flat` from the unit phases: each face's darts are folded in
    reverse, a dart into the numerator when the origin of the next dart of
    the face (the step's start, clockwise) is white.  ``gq`` is a
    `quadri_tiling` map, whose white darts are exactly the odd ones."""
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


class KasteleynMatrix(NamedTuple):
    """White-by-black phased adjacency matrix of the quadri-tiling graph;
    row i maps the index of each black neighbour to its entry, ascending.
    Row i is the white ``('w', i)`` and column j the black ``('b', j)``:
    ``whites`` and ``blacks`` list those keys by index.  ``flatness`` is
    the `check_flat` report of the phasing the build used (the same
    floats), so callers need not compute it a second time."""
    rows: tuple[dict[int, complex], ...]
    flatness: FlatnessReport

    @property
    def whites(self) -> tuple:
        return tuple(("w", i) for i in range(len(self.rows)))

    @property
    def blacks(self) -> tuple:
        return tuple(("b", j) for j in range(len(self.rows)))

    def det(self) -> complex:
        return complex_det(self.rows)


def build_kasteleyn(gq: PlanarMap, iso: IsoradialData, bnd: BoundaryAngles,
                    phases: Mapping | None = None) -> KasteleynMatrix:
    """K[w, b] = nu_wb e^{i phi_wb}, summed over the quadri-tiling edges in
    edge order into one sparse row per white.  Each edge key names its
    entry: ``('cp', d)`` is (w(d), b(d)), ``('cd', d)`` is (w(d), b(alpha d))
    and ``('ex', d)`` is (w(sigma d), b(d)).

    The phasing's flatness is measured as `check_flat` does and kept as
    ``K.flatness``; it is not judged here.  |det K| equals the dimer sum
    only for a flat phasing, as the default `assign_phases` is.
    """
    if phases is None:
        phases = assign_phases(gq, iso, bnd)
    unit = _unit_phases(gq, phases)
    sigma, theta = iso.map.sigma, iso.theta
    rows: list[dict[int, complex]] = [{} for _ in sigma]
    for e, (kind, d) in enumerate(gq.edge_keys):
        if kind == "cp":
            i, j, mod = d, d, math.cos(theta[d >> 1])
        elif kind == "cd":
            i, j, mod = d, d ^ 1, math.sin(theta[d >> 1])
        else:
            i, j, mod = sigma[d], d, 1.0
        r = rows[i]
        r[j] = r.get(j, 0j) + mod * unit[e]
    # quadri_tiling numbers the edges black by black in key order, so the
    # keys of every row arrive in ascending column order
    return KasteleynMatrix(rows=tuple(rows), flatness=_flatness(gq, unit))

