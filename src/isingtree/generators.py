"""Isoradial test-graph generators.

Every generator returns a :class:`PlanarMap` with vertex coordinates
embedded so that each inner face has circumradius 1, together with the exact
half-rhombus angle of every edge as a rational multiple of pi (``Fraction``
q meaning theta = q * pi), when the construction pins it down exactly.

* ``cycle(n)``   -- the n-cycle on the unit circle; theta = pi/2 - pi/n.
* ``grid(w, h)`` -- w x h square grid with spacing sqrt(2); theta = pi/4.
* ``rhombic(w, h, beta)`` -- rectangular grid of 2cos(beta) x 2sin(beta)
  cells; horizontal edges get theta = beta, vertical ones pi/2 - beta.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import Hashable

from .maps import NotSimpleError, PlanarMap, build_map

TWO_PI = 2.0 * cmath.pi


def cycle(n: int) -> tuple[PlanarMap, dict[int, Fraction]]:
    """Cycle graph C_n inscribed in the unit circle.

    The single inner face is the circumscribed polygon itself; edge length
    2 sin(pi/n) gives theta_e = pi/2 - pi/n for every edge.  n = 2 would be a
    doubled edge and raises NotSimpleError, n < 2 likewise.  Edge k joins
    vertices k and k + 1 (mod n).
    """
    if n < 3:
        raise NotSimpleError("cycle(%d) is not a simple graph" % n)
    rotations: dict[Hashable, list[int]] = {
        k: [(k - 1) % n, k] for k in range(n)}
    coords = {k: cmath.exp(1j * TWO_PI * k / n) for k in range(n)}
    # walking 0 -> n-1 runs clockwise along the polygon, outside on the left
    m = build_map(rotations, (0, n - 1), coords=coords)
    theta = {m.edge_id(e): Fraction(n - 2, 2 * n) for e in range(n)}
    return m, theta


def grid(w: int, h: int) -> tuple[PlanarMap, dict[int, Fraction]]:
    """w x h square grid, spacing sqrt(2), so every edge has theta = pi/4."""
    return rhombic(w, h, Fraction(1, 4))


def rhombic(w: int, h: int,
            beta: float | Fraction) -> tuple[PlanarMap, dict[int, Fraction | None]]:
    """Rectangular w x h grid whose cells are 2cos(beta) x 2sin(beta).

    Each cell then has circumradius 1.  `beta` may be a Fraction q (meaning
    beta = q*pi, exact angles recorded) or a float in radians (angles
    recorded as None, downstream falls back to numerics).  Requires
    0 < beta < pi/2 and w, h >= 2.
    """
    if isinstance(beta, Fraction):
        beta_rad = float(beta) * cmath.pi
        frac_h: Fraction | None = beta
        frac_v: Fraction | None = Fraction(1, 2) - beta
    else:
        beta_rad = float(beta)
        frac_h = frac_v = None
    if not 0.0 < beta_rad < cmath.pi / 2:
        raise ValueError("beta must lie strictly between 0 and pi/2")
    if w < 2 or h < 2:
        raise ValueError("need at least a 2x2 grid")

    dx = 2.0 * cmath.cos(beta_rad)
    dy = 2.0 * cmath.sin(beta_rad)
    # input edge k: ("h", i, j) joins (i, j) to (i + 1, j), ("v", i, j)
    # joins (i, j) to (i, j + 1); edge_frac[k] is its exact angle
    edge_frac: list[Fraction | None] = []
    index: dict[tuple[str, int, int], int] = {}
    for j in range(h):
        for i in range(w - 1):
            index[("h", i, j)] = len(edge_frac)
            edge_frac.append(frac_h)
    for j in range(h - 1):
        for i in range(w):
            index[("v", i, j)] = len(edge_frac)
            edge_frac.append(frac_v)

    rotations: dict[Hashable, list[int]] = {}
    for j in range(h):
        for i in range(w):
            rot = []
            if i + 1 < w:
                rot.append(index[("h", i, j)])      # east
            if j + 1 < h:
                rot.append(index[("v", i, j)])      # north
            if i > 0:
                rot.append(index[("h", i - 1, j)])  # west
            if j > 0:
                rot.append(index[("v", i, j - 1)])  # south
            rotations[(i, j)] = rot
    coords = {(i, j): complex(i * dx, j * dy) for j in range(h) for i in range(w)}
    # at (0,0) the dart along ("v",0,0) points north with the outside on its left
    m = build_map(rotations, ((0, 0), index[("v", 0, 0)]), coords=coords)
    # edge_frac is indexed by input edge; re-key by internal edge id
    return m, {m.edge_id(k): v for k, v in enumerate(edge_frac)}
