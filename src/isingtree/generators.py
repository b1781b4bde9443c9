"""Isoradial test-graph generators.

Every generator returns a :class:`PlanarMap` with vertex coordinates
embedded so that each inner face has circumradius 1, together with the exact
half-rhombus angle of every edge as a rational multiple of pi (``Fraction``
q meaning theta = q * pi), when the construction pins it down exactly.

* ``cycle(n)``   -- the n-cycle on the unit circle; theta = pi/2 - pi/n.
* ``grid(w, h)`` -- w x h square grid with spacing sqrt(2); theta = pi/4.
* ``rhombic(w, h, beta)`` -- rectangular grid of 2cos(beta) x 2sin(beta)
  cells; horizontal edges get theta = beta, vertical ones pi/2 - beta.

``cycle`` hands its ccw rotation data to :func:`~isingtree.maps.build_map`.
``rhombic`` (and so ``grid``) writes sigma and its keys straight from the
darts, numbered as ``build_map`` would number the grid's rotation data,
roots it at its outer face's least dart (where a JSON load roots a map, so
a grid and its ``generate`` file give the same exports), and checks the map
with :func:`~isingtree.maps.validate_simple_input`.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

from .maps import (NotSimpleError, PlanarMap, build_map,
                   validate_simple_input)

TWO_PI = 2.0 * cmath.pi


def cycle(n: int) -> tuple[PlanarMap, dict[int, Fraction]]:
    """Cycle graph C_n inscribed in the unit circle.

    The single inner face is the circumscribed polygon itself; edge length
    2 sin(pi/n) gives theta_e = pi/2 - pi/n for every edge.  n = 2 would be a
    doubled edge and raises NotSimpleError, n < 2 likewise.  Edge key k
    joins vertices k and k + 1 (mod n), and all n angles are equal.
    """
    if n < 3:
        raise NotSimpleError("cycle(%d) is not a simple graph" % n)
    # rotation at k: edge k - 1, edge k; dart 0 walks 0 -> n-1, clockwise
    # along the polygon, outside on the left
    m = build_map({k: [(k - 1) % n, k] for k in range(n)}, (0, n - 1),
                  coords={k: cmath.exp(1j * TWO_PI * k / n) for k in range(n)})
    return m, dict.fromkeys(range(n), Fraction(n - 2, 2 * n))


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
    # the ccw rotation at (i, j) is east, north, west, south, and each
    # vertex in row-major order numbers its new edges, east then north: the
    # edge gets its even dart there and its odd dart at its west or south end
    east, north = [0] * (w * h), [0] * (w * h)
    edge_keys: list[int] = []   # input edge index of each map edge
    sigma = [0] * (2 * (2 * w * h - w - h))
    first: list = [None] * len(sigma)   # vertex at its smallest dart
    for j in range(h):
        for i in range(w):
            k = j * w + i
            rot = []
            if i + 1 < w:
                east[k] = 2 * len(edge_keys)
                rot.append(east[k])
                edge_keys.append(j * (w - 1) + i)
            if j + 1 < h:
                north[k] = 2 * len(edge_keys)
                rot.append(north[k])
                edge_keys.append(h * (w - 1) + j * w + i)
            if i > 0:
                rot.append(east[k - 1] + 1)
            if j > 0:
                rot.append(north[k - w] + 1)
            prev = rot[-1]
            for d in rot:
                sigma[prev] = d
                prev = d
            first[min(rot)] = (i, j)
    keys = [v for v in first if v is not None]
    coords = [complex(i * dx, j * dy) for i, j in keys]
    # the dart from (1,0) west to (0,0) has the outside on its left and is
    # the outer face's least dart, the one a JSON load roots the map at
    m = validate_simple_input(PlanarMap(sigma, east[0] + 1, coords=coords,
                                        vertex_keys=keys, edge_keys=edge_keys))
    # exact angles by input edge: horizontal ones first, then vertical ones
    theta = {east[j * w + i] >> 1: frac_h for j in range(h) for i in range(w - 1)}
    theta.update((north[j * w + i] >> 1, frac_v)
                 for j in range(h - 1) for i in range(w))
    return m, theta
