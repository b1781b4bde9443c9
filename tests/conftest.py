"""Shared fixtures: the three-graph corpus and its chains.

Each corpus graph gets one `Chain` per session, whose stages (quadri-tiling,
Kasteleyn matrix, corner graphs, extended double, extended pair) are built
the first time a test reads them; the objects are all immutable, so sharing
is safe.
"""

import cmath
import math
import random
from fractions import Fraction

import pytest

from isingtree import correspondence as co
from isingtree.generators import cycle, grid
from isingtree.isoradial import critical_couplings, dimer_weights
from isingtree.maps import PlanarMap, build_map
from isingtree.oracles import (Arc, WeightedDigraph, count_osts, dimer_Z,
                               ising_Z, kac_ward_Z2)
from isingtree.report import Report, check

# relative tolerance of the squared-Ising checks
SQUARED_ISING_TOL = 1e-9

CORPUS = {"C3": lambda: cycle(3), "C4": lambda: cycle(4),
          "grid": lambda: grid(3, 3)}


def bowtie():
    """Two equilateral triangles of circumradius 1 that share vertex 0, so
    the outer face meets vertex 0 at two corners; every theta is pi/6."""
    w = cmath.exp(2j * cmath.pi / 3)
    coords = {0: 0j, 1: w - 1, 2: w.conjugate() - 1,
              3: 1 - w.conjugate(), 4: 1 - w}
    # edges a, b, c bound the left triangle, d, e, f the right one
    m = build_map({0: ["d", "a", "c", "f"], 1: ["b", "a"], 2: ["c", "b"],
                   3: ["d", "e"], 4: ["e", "f"]}, (1, "a"), coords=coords)
    return m, {e: Fraction(1, 6) for e in range(m.n_edges)}


def off_center_triangle():
    """C3 on the unit circle at 0, 0.5 and 1.0 rad, with coordinates only:
    its one inner face is inscribed, but the center 0 lies outside it."""
    coords = {k: cmath.exp(1j * a) for k, a in enumerate((0.0, 0.5, 1.0))}
    return build_map({0: ["a", "c"], 1: ["b", "a"], 2: ["c", "b"]}, (0, "a"),
                     coords=coords)


def folded_grid():
    """grid(5, 5)'s map with vertex (i, j) moved to P(i + j, j - i), where
    P(p, q) = sum_{p' < p} e^{i a_p'} + sum_{q' < q} e^{i b_q'} (for q < 0
    minus the sum over q <= q' < 0).  Every step of P is a unit vector, so
    each face is inscribed in a unit circle centered at a lattice point.
    a_p = 0 and b_q = pi/2 give a rotated square grid.  With a_4 = 0.9 >
    b_0 = 0.6 the two faces whose corners lie in both steps' directions
    from their center, 10 and 11 (grid squares (1, 2)-(2, 3) and
    (2, 2)-(3, 3)), miss their centers: two corners of each lie an arc of
    pi + a_4 - b_0 apart."""
    m, _ = grid(5, 5)

    def steps(angles, k):
        # the e^{i angle} of the steps from 0 to k, signed
        if k >= 0:
            return sum(cmath.exp(1j * angles(t)) for t in range(k))
        return -sum(cmath.exp(1j * angles(t)) for t in range(k, 0))

    a = lambda p: 0.9 if p == 4 else 0.0
    b = lambda q: 0.6 if q == 0 else math.pi / 2
    coords = [steps(a, i + j) + steps(b, j - i) for i, j in m.vertex_keys]
    return PlanarMap(m.sigma, m.outer_dart, coords=coords,
                     vertex_keys=m.vertex_keys, edge_keys=m.edge_keys)


class Pipeline(co.Chain):
    """One corpus graph and its chain, with the double weights unpacked."""

    def __init__(self, name):
        super().__init__(*CORPUS[name]())
        self.name = name

    rho_star = property(lambda self: self.double_weights[0])
    tau2 = property(lambda self: self.double_weights[1])


@pytest.fixture(scope="session")
def pipelines():
    return {name: Pipeline(name) for name in CORPUS}


@pytest.fixture(scope="session")
def c3(pipelines):
    return pipelines["C3"]


@pytest.fixture(scope="session")
def c4(pipelines):
    return pipelines["C4"]


@pytest.fixture(scope="session")
def grid33(pipelines):
    return pipelines["grid"]


@pytest.fixture(scope="session")
def unit_tree_count():
    """count(m, root): the number of spanning trees of a map's underlying
    graph, by the matrix-tree determinant of its both-ways unit digraph at
    vertex `root` (every tree has one orientation towards the root)."""
    def count(m, root):
        arcs = []
        for e in range(m.n_edges):
            u, v = m.endpoints(e)
            arcs += [Arc(u, v, 1.0), Arc(v, u, 1.0)]
        return count_osts(WeightedDigraph(tuple(range(m.n_vertices)),
                                          tuple(arcs)), root)
    return count


@pytest.fixture(scope="session")
def squared_ising_report():
    """report(p): the squared-Ising identity of a corpus chain p checked by
    enumeration at four coupling vectors, J = critical and three positive
    vectors drawn from seed 11.  Per J it checks
    Z_Ising(J)^2 = 2^|V| prod_e cosh(2 J_e) * Z_dimer(G^Q, nu(J)), Z_Ising
    by full spin enumeration and Z_dimer by `dimer_Z`, and the Kac-Ward
    value of Z_Ising^2 against the spin sum, both to SQUARED_ISING_TOL."""
    def report(p):
        rng = random.Random(11)
        trials = [("critical", critical_couplings(p.iso))]
        for k in range(3):
            trials.append(("sample-%d" % (k + 1),
                           tuple(rng.uniform(0.15, 1.2)
                                 for _ in range(p.m.n_edges))))
        rep = Report()
        for label, J in trials:
            zi = ising_Z(p.m, J)
            zi2 = zi * zi
            rhs = (2 ** p.m.n_vertices
                   * math.prod(math.cosh(2.0 * j) for j in J)
                   * dimer_Z(p.gq, dimer_weights(J, p.gq)))
            rep.add(check("squared-ising[%s]" % label, zi2, rhs,
                          SQUARED_ISING_TOL))
            rep.add(check("ising-Z2[kac-ward-vs-spins, %s]" % label,
                          kac_ward_Z2(p.m, J), zi2, SQUARED_ISING_TOL))
        return rep
    return report
