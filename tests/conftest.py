"""Shared fixtures: the three-graph corpus and its chains.

Each corpus graph gets one `Chain` per session, whose stages (quadri-tiling,
Kasteleyn matrix, corner graphs, extended double, extended pair) are built
the first time a test reads them; the objects are all immutable, so sharing
is safe.
"""

import pytest

from isingtree import correspondence as co
from isingtree.generators import cycle, grid

CORPUS = {"C3": lambda: cycle(3), "C4": lambda: cycle(4),
          "grid": lambda: grid(3, 3)}


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
