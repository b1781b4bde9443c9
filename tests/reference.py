"""Reference enumerations the tests check the package against.

Configurations one at a time, where the package only sums them: every
perfect matching (`enumerate_matchings`, the search `oracles.dimer_Z`
merges by matched set), every oriented spanning tree (`enumerate_osts`, the
search `oracles.ost_Z` sums), and a cofactor-expansion determinant
(`det_cofactor`) beside the sparse LU kernel.  Each search reads
`oracles.STATE_CAP` when it starts, so ``monkeypatch.setattr(oracles,
"STATE_CAP", n)`` caps it as it caps the package's own searches.
"""

from __future__ import annotations

from itertools import compress
from typing import Hashable, Iterator, Sequence

from isingtree import oracles
from isingtree.maps import PlanarMap
from isingtree.oracles import (TooLargeError, WeightedDigraph,
                               _lower_incidences, _ost_args, _osts)


def enumerate_matchings(m: PlanarMap,
                        skip_vertex: int | None = None) -> Iterator[tuple[int, ...]]:
    """All perfect matchings (as sorted edge-id tuples), optionally of the
    graph minus one vertex.  Yields nothing when no perfect matching exists
    (in particular for odd vertex counts).

    Backtracking on an explicit stack: the first unmatched vertex is matched
    along each free incident edge in edge order; each partial state costs
    one unit of the state cap."""
    incid = _lower_incidences(m, skip_vertex)
    n = len(incid)
    if n % 2:
        return
    budget = oracles.STATE_CAP - 1
    if budget < 0:
        raise TooLargeError("matching enumeration exceeded the state cap")
    if n == 0:
        yield ()
        return
    matched = [False] * (n + 1)   # matched[n] stays False: a scan sentinel
    matched[0] = True
    chosen: list[int] = []
    # one frame per matched pair: the first unmatched vertex v, its
    # incidences still to try and the partner of the pair that led to it
    # (the sentinel n for the first); the live frame is held in locals, the
    # ones below it in saved
    v, todo, back = 0, iter(incid[0]), n
    saved: list[tuple] = []
    while True:
        for e, o in todo:
            if not matched[o]:
                break
        else:
            matched[v] = matched[back] = False
            if not saved:
                return
            chosen.pop()   # undo the pair that led to this frame
            v, todo, back = saved.pop()
            continue
        matched[o] = True
        chosen.append(e)
        budget -= 1
        if budget < 0:
            raise TooLargeError("matching enumeration exceeded the state cap")
        u = v + 1
        while matched[u]:
            u += 1
        if u == n:
            yield tuple(sorted(chosen))
            chosen.pop()
            matched[o] = False
        else:
            matched[u] = True
            saved.append((v, todo, back))
            v, todo, back = u, iter(incid[u]), o


def enumerate_osts(g: WeightedDigraph, root: Hashable) -> Iterator[tuple[int, ...]]:
    """All spanning trees oriented towards `root`: every non-root node keeps
    exactly one out-arc and following out-arcs always reaches the root.
    Yields tuples of arc indices, one per non-root node in the search order
    of `_ost_args` (fewest out-arcs first, ties in node order), the trees
    in the order that search finds them.

    Backtracking on an explicit stack, one depth per non-root node; each
    partial state costs one unit of the state cap."""
    for chosen, _ in _osts(*_ost_args(g, root)):
        yield tuple(chosen)


def det_cofactor(rows: Sequence[Sequence[complex]]) -> complex:
    """Cofactor-expansion determinant (independent cross-check, n <= 7)."""
    n = len(rows)
    if n > 7:
        raise TooLargeError("cofactor oracle limited to n <= 7")
    if n == 0:
        return 1.0 + 0j
    if n == 1:
        return complex(rows[0][0])
    total = 0j
    for j in compress(range(n), rows[0]):
        sub = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * complex(rows[0][j]) * det_cofactor(sub)
    return total
