"""Combinatorial map construction, validation, duality, isomorphism."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isingtree.derived import extended_double
from isingtree.generators import cycle, grid, rhombic
from isingtree.maps import (DegreeTooLowError, DisconnectedError, MapError,
                            NonPlanarError, NotSimpleError, PlanarMap,
                            _orbits, build_map, canonical_key, dual_map,
                            is_isomorphic, map_from_rotations,
                            validate_simple_input)


def square(edge_order=(0, 1, 2, 3)):
    """C4 built by hand; edge_order permutes the edge indices to exercise
    labelling invariance."""
    pos = {edge_order[i]: i for i in range(4)}   # edge k joins k, k + 1
    rotations = {k: [pos[(k - 1) % 4], pos[k]] for k in range(4)}
    return build_map(rotations, (0, pos[3]))


def test_square_counts():
    m = square()
    assert (m.n_vertices, m.n_edges, len(m.faces)) == (4, 4, 2)
    assert m.euler_characteristic() == 2
    assert all(len(m.vertices[v]) == 2 for v in range(4))
    assert len(m.outer_orbit) == 4


def test_triangle_counts():
    m, _ = cycle(3)
    assert (m.n_vertices, m.n_edges, len(m.faces)) == (3, 3, 2)


def test_grid_counts():
    m, _ = grid(3, 3)
    assert (m.n_vertices, m.n_edges, len(m.faces)) == (9, 12, 5)
    assert len({d >> 1 for d in m.outer_orbit}) == 8


def test_involution_and_orbit_consistency(pipelines):
    for p in pipelines.values():
        m = p.m
        for d in range(2 * m.n_edges):
            assert m.sigma[m.phi[d]] ^ 1 == d
            # phi keeps the face, sigma keeps the vertex
            assert m.face_of[m.phi[d]] == m.face_of[d]
            assert m.vertex_of[m.sigma[d]] == m.vertex_of[d]


def test_outer_orbit_is_a_face(pipelines):
    for p in pipelines.values():
        m = p.m
        orbit = m.outer_orbit
        assert set(orbit) == set(m.faces[m.outer_face])
        assert all(m.is_outer_dart(d) for d in orbit)
        walked = [orbit[0]]
        while len(walked) < len(orbit):
            walked.append(m.phi[walked[-1]])
        assert set(walked) == set(orbit)


def test_loop_rejected():
    with pytest.raises(NotSimpleError):
        build_map({0: [0, 0]}, (0, 0))


def test_parallel_edge_rejected():
    with pytest.raises(NotSimpleError):
        build_map({0: [0, 1], 1: [1, 0]}, (0, 0))


def test_degree_one_rejected():
    with pytest.raises(DegreeTooLowError):
        build_map({0: [0], 1: [0, 1], 2: [1]}, (0, 0))


def test_isolated_vertex_rejected():
    rot = {0: [2, 0], 1: [0, 1], 2: [1, 2], 9: []}
    with pytest.raises(DegreeTooLowError):
        build_map(rot, (0, 2))


def test_disconnected_rejected():
    rot = {0: [2, 0], 1: [0, 1], 2: [1, 2],
           3: [5, 3], 4: [3, 4], 5: [4, 5]}
    with pytest.raises(DisconnectedError):
        build_map(rot, (0, 2))


def test_k5_rejected_as_nonplanar():
    # every rotation system of K5 has genus >= 1, so Euler's count fails
    edges = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    rot = {v: [i for i, (a, b) in enumerate(edges) if v in (a, b)]
           for v in range(5)}
    with pytest.raises(NonPlanarError):
        build_map(rot, (0, 0))


def test_map_from_rotations_requires_two_occurrences():
    with pytest.raises(MapError):
        map_from_rotations({0: ["a"], 1: ["a", "b"]}, (0, "a"))
    with pytest.raises(MapError):
        map_from_rotations({0: ["a", "b"], 1: ["a", "b"]}, (0, "missing"))
    # the first bad key in order of first appearance is named, though c's
    # third occurrence is read before the scan ends
    with pytest.raises(MapError,
                       match=r"^edge key 'a' occurs 1 times \(want 2\)$"):
        map_from_rotations({0: ["a", "b", "c"], 1: ["b", "c", "c"]}, (0, "b"))


def test_an_unknown_outer_vertex_is_a_map_error():
    triangle = {0: [0, 1], 1: [1, 2], 2: [2, 0]}
    # the same error as an outer edge missing at a listed vertex
    with pytest.raises(MapError, match=r"^outer dart \(0, 2\) not found$"):
        build_map(triangle, (0, 2))
    with pytest.raises(MapError, match=r"^outer dart \(5, 0\) not found$"):
        build_map(triangle, (5, 0))
    with pytest.raises(MapError, match=r"^outer dart \('x', 0\) not found$"):
        map_from_rotations(triangle, ("x", 0))


def test_map_from_rotations_loop_occurrence():
    # a loop plus a digon: legal as a bare map, rejected as simple input
    m = map_from_rotations({0: ["l", "l", "a", "b"], 1: ["b", "a"]}, (0, "l"))
    assert (m.n_vertices, m.n_edges) == (2, 3)
    # the outer dart is the loop's first occurrence, dart 0, not its second
    assert m.outer_dart == 0
    with pytest.raises(NotSimpleError):
        validate_simple_input(m)


def test_map_from_rotations_leaves_out_empty_rotations():
    m = map_from_rotations({0: ["a", "b"], "x": [], 1: ["b", "a"]}, (0, "a"),
                           tags={0: "p", "x": "q", 1: "r"})
    assert m.vertex_keys == (0, 1) and m.tags == ("p", "r")
    assert m.n_vertices == 2


def test_validate_simple_input_accepts_corpus(pipelines):
    for p in pipelines.values():
        assert validate_simple_input(p.m) is p.m


def test_validate_simple_input_parallel():
    m = map_from_rotations({0: ["a", "b"], 1: ["b", "a"]}, (0, "a"))
    with pytest.raises(NotSimpleError):
        validate_simple_input(m)


def test_validate_simple_input_names_the_first_bad_edge():
    # edges by id: a 0-1, c 0-2, b 1-2, then the loop l at 2
    m = map_from_rotations({0: ["a", "c"], 1: ["b", "a"],
                            2: ["c", "l", "l", "b"]}, (0, "a"))
    with pytest.raises(NotSimpleError, match="^loop at vertex 2$"):
        validate_simple_input(m)
    # edges by id: a 0-1, then the pairs d, e on 0-2 and b, c on 1-2
    m = map_from_rotations({0: ["a", "d", "e"], 1: ["b", "c", "a"],
                            2: ["c", "b", "e", "d"]}, (0, "a"))
    with pytest.raises(NotSimpleError,
                       match="^parallel edge between 0 and 2$"):
        validate_simple_input(m)
    # a digon whose edges run 0 -> 1 and 1 -> 0: the ends as the edge has them
    with pytest.raises(NotSimpleError,
                       match="^parallel edge between 1 and 0$"):
        validate_simple_input(PlanarMap([3, 2, 1, 0], 0))


def test_dual_of_triangle():
    m, _ = cycle(3)
    d = dual_map(m)
    assert (d.n_vertices, d.n_edges, len(d.faces)) == (2, 3, 3)
    # every dual edge joins the same two vertices: a triple edge
    assert {frozenset(d.endpoints(e)) for e in range(3)} == {frozenset((0, 1))}


def test_dual_of_grid():
    m, _ = grid(3, 3)
    d = dual_map(m)
    assert (d.n_vertices, d.n_edges, len(d.faces)) == (5, 12, 9)


def test_dual_is_an_involution(pipelines):
    for p in pipelines.values():
        assert is_isomorphic(dual_map(dual_map(p.m)), p.m)


@pytest.mark.parametrize("order", [(0, 1, 2, 3), (2, 0, 3, 1), (3, 2, 1, 0)])
def test_canonical_key_ignores_labelling(order):
    assert canonical_key(square(order)) == canonical_key(square())


def test_canonical_key_separates_cycles():
    assert not is_isomorphic(cycle(3)[0], cycle(4)[0])


def full_anchor_key(m):
    """Breadth-first relabeling from every dart, the minimal encoding of
    sigma and alpha followed by the outer face's least label: a canonical
    key with no reliance on the outer face to pick the anchors."""
    best = None
    for anchor in range(len(m.sigma)):
        labels = {anchor: 0}
        order = [anchor]
        for d in order:
            for nxt in (m.sigma[d], d ^ 1):
                if nxt not in labels:
                    labels[nxt] = len(order)
                    order.append(nxt)
        enc = [x for d in order for x in (labels[m.sigma[d]], labels[d ^ 1])]
        key = (*enc, min(labels[d] for d in m.outer_orbit))
        best = key if best is None else min(best, key)
    return best


def test_canonical_key_agrees_with_every_anchor_on_every_rerooting():
    c3, _ = cycle(3)
    maps = [cycle(5)[0], grid(3, 3)[0], dual_map(grid(2, 3)[0]),
            extended_double(c3), rhombic(2, 3, 0.2)[0]]
    # one map per (map, face) pair: every choice of outer face of each
    rerooted = [m.with_outer_dart(rot[0]) for m in maps for rot in m.faces]
    keys = [canonical_key(m) for m in rerooted]
    ref = [full_anchor_key(m) for m in rerooted]
    for m, key in zip(rerooted, keys):
        # sigma and alpha only: the anchor, label 0, marks the outer face
        assert len(key) == 2 * len(m.sigma)
    same = [[a == b for b in keys] for a in keys]
    assert same == [[a == b for b in ref] for a in ref]
    # rerootings are not all apart: C5's two faces, grid 3x3's corners
    assert sum(map(sum, same)) > len(keys)


def test_outer_face_choice_matters():
    m, _ = grid(3, 3)
    inner = next(f for f in range(len(m.faces)) if f != m.outer_face)
    d = m.faces[inner][0]
    rerooted = m.with_outer_dart(d)
    assert not is_isomorphic(rerooted, m)
    assert rerooted.outer_dart == d
    assert rerooted.outer_face == m.face_of[d] == inner
    assert rerooted.sigma == m.sigma
    assert rerooted.coords == m.coords
    assert rerooted.vertex_keys == m.vertex_keys
    assert rerooted.edge_keys == m.edge_keys


def test_key_ends_is_built_once_and_kept_by_rerooting():
    dd = extended_double(grid(3, 3)[0])
    ends = dd.key_ends
    assert dd.key_ends is ends
    assert ends == {dd.edge_keys[e]: dd.endpoints(e) for e in range(dd.n_edges)}
    moved = dd.with_outer_dart(dd.faces[0][0])
    assert moved.key_ends == ends


def _orbit_of(perm, start):
    orbit, d = [start], perm[start]
    while d != start:
        orbit.append(d)
        d = perm[d]
    return tuple(orbit)


permutations = st.integers(1, 12).flatmap(
    lambda k: st.permutations(range(2 * k)))


@given(permutations)
def test_orbits_of_any_permutation(sigma):
    m = PlanarMap(sigma, 0)
    n = len(sigma)
    assert m.sigma_inv == tuple(sorted(range(n), key=sigma.__getitem__))
    phi = m.phi
    assert phi == tuple(m.sigma_inv[d ^ 1] for d in range(n))
    for perm, orbits, orbit_of in ((sigma, m.vertices, m.vertex_of),
                                   (phi, m.faces, m.face_of)):
        assert [orb[0] for orb in orbits] == sorted(orb[0] for orb in orbits)
        assert all(orb[0] == min(orb) for orb in orbits)
        assert sorted(d for orb in orbits for d in orb) == list(range(n))
        for i, orb in enumerate(orbits):
            assert orb == _orbit_of(perm, orb[0])
            assert all(orbit_of[d] == i for d in orb)
    assert m.outer_face == m.face_of[0]


@given(permutations, st.data())
def test_a_bad_sigma_entry_is_a_map_error(sigma, data):
    n = len(sigma)
    bad = list(sigma)
    i = data.draw(st.integers(0, n - 1))
    bad[i] = data.draw(st.one_of(
        st.sampled_from([sigma[j] for j in range(n) if j != i]),  # duplicate
        st.integers(n, 3 * n),                                     # too big
        st.integers(-3 * n, -1)))                                  # negative
    with pytest.raises(MapError, match="sigma is not a permutation of 0..%d"
                       % (n - 1)):
        PlanarMap(bad, 0)


@pytest.mark.parametrize("sigma", [
    (1, "a"), (None, 0), (1.5, 0), (0.0, 1.0), ((0,), 1)])
def test_a_non_integer_sigma_entry_is_a_map_error(sigma):
    with pytest.raises(MapError, match="sigma is not a permutation of 0..1"):
        PlanarMap(sigma, 0)


def test_outer_dart_must_be_a_dart():
    for sigma, outer in [((), 0), ((1, 0), 5), ((1, 0), 2), ((1, 0), -1)]:
        with pytest.raises(MapError, match="outer dart %d is not in 0..%d"
                           % (outer, len(sigma) - 1)):
            PlanarMap(sigma, outer)
    m = PlanarMap((1, 0), 1)   # the last dart
    assert m.outer_face == m.face_of[1] != m.face_of[0]
    m = PlanarMap((1, 0), 0)
    for d in (-1, 2, 5):
        with pytest.raises(MapError, match="outer dart %d is not in 0..1" % d):
            m.with_outer_dart(d)
    assert m.with_outer_dart(1).outer_face == m.face_of[1]


def test_orbits_of_a_non_permutation_raise_instead_of_looping():
    # 0 -> 1 -> 1 never returns to 0: a walk that waited for it never ends
    with pytest.raises(MapError, match="1 is the image of two elements"):
        _orbits((1, 1))
    with pytest.raises(MapError, match="2 is the image of two elements"):
        _orbits((1, 2, 2, 0))
