"""Phased adjacency matrix of the quadri-tiling graph and its determinant."""

import cmath
import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import isingtree
from isingtree import correspondence as co
from isingtree.generators import grid, rhombic
from isingtree.kasteleyn import assign_phases, build_kasteleyn, check_flat
from isingtree.oracles import complex_det, dimer_Z, matrix_tree_Z
from isingtree.isoradial import critical_couplings, dimer_weights

DETS = {"C3": -6.75, "C4": 9.0, "grid": 100.20826112068524}


@pytest.mark.parametrize("name", ["C3", "C4", "grid"])
def test_determinant_frozen_values(pipelines, name):
    det = pipelines[name].K.det()
    assert det.real == pytest.approx(DETS[name], rel=1e-12)
    assert abs(det.imag) < 1e-9 * abs(det)


def test_phasing_is_flat_on_every_face(pipelines):
    for p in pipelines.values():
        phases = assign_phases(p.gq, p.iso, p.bnd)
        rep = check_flat(p.gq, phases)
        assert rep.max_deviation < 1e-12
        assert all(abs(c - 1.0) < 1e-12 for c in rep.curvatures)


def test_determinant_equals_dimer_sum(pipelines):
    for p in pipelines.values():
        nu = dimer_weights(critical_couplings(p.iso), p.gq)
        assert abs(p.K.det()) == pytest.approx(abs(dimer_Z(p.gq, nu)), rel=1e-9)


def test_white_row_sums(pipelines):
    # interior whites sum to zero; the white over a boundary corner delta
    # sums to -i e^{-i theta_e} (e^{-i theta_bd} - 1) for its own edge e
    for p in pipelines.values():
        m, K = p.m, p.K
        sig_inv = {m.sigma[d]: d for d in range(len(m.sigma))}
        for i, (_, wd) in enumerate(K.whites):
            rs = sum(K.rows[i].values())
            delta = sig_inv[wd]
            if m.is_outer_dart(delta):
                want = (-1j * cmath.exp(-1j * p.iso.theta[wd >> 1])
                        * (cmath.exp(-1j * p.bnd.theta[delta]) - 1.0))
                assert abs(rs - want) < 1e-12
            else:
                assert abs(rs) < 1e-12


def test_entries_have_prescribed_moduli(c4):
    for i, w in enumerate(c4.K.whites):
        for j, b in enumerate(c4.K.blacks):
            x = c4.K.rows[i].get(j, 0j)
            if x == 0:
                continue
            mod = abs(x)
            th = c4.iso.theta[0]  # all C4 angles equal
            assert min(abs(mod - v)
                       for v in (1.0, math.cos(th), math.sin(th))) < 1e-12


@given(st.floats(min_value=0.0, max_value=2.0 * math.pi))
def test_gauge_phase_on_a_row_keeps_the_modulus(c3, phi):
    rows = [dict(r) for r in c3.K.rows]
    rows[0] = {j: cmath.exp(1j * phi) * x for j, x in rows[0].items()}
    assert abs(complex_det(rows)) == pytest.approx(abs(c3.K.det()), rel=1e-9)


# (det K, matrix_tree_Z(G0), matrix_tree_Z(G)), recorded when a tie in row
# length between pivot candidates stopped going to any larger modulus and
# went to one over 1.5 times larger; exact equality pins the pivot sequence
PINNED = {
    "grid6x6": (grid(6, 6), (
        complex(37021799.76674247, -2.384185791015625e-07),
        complex(37021799.76674227, -1.1616923088530493e-07),
        complex(37021799.766742334, -1.862645149230957e-08))),
    "rhombic6x6": (rhombic(6, 6, Fraction(1, 6)), (
        complex(8464940.202652754, -6.60423713192189e-08),
        complex(8464940.202652792, -1.6946318135121648e-08),
        complex(8464940.202652762, -1.909211277961731e-08))),
    # the det_chain sizes
    "grid10x10": (grid(10, 10), (
        complex(5.129617185730147e+20, -15958016.0),
        complex(5.129617185730095e+20, -2031616.0),
        complex(5.1296171857301314e+20, -1376256.0))),
    "rhombic10x10": (rhombic(10, 10, Fraction(1, 6)), (
        complex(5.894767587219159e+18, -136523.05801539266),
        complex(5.894767587219174e+18, -67584.0),
        complex(5.894767587219203e+18, -65536.0))),
}


def test_rows_are_sparse_and_det_is_unchanged(pipelines):
    for c in [*pipelines.values(), co.Chain(*grid(10, 10))]:
        gq, K = c.gq, c.K
        # row i is white ('w', i) and column j black ('b', j): build_kasteleyn
        # and build_G0 read indices off the edge keys on this alone
        assert K.whites == tuple(("w", i) for i in range(len(K.rows)))
        assert K.blacks == tuple(("b", j) for j in range(len(K.rows)))
        blacks_of = {w: set() for w in K.whites}
        for e in range(gq.n_edges):
            ka, kb = sorted(gq.vertex_keys[v] for v in gq.endpoints(e))
            blacks_of[kb].add(ka)
        for w, row in zip(K.whites, K.rows):
            assert isinstance(row, dict)
            assert list(row) == sorted(row)
            assert all(x != 0 for x in row.values())
            assert {K.blacks[j] for j in row} == blacks_of[w]
    K = co.Chain(*grid(20, 20)).K
    assert sum(map(len, K.rows)) <= 3 * len(K.rows)
    for graph, want in PINNED.values():
        c = co.Chain(*graph)
        got = (c.K.det(), matrix_tree_Z(c.g0.graph, co.ROOT),
               matrix_tree_Z(c.g.graph, co.ROOT))
        assert got == want


def _endpoint_rows(gq, iso, bnd):
    """K's rows rebuilt the long way: each edge's white and black found from
    its endpoints, whites and blacks numbered in sorted key order."""
    phases = assign_phases(gq, iso, bnd)
    keys = gq.vertex_keys
    wi = {k: i for i, k in enumerate(sorted(k for k in keys if k[0] == "w"))}
    bi = {k: i for i, k in enumerate(sorted(k for k in keys if k[0] == "b"))}
    rows = [{} for _ in wi]
    mods = {"cp": math.cos, "cd": math.sin}
    for e, key in enumerate(gq.edge_keys):
        b, w = sorted(keys[v] for v in gq.endpoints(e))   # "b" < "w"
        kind, d = key
        mod = mods[kind](iso.theta[d >> 1]) if kind in mods else 1.0
        r, j = rows[wi[w]], bi[b]
        r[j] = r.get(j, 0j) + mod * cmath.exp(1j * phases[key])
    return rows


def test_rows_equal_an_endpoint_rebuild_bit_for_bit(pipelines):
    chains = [*pipelines.values(), co.Chain(*grid(10, 10)),
              co.Chain(*rhombic(6, 6, Fraction(1, 6)))]
    for c in chains:
        K = build_kasteleyn(c.gq, c.iso, c.bnd)
        want = _endpoint_rows(c.gq, c.iso, c.bnd)
        assert list(K.rows) == want
        assert [list(r) for r in K.rows] == [list(r) for r in want]


DETS_SCRIPT = """
from fractions import Fraction
from isingtree import correspondence as co
from isingtree.generators import grid, rhombic
from isingtree.oracles import matrix_tree_Z
for graph in (grid(10, 10), rhombic(10, 10, Fraction(1, 5))):
    c = co.Chain(*graph)
    print(repr((c.K.det(), matrix_tree_Z(c.g0.graph, co.ROOT),
                matrix_tree_Z(c.g.graph, co.ROOT))))
"""


def test_determinants_do_not_depend_on_hash_seed():
    # a tie between pivot candidates goes to the first in a set of row
    # numbers, whose order depends on the set's layout, not on the hash seed
    src = str(Path(isingtree.__file__).resolve().parents[1])
    outs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", DETS_SCRIPT],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120, check=True)
        outs.append(proc.stdout)
    assert outs[0].count("\n") == 2
    assert outs[0] == outs[1]


# (max deviation, sha256 of repr(curvatures)), recorded when each face
# computed e^{i phi} for both its own darts; the unit-phase table must fold
# the same factors in the same order
FLATNESS = {
    "C3": (6.661338147750939e-16,
           "949c943386ab4ec6f2120f47c86008e472d525d345c95fc354212f1454c04a98"),
    "C4": (7.550332863779061e-16,
           "ea78a59286d6295e6b0e001ef0c0a7fb5a9380ebf67f1ee0a5101737c4064e37"),
    "grid": (9.43689570931383e-16,
             "ffadb9721776f50f3ba2e504614d00e747004e79b7418d963e51844b24c4d0df"),
    "grid10x10": (1.5987211554602254e-14,
                  "312b0ed2d60758a1c9251c97cfb4937ebcc68b0b303705f3ea66a0422241e1be"),
}


def test_flatness_is_pinned(pipelines):
    chains = dict(pipelines, grid10x10=co.Chain(*grid(10, 10)))
    for name, c in chains.items():
        rep = check_flat(c.gq, assign_phases(c.gq, c.iso, c.bnd))
        digest = hashlib.sha256(repr(rep.curvatures).encode()).hexdigest()
        assert (rep.max_deviation, digest) == FLATNESS[name]


def test_verify_judges_the_flatness_of_the_phasing_k_is_built_from(pipelines):
    # verify's flat-phasing check measures the chain's phases stage, with
    # check_flat's floats, and K's entries carry that same phasing
    for p in pipelines.values():
        rep = co.verify_main_theorem(p.m)
        flat, = [ch for ch in rep.checks if ch.name.startswith("flat-phasing")]
        assert flat.lhs == check_flat(p.gq, p.phases).max_deviation
        assert p.K == build_kasteleyn(p.gq, p.iso, p.bnd, p.phases)
    # K reads the stage: a chain given another phasing builds K from it
    c = co.Chain(*grid(3, 3))
    c.phases = zero = dict.fromkeys(c.gq.edge_keys, 0.0)
    assert c.K == build_kasteleyn(c.gq, c.iso, c.bnd, zero)
    assert c.K != build_kasteleyn(c.gq, c.iso, c.bnd)
    assert check_flat(c.gq, zero).max_deviation > 1e-9


@pytest.mark.parametrize("name", ["C3", "C4", "grid"])
def test_squared_ising_identity(pipelines, squared_ising_report, name):
    rep = squared_ising_report(pipelines[name])
    assert rep.passed
    # dimers and Kac-Ward at the critical couplings and three samples
    assert len(rep.checks) == 8
