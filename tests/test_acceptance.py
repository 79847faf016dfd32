"""The acceptance gate: one test per criterion, numbered.

Each test recomputes its criterion from scratch through the public API.
The terminal summary hook in conftest.py prints one pass/fail line per
criterion at the end of the run.
"""

import json
import time

import pytest

from conleylab import algebra, attractor, blocks, catalog, cli, theorems
from test_flow import j_minus, j_plus, shared_entry

NOEXT = "NoExternalExplosions"


def _population():
    out = []
    for name in catalog.names():
        entry = shared_entry(name)
        if not entry["k"] or entry["expected"].get("error"):
            continue
        out.append((entry, catalog.analysis(entry)))
    return out


def test_criterion_01_torus_pipeline_res16():
    t0 = time.time()
    entry = catalog.build("example22-torus", 16)
    rep = attractor.analyze(entry["flow"], entry["k"])
    elapsed = time.time() - t0
    assert rep.classification == NOEXT
    assert rep.r == 1 and rep.s == 1
    assert rep.global_attractor
    assert elapsed < 5.0


def test_criterion_02_pair_polynomials():
    pinned = {"example22-torus": "t^2 + t",
              "hypersurface-genus2-two": "2t^2 + 2t"}
    for name, want in pinned.items():
        entry = shared_entry(name)
        cx = entry["flow"].cx
        p = algebra.poincare_polynomial(cx, rel=cx.closure(entry["k"]),
                                        ring="z2")
        assert algebra.poly_to_string(p) == want
        rep = catalog.analysis(entry)
        assert p[cx.top_dim] == rep.r
        assert algebra.poly_symmetric(p, cx.top_dim)


def test_criterion_03_component_bounds_everywhere():
    swept = 0
    for entry, rep in _population():
        if rep.classification != NOEXT:
            continue
        cx = entry["flow"].cx
        d = cx.top_dim
        sub = cx.subcomplex(cx.closure(entry["k"]))
        ranks = algebra.cohomology_ranks(sub, ring="z2")
        bound = ranks[d - 1] if d - 1 < len(ranks) else 0
        assert rep.r <= rep.s <= bound, entry["name"]
        assert all(r == 0 for r in ranks[d:]), entry["name"]
        swept += 1
    assert swept >= 8


def test_criterion_04_euler_test_both_directions():
    surface_flows = 0
    for entry, rep in _population():
        cx = entry["flow"].cx
        if not cx.is_closed_surface():
            continue
        surface_flows += 1
        chi_k = cx.euler(cx.closure(entry["k"]))
        chi_b = cx.euler(cx.closure(rep.basin))
        agree = rep.classification in ("Stable", NOEXT)
        assert (chi_k == chi_b) == agree, entry["name"]
    assert surface_flows >= 6


def test_criterion_05_first_cohomology_and_chi():
    pinned = {"example22-torus": ("z", 1),
              "hypersurface-genus2": ("z", 3),
              "example22-klein": ("z2", 1)}
    for name, (ring, want) in pinned.items():
        entry = shared_entry(name)
        cx = entry["flow"].cx
        sub = cx.subcomplex(cx.closure(entry["k"]))
        assert algebra.cohomology_ranks(sub, ring=ring)[1] == want, name
    for entry, rep in _population():
        cx = entry["flow"].cx
        if not cx.is_closed_surface():
            continue
        unstable = rep.stabilization != rep.k
        if rep.classification == NOEXT and rep.global_attractor and unstable:
            assert cx.euler() <= 0, entry["name"]


def test_criterion_06_obstruction_report():
    from conleylab.spaces import rp2, sphere, torus
    zero = theorems.NO_UNSTABLE
    rec = theorems.obstruction_report(sphere(2, 6), "z2")
    assert rec["r_max"] == 0 and rec["verdict"] == zero
    rec = theorems.obstruction_report(rp2(), "z2")
    assert rec["r_max"] == 0 and rec["verdict"] == zero
    rec = theorems.obstruction_report(torus(6), "z2")
    assert rec["r_max"] == 1 and rec["verdict"] == theorems.AT_MOST % 1
    g2 = shared_entry("hypersurface-genus2")["flow"].cx
    rec = theorems.obstruction_report(g2, "z2")
    assert rec["r_max"] == 2 and rec["verdict"] == theorems.AT_MOST % 2


def test_criterion_07_shape_obstruction():
    data = theorems.shape_obstruction([1, 3, 3, 1], [1, 0, 1, 0], 1)
    assert data["verdict"] == "forced external explosions"
    assert data["feasible"] == []
    assert data["candidates"] == ["t^3 + 2t^2 + 3t", "2t^3 + 3t^2 + 3t"]
    data = theorems.shape_obstruction([1, 2, 2, 1], [1, 1, 1, 0], 1,
                                      ring="z2")
    assert data["verdict"] == "consistent"
    assert data["feasible"] == ["t^3 + t^2 + t"]
    section = {0: 1, 1: 1, 2: 1}
    assert algebra.poly_to_string(section) == "t^2 + t + 1"
    assert algebra.poly_to_string(algebra.poly_mul_t(section)) \
        == "t^3 + t^2 + t"


def test_criterion_08_conley_euler_on_surface_blocks():
    swept = 0
    for entry, rep in _population():
        cx = entry["flow"].cx
        if not cx.is_closed_surface() or rep.classification != NOEXT:
            continue
        blk = blocks.build_block(entry["flow"], entry["k"])
        assert blocks.conley_euler(blk) == cx.euler(cx.closure(entry["k"])), \
            entry["name"]
        swept += 1
    assert swept >= 4


def test_criterion_09_duality_suites():
    from conleylab.spaces import circle, point, torus
    # block duality over z2 on every regular surface block
    regular_blocks = 0
    for entry, rep in _population():
        cx = entry["flow"].cx
        if not cx.is_closed_surface():
            continue
        blk = blocks.build_block(entry["flow"], entry["k"])
        if not blk.regular:
            continue
        regular_blocks += 1
        sub = blocks.block_subcomplex(blk)
        rim = cx.closure(set(blk.boundary_faces()))
        co = algebra.cohomology_ranks(sub, ring="z2", rel=rim)
        ho = [h["rank"] for h in algebra.homology(sub, ring="z2")]
        co = co + [0] * (3 - len(co))
        ho = ho + [0] * (3 - len(ho))
        assert all(co[k] == ho[2 - k] for k in range(3)), entry["name"]
    assert regular_blocks >= 4
    # suspension shift for point, circle, torus
    for x in (point(), circle(6), torus(4)):
        pair, base = algebra.suspension_pair_homology(x, ring="z")
        assert pair[0]["rank"] == 0
        for k in range(1, len(pair)):
            want = base[k - 1]["rank"] if k - 1 < len(base) else 0
            assert pair[k]["rank"] == want, x.name
    # polynomial invariance on two recipe pairs rebuilt at finer grids
    for name in ("example22-torus", "example22-klein"):
        _, default, minimum = catalog._RECIPES[name]
        polys = []
        for res in (minimum, 2 * minimum):
            entry = shared_entry(name, res)
            cx = entry["flow"].cx
            p = algebra.poincare_polynomial(cx, rel=cx.closure(entry["k"]),
                                            ring="z2")
            polys.append(algebra.poly_to_string(p))
        assert polys[0] == polys[1], name


def test_criterion_10_exhaustive_jduality():
    t0 = time.time()
    for entry, rep in _population():
        flow = entry["flow"]
        tops = sorted(flow.tops)
        assert len(tops) <= 2000
        jp = {x: j_plus(flow, x) for x in tops}
        jm = {x: j_minus(flow, x) for x in tops}
        for x in tops:
            for y in tops:
                assert jp[x].touches(y) == jm[y].touches(x), \
                    (entry["name"], x, y)
    assert time.time() - t0 < 60.0


def test_criterion_11_bundle_fingerprints():
    hom = algebra.homology(shared_entry("example22-torus")["flow"].cx, "z")
    assert [h["rank"] for h in hom] == [1, 2, 1]
    assert all(not h["torsion"] for h in hom)
    hom = algebra.homology(shared_entry("example22-klein")["flow"].cx, "z")
    assert [h["rank"] for h in hom] == [1, 1, 0]
    assert hom[1]["torsion"] == [2]
    hom = algebra.homology(shared_entry("example22-s2xs1")["flow"].cx, "z")
    assert [h["rank"] for h in hom] == [1, 1, 1, 1]
    assert all(not h["torsion"] for h in hom)


def test_criterion_12_verify_determinism(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = cli.main(["verify", "--format", "json", "--out", str(p)])
        assert code == 0
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    results = json.loads(first)
    assert len(results) == len(theorems.check_ids())
    assert all(r["status"] == "pass" for r in results)
