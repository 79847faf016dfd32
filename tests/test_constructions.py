import pytest

from conleylab import (attractor, catalog, complexes as cxm,
                       constructions as cons, flow as flm, spaces as spm)


def circle_with_arc(m=12):
    """Circle circulation with a whisker arc glued at the seam vertex.

    The arc drains into the sink band, so its inner cell joins the basin as
    a second, uniform component while the circulation component stays
    homoclinic."""
    pt = spm.point()
    base = spm.mapping_torus(pt, None, m)
    cells = dict(base.cells)
    bnd = {c: dict(base.boundary[c]) for c in base.cells}
    cells.update({"arc:v:0": 0, "arc:v:1": 0, "arc:e:0": 1, "arc:e:1": 1})
    bnd["arc:v:0"] = {}
    bnd["arc:v:1"] = {}
    bnd["arc:e:0"] = {"arc:v:0": 1, "v:0@v0": -1}
    bnd["arc:e:1"] = {"arc:v:1": 1, "arc:v:0": -1}
    cx = cxm.CellComplex("circle-arc(%d)" % m, cells, bnd)
    tops = ["v:0@e%d" % i for i in range(m)]
    succ = {}
    for i, c in enumerate(tops):
        if i == 0:
            succ[c] = [c, tops[1]]
        elif i == m - 1:
            succ[c] = [c]
        else:
            succ[c] = [tops[i + 1]]
    succ["arc:e:0"] = [tops[-1]]
    succ["arc:e:1"] = ["arc:e:0", "arc:e:1"]
    flow = flm.CombinatorialFlow(cx, succ, name="circle-arc")
    return flow, sorted([tops[-1], tops[0]])


def embedded_annulus(rows=8, cols=12, band=(2, 5)):
    """Annulus circulation as a latitude band of a sphere, fed from outside.

    Away from the band everything drains toward it, the caps repel, and the
    verdict matches the free-standing annulus circulation."""
    lo, hi = band
    if not (0 < lo <= hi < rows - 1):
        raise cons.ConstructionError("bad-host", "band must be interior")
    cx = spm.sphere(rows, cols)
    succ = {"cap:n": ["cap:n"] + ["f:0,%d" % l for l in range(cols)],
            "cap:s": ["cap:s"] + ["f:%d,%d" % (rows - 1, l)
                                  for l in range(cols)]}
    for r in range(rows):
        for l in range(cols):
            c = "f:%d,%d" % (r, l)
            if r < lo:
                succ[c] = ["f:%d,%d" % (r + 1, l)]
            elif r > hi:
                succ[c] = ["f:%d,%d" % (r - 1, l)]
            elif l == cols - 1:
                succ[c] = [c]
            elif l == 0:
                succ[c] = [c, "f:%d,1" % r]
            else:
                succ[c] = ["f:%d,%d" % (r, l + 1)]
    flow = flm.CombinatorialFlow(cx, succ, name="embedded-annulus")
    k = ["f:%d,%d" % (r, l) for r in range(lo, hi + 1) for l in (0, cols - 1)]
    return flow, sorted(k)


def test_example_general_needs_a_mapping_torus():
    with pytest.raises(cons.ConstructionError) as ei:
        cons.example_general(spm.sphere(3, 6))
    assert ei.value.code == "bad-host"


def test_homoclinic_sphere_size_guard():
    with pytest.raises(cons.ConstructionError) as ei:
        cons.homoclinic_sphere(2, 8)
    assert ei.value.code == "bad-host"


def test_circle_with_arc():
    # attractor on the circle with a whisker arc attached: the arc adds a
    # second basin component, so s exceeds the manifold bound rank H^0(K)
    flow, k = circle_with_arc(12)
    rep = attractor.analyze(flow, k)
    assert rep.classification == "NoExternalExplosions"
    assert rep.r == 1 and rep.s == 2
    assert not rep.global_attractor


def test_example_over_interval_fiber():
    # the closed-annulus phase space: same engine construction, fiber an arc
    fiber = spm.interval(3)
    mt = spm.mapping_torus(fiber, None, 12)
    flow, k = cons.example_general(mt)
    rep = attractor.analyze(flow, k)
    assert rep.classification == "NoExternalExplosions"
    assert rep.r == 1 and rep.s == 1
    assert rep.global_attractor


def test_capped_annulus_not_isolated():
    flow, k = cons.capped_annulus(5, 10)
    with pytest.raises(attractor.NotIsolatedError):
        attractor.analyze(flow, k)


def test_embedded_annulus_keeps_verdict_with_euler_mismatch():
    # the band flow extends over a sphere with frozen caps; the verdict
    # stays NoExternalExplosions even though chi(K) != chi(basin closure),
    # because the basin omits the caps and the surface Euler test assumes
    # a flow defined on all of M
    flow, k = embedded_annulus()
    rep = attractor.analyze(flow, k)
    assert rep.classification == "NoExternalExplosions"
    cx = flow.cx
    assert cx.euler(cx.closure(k)) == 1
    assert cx.euler(cx.closure(rep.basin)) == 0


def test_add_uniform_component_raises_s_not_r():
    entry = catalog.build("hypersurface-genus2")
    flow, k = entry["flow"], entry["k"]
    base = attractor.analyze(flow, k)
    f1, k1 = cons.add_uniform_component(flow, k)
    f2, k2 = cons.add_uniform_component(f1, k1)
    grown = attractor.analyze(f2, k2)
    assert (base.r, base.s) == (1, 1)
    assert (grown.r, grown.s) == (1, 3)
    # the host surface offers two strip targets; the third attach fails
    with pytest.raises(cons.ConstructionError) as ei:
        cons.add_uniform_component(f2, k2)
    assert ei.value.code == "no-room"


def test_hypersurface_needs_nonseparating_cycle():
    sp = spm.sphere(4, 8)
    z = ["eh:2,%d" % l for l in range(8)]
    with pytest.raises(cons.ConstructionError) as ei:
        cons.hypersurface_flow(sp, z)
    assert ei.value.code == "separating-cycle"


@pytest.mark.parametrize("cx, z", [
    # the core circle of a Klein bottle has a Moebius band for its collar
    (spm.klein(8), ["v:0@e%d" % i for i in range(8)]),
    # an arc of a torus circle: the collar wraps round its two ends
    (spm.torus(8), ["e:%d@v6" % l for l in range(7)]),
    # a circle with a tail: the tail's two cofaces lie on one side
    (spm.torus(8), ["e:%d@v6" % l for l in range(8)] + ["v:0@e6"]),
])
def test_hypersurface_needs_two_sided_cycle(cx, z):
    with pytest.raises(cons.ConstructionError) as ei:
        cons.hypersurface_flow(cx, z)
    assert ei.value.code == "one-sided"


def test_hypersurface_torus_attractor_is_complement_of_band():
    entry = catalog.build("hypersurface-torus")
    rep = attractor.analyze(entry["flow"], entry["k"])
    assert rep.classification == "NoExternalExplosions"
    assert rep.r == 1 and rep.s == 1 and rep.global_attractor
