import copy
import functools
import hashlib
import json
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from conleylab import catalog, complexes as cxm, flow as flm, spaces as spm

NAMED_SPACES = ("torus", "klein", "genus2", "sphere", "rp2", "annulus",
                "s2xs1", "s2xts1", "t3")


def ddzero(cx):
    for c in cx.cells:
        acc = defaultdict(int)
        for f, k in cx.chain(c).items():
            for g, k2 in cx.chain(f).items():
                acc[g] += k * k2
        if any(acc.values()):
            return False
    return True


def chains(cx):
    """Each cell's boundary as the {face: coeff} dict of its two tuples."""
    return {c: cx.chain(c) for c in cx.boundary}


def eager_cofaces(cx):
    """The cofaces of every cell, sorted, from the boundary table alone."""
    cofaces = defaultdict(list)
    for c in sorted(cx.cells):
        for f in cx.boundary[c]:
            cofaces[f].append(c)
    return cofaces


def eager_indexes(cx):
    """Top cofaces and supports of every cell, built from the boundary
    table alone, lowest dimension first. The support of a cell is the set
    of cells with an empty boundary in its closure."""
    top_cofaces = {f: [c for c in cof if cx.cells[c] == cx.top_dim]
                   for f, cof in eager_cofaces(cx).items()}
    verts = {}
    for c in sorted(cx.cells, key=cx.cells.__getitem__):
        verts[c] = (frozenset().union(*(verts[f] for f in cx.boundary[c]))
                    or frozenset([c]))
    return top_cofaces, verts


def support(cx, c):
    """The vertex support of c as a set, once the tuple the complex gives
    is checked to repeat no vertex."""
    vs = cx.vertices_of(c)
    assert type(vs) is tuple and len(set(vs)) == len(vs), (cx.name, c, vs)
    return set(vs)


def test_from_json_leaves_its_body_as_it_was():
    body = cxm.named_space("torus", 3).to_json()
    before = copy.deepcopy(body)
    cx = cxm.CellComplex.from_json(body)
    assert body == before
    assert cx.to_json() == before


def test_lazy_indexes_match_eager_rebuild():
    # a builder may query its complex; a loaded one has built nothing
    loaded = [(n, cxm.CellComplex.from_json(cxm.named_space(n).to_json()))
              for n in NAMED_SPACES]
    loaded.append(("s2-min", cxm.CellComplex("s2-min", {"v": 0, "f": 2},
                                             {}, {})))
    for name, cx in loaded:
        assert not {"_top_cofaces", "_vert_tops"} & set(vars(cx)), name
    # a 1-dimensional flow, whose top cells are edges; the queries below
    # ask for the supports of edges
    circ = spm.circle(6)
    line = flm.CombinatorialFlow(
        cxm.CellComplex.from_json(circ.to_json()),
        {e: sorted(circ.star_tops({e})) for e in circ.top_cells()})
    # and a 3-dimensional flow read from its file body
    s2xs1 = flm.CombinatorialFlow.from_json(
        catalog.build("example22-s2xs1")["flow"].to_json())
    # degenerate complexes of dimensions 1 to 3: a circle of one vertex and
    # one edge whose ends cancel, a disc on it, and each times an interval;
    # in all four some edge has no faces
    loop = cxm.CellComplex("loop", {"v": 0, "e": 1}, {}, {})
    cap = cxm.CellComplex("cap", {"v": 0, "e": 1, "d": 2}, {"d": ("e",)},
                          {"d": (1,)})
    bare = [(cx.name, cx) for cx in
            (loop, cap, spm.product(loop, spm.interval(2)),
             spm.product(cap, spm.interval(2)))]
    assert [cx.top_dim for _, cx in bare] == [1, 2, 2, 3]
    for name, cx in loaded + bare + [("circle flow", line.cx),
                                     ("s2xs1 flow", s2xs1.cx)]:
        top_cofaces, verts = eager_indexes(cx)
        tops = cx.top_cells()
        for c in sorted(cx.cells):
            assert cx.top_cofaces(c) == top_cofaces.get(c, []), (name, c)
            assert support(cx, c) == verts[c], (name, c)
            ring = {t for t in tops if verts[t] & verts[c]}
            if cx.cells[c] == cx.top_dim:
                ring.add(c)
            assert cx.star_tops({c}) == ring, (name, c)
            assert cx.star_tops({c}) == star_tops_by_closure(cx, {c}), \
                (name, c)
        assert list(cx.top_stars()) == [cx.star_tops({t}) for t in tops], \
            name
        # no support is stored: each is derived on its query
        assert "_verts" not in vars(cx), name
    assert s2xs1.cx.top_dim == 3


def star_tops_by_closure(cx, cellset):
    """The closed star by walking the closure of the set and uniting the
    vertex supports of every face in it."""
    cl = cx.closure(cellset)
    vs = set()
    for c in cl:
        vs |= support(cx, c)
    out = set()
    for v in vs:
        out.update(cx._vert_tops.get(v, ()))
    for c in cellset:
        if cx.cells[c] == cx.top_dim:
            out.add(c)
    return out


def ring_by_vertices(cx, c):
    """The one-ring of c by its definition: the top cells whose vertex
    support meets that of c, and c itself when it is a top cell."""
    vc = support(cx, c)
    ring = {t for t in cx.top_cells() if support(cx, t) & vc}
    if cx.cells[c] == cx.top_dim:
        ring.add(c)
    return ring


def star_tops_by_rings(cx, cellset):
    """The closed star as the union of the one-rings of the cells."""
    return set().union(*(ring_by_vertices(cx, c) for c in cellset))


@functools.lru_cache(maxsize=None)
def top_closures(cx):
    return {t: cx.closure((t,)) for t in cx.top_cells()}


def star_tops_by_closure_meet(cx, cellset):
    """The closed star by its definition, from `closure` alone: the top
    cells t with closure({t}) meeting closure(cellset). Unlike the oracles
    above, it goes through no support."""
    cl = cx.closure(cellset)
    return {t for t, ct in top_closures(cx).items() if not cl.isdisjoint(ct)}


def degenerate_complexes():
    """Accepted complexes in which a closure holds no vertex: a sphere as a
    vertex and a disc, and two discs on an edge whose ends cancel, so that
    their closures meet only in that edge."""
    return [cxm.CellComplex("s2-min", {"v": 0, "f": 2}, {}, {}),
            cxm.CellComplex("loop-edge", {"v": 0, "e": 1, "f1": 2, "f2": 2},
                            {"f1": ("e",), "f2": ("e",)},
                            {"f1": (1,), "f2": (-1,)})]


@functools.lru_cache(maxsize=None)
def named(name):
    return cxm.named_space(name)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_star_tops_matches_closure_walk(data):
    cx = named(data.draw(st.sampled_from(NAMED_SPACES)))
    s = set()
    for d in range(cx.top_dim + 1):
        s |= data.draw(st.sets(st.sampled_from(cx.cells_of_dim(d)),
                               min_size=1, max_size=6))
    assert cx.star_tops(s) == star_tops_by_closure(cx, s), cx.name
    assert cx.star_tops(s) == star_tops_by_rings(cx, s), cx.name
    assert cx.star_tops(s) == star_tops_by_closure_meet(cx, s), cx.name


def test_star_tops_matches_the_closure_definition_at_every_cell():
    for cx in [named(n) for n in NAMED_SPACES] + degenerate_complexes():
        for c in sorted(cx.cells):
            assert cx.star_tops((c,)) == star_tops_by_closure_meet(cx, (c,)), \
                (cx.name, c)


def test_star_tops_joins_top_cells_through_a_face_without_vertices():
    cx = degenerate_complexes()[1]
    assert support(cx, "e") == support(cx, "f1") == {"e"}
    assert cx.star_tops(("f1",)) == cx.star_tops(("e",)) == {"f1", "f2"}
    assert cx.star_tops(("v",)) == set()
    # the flow's locality check takes the same stars
    fl = flm.CombinatorialFlow(cx, {"f1": ["f2"], "f2": ["f2"]})
    assert fl.one_ring("f1") == {"f1", "f2"}


def test_star_tops_keeps_a_top_cell_without_vertices():
    # a sphere as one vertex and one 2-cell: the 2-cell's closure holds no
    # vertex, so no vertex star lists it, but it is its own support
    cx = cxm.CellComplex("s2-min", {"v": 0, "f": 2}, {}, {})
    assert support(cx, "f") == {"f"}
    for s in ({"f"}, {"v", "f"}):
        assert cx.star_tops(s) == star_tops_by_rings(cx, s) == {"f"}
    assert cx.star_tops({"v"}) == star_tops_by_rings(cx, {"v"}) == set()


def validate_two_pass(cells, boundary):
    """The complex checks as two sweeps over the cells in the order given:
    first every face of every cell, then del del of every cell. Returns the
    first message, or None for a valid complex."""
    dims = set(cells.values())
    for c, faces in boundary.items():
        dc = cells[c]
        for f, coeff in faces.items():
            if f not in cells:
                return "boundary of %s mentions unknown cell %s" % (c, f)
            if cells[f] != dc - 1:
                return ("boundary of %s (dim %d) mentions %s (dim %d)"
                        % (c, dc, f, cells[f]))
            if coeff == 0:
                return "zero coefficient stored for %s in %s" % (f, c)
    for c, faces in boundary.items():
        if cells[c] - 2 not in dims:
            continue
        acc = {}
        for f, coeff in faces.items():
            for g, coeff2 in boundary[f].items():
                acc[g] = acc.get(g, 0) + coeff * coeff2
        bad = {g: v for g, v in acc.items() if v != 0}
        if bad:
            return "del del != 0 at %s: %r" % (c, bad)
    return None


def components_by_cofaces(cx, cells, cut=()):
    """Components of a set of same-dimension cells by a depth-first walk
    from each face of a cell outside `cut` to every coface of that face in
    the set."""
    cofaces = eager_cofaces(cx)
    cells = set(cells)
    comps = []
    seen = set()
    for start in sorted(cells):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            f = stack.pop()
            for sub in set(cx.boundary[f]).difference(cut):
                for g in cofaces[sub]:
                    if g in cells and g not in seen:
                        seen.add(g)
                        comp.add(g)
                        stack.append(g)
        comps.append(frozenset(comp))
    return comps


def components_by_vertex_pairs(cx, cells, cut=()):
    """Components by testing every pair of cells for a shared vertex
    outside `cut`; on a set of edges that is shared-face adjacency."""
    comps = []
    left = set(cells)
    while left:
        start = min(left)
        comp = {start}
        left.discard(start)
        q = [start]
        while q:
            e = q.pop(0)
            for e2 in tuple(left):
                if (support(cx, e) & support(cx, e2)).difference(cut):
                    left.discard(e2)
                    comp.add(e2)
                    q.append(e2)
        comps.append(frozenset(comp))
    return comps


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_components_match_coface_walk_and_vertex_pairs(data):
    cx = named(data.draw(st.sampled_from(NAMED_SPACES)))
    d = data.draw(st.sampled_from((cx.top_dim, cx.top_dim - 1)))
    pool = cx.cells_of_dim(d)
    s = data.draw(st.sets(st.sampled_from(pool), max_size=len(pool)))
    faces = cx.cells_of_dim(d - 1)
    cut = data.draw(st.sets(st.sampled_from(faces), max_size=len(faces)))
    comps = cx.components(s, cut)
    assert comps == components_by_cofaces(cx, s, cut), (cx.name, d)
    if d == 1:
        assert comps == components_by_vertex_pairs(cx, s, cut), cx.name


@functools.lru_cache(maxsize=None)
def named_json(name):
    return json.dumps(cxm.named_space(name).to_json())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_sweep_validation_matches_two_passes(data):
    body = json.loads(named_json(data.draw(st.sampled_from(NAMED_SPACES))))
    cells = dict(body["cells"])
    ids = sorted(cells)
    faced = sorted(body["boundary"])
    bnd = body["boundary"]
    kind = data.draw(st.sampled_from(("face", "dimension", "coefficient",
                                      "sign")))
    if kind == "dimension":
        c = data.draw(st.sampled_from(ids))
        d = data.draw(st.integers(0, 4).filter(lambda d: d != cells[c]))
        body["cells"] = [[x, d if x == c else dx] for x, dx in body["cells"]]
    else:
        c = data.draw(st.sampled_from(faced))
        i = data.draw(st.integers(0, len(bnd[c]) - 1))
        k = bnd[c][i][1]
        if kind == "face":
            bnd[c][i][0] = data.draw(st.sampled_from(ids + ["nowhere"]))
        elif kind == "coefficient":
            bnd[c][i][1] = data.draw(st.integers(-3, 3).filter(
                lambda x: x != k))
        else:
            bnd[c][i][1] = -k
    cells = dict(body["cells"])
    boundary = {x: dict(bnd.get(x, [])) for x in cells}
    # a face drawn onto another of the same boundary names it twice
    want = body_repeat(body) or validate_two_pass(cells, boundary)
    if want is None:
        cxm.CellComplex.from_json(body)
    else:
        with pytest.raises(cxm.ComplexError) as ei:
            cxm.CellComplex.from_json(body)
        assert str(ei.value) == want, kind


# -- the boundary tables against {face: coeff} chains -------------------------

def body_repeat(body):
    """The message for the first boundary of a body that names a face
    twice, or None."""
    for c, pairs in body.get("boundary", {}).items():
        seen = set()
        for f, _ in pairs:
            if f in seen:
                return "boundary of %s names %s twice" % (c, f)
            seen.add(f)
    return None


def validate_by_dicts(body):
    """The checks of a body's complex on {face: coeff} dicts, as they ran
    when the complex kept each boundary as one: a face named twice first,
    then one sweep, lowest dimension first, after one look at all the
    coefficients, with a face defect reported before any del del != 0,
    each at the first defective cell in the order the cells were given.
    The coefficients are looked at as a list: in a set, 1.0 and True would
    pass as the 1 they equal. The first message, or None for a valid
    complex."""
    repeat = body_repeat(body)
    if repeat:
        return repeat
    cells = dict(body["cells"])
    boundary = {c: dict(body.get("boundary", {}).get(c, [])) for c in cells}
    by_dim = defaultdict(list)
    for c in sorted(cells):
        by_dim[cells[c]].append(c)

    def face_defect():
        for c, faces in boundary.items():
            dc = cells[c]
            for f, coeff in faces.items():
                if f not in cells:
                    return "boundary of %s mentions unknown cell %s" % (c, f)
                if cells[f] != dc - 1:
                    return ("boundary of %s (dim %d) mentions %s (dim %d)"
                            % (c, dc, f, cells[f]))
                if type(coeff) is not int:
                    return ("coefficient of %s in %s is not an integer: %r"
                            % (f, c, coeff))
                if coeff == 0:
                    return "zero coefficient stored for %s in %s" % (f, c)

    coeffs = [k for faces in boundary.values() for k in faces.values()]
    if 0 in coeffs or {type(k) for k in coeffs} - {int}:
        return face_defect()
    dd_bad = {}
    for d in sorted(by_dim):
        chains = [boundary[c] for c in by_dim[d]]
        if {cells.get(f) for faces in chains for f in faces} - {d - 1}:
            return face_defect()
        if d - 2 not in by_dim:
            continue
        for c, faces in zip(by_dim[d], chains):
            acc = {}
            for f, coeff in faces.items():
                for g, coeff2 in boundary[f].items():
                    acc[g] = acc.get(g, 0) + coeff * coeff2
            if any(acc.values()):
                dd_bad[c] = {g: v for g, v in acc.items() if v != 0}
    if dd_bad:
        c = next(c for c in cells if c in dd_bad)
        return "del del != 0 at %s: %r" % (c, dd_bad[c])
    return None


# every named space at three resolutions and every catalog entry at its own
ORACLE_COMPLEXES = ([("space", name, res) for name in NAMED_SPACES
                     for res in (3, 4, 8)]
                    + [("entry", name, None)
                       for name in sorted(catalog._RECIPES)])


@functools.lru_cache(maxsize=None)
def oracle_complex(kind, name, res):
    if kind == "space":
        return cxm.named_space(name, res)
    return catalog.build(name)["flow"].cx


@functools.lru_cache(maxsize=None)
def oracle_json(kind, name, res):
    return json.dumps(oracle_complex(kind, name, res).to_json())


def test_boundary_tables_hold_the_chains_to_json_writes():
    for key in ORACLE_COMPLEXES:
        cx = oracle_complex(*key)
        body = json.loads(oracle_json(*key))
        written = body["boundary"]
        for c in cx.cells:
            faces, coeffs = cx.boundary[c], cx.coefficients[c]
            assert type(faces) is tuple and type(coeffs) is tuple, (key, c)
            assert dict(zip(faces, coeffs)) == dict(written.get(c, [])), \
                (key, c)
        # the oracle and the sweep accept every built complex, and its
        # body reads back to the same tables
        assert validate_by_dicts(body) is None, key
        back = cxm.CellComplex.from_json(body)
        assert chains(back) == chains(cx), key
        assert all(type(faces) is tuple for faces in back.boundary.values())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_sweep_refuses_what_the_dict_oracle_refuses(data):
    key = data.draw(st.sampled_from(ORACLE_COMPLEXES))
    body = json.loads(oracle_json(*key))
    bnd = body["boundary"]
    c = data.draw(st.sampled_from(sorted(bnd)))
    i = data.draw(st.integers(0, len(bnd[c]) - 1))
    kind = data.draw(st.sampled_from(("negate", "drop", "repeat",
                                      "retype")))
    if kind == "negate":
        bnd[c][i][1] = -bnd[c][i][1]
    elif kind == "retype":
        # a float, or a bool, equal to the int it replaces
        k = bnd[c][i][1]
        bnd[c][i][1] = data.draw(st.sampled_from(
            (float(k), True) if k == 1 else (float(k),)))
    elif kind == "drop":
        del bnd[c][i]
    else:
        # the face again, anywhere in the list, with any coefficient
        at = data.draw(st.integers(0, len(bnd[c])))
        coeff = data.draw(st.sampled_from((-1, 1, 2)))
        bnd[c].insert(at, [bnd[c][i][0], coeff])
    want = validate_by_dicts(body)
    if want is None:
        cxm.CellComplex.from_json(body)
    else:
        with pytest.raises(cxm.ComplexError) as ei:
            cxm.CellComplex.from_json(body)
        assert str(ei.value) == want, (key, kind)
    if kind == "repeat":
        assert want == "boundary of %s names %s twice" % (c, bnd[c][at][0])


def test_a_grid_holds_a_handful_of_coefficient_tuples():
    # equal coefficient tuples are one object, whatever the cell count:
    # built, read from a body whole, and read by the flow file reader
    torus = spm.torus(32)
    read = flm.CombinatorialFlow.from_json(flm.rest_flow(torus).to_json())
    for cx in (torus, cxm.CellComplex.from_json(torus.to_json()), read.cx):
        assert len(set(map(id, cx.coefficients.values()))) < 10
        assert all(type(ks) is tuple for ks in cx.coefficients.values())


def test_builder_counts_and_euler():
    t = spm.torus(4)
    assert len(t.cells) == 64 and t.euler() == 0
    assert t.is_closed_surface() and t.is_orientable()

    s = spm.sphere(4, 8)
    assert s.euler() == 2 and s.is_orientable()

    k = spm.klein(4)
    assert k.euler() == 0 and k.is_closed_surface() and not k.is_orientable()

    r = spm.rp2()
    assert r.euler() == 1 and not r.is_orientable()

    c = spm.circle(6)
    assert len(c.cells) == 12 and c.euler() == 0 and c.top_dim == 1

    assert spm.interval(3).euler() == 1
    assert spm.disc(2, 6).euler() == 1
    assert spm.t3(3).euler() == 0 and spm.t3(3).top_dim == 3


def test_orientability_of_surfaces_with_free_faces():
    # the free edges of the rim put no constraint; the twist of the Moebius
    # band clashes through its interior edges alone
    moebius = spm.mapping_torus(spm.interval(2), {
        "v:0": "v:2", "v:1": "v:1", "v:2": "v:0", "e:0": "e:1", "e:1": "e:0"},
        4)
    assert moebius.euler() == 0
    assert not moebius.is_closed_surface() and not moebius.is_orientable()
    for cx in (moebius, spm.annulus(3, 8), spm.disc(3, 6)):
        assert any(len(cx.top_cofaces(e)) == 1 for e in cx.cells_of_dim(1))
    assert spm.annulus(3, 8).is_orientable()
    assert spm.disc(3, 6).is_orientable()


def test_boundary_squares_to_zero():
    for cx in (spm.torus(4), spm.sphere(3, 6), spm.klein(4),
               spm.rp2(), spm.t3(3),
               spm.connected_sum(spm.torus(4), spm.torus(4),
                                 "e:2@e2", "e:2@e2")):
        assert ddzero(cx), cx.name


def test_closure_and_cofaces():
    t = spm.torus(4)
    sq = sorted(t.top_cells())[0]
    cl = t.closure({sq})
    assert len(cl) == 9           # square, 4 edges, 4 vertices
    e = sorted(t.cells_of_dim(1))[0]
    assert len(t.top_cofaces(e)) == 2
    assert set(t.top_cofaces(e)) <= set(t.top_cells())


def test_subcomplex_of_closed_square():
    t = spm.torus(4)
    sq = sorted(t.top_cells())[0]
    sub = t.subcomplex(t.closure({sq}))
    assert len(sub.cells) == 9 and sub.euler() == 1
    assert ddzero(sub)
    # a bare cellset is closed on the way in
    assert len(t.subcomplex({sq}).cells) == 9
    # it is indexed as the constructor indexes it, without the sweep
    sub = t.subcomplex({sq})
    fresh = cxm.CellComplex(sub.name, sub.cells, sub.boundary,
                            sub.coefficients)
    assert (sub._by_dim, sub.top_dim) == (fresh._by_dim, fresh.top_dim)


def test_annulus_two_boundary_circles():
    a = spm.annulus(3, 8)
    assert a.euler() == 0 and not a.is_closed_manifold()
    free = [e for e in a.cells_of_dim(1) if len(a.top_cofaces(e)) == 1]
    assert len(free) == 16
    adj = defaultdict(set)
    for e in free:
        vs = a.vertices_of(e)
        for v in vs:
            adj[v].update(set(vs) - {v})
    seen, comps = set(), 0
    for v in adj:
        if v in seen:
            continue
        comps += 1
        stack = [v]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(adj[u] - seen)
    assert comps == 2


def test_product_torus():
    p = spm.product(spm.circle(4), spm.circle(6))
    assert p.top_dim == 2 and p.euler() == 0
    assert p.is_closed_manifold() and ddzero(p)


def test_connected_sum_genus_two():
    g = spm.connected_sum(spm.torus(4), spm.torus(4),
                          "e:2@e2", "e:2@e2")
    assert g.euler() == -2
    assert g.is_closed_surface() and g.is_orientable()


def test_connected_sum_refuses_a_non_orientable_or_open_input():
    for a, cell in ((spm.klein(4), "e:2@e2"), (spm.annulus(3, 4), "e:1&e:2")):
        with pytest.raises(cxm.ComplexError, match="not an orientable surface"):
            spm.connected_sum(a, spm.torus(4), cell, "e:2@e2")


@pytest.mark.parametrize("hole, why", [
    ("nowhere", "hole nowhere is not a 2-cell of torus(4,4)"),
    ("e:2@v2", "hole e:2@v2 is not a 2-cell of torus(4,4)")])
def test_connected_sum_refuses_a_hole_that_is_no_two_cell(hole, why):
    for holes in ((hole, "e:2@e2"), ("e:2@e2", hole)):
        with pytest.raises(cxm.ComplexError) as ei:
            spm.connected_sum(spm.torus(4), spm.torus(4), *holes)
        assert str(ei.value) == why


def hand_complex(name, cells, chains):
    # the complex of {cell: dim} and {cell: {face: coeff}} chains
    return cxm.CellComplex(name, cells, *cxm.chain_tables(chains))


# a disc whose rim is three edges from v1 to v2 behind a bigon at v0: the
# rim walk from v0 ends at v2 with the third edge untried
ODD_RIM = hand_complex(
    "odd-rim",
    {"v0": 0, "v1": 0, "v2": 0, "a": 1, "x": 1, "b": 1, "c": 1, "d": 1,
     "F": 2},
    {"a": {"v1": 1, "v0": -1}, "x": {"v1": 1, "v0": -1},
     "b": {"v2": 1, "v1": -1}, "c": {"v2": 1, "v1": -1},
     "d": {"v2": 2, "v1": -2},
     "F": {"a": 1, "x": -1, "b": 1, "c": 1, "d": -1}})
# a disc whose rim is two edges, each with one end
DEGENERATE_RIM = hand_complex(
    "degenerate-rim", {"v": 0, "e": 1, "f": 1, "F": 2},
    {"e": {"v": 1}, "f": {"v": -1}, "F": {"e": 1, "f": 1}})


def bigon(doubled):
    """A disc F bounded by two edges p and q from v0 to v1; when `doubled`,
    q's boundary and F's coefficient on p are twice as large."""
    n = 2 if doubled else 1
    return hand_complex(
        "bigon", {"v0": 0, "v1": 0, "p": 1, "q": 1, "F": 2},
        {"p": {"v1": 1, "v0": -1}, "q": {"v1": n, "v0": -n},
         "F": {"p": n, "q": -1}})


@pytest.mark.parametrize("a, hole_a, b, hole_b, why", [
    (ODD_RIM, "F", spm.torus(4), "e:2@e2",
     "boundary of F is not a simple cycle"),
    (DEGENERATE_RIM, "F", spm.torus(4), "e:2@e2",
     "degenerate edge on boundary of F"),
    (spm.torus(4), "e:2@e2", spm.sphere(3, 6), "cap:n",
     "hole boundaries have different lengths"),
    (bigon(False), "F", bigon(True), "F", "hole edges a:q and b:q do not match"),
], ids=["dead-end", "degenerate-edge", "lengths", "edges"])
def test_connected_sum_refuses_holes_that_do_not_glue(a, hole_a, b, hole_b,
                                                      why):
    with pytest.raises(cxm.ComplexError) as ei:
        spm.connected_sum(a, b, hole_a, hole_b)
    assert str(ei.value) == why


def test_complete_map_signs_refuses_a_cell_map_off_the_boundary():
    # e:0 and e:2 swapped over the identity on vertices: e:2's boundary
    # shares no vertex with e:0's
    c = spm.circle(4)
    swap = dict(zip(c.cells, c.cells), **{"e:0": "e:2", "e:2": "e:0"})
    with pytest.raises(cxm.ComplexError) as ei:
        spm.complete_map_signs(c, swap)
    assert str(ei.value) == "cannot orient e:0 over e:2"


def test_named_space_refuses_an_unknown_name():
    with pytest.raises(cxm.ComplexError) as ei:
        cxm.named_space("nope")
    assert str(ei.value) == "no catalog complex named 'nope'"


# each allocating builder with the cell count its arguments imply
SIZED_BUILDERS = [
    (lambda: spm.interval(5), 11),
    (lambda: spm.circle(7), 14),
    (lambda: spm.sphere(3, 5), 72),
    (lambda: spm.disc(3, 5), 51),
    (lambda: spm.product(spm.circle(3), spm.circle(4)), 48),
    (lambda: spm.mapping_torus(spm.circle(3), None, 4), 48),
    (lambda: spm.genus2(4), 118),
]


@pytest.mark.parametrize("build, count", SIZED_BUILDERS)
def test_builders_refuse_more_cells_than_the_limit(monkeypatch, build, count):
    # the count each builder checks is exact: it passes at the limit and
    # is refused one cell below it
    monkeypatch.setattr(cxm, "MAX_CELLS", count)
    assert len(build().cells) == count
    monkeypatch.setattr(cxm, "MAX_CELLS", count - 1)
    with pytest.raises(cxm.ConleyError) as ei:
        build()
    assert ei.value.code == "too-large"
    assert str(ei.value).endswith(
        " would have %d cells; the limit is %d" % (count, count - 1))


def test_named_spaces_refuse_a_huge_resolution():
    for name in ("torus", "klein", "genus2", "sphere", "annulus", "s2xs1",
                 "s2xts1", "t3"):
        with pytest.raises(cxm.ConleyError) as ei:
            cxm.named_space(name, 10 ** 6)
        assert ei.value.code == "too-large", name


def test_the_largest_measured_grid_is_within_the_limit():
    # torus(160, 160) is two copies of circle(160) per band, 160 bands
    assert 5 * 2 * 160 * len(spm.circle(160).cells) <= cxm.MAX_CELLS


def test_mapping_torus_of_point_is_circle():
    pt = spm.point()
    mt = spm.mapping_torus(pt, None, 8)
    assert mt.top_dim == 1 and mt.euler() == 0 and len(mt.cells) == 16


def test_quotient_contradiction():
    c = spm.circle(4)
    with pytest.raises(cxm.ComplexError):
        spm.quotient("circle(4)/~", c.cells, c.boundary, c.coefficients,
                     [("v:0", "v:1", 1), ("v:0", "v:1", -1)])


def test_quotient_takes_a_repeated_pair_once():
    c = spm.circle(4)
    once, twice = (spm.quotient("circle(4)/~", dict(c.cells), dict(c.boundary),
                                dict(c.coefficients), pairs)
                   for pairs in ([("v:0", "v:1", 1)], [("v:0", "v:1", 1)] * 2))
    assert twice.cells == once.cells
    assert twice.boundary == once.boundary
    assert twice.coefficients == once.coefficients


def test_json_round_trip():
    t = spm.torus(4)
    d = t.to_json()
    assert sorted(d) == ["boundary", "cells", "identifications", "name"]
    t2 = cxm.CellComplex.from_json(d)
    assert t2.name == t.name
    assert t2.cells == t.cells
    assert chains(t2) == chains(t)


def test_each_builder_validates_its_output_once(monkeypatch):
    # builders glue plain tables, so only the spaces a builder takes as
    # arguments and the one it returns are checked: genus two is one
    # circle, one torus used twice and the sum, and each strip adds an
    # interval, a circle, the annulus and the glued space
    names = []
    real = cxm.CellComplex._validate

    def counted(self):
        names.append(self.name)
        return real(self)

    monkeypatch.setattr(cxm.CellComplex, "_validate", counted)
    cxm.named_space("genus2", 8)
    genus2 = ["circle(8)", "torus(8,8)", "sum(torus(8,8),torus(8,8))"]
    assert names == genus2
    del names[:]
    catalog.build("hypersurface-genus2-strip2", 8)
    strip = ["interval(3)", "circle(8)", "annulus(3,8)"]
    assert names == genus2 + strip + [genus2[-1] + "+u0"] + \
        strip + [genus2[-1] + "+u0+u1"]
    assert len(names) == 11


def assert_one_string_per_id(cx):
    # every face is the very string the complex keys that cell by
    own = dict(zip(cx.cells, cx.cells))
    for c, faces in cx.boundary.items():
        assert c is own[c] and all(f is own[f] for f in faces), (cx.name, c)


def test_every_builder_makes_each_cell_id_once():
    for name in NAMED_SPACES:
        for res in (3, 6):
            assert_one_string_per_id(cxm.named_space(name, res))
    built = {}
    for name in sorted(catalog._RECIPES):
        assert_one_string_per_id(catalog.build(name, None, built)["flow"].cx)


# sha256 of [to_json(), sorted grid] of grid and path builds at sizes the
# catalog pins do not reach: a one-band sphere, a hub-only disc, a
# one-edge interval, the smallest circle
BUILDER_PINS = [
    ("sphere", (1, 3),
     "e262092933b6811df2ed42ec7930ab1cbac8947498a287e08658111ab6dee58d"),
    ("sphere", (2, 5),
     "b63e17cc7f128861c88d67a3b9aefdc86e0e51378e52b14246a9496b57921362"),
    ("sphere", (5, 7),
     "00cb21031b94fd26a48c43b9eee62f6e0f378ac87bf2b8229b9d838600954637"),
    ("disc", (1, 3),
     "46458e2b239c05f0d554d6ebe7388365e8e47c12f907bd6097a1c97ec11394e2"),
    ("disc", (2, 3),
     "f9f481ba66290c45fef6678e9e5cd952560817d10a798f3bd4cc5590adcdff3d"),
    ("disc", (4, 7),
     "5c7c78607c36df6e6c1e0e00b297362fd1b54dcebb9edc4bc57a965c87fa6e49"),
    ("interval", (1,),
     "5bb000b4a0a4df4a649e87c35b763ec141a53257cbc916f606a868184c30795e"),
    ("interval", (5,),
     "2abbe1aba4e3fdff66ef730ecfa456e049f49f23692a86512b99007617089f66"),
    ("circle", (3,),
     "acdccf3188cd3b04c7218007c6df050456e44cd20f83b52e901682a68aeb7e9d"),
    ("circle", (7,),
     "0ac8cd50af86c224b18c2208344d09c8fd93c1875a85176003ed599052c08a03"),
]


@pytest.mark.parametrize("builder, args, digest", BUILDER_PINS)
def test_builder_output_is_pinned(builder, args, digest):
    cx = getattr(spm, builder)(*args)
    body = json.dumps([cx.to_json(), sorted(cx.meta.get("grid", {}).items())])
    assert hashlib.sha256(body.encode()).hexdigest() == digest


# sha256 of the cells in order, each cell's face and coefficient tuples,
# to_json(), the sorted grid and the mapping-torus meta of the glued and
# product builders: homology's coreduction follows the cell order, which
# the pins above do not see
GLUED_PINS = [
    ("torus(5)", lambda: spm.torus(5),
     "6cc67dc871baa7350663942c7e1492cd7e9135142b7c24435fa9c23c43528d00"),
    ("klein(5)", lambda: spm.klein(5),
     "1f6c159b9e73a3ba1e2a188abd827fe5581d01d3456acf79b6b300672a115924"),
    ("s2xts1", lambda: spm.mapping_torus(
        spm.sphere(2, 5), spm.sphere_reflection(2, 5), 4),
     "e25ff30e7bb4bb8e5ad0a43ad847cfb5cb689a855bbd66b26f8f0e9e8b340399"),
    ("point-loop", lambda: spm.mapping_torus(spm.point(), None, 6),
     "1e882a87b97121a7946d84a9d4a01eea8819923aad70b66f4b7a16da2877df64"),
    # the Moebius band of test_orientability_of_surfaces_with_free_faces
    ("moebius", lambda: spm.mapping_torus(spm.interval(2), {
        "v:0": "v:2", "v:1": "v:1", "v:2": "v:0", "e:0": "e:1", "e:1": "e:0"},
        4),
     "bad29750ea6e435af6fc965c20707c17795e1b7befd4e57e6e613c0bda8da085"),
    ("rp2", lambda: spm.rp2(),
     "3335ff7077087841e30ac59af0c4be6ba6af38c388b9240e37e2e3b63192698f"),
    ("genus2(4)", lambda: spm.genus2(4),
     "5c53a3292e37327dd931bd89ff7c199977a26d4fdbd600b710a51c3362c6053f"),
    ("sphere-torus-sum", lambda: spm.connected_sum(
        spm.sphere(3, 4), spm.torus(4), "f:1,1", "e:2@e2"),
     "e8f99579c3869435937461ab015b117e689cffc81279b2ce5afe241b2632e1ca"),
    ("t3(3)", lambda: spm.t3(3),
     "e7f4fbc1b7d36616b85bb82e17168122bb99a6c4d93feb476d5c1e8add9bb4fb"),
    ("annulus(3,5)", lambda: spm.annulus(3, 5),
     "a3f9ef24e32459bfca6d9e4db4259408c73e4903fbafe984805acd5ebfe26d81"),
    ("strip2", lambda: catalog.build(
        "hypersurface-genus2-strip2", 8)["flow"].cx,
     "1f3a576f6ca0f99e71e2f10db918ed29a1da5b975b8c9793ed52592fb642b4c5"),
]


@pytest.mark.parametrize("build, digest", [p[1:] for p in GLUED_PINS],
                         ids=[p[0] for p in GLUED_PINS])
def test_glued_builder_tables_and_order_are_pinned(build, digest):
    cx = build()
    body = json.dumps([
        list(cx.cells.items()),
        [(c, cx.boundary[c], cx.coefficients[c]) for c in cx.cells],
        cx.to_json(), sorted(cx.meta.get("grid", {}).items()),
        cx.meta.get("mapping_torus")])
    assert hashlib.sha256(body.encode()).hexdigest() == digest


# sha256 of the sorted (cell, image) pairs of each reflection, the glue of
# the klein and s2xts1 bundles: the ids they map must be the ids the
# circle and sphere builders make
REFLECTION_PINS = [
    ("circle_reflection", (7,),
     "643bb00747a8f22cd3efa8cb6ba7cfbc35aa96774ccf214617843a00ad66a50e"),
    ("sphere_reflection", (2, 5),
     "97e5dac2178137e08eb66111e0928fa67df9565fab76337e90c4df4b650b58bb"),
]


@pytest.mark.parametrize("reflection, args, digest", REFLECTION_PINS)
def test_reflection_is_pinned(reflection, args, digest):
    bij = getattr(spm, reflection)(*args)
    body = json.dumps(sorted(bij.items()))
    assert hashlib.sha256(body.encode()).hexdigest() == digest


def test_unknown_boundary_cell_rejected():
    with pytest.raises(cxm.ComplexError):
        cxm.CellComplex("x", {"a": 1}, {"a": ("missing",)}, {"a": (1,)})
    # a boundary for a cell that is not declared is refused, not dropped
    with pytest.raises(cxm.ComplexError) as ei:
        cxm.CellComplex("x", {"a": 0}, {"a": (), "ghost": ("a",)},
                        {"a": (), "ghost": (1,)})
    assert ei.value.code == "bad-complex"
    # the two tables must align: a cell with faces and no coefficients,
    # and one with more faces than coefficients, are refused, not zipped
    # and the tables must name the same cells: coefficients for a ghost do
    # not make up for the ones e lacks, however many cells each table names
    cells = {"v": 0, "w": 0, "e": 1}
    for coeffs, why in (({}, "boundary of e is given no coefficients"),
                        ({"ghost": (1,)},
                         "boundary of e is given no coefficients"),
                        ({"e": (1, -1), "ghost": (1,)},
                         "boundary given for undeclared cell ghost"),
                        ({"e": (1, -1), "v": ()},
                         "coefficients given for v, which has no boundary"),
                        ({"e": (1,)}, "boundary of e has 2 faces and 1 "
                                      "coefficients")):
        faces = {"e": ("w", "v")}
        tables = copy.deepcopy((cells, faces, coeffs))
        with pytest.raises(cxm.ComplexError) as ei:
            cxm.CellComplex("x", cells, faces, coeffs)
        assert str(ei.value) == why
        # a refused table is not filled in
        if "has 2 faces" not in why:
            assert (cells, faces, coeffs) == tables


def test_glue_must_be_chain_map():
    c = spm.circle(4)
    ident = {cell: cell for cell in c.cells}
    # the identity bijection glues, and to the same torus as no glue
    glued, plain = spm.mapping_torus(c, ident, 4), spm.mapping_torus(c, None, 4)
    assert (glued.boundary, glued.coefficients) == \
        (plain.boundary, plain.coefficients)
    # swapping two vertices but no edge is a bijection, not a chain map
    bad = dict(ident, **{"v:0": "v:1", "v:1": "v:0"})
    with pytest.raises(cxm.ComplexError) as ei:
        spm.mapping_torus(c, bad, 4)
    assert "del del != 0" in str(ei.value)


@pytest.mark.parametrize("fiber, glue", [
    (spm.circle(6), spm.circle_reflection(6)),
    (spm.sphere(3, 6), spm.sphere_reflection(3, 6)),
], ids=["klein", "s2xts1"])
def test_seam_del_del_covers_the_chain_map_condition(monkeypatch, fiber,
                                                     glue):
    # on the seam band sigma@e{m-1}, del del is +-(del phi - phi del)
    # (sigma)@v0, so the complex's own sweep refuses a sign table with any
    # one sign flipped
    real = spm.complete_map_signs
    spm.mapping_torus(fiber, glue, 3)       # the solved table glues
    for cell in sorted(fiber.cells):
        def flipped(fib, bijection):
            table = real(fib, bijection)
            image, sign = table[cell]
            table[cell] = (image, -sign)
            return table

        monkeypatch.setattr(spm, "complete_map_signs", flipped)
        with pytest.raises(cxm.ComplexError) as ei:
            spm.mapping_torus(fiber, glue, 3)
        assert "del del != 0" in str(ei.value), cell


def test_reflection_glues_to_klein_bottle():
    k = spm.mapping_torus(spm.circle(6), spm.circle_reflection(6), 6)
    from conleylab import algebra
    hom = algebra.homology(k)
    assert [h["rank"] for h in hom] == [1, 1, 0]
    assert hom[1]["torsion"] == [2]
