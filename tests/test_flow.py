import contextlib
import copy
import functools
import json
import os
import sys
import tempfile
import tracemalloc
import types
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from conleylab import (attractor, blocks, catalog, complexes as cxm,
                       flow as flm, flowfile as ffm, spaces as spm)


# -- reference implementations ---------------------------------------------------

def image_cycle(flow, seed, direction="f", within=None):
    """The periodic tail of the image sequence seed, F(seed), F^2(seed), ...
    (relative to `within` when given), found by iterating until a set
    repeats."""
    table = flow.succ if direction == "f" else flow.pred
    s = frozenset(seed)
    if within is not None:
        within = frozenset(within)
        s = s & within
    seen = {}
    seq = []
    while s not in seen:
        seen[s] = len(seq)
        seq.append(s)
        nxt = set()
        for c in s:
            nxt.update(table[c])
        if within is not None:
            nxt &= within
        s = frozenset(nxt)
    return seq[seen[s]:]


class LimitEnclosure:
    """An outer enclosure of a limit set, as a set of top cells.

    Membership of a cell is tested through its one-ring: the enclosure is a
    region, and a cell belongs to the limit behaviour when its neighborhood
    meets that region. Plain `in` on .cells is deliberately not the test."""

    def __init__(self, cells, flow):
        self.cells = frozenset(cells)
        self.flow = flow

    def touches(self, cell):
        return bool(self.flow.one_ring(cell) & self.cells)


def need_cell(flow, x):
    if x not in flow.tops:
        raise flm.FlowError("bad-cell", "%s is not a top cell" % x)


def j_enclosure(flow, x, direction):
    """J+ (direction "f") or J- ("p") of the cell x: the eventual image of
    its one-ring, the union of the flow's shared per-cell images."""
    need_cell(flow, x)
    image = flow.eventual_images(direction)
    return LimitEnclosure(flm._union(image[y] for y in flow.one_ring(x)),
                          flow)


def j_plus(flow, x):
    return j_enclosure(flow, x, "f")


def j_minus(flow, x):
    return j_enclosure(flow, x, "p")


def omega_limit(flow, x):
    """Omega limit enclosure of one cell: its own eventual image."""
    need_cell(flow, x)
    return LimitEnclosure(eventual_image(flow, {x}, "f"), flow)


def relative_image(flow, seed, direction, within):
    """Eventual image of a seed relative to the subgraph on `within`: the
    reach inside `within` of the recurrent cells of `within` that the seed
    reaches there, composed from `reach` and `recurrent_cells(within)` as
    `attractor.classify` composes them."""
    rec = flow.recurrent_cells(within)
    core = rec & flow.reach(seed, direction, within)
    return frozenset(flow.reach(core, direction, within))


def eventual_image(flow, seed, direction="f"):
    """Cells reached from the seed by paths of every length: the reach of
    the recurrent cells in the reach of the seed, walked for this one seed.
    The reference the flow's shared per-cell images are tested against."""
    core = flow.recurrent_cells() & flow.reach(seed, direction)
    return frozenset(flow.reach(core, direction))


def iterated_image(flow, seed, direction="f", within=None):
    """Eventual image by set iteration: the union of the periodic tail."""
    return frozenset().union(*image_cycle(flow, seed, direction, within))


def trim_loop(flow, region, directions):
    """Trim by repeated sorted sweeps until a sweep removes nothing."""
    tables = [flow.succ if d == "f" else flow.pred for d in directions]
    s = set(region)
    changed = True
    while changed:
        changed = False
        for c in sorted(s):
            if any(not (set(t[c]) & s) for t in tables):
                s.discard(c)
                changed = True
    return frozenset(s)


# The tests that only read catalog entries share them through this dict, as
# the checks of one verify run share theirs. A test of how entries are built
# or released calls catalog.build without it.
SHARED = {}


def shared_entry(name, resolution=None):
    return catalog.build(name, resolution, SHARED)


def catalog_flows():
    """(name, flow, k or None) for every catalog entry at default resolution."""
    for name in catalog.names():
        entry = shared_entry(name)
        yield name, entry["flow"], entry["k"]


# -- tests -----------------------------------------------------------------------


def test_validation_errors():
    c = spm.circle(6)
    with pytest.raises(flm.FlowError) as ei:
        flm.CombinatorialFlow(c, {})
    assert ei.value.code == "not-total"
    with pytest.raises(flm.FlowError) as ei:
        flm.CombinatorialFlow(c, {t: (["nope"] if t == "e:0" else [t])
                                  for t in c.top_cells()})
    assert ei.value.code == "bad-successor"
    # e:3 does not share a face with e:0, so it cannot be a successor
    with pytest.raises(flm.FlowError) as ei:
        flm.CombinatorialFlow(c, {t: (["e:3"] if t == "e:0" else [t])
                                  for t in c.top_cells()})
    assert ei.value.code == "not-local"


def locality_outcome(cx, successors):
    """The error code and message CombinatorialFlow gives for a successor
    map on cx, or None where it accepts it, by a test of d in one_ring(c)
    for each pair, in the order the flow checks them."""
    ring = flm.rest_flow(cx).one_ring
    tops = cx.top_cells()
    for c in tops:
        if not successors.get(c):
            return "not-total", "cell %s has no successor" % c
        for d in sorted(set(successors[c])):
            if d not in cx.cells or cx.cells[d] != cx.top_dim:
                return "bad-successor", "%s -> %s is not a top cell" % (c, d)
            if d not in ring(c):
                return "not-local", "%s -> %s leaves the one-ring" % (c, d)
    extra = set(successors) - set(tops)
    if extra:
        return "bad-successor", ("successors given for non top cells: %s"
                                 % sorted(extra)[:3])
    return None


@functools.lru_cache(maxsize=None)
def neighbour_kinds(name):
    """A small space and, for each top cell c, the other top cells that
    share a codim-1 face with c, those that share only lower cells (a
    diagonal square shares one vertex) and those that share nothing."""
    cx = spm.circle(5) if name == "circle" else cxm.named_space(name, 3)
    tops = cx.top_cells()
    kinds = {}
    for c in tops:
        ring = cx.star_tops((c,)) - {c}
        face = {d for d in ring
                if not set(cx.boundary[c]).isdisjoint(cx.boundary[d])}
        kinds[c] = [sorted(face), sorted(ring - face),
                    sorted(set(tops) - ring - {c})]
    return cx, kinds


@st.composite
def successor_maps(draw):
    """(complex, successor map) on a small space: each cell goes to itself,
    to cells across a face, to cells that share only lower cells with it
    and, in some maps, to cells that share nothing with it or to no top
    cell; now and then a cell has no successor, or a non top cell has
    some."""
    name = draw(st.sampled_from(("circle", "torus", "klein", "sphere",
                                 "rp2", "annulus", "s2xs1", "t3")))
    cx, kinds = neighbour_kinds(name)
    rnd = Random(draw(st.integers(0, 2 ** 32 - 1)))
    far = draw(st.sampled_from((0, 0.02, 0.1)))
    succ = {}
    for c, (face, corner, apart) in kinds.items():
        pool = [c] + face + corner
        outs = rnd.sample(pool, min(len(pool), rnd.randint(1, 3)))
        if apart and rnd.random() < far:
            outs.append(rnd.choice(apart))
        if rnd.random() < far / 4:
            outs.append(rnd.choice(["ghost", min(cx.boundary[c])]))
        if rnd.random() > far / 4:
            succ[c] = outs
    if rnd.random() < far:
        succ[min(cx.cells_of_dim(0))] = [min(kinds)]
    return cx, succ


@settings(max_examples=300, deadline=None)
@given(successor_maps())
def test_locality_by_faces_and_supports_matches_one_ring_pairs(drawn):
    # a successor across a face is local without a support test; the flow
    # accepts and refuses as a test of d in one_ring(c), pair by pair, with
    # the same code and message
    cx, succ = drawn
    try:
        flm.CombinatorialFlow(cx, succ)
        got = None
    except flm.FlowError as err:
        got = err.code, str(err)
    assert got == locality_outcome(cx, succ)


def test_a_flow_across_faces_builds_no_support_table():
    # every edge of a band flow, a sphere flow or a flow across the faces
    # of a circle crosses a face, so building it asks for no support; a
    # diagonal step on the torus does, and derives the supports it tests
    # without storing them: building a flow adds nothing to its complex
    for name in ("example22-torus", "example22-klein", "example22-circle",
                 "example22-s2xts1", "north-south", "homoclinic-sphere"):
        cx = catalog.build(name, catalog._RECIPES[name][2], {})["flow"].cx
        assert "_verts" not in vars(cx), name
    _, kinds = neighbour_kinds("torus")
    cx = cxm.named_space("torus", 3)
    built = set(vars(cx))
    across = {d: [d] + face[:1] for d, (face, _, _) in kinds.items()}
    flm.CombinatorialFlow(cx, across)
    assert set(vars(cx)) == built
    c = min(kinds)
    flm.CombinatorialFlow(cx, dict(across, **{c: [c, kinds[c][1][0]]}))
    assert set(vars(cx)) == built


def test_rest_flow_prolongation_is_one_ring():
    c = spm.circle(6)
    f = flm.rest_flow(c)
    assert set(f.fixed) == set(c.top_cells())
    for x in c.top_cells():
        jp = j_plus(f, x)
        assert jp.cells == frozenset(f.one_ring(x))
        assert omega_limit(f, x).cells == frozenset({x})


def test_iterate_matches_scc_image():
    for name, fl, k in catalog_flows():
        # dropping every other recurrent cell cuts cycles, so recurrence
        # inside `within` differs from recurrence in the whole flow
        within = fl.tops - set(sorted(fl.recurrent_cells())[::2])
        for x in sorted(fl.tops):
            seed = fl.one_ring(x)
            for d in ("f", "p"):
                assert eventual_image(fl, seed, d) == \
                    iterated_image(fl, seed, d), (name, x, d)
                assert relative_image(fl, seed, d, within) == \
                    iterated_image(fl, seed, d, within), (name, x, d)


def test_j_enclosures_match_per_seed_images():
    # j_plus/j_minus take unions of per-cell images from one SCC pass; the
    # per-seed walk over the one-ring is the reference
    for name, fl, k in catalog_flows():
        for x in sorted(fl.tops):
            seed = fl.one_ring(x)
            assert j_plus(fl, x).cells == eventual_image(fl, seed, "f"), \
                (name, x)
            assert j_minus(fl, x).cells == eventual_image(fl, seed, "p"), \
                (name, x)


def test_the_component_list_holds_a_lone_cell_as_itself():
    # the whole-flow component list keeps a one-cell component as the cell
    # itself and any other as a list; the recurrent cells and both image
    # tables read from it match the per-seed references
    for name, fl, k in catalog_flows():
        comps = fl._sccs
        assert all(type(c) is str or type(c) is list and len(c) > 1
                   for c in comps), name
        listed = [c for comp in comps
                  for c in (comp if type(comp) is list else [comp])]
        assert sorted(listed) == sorted(fl.tops), name
        assert fl.recurrent_cells() == \
            {c for c in fl.tops if c in fl.reach(fl.succ[c])}, name
        for d in ("f", "p"):
            images = fl.eventual_images(d)
            for x in sorted(fl.tops):
                assert images[x] == eventual_image(fl, {x}, d), (name, x, d)


@functools.lru_cache(maxsize=None)
def small_complexes():
    return [spm.circle(3), spm.circle(7), spm.circle(12), spm.torus(3)]


@st.composite
def small_flows(draw, complexes=None):
    """Local flows on small complexes, by default small_complexes(). Few
    successors per cell give chains of recurrent components joined by
    transient cells, and self loops."""
    cx = draw(st.sampled_from(complexes or small_complexes()))
    succ = {c: draw(st.lists(st.sampled_from(sorted(cx.star_tops({c}))),
                             min_size=1, max_size=3))
            for c in cx.top_cells()}
    return flm.CombinatorialFlow(cx, succ)


@settings(max_examples=150, deadline=None)
@given(small_flows(), st.data())
def test_scc_images_match_set_iteration(fl, data):
    on_cycle = {c for c in fl.tops if c in fl.reach(fl.succ[c])}
    assert fl.recurrent_cells() == on_cycle
    # a path that leaves `within` and comes back closes no cycle there
    within = data.draw(st.frozensets(st.sampled_from(sorted(fl.tops))))
    assert fl.recurrent_cells(within) == \
        {c for c in within if c in fl.reach(fl.succ[c], "f", within)}
    for d in ("f", "p"):
        images = fl.eventual_images(d)
        assert set(images) == fl.tops
        for x in fl.tops:
            assert images[x] == iterated_image(fl, {x}, d), (x, d)
    for x in fl.tops:
        seed = fl.one_ring(x)
        assert j_plus(fl, x).cells == iterated_image(fl, seed, "f"), x
        assert j_minus(fl, x).cells == iterated_image(fl, seed, "p"), x


def analysis_outcome(fl, k):
    """The report on k as JSON, or the code and text of the error."""
    try:
        return attractor.analyze(fl, k).to_json()
    except cxm.ConleyError as err:
        return err.code, str(err)


@settings(max_examples=150, deadline=None)
@given(small_flows(), st.data())
def test_flow_file_round_trip(fl, data):
    # the invariant part of the whole flow is isolated in its collar; a
    # single cell need not be, and then both flows must refuse it alike
    whole = fl.trim(fl.tops, "f") & fl.trim(fl.tops, "p")
    cell = data.draw(st.sampled_from(sorted(fl.tops)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "flow.json")
        # the file carries the flow's name, which the loaded flow keeps
        with open(path, "w") as fh:
            json.dump(dict(fl.to_json(), name=fl.name), fh)
        back = ffm.load_file(path)["flow"]
    assert back.succ == fl.succ
    assert back.fixed == fl.fixed
    for k in (whole, {cell}):
        assert analysis_outcome(back, k) == analysis_outcome(fl, k), sorted(k)


def test_trim_matches_sweep_loop():
    for name, fl, k in catalog_flows():
        if not k:
            continue
        col = attractor.collar(fl, k)
        # outside the collar, removals cascade along the paths into it
        regions = [col, fl.tops - col]
        try:
            regions.append(blocks.build_block(fl, k).n)
        except blocks.NoBlockError:
            pass
        for region in regions:
            assert_trims_match_sweep_loop(fl, region, name)


def assert_trims_match_sweep_loop(fl, region, label):
    # each direction on its own, and their meet as the invariant part
    for d in ("f", "p"):
        assert fl.trim(region, d) == trim_loop(fl, region, d), (label, d)
    assert fl.trim(region, "f") & fl.trim(region, "p") == \
        trim_loop(fl, region, "fp"), (label, "fp")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_trim_matches_sweep_loop_on_small_flows(data):
    fl = data.draw(small_flows())
    region = data.draw(st.frozensets(st.sampled_from(sorted(fl.tops))))
    assert_trims_match_sweep_loop(fl, region, sorted(region))


def test_one_rings_of_top_cells_are_symmetric():
    for name, fl, k in catalog_flows():
        for a in fl.tops:
            assert a in fl.one_ring(a), (name, a)
            for b in fl.one_ring(a):
                assert a in fl.one_ring(b), (name, a, b)


@functools.lru_cache(maxsize=None)
def catalog_flow_list():
    return [(name, fl) for name, fl, k in catalog_flows()]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_touching_matches_per_cell_rings(data):
    name, fl = data.draw(st.sampled_from(catalog_flow_list()))
    tops = sorted(fl.tops)
    s = data.draw(st.frozensets(st.sampled_from(tops)))
    assert fl.cx.star_tops(s) == {y for y in tops if fl.one_ring(y) & s}, \
        name


def test_limit_enclosures_nest():
    entry = catalog.build("example22-torus")
    fl = entry["flow"]
    x = sorted(fl.tops)[0]
    w = fl.reach({x})
    assert relative_image(fl, fl.one_ring(x), "f", w) <= j_plus(fl, x).cells
    assert omega_limit(fl, x).cells <= j_plus(fl, x).cells


def test_touch_duality_small_flow():
    f = catalog.build("example22-circle")["flow"]
    jp = {x: j_plus(f, x) for x in f.tops}
    jm = {x: j_minus(f, x) for x in f.tops}
    for x in f.tops:
        for y in f.tops:
            assert jp[x].touches(y) == jm[y].touches(x)


def test_j_of_unknown_cell_rejected():
    f = catalog.build("example22-circle")["flow"]
    with pytest.raises(flm.FlowError) as ei:
        j_plus(f, "not-a-cell")
    assert ei.value.code == "bad-cell"


def test_json_round_trip(tmp_path):
    # every catalog entry at its minimum resolution
    for name, (_, _, minimum) in sorted(catalog._RECIPES.items()):
        fl = shared_entry(name, minimum)["flow"]
        data = fl.to_json()
        before = copy.deepcopy(data)
        back = flm.CombinatorialFlow.from_json(data)
        # the body is read, not taken apart: every boundary list included
        assert data == before, name
        assert back.succ == fl.succ, name
        assert set(back.fixed) == set(fl.fixed), name
        assert back.meta["recipe"] == fl.meta["recipe"], name
        # the reader builds from the file the flow the in-memory path builds
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps(data))
        loaded = ffm.load_file(str(path))["flow"]
        read = parsed_flow(path.read_text())
        assert (loaded.cx.cells, loaded.cx.boundary, loaded.succ) == \
            (read.cx.cells, read.cx.boundary, read.succ), name


def traced_peak(fn):
    """The peak of the memory traced while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def load_and_parse_peaks(tmp_path):
    """The traced peaks of load_file and of json.load on the construct
    file of example22-torus@32."""
    from conleylab import cli
    path = str(tmp_path / "torus.json")
    assert cli.main(["construct", "example22-torus", "--resolution", "32",
                     "--out", path]) == 0

    def parse():
        with open(path) as fh:
            json.load(fh)

    return traced_peak(lambda: ffm.load_file(path)), traced_peak(parse)


def test_load_file_peaks_below_a_whole_parse(tmp_path):
    # each boundary list is freed as soon as the boundary member is
    # decoded, so loading the file never holds the whole parsed file; a
    # loader that parses the whole file first peaks where json.load does
    load, parse = load_and_parse_peaks(tmp_path)
    assert load < 0.95 * parse


def test_load_file_peaks_below_four_fifths_of_a_whole_parse(tmp_path):
    # the boundary is decoded a span at a time and each cell id is kept as
    # one string; a reader that decodes the boundary whole, or keeps a
    # string per id occurrence, peaks near 0.9 of json.load
    load, parse = load_and_parse_peaks(tmp_path)
    assert load < 0.8 * parse


def test_load_file_peaks_below_three_fifths_of_a_whole_parse(tmp_path):
    # the file is read through a window of a few chunks, never whole, and
    # `cells` goes a span at a time into the complex's {id: dim} table; a
    # reader that holds the file's text peaks near 0.73 of json.load, and
    # one that holds it but decodes `cells` by spans near 0.64
    load, parse = load_and_parse_peaks(tmp_path)
    assert load < 0.6 * parse


def test_load_file_reads_its_file_in_bounded_chunks(tmp_path, monkeypatch):
    # every read is one read(_SPAN) call, each part of the file is read
    # once, and the window holds a few chunks: every member that can be
    # large (cells, boundary, successors, and a rest flow's fixed) is
    # decoded a span at a time
    from conleylab import cli
    path = str(tmp_path / "torus.json")
    assert cli.main(["construct", "example22-torus", "--resolution", "32",
                     "--out", path]) == 0
    rest = tmp_path / "rest-torus.json"
    rest.write_text(json.dumps(flm.rest_flow(spm.torus(32)).to_json(),
                               sort_keys=True))
    sizes = []
    held = []

    class Counted:
        def __init__(self, fh):
            self.fh = fh

        def read(self, n=-1):
            sizes.append(n)
            return self.fh.read(n)

        def seekable(self):
            return self.fh.seekable()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    grow = ffm._Window.grow

    def recorded(self):
        grown = grow(self)
        held.append(len(self.text))
        return grown

    monkeypatch.setattr(ffm, "open", lambda p: Counted(open(p)),
                        raising=False)
    monkeypatch.setattr(ffm._Window, "grow", recorded)
    for path in (path, str(rest)):
        with open(path) as fh:
            want = parsed_outcome(fh.read())
        for span in (1 << 12, ffm._SPAN):
            sizes.clear()
            held.clear()
            with reader_span(span):
                assert loaded_outcome(path) == want, (path, span)
            assert set(sizes) == {span}, (path, span)
            assert len(sizes) <= os.path.getsize(path) // span + 2, \
                (path, span)
            assert max(held) <= 3 * span, (path, span, max(held))


def test_a_loaded_flow_holds_the_complex_strings(tmp_path):
    # each successor, face and k cell is the complex's own id string, not
    # the file's copy of it, so the file's strings are freed with its lists
    entry = catalog.build("example22-circle")
    fl = entry["flow"]
    assert entry["k"]
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(dict(fl.to_json(), k=sorted(entry["k"]))))
    loaded = ffm.load_file(str(path))
    back = loaded["flow"]
    own = {c: c for c in back.cx.cells}
    for table in (back.succ, back.pred):
        for c, outs in table.items():
            assert c is own[c] and all(d is own[d] for d in outs), c
    for c, faces in back.cx.boundary.items():
        assert c is own[c] and all(f is own[f] for f in faces), c
    assert loaded["k"] == sorted(entry["k"])
    assert all(c is own[c] for c in loaded["k"])


def test_the_reader_takes_successor_ids_from_the_complex(tmp_path):
    # the successor lists the reader hands the flow already hold the
    # complex's own id strings; the flow's pred is the transpose of its
    # succ, each a sorted tuple of distinct cells
    entry = catalog.build("example22-s2xs1")
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(entry["flow"].to_json()))
    with open(path) as fh:
        cx, data = ffm._read(fh, ValueError)
    own = {c: c for c in cx.cells}
    for c, outs in data["successors"].items():
        assert c is own[c] and all(d is own[d] for d in outs), c
    fl = ffm.load_file(str(path))["flow"]
    own = {c: c for c in fl.cx.cells}
    transpose = {c: [] for c in fl.tops}
    for c in sorted(fl.succ):
        assert all(d is own[d] for d in fl.succ[c]), c
        for d in fl.succ[c]:
            transpose[d].append(c)
    assert fl.pred == {c: tuple(v) for c, v in transpose.items()}
    for table in (fl.succ, fl.pred):
        assert all(type(v) is tuple and list(v) == sorted(set(v))
                   for v in table.values())


def test_succ_and_pred_hold_the_complex_ids_in_shared_tuples(tmp_path):
    # a built flow's successors are the builder's own strings, a loaded
    # one's the reader's tuples; either way every succ and pred value is a
    # tuple of the complex's own id objects, and a cell's 1-tuple is one
    # object wherever succ or pred holds it
    entry = catalog.build("example22-torus")
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(dict(entry["flow"].to_json(), k=entry["k"])))
    with open(path) as fh:
        _, data = ffm._read(fh, ValueError)
    assert all(type(v) is tuple for v in data["successors"].values())
    for fl in (entry["flow"], ffm.load_file(str(path))["flow"]):
        own = {c: c for c in fl.cx.cells}
        ones = {}
        for table in (fl.succ, fl.pred):
            for c, outs in table.items():
                assert c is own[c] and type(outs) is tuple, c
                assert all(d is own[d] for d in outs), c
                if len(outs) == 1:
                    assert ones.setdefault(outs[0], outs) is outs, c
        # on the torus flow every cell is some cell's one successor or one
        # predecessor
        assert len(ones) == len(fl.tops)


def test_tops_is_the_successor_key_view(tmp_path):
    # `tops` is no set of its own: it is the key view of succ, equal to the
    # top cells, and it takes the set operations the attractor stages use
    # with frozensets on either side
    entry = catalog.build("example22-torus")
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(entry["flow"].to_json()))
    for fl in (entry["flow"], ffm.load_file(str(path))["flow"]):
        tops = frozenset(fl.cx.top_cells())
        assert type(fl.tops) is type({}.keys())
        assert fl.tops == tops and tops == fl.tops and fl.tops == fl.succ.keys()
        half = frozenset(sorted(tops)[::2])
        assert fl.tops - half == tops - half
        assert half - fl.tops == frozenset()
        assert fl.tops & half == half and half & fl.tops == half
        assert half <= fl.tops and not fl.tops <= half
        assert fl.tops <= tops and tops <= fl.tops
        assert all(c in fl.tops for c in tops)
        assert "nowhere" not in fl.tops and len(fl.tops) == len(tops)


# -- the boundary read a span at a time ------------------------------------------

def complex_rows(fl):
    """A flow's cells, boundaries (each face and each coefficient with its
    type, since 1, 1.0 and True are equal) and successors, in their
    order."""
    cx = fl.cx
    return (list(cx.cells.items()),
            [(c, [(f, type(f), n, type(n)) for f, n in cx.chain(c).items()])
             for c in cx.boundary],
            list(fl.succ.items()))


def read_outcome(read):
    """complex_rows of the flow read() gives, or its error's code and
    text."""
    try:
        return complex_rows(read())
    except cxm.ConleyError as err:
        return err.code, str(err)


def parsed_flow(text):
    """The flow of a body's text by an in-memory path that shares no
    parsing with the reader: json.loads, then each member in the body's
    own order, its shape checked and the complex built from the parsed
    object where its member stands, its boundary converted by
    CellComplex.from_json through boundary_table. A missing `successors`
    or `complex` is refused once every member has been read."""
    data = json.loads(text)
    for key, value in data.items():
        if key in ffm._SHAPES:
            ffm._check_field(key, value)
        if key == "complex":
            cx = cxm.CellComplex.from_json(value)
    for key in ("successors", "complex"):
        if key not in data:
            ffm._check_field(key, None)
    return ffm._assemble(cx, data, data.get("name"))


def parsed_outcome(text):
    return read_outcome(lambda: parsed_flow(text))


def loaded_outcome(path):
    return read_outcome(lambda: ffm.load_file(str(path))["flow"])


@contextlib.contextmanager
def patched(name, value):
    # flow.<name> set to value for the block
    saved = getattr(ffm, name)
    setattr(ffm, name, value)
    try:
        yield
    finally:
        setattr(ffm, name, saved)


def reader_span(n):
    return patched("_SPAN", n)


@contextlib.contextmanager
def whole_decodes():
    """A list that gets one item each time the reader reads a text whole,
    as it does when a span does not decode."""
    calls = []
    real = ffm._read_whole
    with patched("_read_whole", lambda *args: calls.append(1) or real(*args)):
        yield calls


def spans_fail(w, scan):
    # a span reader that reads nothing, so every text is read whole
    raise ValueError("no span read")


def renamed_body(fl, name, k=None):
    """The flow's file body with every cell id c renamed name(c)."""
    cx = fl.cx
    body = {
        "complex": {
            "name": cx.name,
            "cells": [[name(c), d] for c, d in sorted(cx.cells.items())],
            "boundary": {name(c): [[name(f), n] for f, n in
                                   sorted(cx.chain(c).items())]
                         for c, b in sorted(cx.boundary.items()) if b},
        },
        "successors": {name(c): [name(d) for d in outs]
                       for c, outs in sorted(fl.succ.items())},
    }
    if k:
        body["k"] = sorted(map(name, k))
    return body


def test_a_tiny_span_loads_every_catalog_file_as_parsed(tmp_path):
    # spans of a few characters: a cut after nearly every entry, over the
    # newlines and indents of construct's output
    from conleylab import cli
    with reader_span(4), whole_decodes() as whole:
        for name, (_, _, minimum) in sorted(catalog._RECIPES.items()):
            path = tmp_path / (name + ".json")
            assert cli.main(["construct", name, "--resolution", str(minimum),
                             "--out", str(path)]) == 0
            assert loaded_outcome(path) == parsed_outcome(path.read_text()), \
                name
    # no span of these files failed to decode
    assert whole == []


# ids that hold a false cut or close: a `]` then a comma and the string's
# own closing quote (a boundary cut), a `]`, a comma and a `[` (a `cells`
# cut), two `]` (a `cells` close), a quote then a comma and the closing
# quote (a `k` cut), or a quote then a `]` (a `k` close); and ids that
# hold none, some of them written with escapes
FALSE_CUTS = ["],", "], ", "] ,", "]],", "], [", "],[", "]]", "] ]",
              '",', '", ', '"]']
ODD_IDS = ["]", '"', '\\"', ",", ", ", "\u00fc", "\u2202]", "[", "\u00a0",
           "\\", "\n", "\U0001d49c"]


@pytest.mark.parametrize("piece", FALSE_CUTS + ODD_IDS)
def test_ids_with_brackets_commas_and_quotes_load_as_parsed(tmp_path, piece):
    entry = catalog.build("example22-circle")
    body = renamed_body(entry["flow"], lambda c: c + piece, entry["k"])
    for span in (4, 64, ffm._SPAN):
        for ascii_only in (True, False):
            path = tmp_path / "flow.json"
            path.write_text(json.dumps(body, ensure_ascii=ascii_only),
                            encoding="utf-8")
            with reader_span(span), whole_decodes() as whole:
                assert loaded_outcome(path) == \
                    parsed_outcome(path.read_text(encoding="utf-8")), span
            # a cut inside a string leaves the span unterminated, and the
            # reader reads the file again, each member whole
            if piece in FALSE_CUTS and span == 4:
                assert whole, (piece, ascii_only)
            elif piece in ODD_IDS:
                assert whole == [], (piece, span, ascii_only)


def cells_body(edit):
    """A rest flow on a circle, its `cells` pairs replaced by edit(pairs),
    a list of [id, dim] pairs in the order the file gives them."""
    body = flm.rest_flow(spm.circle(3)).to_json()
    body["complex"]["cells"] = edit(body["complex"]["cells"])
    return body


CELLS_REFUSED = "cells are not a list of [id, dim] pairs"


@pytest.mark.parametrize("edit, want", [
    (dict, ("bad-complex", CELLS_REFUSED)),
    # each item that is not an [id, dim] pair with a string id is refused
    # as the field is, not read as the pair of a string's two letters
    (lambda p: p[:1] + ["ab"] + p[1:], ("bad-complex", CELLS_REFUSED)),
    (lambda p: p[:1] + [5] + p[1:], ("bad-complex", CELLS_REFUSED)),
    (lambda p: p[:1] + [["e:9"]] + p[1:], ("bad-complex", CELLS_REFUSED)),
    (lambda p: p[:1] + [["e:9", 1, 2]] + p[1:],
     ("bad-complex", CELLS_REFUSED)),
    (lambda p: p[:1] + [[7, 0]] + p[1:], ("bad-complex", CELLS_REFUSED)),
    (lambda p: p[:1] + [["v:9", 0.5]] + p[1:],
     ("bad-complex", "dimension of v:9 is not an integer: 0.5")),
    (lambda p: p[:1] + [["v:9", "0"]] + p[1:],
     ("bad-complex", "dimension of v:9 is not an integer: '0'")),
    # an id named twice is refused, wherever the repeat stands; each was
    # read as one cell of the last dimension, the second into a valid
    # complex
    (lambda p: p + [[p[0][0], 2]], ("bad-complex", "cells name e:0 twice")),
    (lambda p: [[p[-1][0], 2]] + p, ("bad-complex", "cells name v:2 twice")),
], ids=["mapping", "string-item", "number-item", "short-pair", "long-pair",
        "number-id", "fractional-dim", "string-dim", "repeat-last-bad",
        "repeat-last-good"])
def test_a_malformed_cells_member_gives_the_parsed_line(tmp_path, edit, want):
    body = cells_body(edit)
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(body))
    expected = parsed_outcome(path.read_text())
    assert expected == want
    for span in (4, 64, ffm._SPAN):
        with reader_span(span):
            assert loaded_outcome(path) == expected, span


def test_whitespace_between_tokens_is_cut_over(tmp_path):
    entry = catalog.build("example22-circle")
    body = renamed_body(entry["flow"], str, entry["k"])
    texts = [json.dumps(body, indent=1),
             json.dumps(body, indent="\t"),
             json.dumps(body, indent=1).replace("\n", "\r\n"),
             json.dumps(body, separators=("\t,\r\n\t", " :\t"))]
    path = tmp_path / "flow.json"
    for text in texts:
        # written as it stands: the \r\n pairs stay on disk
        path.write_text(text, newline="")
        for span in (4, 64):
            with reader_span(span), whole_decodes() as whole:
                assert loaded_outcome(path) == \
                    parsed_outcome(path.read_text()), span
            assert whole == [], span


@pytest.mark.parametrize("ids", [(1, True), (True, 1), (1, 1.0), (0, False)])
def test_equal_ids_of_other_types_read_as_parsed(tmp_path, ids):
    # 1, True and 1.0 are one dict key: a vertex given as one of them in
    # `cells` and in one boundary, and as another in the second boundary
    # that names it, keeps each occurrence as the file gives it
    vertices = {"v:0": ids[0], "v:1": 2, "v:2": 3}
    body = renamed_body(flm.rest_flow(spm.circle(3)),
                        lambda c: vertices.get(c, c))
    pairs = [p for c, faces in sorted(body["complex"]["boundary"].items())
             for p in faces if p[0] == ids[0]]
    assert len(pairs) == 2
    pairs[1][0] = ids[1]
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(body))
    for span in (4, ffm._SPAN):
        with reader_span(span):
            assert loaded_outcome(path) == parsed_outcome(path.read_text())


# a field a drawn body leaves out
ABSENT = object()

# id text rich in false cuts; faces that are not strings, or not hashable
ID_TEXT = st.text(alphabet='ab], "\\\u00fc\t', max_size=4)
ODD_FACES = st.sampled_from([1, True, 1.0, 0, None, [1], {"a": 1}, "ghost"])
ODD_COEFFS = st.sampled_from([0, 2, -1, "1", True, None, 1.5])


@st.composite
def renamed_flow_texts(draw):
    """The text of a rest flow on a small complex, its ids drawn from
    ID_TEXT, with up to two faults in its boundary, in one of several
    layouts."""
    cx = draw(st.sampled_from(small_complexes()))
    old = sorted(cx.cells)
    new = dict(zip(old, draw(st.lists(ID_TEXT, min_size=len(old),
                                      max_size=len(old), unique=True))))
    body = renamed_body(flm.rest_flow(cx), new.__getitem__)
    bnd = body["complex"]["boundary"]
    for c in draw(st.lists(st.sampled_from(sorted(bnd)), max_size=2,
                           unique=True)):
        pairs = bnd[c]
        i = draw(st.integers(0, len(pairs) - 1))
        fault = draw(st.sampled_from(["face", "coeff", "pair", "value"]))
        if fault == "face":
            pairs[i][0] = draw(ODD_FACES | ID_TEXT)
        elif fault == "coeff":
            pairs[i][1] = draw(ODD_COEFFS)
        elif fault == "pair":
            pairs[i] = pairs[i][:draw(st.sampled_from([0, 1]))] or [1, 2, 3]
        else:
            bnd[c] = draw(st.sampled_from([{}, "ab", 5, dict(pairs)]))
    # the complex's name and identifications, and the flow's name, each
    # absent, well formed or of another type
    for part, key, values in (
            (body["complex"], "name", [cx.name, 5, ["x"], None]),
            (body["complex"], "identifications", [[], None, 5, "ab"]),
            (body, "name", [None, "x", 7])):
        value = draw(st.sampled_from(values + [ABSENT]))
        if value is ABSENT:
            part.pop(key, None)
        else:
            part[key] = value
    return json.dumps(body, ensure_ascii=draw(st.booleans()),
                      indent=draw(st.sampled_from([None, 1, "\t"])))


@settings(max_examples=150, deadline=None)
@given(renamed_flow_texts(), st.sampled_from([1, 4, 16]))
def test_a_tiny_span_reads_what_json_loads_reads(text, span):
    # the same complex and flow, or the same error line, as the in-memory
    # path, and as the reader reading the text whole
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "flow.json")
        with open(path, "w") as fh:
            fh.write(text)
        with reader_span(span):
            got = loaded_outcome(path)
        with patched("_read_body", spans_fail), whole_decodes() as reads:
            whole = loaded_outcome(path)
        assert reads == [1]
    assert got == parsed_outcome(text)
    assert got == whole


def ghost_face(body):
    # a boundary that names a cell the complex does not declare
    bnd = body["complex"]["boundary"]
    bnd[min(bnd)].append(["ghost", 1])


def first_successors(body, value):
    succ = body["successors"]
    succ[min(succ)] = value(succ[min(succ)])


# faults a flow body may carry, by the member that holds them
MEMBER_FAULTS = {
    "complex": [
        ghost_face,
        lambda body: body["complex"]["cells"].append(["x", "1"]),
        lambda body: body["complex"]["boundary"].update(ghost=[]),
        lambda body: body["complex"].pop("cells"),
    ],
    "successors": [
        lambda body: first_successors(body, lambda outs: "ab"),
        lambda body: first_successors(body, lambda outs: outs + [5]),
        lambda body: first_successors(body, lambda outs: outs + ["ghost"]),
        lambda body: body.pop("successors"),
    ],
    "fixed": [lambda body: body.update(fixed="ab"),
              lambda body: body["fixed"].append(None)],
    "k": [lambda body: body.update(k="ab"),
          lambda body: body.update(k=[1])],
    "ring": [lambda body: body.update(ring="q")],
}


@st.composite
def two_fault_texts(draw):
    """The text of a small catalog flow, with its `k` and `ring`, with a
    fault in each of two members, its members in a drawn order."""
    name = draw(st.sampled_from(["example22-circle", "north-south",
                                 "planar-disc"]))
    entry = shared_entry(name, catalog._RECIPES[name][2])
    body = dict(entry["flow"].to_json(), k=entry["k"], ring=entry["ring"])
    for member in draw(st.lists(st.sampled_from(sorted(MEMBER_FAULTS)),
                                min_size=2, max_size=2, unique=True)):
        draw(st.sampled_from(MEMBER_FAULTS[member]))(body)
    order = draw(st.permutations(sorted(body)))
    return json.dumps({key: body[key] for key in order},
                      indent=draw(st.sampled_from([None, 1])))


@settings(max_examples=150, deadline=None)
@given(two_fault_texts(), st.sampled_from([4, ffm._SPAN]))
def test_of_faults_in_two_members_the_reader_names_the_oracles(text, span):
    # the reader and the in-memory path read the members in the body's
    # order, so both name the same one of the two faults
    want = parsed_outcome(text)
    assert len(want) == 2, want
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "flow.json")
        with open(path, "w") as fh:
            fh.write(text)
        with reader_span(span):
            assert loaded_outcome(path) == want


def test_json_fixed_disagreement():
    fl = catalog.build("example22-circle")["flow"]
    data = fl.to_json()
    data["fixed"] = sorted(fl.tops)    # claims everything is fixed
    with pytest.raises(flm.FlowError) as ei:
        flm.CombinatorialFlow.from_json(data)
    assert ei.value.code == "unreadable-input"


def test_json_named_complex_needs_resolver():
    fl = catalog.build("example22-circle")["flow"]
    data = dict(fl.to_json(), complex=fl.cx.name)
    with pytest.raises(flm.FlowError) as ei:
        flm.CombinatorialFlow.from_json(data)
    assert ei.value.code == "unreadable-input"
    assert str(ei.value) == "flow references complex %r by name" % fl.cx.name


def test_json_body_json_cannot_write_is_refused():
    with pytest.raises(flm.FlowError) as ei:
        flm.CombinatorialFlow.from_json({"x": {1}})
    assert (ei.value.code, str(ei.value)) == (
        "unreadable-input",
        "cannot read flow body: Object of type set is not JSON serializable")


def test_a_text_read_whole_without_successors_is_refused_by_name(tmp_path):
    # an id holding a false cut sends the reader to the whole text, where
    # the missing member is found once every other member has been read
    entry = catalog.build("example22-circle")
    body = renamed_body(entry["flow"], lambda c: c + FALSE_CUTS[0])
    del body["successors"]
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(body))
    with reader_span(4), whole_decodes() as whole:
        assert loaded_outcome(path) == (
            "unreadable-input", "malformed flow data: successors is not a "
            "mapping from cell ids to lists of cell ids")
    assert whole


def point(**fields):
    # the one-cell complex's body with `fields` added
    return dict({"name": "pt", "cells": [["a", 0]]}, **fields)


PAIRS_REFUSED = "boundary of a is not a list of [face, coeff] pairs"
# two edges e and f from w to v, e first
EDGES = [["e", 1], ["f", 1], ["v", 0], ["w", 0]]
BOUNDARY_REFUSED = ("boundary is not a mapping from cell ids to lists of "
                    "[face, coeff] pairs")
DISAGREES = "fixed set disagrees with successors"


@pytest.mark.parametrize("field, value, why", [
    ("successors", {"a": "a"},
     "successors is not a mapping from cell ids to lists of cell ids"),
    ("fixed", "a", "fixed is not a list of cell ids"),
    ("k", "a", "k is not a list of cell ids"),
    ("ring", "q", "ring is not z or z2"),
    ("name", 7, "name is not a string"),
    # the complex's own fields, each refused as a bad complex
    ("complex", point(name=["x"]), "the complex's name is not a string"),
    ("complex", point(name=5), "the complex's name is not a string"),
    ("complex", point(identifications=5), "identifications are not a list"),
    ("complex", point(boundary={"a": [["b", 1, 2]]}), PAIRS_REFUSED),
    ("complex", point(boundary={"a": [[["b"], 1]]}), PAIRS_REFUSED),
    # a `cells` or `boundary` of the wrong shape is refused by name: not
    # as a Python error, a cell with no successor or a bad dimension
    ("complex", point(boundary=[["a", 1]]), BOUNDARY_REFUSED),
    ("complex", point(boundary="x"), BOUNDARY_REFUSED),
    ("complex", point(cells=[["a", 0, 1]]), CELLS_REFUSED),
    ("complex", point(cells=[[["a"], 0]]), CELLS_REFUSED),
    ("complex", point(cells=[[5, 0]]), CELLS_REFUSED),
    ("complex", point(cells=["ab"]), CELLS_REFUSED),
    # a two-letter string or a two-key object where a pair belongs would
    # read as a face and a coefficient
    ("complex", point(cells=[["a", 1], ["b", 0]], boundary={"a": ["bc"]}),
     PAIRS_REFUSED),
    ("complex", point(cells=[["a", 1], ["b", 0]],
                      boundary={"a": [["b", -1], "bc"]}), PAIRS_REFUSED),
    ("complex", point(cells=[["a", 1], ["b", 0]],
                      boundary={"a": [{"b": 1, "c": 1}]}), PAIRS_REFUSED),
    # a complex with no `cells`, and a coefficient that is a list or an
    # object, are refused by name, not as a Python error
    ("complex", {"name": "pt", "boundary": {}}, CELLS_REFUSED),
    ("complex", point(cells=[["a", 1], ["b", 0]],
                      boundary={"a": [["b", [1]]]}),
     "coefficient of b in a is not an integer: [1]"),
    ("complex", point(cells=[["a", 1], ["b", 0]],
                      boundary={"a": [["b", {"x": 1}]]}),
     "coefficient of b in a is not an integer: {'x': 1}"),
    # a float or a bool coefficient equals an int one, and each is refused
    # where another cell has the same coefficients as ints, the bad cell
    # read before it or after it
    ("complex", point(cells=EDGES, boundary={"e": [["v", 1], ["w", -1]],
                                             "f": [["v", 1.0], ["w", -1]]}),
     "coefficient of v in f is not an integer: 1.0"),
    ("complex", point(cells=EDGES, boundary={"e": [["v", 1], ["w", -1]],
                                             "f": [["v", True], ["w", -1]]}),
     "coefficient of v in f is not an integer: True"),
    ("complex", point(cells=EDGES, boundary={"f": [["v", 1.0], ["w", -1]],
                                             "e": [["v", 1], ["w", -1]]}),
     "coefficient of v in f is not an integer: 1.0"),
    # the point's one cell is fixed, which an empty list denies too
    ("fixed", [], DISAGREES),
    # an empty complex object; a face that is a number, read whole as an
    # unknown cell
    ("complex", {}, CELLS_REFUSED),
    ("complex", point(cells=[["a", 1], ["b", 0]], boundary={"a": [[7, 1]]}),
     "boundary of a mentions unknown cell 7"),
])
def test_from_json_refuses_what_a_file_refuses(tmp_path, field, value, why):
    # a string where a list of ids belongs reads as a list of letters
    body = {"complex": point(), "successors": {"a": ["a"]}, "fixed": ["a"],
            field: value}
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(body))
    want = (("bad-complex", why) if field == "complex"
            else ("unreadable-input", why) if why == DISAGREES
            else ("unreadable-input", "malformed flow data: " + why))
    for read in (lambda: flm.CombinatorialFlow.from_json(body),
                 lambda: ffm.load_file(str(path)),
                 lambda: parsed_flow(path.read_text())):
        with pytest.raises(cxm.ConleyError) as ei:
            read()
        assert (ei.value.code, str(ei.value)) == want


def test_no_boundary_span_runs_past_the_object(tmp_path, monkeypatch):
    # with sorted keys, `cells` follows `boundary` and holds no cut: the
    # last span ends at the boundary's own closing brace, not at the end
    # of `cells`
    body = shared_entry("example22-torus")["flow"].to_json()
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(body, sort_keys=True))
    longest = max(len(json.dumps({c: pairs}))
                  for c, pairs in body["complex"]["boundary"].items())
    spans = []

    class Recording(json.JSONDecoder):
        # a boundary span is decoded from its own index 0 as an object of
        # [face, coeff] lists; a member decoded whole may start at index 0
        # of the reader's window too, but no other member of this file is
        # such an object
        def __init__(self):
            super().__init__()
            scan = self.scan_once

            def recorded(s, i):
                value, end = scan(s, i)
                if i == 0 and type(value) is dict and all(
                        type(pairs) is list
                        and all(type(p) is list for p in pairs)
                        for pairs in value.values()):
                    spans.append(len(s) - 2)
                return value, end

            self.scan_once = recorded

    monkeypatch.setattr(ffm, "json", types.SimpleNamespace(
        JSONDecoder=Recording, dumps=json.dumps, loads=json.loads))
    with reader_span(256):
        got = loaded_outcome(path)
    assert len(spans) > 2
    assert max(spans) <= 256 + longest, (max(spans), longest)
    assert got == parsed_outcome(path.read_text())


# cell ids rich in what JSON escapes, in false cuts and in braces
ESCAPED_IDS = st.text(alphabet='a]}", \\\n\tü∂\U0001d49c',
                      min_size=1, max_size=3)
UNKNOWN_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | ESCAPED_IDS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(ESCAPED_IDS, inner, max_size=3)),
    max_leaves=8)
FLOW_KEYS = {"complex", "successors", "fixed", "k", "ring", "recipe", "name"}
COMPLEX_KEYS = {"name", "cells", "boundary", "identifications"}


def written_string(rnd, s):
    """s as a JSON string, each character as itself, as json.dumps escapes
    it for ASCII, or as a \\u escape of its UTF-16 units, chosen by rnd."""
    out = []
    for ch in s:
        way = rnd.choice(["plain", "ascii", "u"])
        if way == "u":
            units = ch.encode("utf-16-be")
            out.extend("\\u%02x%02X" % (units[i], units[i + 1])
                       for i in range(0, len(units), 2))
        else:
            out.append(json.dumps(ch, ensure_ascii=way == "ascii")[1:-1])
    return '"%s"' % "".join(out)


def written(rnd, value):
    """value as JSON text, with up to two characters of JSON whitespace
    around each token, the members of each object in a shuffled order, and
    each string written by written_string, every choice made by rnd."""
    def ws():
        return "".join(rnd.choice(" \t\n\r") for _ in range(rnd.randint(0, 2)))

    if type(value) is dict:
        items = list(value.items())
        rnd.shuffle(items)
        return "{%s}" % (",".join(
            "%s%s%s:%s%s%s" % (ws(), written_string(rnd, k), ws(), ws(),
                               written(rnd, v), ws())
            for k, v in items) or ws())
    if type(value) is list:
        return "[%s]" % (",".join(ws() + written(rnd, v) + ws()
                                  for v in value) or ws())
    if type(value) is str:
        return written_string(rnd, value)
    return json.dumps(value)


@st.composite
def object_texts(draw):
    """The text of a rest flow on a small complex, its ids drawn from
    ESCAPED_IDS, with unknown members in the body and in its complex,
    written by `written`."""
    cx = draw(st.sampled_from(small_complexes()))
    old = sorted(cx.cells)
    new = dict(zip(old, draw(st.lists(ESCAPED_IDS, min_size=len(old),
                                      max_size=len(old), unique=True))))
    tops = sorted(cx.top_cells())
    k = draw(st.lists(st.sampled_from(tops), min_size=1, unique=True))
    body = renamed_body(flm.rest_flow(cx), new.__getitem__, k)
    for part, known in ((body, FLOW_KEYS), (body["complex"], COMPLEX_KEYS)):
        part.update(draw(st.dictionaries(
            st.text(max_size=3).filter(lambda key: key not in known),
            UNKNOWN_VALUES, max_size=2)))
    return written(draw(st.randoms(use_true_random=True)), body)


@settings(max_examples=150, deadline=None)
@given(object_texts(), st.sampled_from([4, 64, ffm._SPAN]))
def test_the_reader_reads_every_object_json_loads_reads(text, span):
    # a text json.loads reads as an object is read by the reader too, as
    # the in-memory path reads it
    want = parsed_outcome(text)
    assert len(want) == 3, want
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "flow.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with reader_span(span):
            assert loaded_outcome(path) == want


def nested_flow_text(depth):
    """A one-cell flow whose complex holds an unknown member: arrays
    nested `depth` deep."""
    return ('{"complex": {"name": "pt", "cells": [["a", 0]], "x": %s%s}, '
            '"successors": {"a": ["a"]}, "k": ["a"]}'
            % ("[" * depth, "]" * depth))


def test_a_complex_member_nested_past_the_reader_loads_or_is_one_error_line(
        tmp_path, capsys):
    # a member of the complex nested near the recursion limit: where the
    # reader's own calls meet the limit the text is read whole, and
    # json.loads reads it or refuses it. Each depth either loads, as the
    # same flow nested one deep does, or is refused on one line
    from conleylab import cli
    path = tmp_path / "deep.json"
    path.write_text(nested_flow_text(1))
    assert cli.main(["analyze", str(path)]) == 0
    want = capsys.readouterr().out
    refused = []
    for depth in range(sys.getrecursionlimit(), 0, -1):
        path.write_text(nested_flow_text(depth))
        code = cli.main(["analyze", str(path)])
        out, err = capsys.readouterr()
        if code == 0:
            assert out == want, depth
            break
        refused.append(depth)
        assert (code, out) == (1, ""), depth
        assert err.startswith("error[unreadable-input]: "), (depth, err)
        assert err.count("\n") == 1 and "Traceback" not in err, depth
    assert code == 0 and depth > 1, refused


def test_a_text_json_loads_reads_and_the_spans_do_not_loads_as_parsed(
        tmp_path, monkeypatch):
    # the reader, made to meet the recursion limit inside the complex,
    # reads the text whole, as json.loads reads it
    def too_deep(*args):
        raise RecursionError

    path = tmp_path / "flow.json"
    path.write_text(nested_flow_text(1))
    want = parsed_outcome(path.read_text())
    assert len(want) == 3, want
    monkeypatch.setattr(ffm, "_read_complex", too_deep)
    with whole_decodes() as whole:
        assert loaded_outcome(path) == want
    assert whole == [1]


def test_a_malformed_cells_entry_then_a_syntax_error_gives_the_parsers_line(
        tmp_path):
    # the spans leave a malformed `cells` entry to the whole read, which
    # meets the syntax error after the complex before it builds the complex
    text = json.dumps(cells_body(lambda p: p[:1] + [5] + p[1:]))
    text = text[:-1] + ", }"
    with pytest.raises(ValueError) as parser:
        json.loads(text)
    path = tmp_path / "flow.json"
    path.write_text(text)
    for span in (4, 64, ffm._SPAN):
        with reader_span(span), pytest.raises(flm.FlowError) as ei:
            ffm.load_file(str(path))
        assert (ei.value.code, str(ei.value)) == (
            "unreadable-input",
            "cannot read flow file %s: %s" % (path, parser.value)), span


def test_a_byte_that_does_not_decode_is_reported_first(tmp_path):
    # the file is read a chunk at a time, yet a byte that does not decode
    # is reported before a field fault met earlier in the file, with the
    # message of reading the file whole
    flow = shared_entry("example22-torus")["flow"].to_json()
    body = {"fixed": "a", "complex": flow["complex"],
            "successors": flow["successors"]}
    text = json.dumps(body, indent=1).encode()
    # the bad byte lies well past the blocks the reads up to `fixed` decode
    assert text.index(b'"fixed"') + (1 << 16) < len(text) - 20
    path = tmp_path / "flow.json"
    path.write_bytes(text[:-20] + b"\xff" + text[-20:])
    with pytest.raises(UnicodeDecodeError) as whole:
        with open(path) as fh:
            fh.read()
    for span in (64, ffm._SPAN):
        with reader_span(span), pytest.raises(flm.FlowError) as ei:
            ffm.load_file(str(path))
        assert (ei.value.code, str(ei.value)) == (
            "unreadable-input",
            "cannot read flow file %s: %s" % (path, whole.value)), span


@pytest.mark.parametrize("tail", ['"x": 12}', '"x": 1e5 }', '"x": [1]}'])
def test_a_number_that_ends_the_file_is_read(tmp_path, tail):
    # a number may go on past the window's end, so the window grows before
    # it is taken; at the end of the file nothing is read and the cursor
    # stays where it stood
    entry = catalog.build("example22-circle")
    text = json.dumps(renamed_body(entry["flow"], str, entry["k"]))
    path = tmp_path / "flow.json"
    path.write_text(text[:-1] + ", " + tail)
    want = parsed_outcome(path.read_text())
    assert len(want) == 3, want
    for span in (4, 64, ffm._SPAN):
        with reader_span(span):
            assert loaded_outcome(path) == want, span
