import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conleylab import (algebra, attractor, blocks, catalog, complexes as cxm,
                       flow as flm, flowfile as ffm, spaces as spm)
from test_blocks import section_components
from test_flow import (eventual_image, image_cycle, iterated_image,
                       shared_entry, small_flows, trim_loop)


# -- reference implementations: one enclosure per cell -----------------------------

def stabilization_rounds(flow, k):
    s = frozenset(k)
    while True:
        ring = set()
        for x in s:
            ring |= flow.one_ring(x)
        nxt = s | iterated_image(flow, ring, "f")
        if nxt == s:
            return s
        s = nxt


def basin_per_cell(flow, khat):
    return frozenset(x for x in flow.tops
                     if iterated_image(flow, {x}, "f") <= khat)


def unstable_per_cell(flow, col):
    out = set()
    for x in flow.tops:
        enc = iterated_image(flow, {x}, "p")
        if enc and enc <= col:
            out.add(x)
    return frozenset(out)


def violators_per_cell(flow, cells, within, col, direction):
    return [x for x in sorted(cells)
            if not iterated_image(flow, flow.one_ring(x) & within, direction,
                                  within) <= col]


def witness_per_candidate(flow, candidates, within, col):
    rec = flow.recurrent_cells()
    for x in sorted(candidates):
        reach = flow.reach(flow.one_ring(x) & within, "f")
        core = trim_loop(flow, (rec & reach) - col, "f")
        if core:
            return x, attractor._extract_cycle(flow, core)
    return None


def components_by_cofaces(flow, basin_cells, k, khat):
    """Components of basin - k by a breadth-first walk that asks the
    complex for the top cofaces of every face it crosses."""
    rest = set(basin_cells) - set(k)
    comps = []
    seen = set()
    for start in sorted(rest):
        if start in seen:
            continue
        comp = {start}
        q = [start]
        seen.add(start)
        while q:
            u = q.pop(0)
            for f in flow.cx.boundary[u]:
                for v in flow.cx.top_cofaces(f):
                    if v in rest and v not in seen:
                        seen.add(v)
                        comp.add(v)
                        q.append(v)
        label = "homoclinic" if comp <= khat else "uniform"
        comps.append({"cells": frozenset(comp), "label": label})
    return comps


def hug_flow():
    c = spm.circle(6)
    succ = {"e:0": ["e:0"], "e:1": ["e:2"], "e:2": ["e:3"],
            "e:3": ["e:4"], "e:4": ["e:5"], "e:5": ["e:4"]}
    return flm.CombinatorialFlow(c, succ, name="hug")


def _cell(i, j):
    return "e:%d@e%d" % (i % 6, j % 6)


# X branches onto a 2-cycle and a 3-cycle
X = _cell(3, 3)
TWO_CYCLE = [_cell(4, 4), _cell(4, 5)]
THREE_CYCLE = [_cell(4, 2), _cell(5, 2), _cell(5, 3)]


def two_cycle_flow():
    """A fixed cell k = (0, 0) on a 6x6 torus. Every other cell steps toward
    k, except that the corner (1, 1) of its collar leaks through (2, 2) into
    X, which feeds both cycles. The one-ring of (1, 0) holds one cell of
    that path and no other cell that reaches a cycle, so its images enter
    each cycle at a single phase and repeat with period lcm(2, 3) = 6."""
    def toward_zero(i):
        return i - 1 if 1 <= i <= 3 else (i + 1) % 6 if i >= 4 else 0
    succ = {_cell(i, j): [_cell(toward_zero(i), toward_zero(j))]
            for i in range(6) for j in range(6)}
    succ[_cell(1, 1)] = [_cell(0, 0), _cell(2, 2)]
    succ[_cell(2, 2)] = [X]
    succ[X] = [TWO_CYCLE[0], THREE_CYCLE[0]]
    for cyc in (TWO_CYCLE, THREE_CYCLE):
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            succ[a] = [b]
    return flm.CombinatorialFlow(spm.torus(6), succ, name="two-cycles")


def witness_seed_flow():
    """k = {e:1, e:2} on a circle of 7 edges, whose basin is the whole
    circle. The violator e:0 reaches only the fixed cell e:6 inside
    basin - k, but its one-ring also holds e:1, a cell of k that leads on
    to the 2-cycle e:4, e:5. So the witness cycle depends on the seed
    being confined to basin - k."""
    succ = {"e:0": ["e:6"], "e:1": ["e:2"], "e:2": ["e:1", "e:2", "e:3"],
            "e:3": ["e:4"], "e:4": ["e:5"], "e:5": ["e:4", "e:5", "e:6"],
            "e:6": ["e:6"]}
    return flm.CombinatorialFlow(spm.circle(7), succ, name="witness-seed")


def oracle_cases():
    """(flow, k) for every isolated catalog candidate and three hand-built
    flows. capped-annulus is not isolated, see
    test_not_isolated_candidate_rejected."""
    for name in catalog.names():
        entry = shared_entry(name)
        if entry["k"] and name != "capped-annulus":
            yield entry["flow"], entry["k"]
    yield hug_flow(), ["e:0"]
    yield two_cycle_flow(), [_cell(0, 0)]
    yield witness_seed_flow(), ["e:1", "e:2"]


def test_verdict_vocabulary():
    assert attractor.VERDICTS == ("Stable", "NoExternalExplosions",
                                  "ExternalExplosions", "Unknown")


def test_north_south_is_stable():
    rep = catalog.analysis(catalog.build("north-south"))
    assert rep.classification == "Stable"
    assert rep.stabilization == rep.k
    assert rep.r == 0 and rep.s == 1
    assert not rep.global_attractor
    assert [c["label"] for c in rep.components] == ["uniform"]


def test_torus_flow_full_pipeline():
    entry = catalog.build("example22-torus")
    rep = attractor.analyze(entry["flow"], entry["k"])
    assert rep.classification == "NoExternalExplosions"
    assert rep.r == 1 and rep.s == 1
    assert rep.global_attractor
    assert rep.basin == entry["flow"].tops
    # the engine cell reseeds its downstream cone, so the stabilization
    # sweeps the whole torus
    assert rep.stabilization == entry["flow"].tops
    assert rep.components[0]["label"] == "homoclinic"


def test_homoclinic_sphere_witness():
    entry = catalog.build("homoclinic-sphere")
    rep = catalog.analysis(entry)
    assert rep.classification == "ExternalExplosions"
    assert rep.witness is not None
    assert rep.witness in rep.witness_cycle
    col = attractor.collar(entry["flow"], entry["k"])
    assert not set(rep.witness_cycle) & col


def test_unknown_when_cycle_hugs_the_collar():
    # recurrence just outside K whose only cycle clips the collar: the
    # enclosures leave the collar but no fully-outside cycle certifies
    rep = attractor.analyze(hug_flow(), {"e:0"})
    assert rep.classification == "Unknown"
    assert rep.witness is None
    assert rep.notes and "refine and retry" in rep.notes[0]
    assert rep.stabilization == frozenset({"e:0", "e:4", "e:5"})


def test_not_isolated_candidate_rejected():
    with pytest.raises(attractor.NotIsolatedError) as ei:
        catalog.analysis(catalog.build("capped-annulus"))
    assert ei.value.code == "not-isolated"
    f = flm.rest_flow(spm.circle(6))
    with pytest.raises(attractor.NotIsolatedError):
        attractor.analyze(f, {"v:0"})    # not a top cell


def test_report_to_json():
    rep = catalog.analysis(catalog.build("example22-torus"))
    data = rep.to_json()
    assert data["classification"] == "NoExternalExplosions"
    assert data["global"] is True


def test_two_cycle_flow_has_image_period_six():
    f = two_cycle_flow()
    seed = f.one_ring(_cell(1, 0))
    assert len(image_cycle(f, seed)) == 6
    assert eventual_image(f, seed) == iterated_image(f, seed)
    rep = attractor.analyze(f, [_cell(0, 0)])
    assert rep.stabilization == frozenset([_cell(0, 0)] + TWO_CYCLE
                                          + THREE_CYCLE)
    assert rep.classification == "ExternalExplosions"


def test_witness_seed_stays_outside_k():
    rep = attractor.analyze(witness_seed_flow(), ["e:1", "e:2"])
    assert rep.global_attractor
    assert rep.classification == "ExternalExplosions"
    assert (rep.witness, rep.witness_cycle) == ("e:0", ["e:6"])


def assert_pipeline_matches_per_cell_definitions(f, k, label):
    kset = frozenset(k)
    col = attractor.collar(f, kset)
    khat = attractor.stabilization(f, kset)
    assert khat == stabilization_rounds(f, kset), label
    bas = attractor.basin(f, khat)
    assert bas == basin_per_cell(f, khat), label
    assert attractor.unstable_manifold(f, col) == \
        unstable_per_cell(f, col), label
    within = bas - kset
    rec = f.recurrent_cells(within)
    plus = attractor._violators(f, within, rec, col, "f")
    minus = [x for x in attractor._violators(f, within, rec, col, "p")
             if x in khat]
    assert plus == violators_per_cell(f, within, within, col, "f"), label
    assert minus == violators_per_cell(f, khat & within, within, col,
                                       "p"), label
    for cands in (plus, minus):
        assert attractor._witness_search(f, cands, within, col) == \
            witness_per_candidate(f, cands, within, col), label


def assert_components_match_coface_walk(f, k, label):
    kset = frozenset(k)
    khat = attractor.stabilization(f, kset)
    bas = attractor.basin(f, khat)
    assert attractor.components(f, bas, kset, khat) == \
        components_by_cofaces(f, bas, kset, khat), label
    # a basin without k's neighbours splits into more pieces
    thin = bas - attractor.collar(f, kset) | kset
    assert attractor.components(f, thin, kset, khat) == \
        components_by_cofaces(f, thin, kset, khat), label


def test_pipeline_matches_per_cell_definitions():
    for f, k in oracle_cases():
        assert_pipeline_matches_per_cell_definitions(f, k, f.name)


def test_components_match_coface_walk():
    for f, k in oracle_cases():
        assert_components_match_coface_walk(f, k, f.name)


def random_candidate(data):
    """(flow, k, seed) with k the invariant part of the star of a random set
    of top cells, or None when k is empty or not isolated in its collar."""
    fl = data.draw(small_flows())
    seed = data.draw(st.frozensets(st.sampled_from(sorted(fl.tops)),
                                   min_size=1))
    star = fl.cx.star_tops(seed)
    k = fl.trim(star, "f") & fl.trim(star, "p")
    if not k:
        return None
    try:
        attractor.check_isolated(fl, k, attractor.collar(fl, k))
    except attractor.NotIsolatedError:
        return None
    return fl, k, sorted(seed)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pipeline_matches_per_cell_definitions_on_small_flows(data):
    drawn = random_candidate(data)
    if drawn:
        assert_pipeline_matches_per_cell_definitions(*drawn)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_components_match_coface_walk_on_small_flows(data):
    drawn = random_candidate(data)
    if drawn:
        assert_components_match_coface_walk(*drawn)


def test_analyze_on_a_loaded_file_builds_no_coface_index_or_rings():
    for f, k in oracle_cases():
        body = json.loads(json.dumps(f.to_json()))
        loaded = flm.CombinatorialFlow.from_json(body)
        attractor.analyze(loaded, k)
        cx = loaded.cx
        assert "_top_cofaces" not in cx.__dict__, f.name
        # the analysis adds the base-cell stars to the complex and nothing
        # else, in every dimension: no support and no ring is stored per cell
        fresh = flm.CombinatorialFlow.from_json(body).cx
        assert set(vars(cx)) - set(vars(fresh)) == {"_vert_tops"}, f.name


def test_whole_flow_enclosures_are_the_top_cell_set_itself(tmp_path):
    # a stabilization or basin that covers the flow is `flow.tops`, not a
    # copy of it; one that does not is a set of its own
    kinds = set()
    for f, k in oracle_cases():
        rep = attractor.analyze(f, k)
        assert (rep.basin is f.tops) == rep.global_attractor, f.name
        assert (rep.stabilization is f.tops) == \
            (rep.stabilization == f.tops), f.name
        kinds.add((rep.global_attractor, rep.stabilization == f.tops))
    # the torus flow is global and stabilizes to the whole torus
    entry = catalog.build("example22-torus")
    f, kset = entry["flow"], frozenset(entry["k"])
    assert attractor.stabilization(f, kset) is f.tops
    assert attractor.basin(f, f.tops) is f.tops
    assert {(True, True), (False, False)} <= kinds
    # so is a loaded flow's
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(dict(f.to_json(), k=entry["k"])))
    loaded = ffm.load_file(str(path))
    rep = attractor.analyze(loaded["flow"], loaded["k"])
    assert rep.stabilization is rep.basin is loaded["flow"].tops


def test_analyze_peaks_within_half_the_loaded_flow(tmp_path):
    # the stages work inside the flow's own memory: on example22-torus@32
    # read from its file, the traced peak of analyze above its start is
    # about a third of what the loaded flow holds (two thirds while the
    # components kept a list of owners per face and the sweeps copied
    # basin - k)
    entry = catalog.build("example22-torus", 32)
    path = tmp_path / "torus32.json"
    path.write_text(json.dumps(dict(entry["flow"].to_json(), k=entry["k"])))
    del entry
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loaded = ffm.load_file(str(path))
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rep = attractor.analyze(loaded["flow"], loaded["k"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    assert rep.classification == "NoExternalExplosions"
    assert peak - start <= 0.5 * (start - base), (peak - start, start - base)


def test_analyze_peaks_within_the_load_peak(tmp_path):
    # on the example22-torus@48 file that `construct` writes, the traced
    # highest point of analyze stays within 1.03 times the traced peak of
    # load_file: the unstable manifold comes last, so its set is not alive
    # beside the components' union-find, and the flow holds no top-cell
    # set of its own and one 1-tuple per cell (about 0.96 times; 1.04
    # without those)
    from conleylab import cli
    path = str(tmp_path / "torus48.json")
    assert cli.main(["construct", "example22-torus", "--resolution", "48",
                     "--out", path]) == 0
    started = not tracemalloc.is_tracing()
    with cxm.collector_paused():
        if started:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            entry = ffm.load_file(path)
            load_peak = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            rep = attractor.analyze(entry["flow"], entry["k"])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
    assert rep.classification == "NoExternalExplosions"
    assert peak <= 1.03 * load_peak, (peak, load_peak)


def test_analyze_computes_the_collar_and_isolation_once(monkeypatch):
    calls = {}
    for name in ("collar", "check_isolated"):
        def counted(*args, _fn=getattr(attractor, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(attractor, name, counted)
    for f, k in oracle_cases():
        calls.update(collar=0, check_isolated=0)
        attractor.analyze(f, k)
        assert calls == {"collar": 1, "check_isolated": 1}, f.name


# -- relabelling ----------------------------------------------------------------

def relabel(fl, rng):
    """(flow, perm): `fl` on a copy of its complex whose cell ids are
    permuted within each dimension by `rng`, with the cells given in the
    sorted order of their new ids, as a loaded file gives them; `perm` maps
    each old id to its new one."""
    cx = fl.cx
    perm = {}
    for d in sorted(set(cx.cells.values())):
        old = cx.cells_of_dim(d)
        new = list(old)
        rng.shuffle(new)
        perm.update(zip(old, new))
    back = {v: c for c, v in perm.items()}
    cells = {c: cx.cells[back[c]] for c in sorted(back)}
    bnd = {perm[c]: tuple(map(perm.get, faces))
           for c, faces in cx.boundary.items()}
    coeffs = {perm[c]: ks for c, ks in cx.coefficients.items()}
    succ = {perm[c]: [perm[d] for d in outs] for c, outs in fl.succ.items()}
    return (flm.CombinatorialFlow(cxm.CellComplex(cx.name, cells, bnd,
                                                  coeffs), succ,
                                  name=fl.name), perm)


def outcome(fn, *args):
    # a value, or the code of the ConleyError it raised
    try:
        return fn(*args)
    except cxm.ConleyError as err:
        return ("error", err.code)


def sections(fl, k):
    return outcome(lambda: section_components(
        blocks.build_block(fl, k)))


def homologies(cx, k):
    rels = [None] + ([cx.closure(k)] if k else [])
    return [algebra.homology(cx, ring, rel)
            for ring in ("z", "z2") for rel in rels]


def test_verdicts_do_not_depend_on_cell_names():
    # every catalog entry at its minimum resolution, its cell ids permuted
    for name, (_, _, minimum) in sorted(catalog._RECIPES.items()):
        entry = catalog.build(name, minimum)
        fl, k = entry["flow"], entry["k"]
        fl2, perm = relabel(fl, random.Random("relabel/" + name))
        k2 = [perm[c] for c in k] if k else None
        assert homologies(fl2.cx, k2) == homologies(fl.cx, k), name
        if not k:
            continue
        assert sections(fl2, k2) == sections(fl, k), name
        rep = outcome(attractor.analyze, fl, k)
        rep2 = outcome(attractor.analyze, fl2, k2)
        if type(rep) is tuple:
            assert rep2 == rep, name
            continue
        for key in ("classification", "r", "s", "global_attractor"):
            assert getattr(rep2, key) == getattr(rep, key), (name, key)
        for key in ("stabilization", "basin", "unstable"):
            assert getattr(rep2, key) == {perm[c] for c in
                                          getattr(rep, key)}, (name, key)
        assert {(frozenset(map(perm.get, c["cells"])), c["label"])
                for c in rep.components} == \
            {(c["cells"], c["label"]) for c in rep2.components}, name
        if rep2.witness is None:
            assert rep.witness is None, name
            continue
        # the witness is the least candidate in sorted order, so it may be
        # another cell; it must still violate, with a cycle off the collar
        kset = frozenset(k2)
        col = attractor.collar(fl2, kset)
        within = rep2.basin - kset
        cands = (violators_per_cell(fl2, within, within, col, "f")
                 or violators_per_cell(fl2, rep2.stabilization & within,
                                       within, col, "p"))
        cycle = rep2.witness_cycle
        assert rep2.witness in cands, name
        assert cycle and not set(cycle) & col, name
        assert all(b in fl2.succ[a]
                   for a, b in zip(cycle, cycle[1:] + cycle[:1])), name
