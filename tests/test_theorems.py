import functools
import gc
import importlib
import json
import os
import pkgutil
import sys
import weakref

import pytest
from hypothesis import given, settings

import conleylab
from conleylab import (catalog, complexes as cxm, flow as flm,
                       flowfile as ffm, spaces as spm, theorems)
from test_flow import eventual_image, small_flows


def pairwise_jduality_violations(j_plus, j_minus, rings):
    """Reference count: every ordered pair (x, y) tested by the definition,
    one_ring(y) & J+(x) nonempty against one_ring(x) & J-(y) nonempty.
    `rings` holds the one-ring of each top cell, taken once per flow."""
    tops = sorted(rings)
    return sum(1 for x in tops for y in tops
               if rings[y].isdisjoint(j_plus[x])
               != rings[x].isdisjoint(j_minus[y]))


def rings_by_closure(cx):
    """The one-ring of each top cell by definition, the top cells whose
    closure meets its closure, without the complex's star query."""
    closures = {x: cx.closure({x}) for x in cx.top_cells()}
    return {x: frozenset(y for y, other in closures.items() if own & other)
            for x, own in closures.items()}


def per_seed(fl, direction, rings):
    """J+ (direction "f") or J- ("p") of each cell by its own walk from its
    one-ring, without the shared per-cell images."""
    return {x: eventual_image(fl, ring, direction)
            for x, ring in rings.items()}


def wrap_recipes(monkeypatch, flows):
    """Wrap every catalog recipe. Returns the list of the (name, resolution)
    of each recipe call, and appends a weakref to each flow built to
    `flows`."""
    calls = []
    for name, (fn, default, minimum) in list(catalog._RECIPES.items()):
        def counted(res, *args, fn=fn, name=name):
            calls.append((name, res))
            out = fn(res, *args)
            flows.append(weakref.ref(out[0]))
            return out
        monkeypatch.setitem(catalog._RECIPES, name,
                            (counted, default, minimum))
    return calls


def module_containers():
    """The length of every module-level dict, list and set of every
    conleylab module."""
    for info in pkgutil.iter_modules(conleylab.__path__):
        importlib.import_module("conleylab." + info.name)
    return {(mod.__name__, k): len(v)
            for mod in list(sys.modules.values())
            if mod.__name__.partition(".")[0] == "conleylab"
            for k, v in vars(mod).items()
            if isinstance(v, (dict, list, set)) and not k.startswith("__")}


def test_registry_order():
    assert theorems.check_ids() == [
        "thm3.4", "prop3.2", "cor3.3", "thm4.1", "thm4.2", "obstruction",
        "ex3.5", "ex3.7", "cor5.8", "thm5.9", "thm6.1", "lemma3.1",
        "lemma7.1", "lemma7.2", "conley-euler", "jduality"]


def test_all_checks_pass(monkeypatch):
    # a subcomplex is indexed without the sweep; the sweep, kept here as
    # the oracle, passes on every one the run takes: the closed k, the
    # block subcomplexes and the sections
    real = cxm.CellComplex.subcomplex
    taken = []

    def swept(self, cellset):
        sub = real(self, cellset)
        sub._validate()
        taken.append(sub.name)
        return sub

    monkeypatch.setattr(cxm.CellComplex, "subcomplex", swept)
    results = theorems.run()
    assert [r.id for r in results] == theorems.check_ids()
    for r in results:
        assert r.status == "pass", (r.id, r.details)
        assert r.instances > 0, r.id
    assert taken


def test_run_builds_the_genus_two_surface_once(monkeypatch):
    # the four genus-two entries share one surface through catalog.build
    calls = []
    real = spm.connected_sum

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    # patch every module that holds the builder, however it imported it
    for mod in list(sys.modules.values()):
        if getattr(mod, "connected_sum", None) is real:
            monkeypatch.setattr(mod, "connected_sum", counted)
    theorems.run()
    assert len(calls) == 1


def test_run_makes_one_whole_flow_scc_pass_per_flow(monkeypatch):
    # the recurrent cells and both image tables read one component list
    passes = {}
    real = flm.CombinatorialFlow._components

    def counted(self, within):
        if within is None:
            passes[self] = passes.get(self, 0) + 1
        return real(self, within)

    monkeypatch.setattr(flm.CombinatorialFlow, "_components", counted)
    theorems.run()
    assert passes and max(passes.values()) == 1


def test_run_reads_each_external_file_once(tmp_path, monkeypatch):
    # the entry `build` read is the one analysed: a second read could see a
    # rewritten file and pair an entry with the report of another flow
    entry = catalog.build("example22-circle")
    with_k = entry["flow"].to_json()
    with_k["k"] = entry["k"]
    (tmp_path / "withk.json").write_text(json.dumps(with_k))
    (tmp_path / "nok.json").write_text(json.dumps(entry["flow"].to_json()))
    monkeypatch.setenv("CONLEYLAB_CATALOG", str(tmp_path))
    reads = []
    real = ffm.load_file

    def counted(path, *args, **kwargs):
        reads.append(os.path.basename(path))
        return real(path, *args, **kwargs)

    monkeypatch.setattr(ffm, "load_file", counted)
    results = theorems.run()
    assert all(r.status == "pass" for r in results)
    assert sorted(reads) == ["nok.json", "withk.json"]


def test_a_flow_without_a_block_is_noted_and_skipped(monkeypatch):
    # each check that reads the block names the flow that has none and
    # goes on to the next record, keeping every other instance
    from conleylab import blocks
    real = blocks.build_block

    def build_block(flow, k):
        if flow.name == "example22-torus":
            raise blocks.NoBlockError("no isolating block within budget "
                                      "around %d cells" % len(k))
        return real(flow, k)

    monkeypatch.setattr(blocks, "build_block", build_block)
    path = os.path.join(os.path.dirname(__file__), "data", "verify.json")
    with open(path) as fh:
        pinned = {r["id"]: r for r in json.load(fh)}
    note = "note example22-torus: no isolating block within budget"
    checks = ("thm3.4", "thm6.1", "lemma3.1", "conley-euler")
    for r in theorems.run():
        if r.id not in checks:
            continue
        assert r.status == "pass", (r.id, r.details)
        assert note in r.details, r.id
        kept = [line for line in pinned[r.id]["details"]
                if not line.startswith("ok   example22-torus")]
        assert [line for line in r.details if line != note] == kept, r.id
        assert r.instances == pinned[r.id]["instances"] - 1, r.id


def test_run_only(monkeypatch):
    # a check that reads no catalog flow builds no entry
    calls = wrap_recipes(monkeypatch, [])
    assert theorems.run(only="ex3.5")[0].status == "pass"
    assert calls == []
    results = theorems.run(only="cor3.3")
    assert len(results) == 1 and results[0].id == "cor3.3"
    with pytest.raises(theorems.TheoremError) as ei:
        theorems.run(only="thm9.9")
    assert ei.value.code == "unknown-check"


def test_check_result_json():
    r = theorems.run(only="cor5.8")[0]
    d = r.to_json()
    assert sorted(d) == ["details", "id", "instances", "status", "title"]
    assert all(line.startswith(("ok   ", "FAIL ", "note ")) for line in d["details"])


def test_obstruction_report_values():
    cases = [
        (spm.sphere(3, 6), 0),
        (spm.rp2(), 0),
        (spm.torus(6), 1),
        (spm.connected_sum(spm.torus(4), spm.torus(4),
                           "e:2@e2", "e:2@e2"), 2),
    ]
    for cx, want in cases:
        rep = theorems.obstruction_report(cx)
        assert rep["r_max"] == want, cx.name
        if want == 0:
            assert rep["verdict"] == theorems.NO_UNSTABLE
        else:
            assert rep["verdict"] == theorems.AT_MOST % want


def test_obstruction_of_a_sum_with_a_sphere_is_the_torus_bound():
    # sphere # torus is a torus: its cup table is the torus table plus the
    # sphere's empty one, so both rings bound r by 1
    cx = spm.connected_sum(spm.sphere(3, 4), spm.torus(4),
                           "f:1,1", "e:2@e2")
    assert cx.euler() == 0
    for ring in ("z", "z2"):
        assert theorems.obstruction_report(cx, ring)["r_max"] == 1, ring


def test_shape_obstruction_forced():
    # K with sphere ranks inside the 3-torus: every candidate polynomial
    # needs a_1 = 3, but a global NoExternalExplosions attractor forces
    # the top coefficient r = 1, so nothing survives
    rep = theorems.shape_obstruction([1, 3, 3, 1], [1, 0, 1, 0], 1)
    assert rep["verdict"] == "forced external explosions"
    assert rep["feasible"] == []
    assert rep["candidates"] == ["t^3 + 2t^2 + 3t", "2t^3 + 3t^2 + 3t"]


def test_shape_obstruction_consistent():
    rep = theorems.shape_obstruction([1, 2, 2, 1], [1, 1, 1, 0], 1)
    assert rep["verdict"] == "consistent"
    assert rep["feasible"] == ["t^3 + t^2 + t"]


def test_empty_population_fails_instead_of_passing(monkeypatch):
    from conleylab import catalog
    monkeypatch.setattr(catalog, "names", lambda: [])
    r = theorems.run(only="thm4.1")[0]
    assert r.status == "fail"
    assert any("no instance matched" in line for line in r.details)


def test_jduality_count_matches_pairwise_oracle():
    skewed = []
    records, notes = theorems._Population().members
    assert records and not notes
    for f in records:
        fl = f.flow
        rings = {x: fl.one_ring(x) for x in fl.tops}
        plus, minus = per_seed(fl, "f", rings), per_seed(fl, "p", rings)
        assert theorems.jduality_violations(
            fl.cx, fl.eventual_images("f"), fl.eventual_images("p")) \
            == pairwise_jduality_violations(plus, minus, rings) == 0, f.name
        # J+ of the flow against J- of the rest flow on the same complex,
        # and the reverse, break the duality on many pairs
        rest = flm.rest_flow(fl.cx)
        for a, b in ((fl, rest), (rest, fl)):
            bad = theorems.jduality_violations(
                fl.cx, a.eventual_images("f"), b.eventual_images("p"))
            assert bad == pairwise_jduality_violations(
                per_seed(a, "f", rings), per_seed(b, "p", rings),
                rings), f.name
            skewed.append(bad)
    assert min(skewed) > 0


@settings(max_examples=150, deadline=None)
@given(small_flows())
def test_jduality_count_matches_pairwise_oracle_on_small_flows(fl):
    # the flow against itself, where the duality holds, and against the
    # rest flow on its complex either way round, where it may break
    rings = {x: fl.one_ring(x) for x in fl.tops}
    rest = flm.rest_flow(fl.cx)
    pairs = ((fl, fl), (fl, rest), (rest, fl))
    counts = [theorems.jduality_violations(
        fl.cx, a.eventual_images("f"), b.eventual_images("p"))
        for a, b in pairs]
    assert counts == [pairwise_jduality_violations(
        per_seed(a, "f", rings), per_seed(b, "p", rings), rings)
        for a, b in pairs]
    assert counts[0] == 0


@functools.lru_cache(maxsize=None)
def more_complexes():
    """Shapes small_complexes() lacks: a top cell with no vertex (the
    one-vertex sphere), free faces, dimension 3 and a non-orientable
    surface."""
    return [cxm.CellComplex("s2-min", {"v": 0, "f": 2}, {}),
            spm.annulus(3, 4), spm.disc(2, 5), spm.t3(3), spm.sphere(3, 4),
            spm.klein(3)]


@settings(max_examples=150, deadline=None)
@given(small_flows(more_complexes()))
def test_jduality_count_matches_pairwise_oracle_on_more_shapes(fl):
    # the bitmask count relies on one-rings being symmetric, with a bare
    # top cell its own ring; the oracle takes the rings from closures
    rings = rings_by_closure(fl.cx)
    rest = flm.rest_flow(fl.cx)
    pairs = ((fl, fl), (fl, rest), (rest, fl))
    counts = [theorems.jduality_violations(
        fl.cx, a.eventual_images("f"), b.eventual_images("p"))
        for a, b in pairs]
    assert counts == [pairwise_jduality_violations(
        per_seed(a, "f", rings), per_seed(b, "p", rings), rings)
        for a, b in pairs]
    assert counts[0] == 0


def test_runs_agree_and_leave_no_module_state(monkeypatch):
    # weakrefs to every record and every flow the runs and builds touch
    made = []

    class Tracked(theorems.FlowRecord):
        def __init__(self, *args):
            super().__init__(*args)
            made.extend([weakref.ref(self), weakref.ref(self.flow)])

    monkeypatch.setattr(theorems, "FlowRecord", Tracked)
    calls = wrap_recipes(monkeypatch, made)
    before = module_containers()
    first = [r.to_json() for r in theorems.run()]
    # one recipe call per (name, resolution): the strips, the two-cycle
    # genus-two flow and lemma7.1 reuse the entries the run already built
    assert len(calls) == len(set(calls)) == 24
    second = [r.to_json() for r in theorems.run()]
    assert first == second
    assert calls[24:] == calls[:24]
    for _ in range(2):
        for name in catalog.names():
            made.append(weakref.ref(catalog.build(name)["flow"]))
    # no module keeps a record or a flow: the constant tables are all
    # that is left, and they are unchanged
    assert module_containers() == before
    assert before[("conleylab.theorems", "_REGISTRY")] == 16
    gc.collect()
    assert made and all(ref() is None for ref in made)
