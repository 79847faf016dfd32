import gc
import json
import os

import pytest

from conleylab import attractor, catalog
from conleylab.complexes import SPACES, collector_paused, named_space
from test_flow import shared_entry


EXPECTED_NAMES = [
    "capped-annulus",
    "example22-circle",
    "example22-klein",
    "example22-s2xs1",
    "example22-s2xts1",
    "example22-torus",
    "homoclinic-sphere",
    "hypersurface-genus2",
    "hypersurface-genus2-strip",
    "hypersurface-genus2-strip2",
    "hypersurface-genus2-two",
    "hypersurface-torus",
    "north-south",
    "ns-annulus",
    "ns-annulus-strip",
    "planar-annulus",
    "planar-disc",
    "rest-torus",
]


def test_names_pinned():
    assert catalog.names() == EXPECTED_NAMES


def test_build_shares_entries_only_through_the_callers_dict():
    # the module keeps no entry: two plain calls build the flow twice
    a = catalog.build("example22-torus")
    b = catalog.build("example22-torus")
    assert a is not b and a["flow"] is not b["flow"]
    assert a["flow"].succ == b["flow"].succ
    built = {}
    c = catalog.build("example22-torus", None, built)
    assert catalog.build("example22-torus", 12, built) is c
    d = catalog.build("example22-torus", 16, built)
    assert d is not c and d["resolution"] == 16
    assert set(built) == {("example22-torus", 12), ("example22-torus", 16)}
    # an entry that extends others leaves its ancestors in the dict too
    built = {}
    strip2 = catalog.build("hypersurface-genus2-strip2", None, built)
    assert set(built) == {("hypersurface-genus2", 8),
                          ("hypersurface-genus2-strip", 8),
                          ("hypersurface-genus2-strip2", 8)}
    assert built[("hypersurface-genus2-strip2", 8)] is strip2


def test_build_errors():
    with pytest.raises(catalog.CatalogError) as ei:
        catalog.build("nope")
    assert ei.value.code == "unknown-flow"
    with pytest.raises(catalog.CatalogError) as ei:
        catalog.build("example22-torus", 3)
    assert ei.value.code == "bad-resolution"


def assert_matches_expectation(name, resolution=None):
    entry = shared_entry(name, resolution)
    want = entry["expected"]
    where = (name, entry["resolution"])
    if want.get("error"):
        with pytest.raises((catalog.CatalogError,
                            attractor.NotIsolatedError)) as ei:
            catalog.analysis(entry)
        assert ei.value.code == want["error"], where
        return
    rep = catalog.analysis(entry)
    assert rep.classification == want["classification"], where
    assert rep.r == want["r"], where
    assert rep.s == want["s"], where
    assert rep.global_attractor == want["global"], where


def test_every_entry_matches_its_expectation():
    for name in catalog.names():
        assert_matches_expectation(name)


def test_every_entry_matches_its_expectation_at_its_minimum_resolution():
    # a recipe's minimum is the least resolution that still builds the
    # flow it describes
    for name, (_, _, minimum) in catalog._RECIPES.items():
        assert_matches_expectation(name, minimum)


def test_external_file_is_read_afresh(tmp_path, monkeypatch):
    # an edited external file is reported as it now stands, never stale
    monkeypatch.setenv("CONLEYLAB_CATALOG", str(tmp_path))
    for name in ("example22-circle", "example22-torus"):
        src = catalog.build(name)
        body = src["flow"].to_json()
        body["k"] = src["k"]
        (tmp_path / "ext.json").write_text(json.dumps(body))
        rep = catalog.analysis(catalog.build("ext"))
        assert rep.flow.succ == src["flow"].succ, name
        assert rep.k == frozenset(src["k"]), name


def test_rest_torus_has_no_candidate():
    entry = catalog.build("rest-torus")
    assert entry["expected"]["error"] == "no-candidate"
    with pytest.raises(catalog.CatalogError) as ei:
        catalog.analysis(entry)
    assert ei.value.code == "no-candidate"
    assert "rest-torus carries no attractor candidate" in str(ei.value)


def test_external_catalog_dir(tmp_path, monkeypatch):
    src = catalog.build("example22-circle")["flow"]
    (tmp_path / "myflow.json").write_text(json.dumps(src.to_json()))
    (tmp_path / "broken.json").write_text("{nope")
    monkeypatch.setenv("CONLEYLAB_CATALOG", str(tmp_path))
    assert "myflow" in catalog.names()
    entry = catalog.build("myflow")
    assert entry["flow"].succ == src.succ
    assert entry["k"] is None
    with pytest.raises(catalog.CatalogError) as ei:
        catalog.build("broken")
    assert ei.value.code == "unreadable-input"
    monkeypatch.delenv("CONLEYLAB_CATALOG")
    assert "myflow" not in catalog.names()


def build_garbage(fn, *args):
    """Objects the cyclic collector finds unreachable after one build."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        fn(*args)
        return gc.collect()
    finally:
        if was:
            gc.enable()


def test_a_build_leaves_cycles_that_do_not_grow_with_its_resolution():
    # builds run with the collector paused, which is safe only while the
    # cycles they leave do not grow with the space they build
    builds = [(catalog.build, name, res)
              for name, (_, _, minimum) in sorted(catalog._RECIPES.items())
              for res in (minimum, 2 * minimum)]
    builds += [(named_space, name, res) for name in sorted(SPACES)
               for res in (3, 6)]
    for build in builds:
        build_garbage(*build)  # imports and caches fill on the first run
    counts = {build[1:]: build_garbage(*build) for build in builds}
    assert len(set(counts.values())) == 1, counts


def test_the_collector_pause_nests_and_restores_the_callers_state():
    was = gc.isenabled()
    try:
        for state in (True, False):
            (gc.enable if state else gc.disable)()
            with collector_paused():
                assert not gc.isenabled()
                with collector_paused():
                    assert not gc.isenabled()
                assert not gc.isenabled()
            assert gc.isenabled() is state
            catalog.build("north-south")
            named_space("torus", 3)
            assert gc.isenabled() is state
            with pytest.raises(catalog.CatalogError):
                catalog.build("nowhere")
            assert gc.isenabled() is state
    finally:
        (gc.enable if was else gc.disable)()
