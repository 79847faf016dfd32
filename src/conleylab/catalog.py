"""Named flow catalog.

build(name, resolution) returns an entry dict with the flow, the attractor
candidate k, and the expected classification data the test suite pins down.
A recipe maps a resolution and a `built` dict to (flow, k, expected, ring),
and a family of entries shares one recipe factory: `_example22` puts the
circulating band flow on a named space, and `_strip` glues one more uniform
strip onto another entry. An entry is the one way a flow is shared or
rebuilt: a recipe that extends another entry (the strips, the two-cycle
genus-two flow) gets it from `build` with the same `built`, and the CLI's
`--refine` asks `build` for twice the resolution. The module keeps no entry:
a caller that needs one entry twice passes its own `built`, and the entries
live as long as that dict does (`verify` keeps one for a run).

Set the CONLEYLAB_CATALOG environment variable to a directory of flow JSON
files to make external flows available under their file stem. They are read
afresh on every call, have resolution None and so never refine. A file
there that cannot be read, parsed or built as a flow, or whose complex is
too large, raises CatalogError with code unreadable-input and the file's
path.
"""

import os

from . import constructions as cons
from .complexes import ConleyError, collector_paused, named_space
from .flow import rest_flow
from .spaces import mapping_torus, point


class CatalogError(ConleyError):
    pass


def _expect(classification, r=None, s=None, global_=None, error=None,
            pair_poly=None):
    out = {"classification": classification, "r": r, "s": s,
           "global": global_, "error": error, "pair_poly": pair_poly}
    return {key: v for key, v in out.items()
            if v is not None or key == "classification"}


def _example22(space, ring, pair_poly):
    """The recipe of the circulating band flow on the named space `space`."""
    def recipe(res, built):
        flow, k = cons.example_general(named_space(space, res),
                                       name="example22-" + space)
        return flow, k, _expect("NoExternalExplosions", 1, 1, True,
                                pair_poly=pair_poly), ring
    return recipe


def _example22_circle(res, built):
    # a point's mapping torus: the one example22 host that is no named space
    cx = mapping_torus(point(), None, res, name="circle(%d)" % res)
    flow, k = cons.example_general(cx, name="example22-circle")
    return flow, k, _expect("NoExternalExplosions", 1, 1, True,
                            pair_poly="t"), "z"


def _strip(parent, expected):
    """The recipe of the catalog entry `parent` with one more uniform
    strip, which it gets from `build` at the same resolution."""
    def recipe(res, built):
        entry = build(parent, res, built)
        flow, k = cons.add_uniform_component(entry["flow"], entry["k"])
        return flow, k, expected, "z"
    return recipe


def _north_south(res, built):
    rows = max(3, res // 2)
    cols = max(4, res - rows)
    flow, k = cons.north_south(rows, cols)
    return flow, k, _expect("Stable", 0, 1, False), "z"


def _ns_annulus(res, built):
    flow, k = cons.ns_annulus(4, res)
    return flow, k, _expect("Stable", 0, 1, False), "z"


def _homoclinic_sphere(res, built):
    rows = max(4, res // 2)
    cols = max(6, res - rows + ((res - rows) % 2))
    flow, k = cons.homoclinic_sphere(rows, cols)
    return flow, k, _expect("ExternalExplosions", 1, 1, True), "z"


def _hypersurface_torus(res, built):
    cx = named_space("torus", res)
    z = ["e:%d@v%d" % (l, res - 2) for l in range(res)]
    flow, k = cons.hypersurface_flow(cx, z, name="hypersurface-torus")
    return flow, k, _expect("NoExternalExplosions", 1, 1, True,
                            pair_poly="t^2 + t"), "z"


def _genus2_targets(res):
    return [{"edges": ["%s:e:%d@v3" % (side, l) for l in range(res)],
             "vertices": ["%s:v:%d@v3" % (side, l) for l in range(res)]}
            for side in "ab"]


def _hypersurface_genus2_one(res, built):
    cx = named_space("genus2", res)
    z = ["a:e:%d@v%d" % (l, res - 2) for l in range(res)]
    flow, k = cons.hypersurface_flow(cx, z, name="hypersurface-genus2")
    flow.meta["strip_targets"] = _genus2_targets(res)
    return flow, k, _expect("NoExternalExplosions", 1, 1, True,
                            pair_poly="t^2 + t"), "z"


def _hypersurface_genus2_two(res, built):
    cx = build("hypersurface-genus2", res, built)["flow"].cx
    z = ["%s:e:%d@v%d" % (side, l, res - 2)
         for side in "ab" for l in range(res)]
    flow, k = cons.hypersurface_flow(cx, z, name="hypersurface-genus2-two")
    return flow, k, _expect("NoExternalExplosions", 2, 2, True,
                            pair_poly="2t^2 + 2t"), "z"


def _planar_disc(res, built):
    flow, k = cons.planar_disc(res)
    return flow, k, _expect("Stable", 0, 1, False), "z"


def _planar_annulus(res, built):
    flow, k = cons.planar_annulus(res)
    return flow, k, _expect("Stable", 0, 2, False), "z"


def _capped_annulus(res, built):
    flow, k = cons.capped_annulus(max(4, res // 2), res)
    return flow, k, _expect(None, error="not-isolated"), "z"


def _rest_torus(res, built):
    flow = rest_flow(named_space("torus", res), name="rest-torus")
    return flow, None, _expect(None, error="no-candidate"), "z"


_RECIPES = {
    "example22-torus": (_example22("torus", "z", "t^2 + t"), 12, 6),
    "example22-klein": (_example22("klein", "z2", "t^2 + t"), 12, 6),
    "example22-circle": (_example22_circle, 12, 5),
    "example22-s2xs1": (_example22("s2xs1", "z", "t^3 + t"), 6, 5),
    "example22-s2xts1": (_example22("s2xts1", "z2", "t^3 + t"), 6, 5),
    "north-south": (_north_south, 12, 7),
    "ns-annulus": (_ns_annulus, 12, 4),
    "ns-annulus-strip": (_strip("ns-annulus",
                                _expect("Stable", 0, 2, False)), 12, 4),
    "homoclinic-sphere": (_homoclinic_sphere, 12, 8),
    "hypersurface-torus": (_hypersurface_torus, 12, 8),
    "hypersurface-genus2": (_hypersurface_genus2_one, 8, 8),
    "hypersurface-genus2-two": (_hypersurface_genus2_two, 8, 8),
    "hypersurface-genus2-strip": (
        _strip("hypersurface-genus2",
               _expect("NoExternalExplosions", 1, 2, False)), 8, 8),
    "hypersurface-genus2-strip2": (
        _strip("hypersurface-genus2-strip",
               _expect("NoExternalExplosions", 1, 3, False)), 8, 8),
    "planar-disc": (_planar_disc, 8, 4),
    "planar-annulus": (_planar_annulus, 8, 4),
    "capped-annulus": (_capped_annulus, 10, 6),
    "rest-torus": (_rest_torus, 8, 3),
}


def names():
    out = list(_RECIPES)
    out.extend(n for n in _external_names() if n not in _RECIPES)
    return sorted(out)


def _external_dir():
    return os.environ.get("CONLEYLAB_CATALOG")


def _external_names():
    d = _external_dir()
    if not d or not os.path.isdir(d):
        return []
    return sorted(os.path.splitext(f)[0] for f in os.listdir(d)
                  if f.endswith(".json"))


def _load_external(name):
    # a file that cannot be read, parsed or built as a flow, or that is
    # too large, is one kind of failure: unreadable-input, naming the file
    from .flowfile import load_file
    path = os.path.join(_external_dir(), name + ".json")
    try:
        return load_file(path, name, error=CatalogError)
    except CatalogError:
        # the reader's own `cannot read flow file` line names the file
        raise
    except ConleyError as err:
        raise CatalogError("unreadable-input", "malformed flow file %s: %s"
                           % (path, err))


@collector_paused()
def build(name, resolution=None, built=None):
    """Build a catalog entry: {name, resolution, flow, k, expected, ring}.
    An entry in `built`, a dict by (name, resolution), is returned as it
    stands; one built here goes into it with every entry it extends."""
    if name not in _RECIPES:
        d = _external_dir()
        if d and name in _external_names():
            return _load_external(name)
        raise CatalogError("unknown-flow", "unknown catalog flow %r" % name)
    fn, default, minimum = _RECIPES[name]
    res = default if resolution is None else int(resolution)
    if res < minimum:
        raise CatalogError("bad-resolution",
                           "%s needs resolution >= %d" % (name, minimum))
    built = {} if built is None else built
    key = (name, res)
    if key not in built:
        flow, k, expected, ring = fn(res, built)
        flow.meta["recipe"] = {"name": name, "resolution": res}
        built[key] = {"name": name, "resolution": res, "flow": flow,
                      "k": sorted(k) if k else None, "expected": expected,
                      "ring": ring}
    return built[key]


def analysis(entry):
    """Attractor report for an entry `build` returned, analysed as it
    stands, so an external file is read only once."""
    from . import attractor
    if not entry["k"]:
        raise CatalogError("no-candidate", "%s carries no attractor candidate"
                           % entry["name"])
    return attractor.analyze(entry["flow"], entry["k"])
