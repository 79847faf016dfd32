"""Attractor pipeline: stabilization, basin, components, classification.

The classification sweeps test J+ enclosures of basin cells and J- enclosures
of stabilization cells against the collar of K, with the reference region
basin - K: an open neighborhood of each swept cell, so the relative
enclosures carry the same information as the ambient ones do for points of
the basin. Verdicts are exactly one of Stable, NoExternalExplosions,
ExternalExplosions, Unknown.

No stage iterates per cell. Each is a whole-set formula over the flow's
graph kernel (reach, recurrent cells, trim): an eventual image leaves a set
exactly when the seed reaches a recurrent cell that reaches outside it, so
the sweeps become a backward reach from the complement, and the swept cells
whose one-ring meets that reach are the closed star `cx.star_tops` of it.
`_violators` is the one path for these relative enclosures; the flow keeps
only the ambient J+/J- of a single cell.

Each stage works inside the flow's own memory. A sweep's search for the
recurrent cells that escape the collar walks only the recurrent cells'
reach, since every path from such a cell stays in it: when basin - K holds
no recurrent cell, as on every example22 flow, a sweep walks nothing. The
sweeps share their region basin - K with the components, and a
stabilization or basin that covers the flow is `flow.tops` itself, the key
view of the successor table, not a copy.

`analyze` builds the collar of K and checks isolation once; each stage that
tests against the collar takes it as an argument. The components of
basin - K are the complex's own `components` union-find, labeled here,
over one frozenset of basin - K sized once to fit, which is the one
component itself when the region is connected. The stages run in the
order collar, isolation, stabilization, basin, components, classify, and
the unstable manifold last: no other stage reads it, so its set, nearly
the size of the flow on a circulating flow, is not alive beside the
union-find's face table or the sweeps.
"""

from itertools import filterfalse

from .complexes import ConleyError

VERDICTS = ("Stable", "NoExternalExplosions", "ExternalExplosions", "Unknown")


class NotIsolatedError(ConleyError):
    code = "not-isolated"

    def __init__(self, msg):
        super().__init__(self.code, msg)


class AttractorReport:
    def __init__(self, flow, k):
        self.flow = flow
        self.k = frozenset(k)
        self.stabilization = frozenset()
        self.basin = frozenset()
        self.unstable = frozenset()
        self.components = []          # list of {"cells": frozenset, "label": str}
        self.r = 0
        self.s = 0
        self.classification = "Unknown"
        self.global_attractor = False
        self.witness = None
        self.witness_cycle = []
        self.notes = []

    def _sorted(self, cells):
        # a set that is `flow.tops` itself is listed as the complex lists
        # its top cells, sorted already
        flow = self.flow
        return flow.cx.top_cells() if cells is flow.tops else sorted(cells)

    def to_json(self):
        return {
            "schema": "1",
            "flow": self.flow.name,
            "k": sorted(self.k),
            "stabilization": self._sorted(self.stabilization),
            "basin": self._sorted(self.basin),
            "unstable_manifold": sorted(self.unstable),
            "components": [{"cells": sorted(c["cells"]), "label": c["label"]}
                           for c in self.components],
            "r": self.r,
            "s": self.s,
            "classification": self.classification,
            "global": self.global_attractor,
            "witness": self.witness,
            "witness_cycle": list(self.witness_cycle),
            "notes": list(self.notes),
        }


def collar(flow, k):
    """Closed star of k, as a set of top cells. All containment tests of the
    classification are taken against this set."""
    return frozenset(flow.cx.star_tops(set(k)))


def check_isolated(flow, k, col):
    """k must be the maximal invariant set of its collar `col`."""
    if flow.trim(col, "f") & flow.trim(col, "p") != frozenset(k):
        raise NotIsolatedError("k is not the maximal invariant set of its collar")


def stabilization(flow, k):
    """Union of J+ enclosures over k, closed under the same union.

    Each round takes the one-rings of the cells taken in the round before.
    `fwd` and `img` hold the forward reach of every one-ring so far and of
    the recurrent cells in it, so each cell is walked at most once in each,
    and a round adds to each only the list of cells it walks. The
    stabilization is k and `img`. Once `fwd` holds every top cell, no later
    ring adds to it: it is dropped, and the round is the last. A
    stabilization of every top cell is `flow.tops` itself, not a copy."""
    rec = flow.recurrent_cells()
    fwd, img = set(), set()
    new = k
    while new:
        found = rec.intersection(
            flow.reach(flow.cx.star_tops(new), seen=fwd))
        if len(fwd) == len(flow.tops):
            fwd.clear()
            flow.reach(found, seen=img)
            break
        new = flow.reach(found, seen=img)
    del fwd
    img.update(k)
    return flow.tops if len(img) == len(flow.tops) else frozenset(img)


def basin(flow, khat):
    """Cells whose omega enclosure lands inside the stabilization khat: those
    that reach no recurrent cell from which the complement is reachable.
    When no cell does, the basin is `flow.tops` itself."""
    rec = flow.recurrent_cells()
    # the complement walked as it is filtered, not held as a set
    escape = rec & flow.reach(filterfalse(khat.__contains__, flow.tops), "p")
    leaving = flow.reach(escape, "p")
    return frozenset(flow.tops - leaving) if leaving else flow.tops


def unstable_manifold(flow, col):
    """Cells with a nonempty alpha enclosure inside the collar col: reachable
    from a recurrent cell, but from none that is reachable from outside.
    A recurrent cell outside col is reachable from outside, and one inside
    is when it is reachable inside col from a cell with a predecessor
    outside, so that search walks col alone. The reach of those escaping
    cells is forward closed, so the reach of the recurrent cells walked
    past it is the rest, with no difference taken."""
    rec = flow.recurrent_cells()
    pred = flow.pred
    entries = [c for c in col if not col.issuperset(pred[c])]
    escape = (rec - col) | rec.intersection(flow.reach(entries, "f", col))
    walked = flow.reach(rec, "f", seen=flow.reach(escape, "f"))
    # a frozenset made from a dict is sized once, to fit
    return frozenset(dict.fromkeys(walked))


def components(flow, basin_cells, k, khat):
    """The components of basin - k (`CellComplex.components`: through
    shared codim-1 faces), each labeled homoclinic when it lies in the
    stabilization."""
    # one frozenset, filtered into a dict first so that it is sized once,
    # to fit; a connected region is its own component, not a copy
    region = frozenset(dict.fromkeys(filterfalse(k.__contains__,
                                                 basin_cells)))
    return [{"cells": comp,
             "label": "homoclinic" if comp <= khat else "uniform"}
            for comp in flow.cx.components(region)]


def _violators(flow, within, rec, col, direction):
    """Sorted cells of `within` whose relative J+ ("f") or J- ("p")
    enclosure in `within` leaves the collar: their one-ring meets the cells
    that reach, along `direction` inside `within`, a recurrent cell of
    `within` that reaches `within - col` the same way. Every path from a
    recurrent cell stays in its reach `ahead`, so the search for those
    escaping cells walks only `ahead`, never the rest of `within`: with no
    recurrent cell it walks nothing. The cells that reach them are one reach
    against the direction, and the cells touching those are one
    `cx.star_tops` call."""
    back = "p" if direction == "f" else "f"
    ahead = flow.reach(rec, direction, within)
    escape = rec.intersection(flow.reach(ahead - col, back, ahead))
    leaving = flow.reach(escape, back, within)
    return sorted(flow.cx.star_tops(leaving) & within)


def _witness_search(flow, candidates, within, col):
    """Look for an F-cycle fully outside the collar, reachable forward from
    the one-ring of a violating cell. Returns (cell, cycle) or None; the
    first candidate in sorted order that reaches one wins."""
    outside = flow.trim(flow.recurrent_cells() - col, "f")
    feeders = flow.reach(outside, "p")
    for x in sorted(candidates):
        seed = flow.one_ring(x) & within
        if seed & feeders:
            return x, _extract_cycle(flow, outside & flow.reach(seed, "f"))
    return None


def _extract_cycle(flow, core):
    start = min(core)
    path = [start]
    pos = {start: 0}
    cur = start
    while True:
        nxt = min(d for d in flow.succ[cur] if d in core)
        if nxt in pos:
            return path[pos[nxt]:]
        pos[nxt] = len(path)
        path.append(nxt)
        cur = nxt


def classify(flow, k, report, col):
    """Fill classification, witness and notes on a report whose components
    are filled: their union is basin - k, the region of every sweep, and it
    is the one component itself when there is one."""
    khat = report.stabilization
    if khat == frozenset(k):
        report.classification = "Stable"
        return report
    comps = [c["cells"] for c in report.components]
    within = comps[0] if len(comps) == 1 else frozenset().union(*comps)
    rec = flow.recurrent_cells(within)
    violations = _violators(flow, within, rec, col, "f")
    dual_violations = [x for x in _violators(flow, within, rec, col, "p")
                       if x in khat]
    if not violations and not dual_violations:
        report.classification = "NoExternalExplosions"
        return report
    found = _witness_search(flow, violations or dual_violations, within, col)
    if found:
        report.classification = "ExternalExplosions"
        report.witness = found[0]
        report.witness_cycle = list(found[1])
        return report
    report.classification = "Unknown"
    report.notes.append("enclosures leave the collar but no out-of-collar "
                        "cycle was certified; refine and retry")
    return report


def analyze(flow, k):
    """Run the whole pipeline on an isolated attractor candidate."""
    kset = frozenset(k)
    outside = sorted(kset - flow.tops)
    if outside:
        raise NotIsolatedError("k contains %s which is not a top cell"
                               % outside[0])
    col = collar(flow, kset)
    check_isolated(flow, kset, col)
    report = AttractorReport(flow, kset)
    report.stabilization = stabilization(flow, kset)
    report.basin = basin(flow, report.stabilization)
    report.components = components(flow, report.basin, kset, report.stabilization)
    report.s = len(report.components)
    report.r = sum(1 for c in report.components if c["label"] == "homoclinic")
    report.global_attractor = report.basin == flow.tops
    classify(flow, kset, report, col)
    # last: no other stage uses it, so its set is not alive beside theirs
    report.unstable = unstable_manifold(flow, col)
    return report
