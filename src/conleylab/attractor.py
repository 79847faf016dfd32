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

`analyze` builds the collar of K and checks isolation once; each stage that
tests against the collar takes it as an argument. The components of
basin - K are the complex's own `components` walk, labeled here.
"""

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

    def to_json(self):
        return {
            "schema": "1",
            "flow": self.flow.name,
            "k": sorted(self.k),
            "stabilization": sorted(self.stabilization),
            "basin": sorted(self.basin),
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
    the recurrent cells in it, so each cell is walked at most once in each."""
    rec = flow.recurrent_cells()
    khat = set(k)
    fwd, img = set(), set()
    new = set(khat)
    while new:
        ring = flow.cx.star_tops(new)
        new = flow.reach(rec & flow.reach(ring, seen=fwd), seen=img) - khat
        khat |= new
    return frozenset(khat)


def basin(flow, khat):
    """Cells whose omega enclosure lands inside the stabilization khat: those
    that reach no recurrent cell from which the complement is reachable."""
    rec = flow.recurrent_cells()
    escape = rec & flow.reach(flow.tops - khat, "p")
    return frozenset(flow.tops - flow.reach(escape, "p"))


def unstable_manifold(flow, col):
    """Cells with a nonempty alpha enclosure inside the collar col: reachable
    from a recurrent cell, but from none that is reachable from outside."""
    rec = flow.recurrent_cells()
    escape = rec & flow.reach(flow.tops - col, "f")
    return frozenset(flow.reach(rec, "f") - flow.reach(escape, "f"))


def components(flow, basin_cells, k, khat):
    """The components of basin - k (`CellComplex.components`: through
    shared codim-1 faces), each labeled homoclinic when it lies in the
    stabilization."""
    return [{"cells": comp,
             "label": "homoclinic" if comp <= khat else "uniform"}
            for comp in flow.cx.components(set(basin_cells) - set(k))]


def _violators(flow, cells, within, rec, col, direction):
    """Sorted cells whose relative J+ ("f") or J- ("p") enclosure in `within`
    leaves the collar: their one-ring meets the cells that reach, along
    `direction` inside `within`, a recurrent cell of `within` that reaches
    `within - col` the same way. Both reaches run against the direction,
    and the cells touching `leaving` are one `cx.star_tops` call."""
    back = "p" if direction == "f" else "f"
    escape = rec & flow.reach(within - col, back, within)
    leaving = flow.reach(escape, back, within)
    return sorted(flow.cx.star_tops(leaving) & cells)


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
    """Fill classification, witness and notes on the report."""
    kset = frozenset(k)
    khat = report.stabilization
    bas = report.basin
    if khat == kset:
        report.classification = "Stable"
        return report
    within = bas - kset
    rec = flow.recurrent_cells(within)
    violations = _violators(flow, within, within, rec, col, "f")
    dual_violations = _violators(flow, khat & within, within, rec, col, "p")
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
    report.unstable = unstable_manifold(flow, col)
    report.components = components(flow, report.basin, kset, report.stabilization)
    report.s = len(report.components)
    report.r = sum(1 for c in report.components if c["label"] == "homoclinic")
    report.global_attractor = report.basin == flow.tops
    classify(flow, kset, report, col)
    return report
