"""Flow constructions for the catalog.

Every builder returns (flow, k) with k the attractor candidate, except the
modifier add_uniform_component, which transforms a flow that already exists.
Errors carry a short machine code on .code.

A hypersurface flow takes its cycle apart with `CellComplex.components`
alone: the cycle is non-separating when the top cells cut along it are one
component, its circles are its components, and the two sides of a circle
are the two components of the top cells at the circle's vertices, cut along
the cycle and along every face that misses the circle.
"""

from .complexes import ConleyError
from .flow import CombinatorialFlow
from .spaces import _copy, annulus, disc, quotient, sphere


class ConstructionError(ConleyError):
    pass


# -- circulating band flows --------------------------------------------------


def _circulation(lanes):
    """(successors, k) of cells circulating along lanes, each a list of two
    cells or more: the last cell of each lane is a sink, the first feeds the
    second, and the rest march on. k is each lane's first and last cell."""
    succ = {}
    for lane in lanes:
        succ[lane[0]] = [lane[0], lane[1]]
        succ.update({c: [nxt] for c, nxt in zip(lane[1:-1], lane[2:])})
        succ[lane[-1]] = [lane[-1]]
    return succ, sorted(c for lane in lanes for c in (lane[0], lane[-1]))


def example_general(cx, name=None):
    """Circulating band flow on a mapping torus.

    The band behind the gluing seam is a sink, the band ahead of it creeps
    across while feeding the circulation, and everything in between marches
    around and back into the sink. K is the double band at the seam; the
    circulation makes it an unstable attractor whose explosions stay
    internal."""
    info = cx.meta.get("mapping_torus")
    if not info:
        raise ConstructionError("bad-host", "complex is not a mapping torus")
    m = info["bands"]
    succ, k = _circulation([["%s@e%d" % (s, i) for i in range(m)]
                            for s in info["fiber_tops"]])
    flow = CombinatorialFlow(cx, succ, name=name or "circulation")
    return flow, k


# -- gradient-like sphere flows ----------------------------------------------


def north_south(rows, cols):
    """North pole repels, south pole attracts, everything else descends."""
    cx = sphere(rows, cols)
    succ = {"cap:n": ["cap:n"] + ["f:0,%d" % l for l in range(cols)],
            "cap:s": ["cap:s"]}
    for r in range(rows):
        for l in range(cols):
            c = "f:%d,%d" % (r, l)
            succ[c] = ["f:%d,%d" % (r + 1, l)] if r < rows - 1 else ["cap:s"]
    flow = CombinatorialFlow(cx, succ, name="north-south")
    return flow, ["cap:s"]


def homoclinic_sphere(rows, cols):
    """One fixed cell on a sphere whose unstable lane returns to it.

    The departure lane climbs the 0-meridian to the north cap, crosses over,
    descends the opposite meridian and lands back in K, while the lobes
    drift sideways into the descending lane. The drift cycles sit far from
    K, so the explosions are external and a witness cycle exists."""
    if rows < 3 or cols < 4:
        raise ConstructionError("bad-host", "homoclinic sphere needs "
                                "rows >= 3 and cols >= 4")
    cx = sphere(rows, cols)
    top, c0 = rows - 1, cols // 2

    def f(r, l):
        return "f:%d,%d" % (r, l % cols)

    succ = {"cap:s": ["cap:s", f(top, 0)], "cap:n": [f(0, c0)]}
    for l in range(cols):
        if l == 0:
            succ[f(top, 0)] = [f(top - 1, 0)]
        else:
            succ[f(top, l)] = ["cap:s", f(top - 1, l)]
    for r in range(top):
        for l in range(cols):
            if l == 0:
                up = [f(r - 1, 0)] if r > 0 else ["cap:n"]
                succ[f(r, 0)] = up + [f(r, 1)]
            elif l == c0:
                down = f(r + 1, c0)
                succ[f(r, c0)] = [down, f(r, c0 + 1)]
            else:
                succ[f(r, l)] = [f(r, l + 1)] + \
                    ([f(top, l)] if r == top - 1 else [])
    flow = CombinatorialFlow(cx, succ, name="homoclinic-sphere")
    return flow, ["cap:s"]


# -- annulus flows ------------------------------------------------------------


def ns_annulus(rows, cols):
    """Stable band attractor at one free boundary of an annulus.

    The outermost band drifts sideways while dropping inward, so it stays
    out of the basin; the middle bands fall straight in."""
    cx = annulus(rows, cols)
    succ = {}
    for r in range(rows):
        for l in range(cols):
            c = "e:%d&e:%d" % (r, l)
            if r == 0:
                succ[c] = [c]
            elif r == rows - 1:
                succ[c] = ["e:%d&e:%d" % (r - 1, l),
                           "e:%d&e:%d" % (r, (l + 1) % cols)]
            else:
                succ[c] = ["e:%d&e:%d" % (r - 1, l)]
    flow = CombinatorialFlow(cx, succ, name="ns-annulus")
    flow.meta["strip_targets"] = [{
        "edges": ["v:0&e:%d" % l for l in range(cols)],
        "vertices": ["v:0&v:%d" % l for l in range(cols)],
    }]
    return flow, ["e:0&e:%d" % l for l in range(cols)]


def capped_annulus(rows, cols):
    """Annulus circulation capped off by two frozen polar cells.

    The seam bands span pole to pole, so the frozen caps sit inside the
    collar of K and stay invariant there: K is not isolated and analyze
    refuses it."""
    cx = sphere(rows, cols)
    succ, k = _circulation([["f:%d,%d" % (r, l) for l in range(cols)]
                            for r in range(rows)])
    succ.update({"cap:n": ["cap:n"], "cap:s": ["cap:s"]})
    flow = CombinatorialFlow(cx, succ, name="capped-annulus")
    return flow, k


# -- planar flows -------------------------------------------------------------


def planar_disc(sectors):
    """Point sink in a disc; the rim drifts, the middle ring falls in."""
    cx = disc(3, sectors)
    succ = {"hub": ["hub"]}
    for s in range(sectors):
        succ["q:1,%d" % s] = ["hub"]
        succ["q:2,%d" % s] = ["q:1,%d" % s, "q:2,%d" % ((s + 1) % sectors)]
    flow = CombinatorialFlow(cx, succ, name="planar-disc")
    flow.meta["family"] = "planar"
    return flow, ["hub"]


def planar_annulus(sectors):
    """Circle sink in a disc, fed from both sides, hub repelling."""
    cx = disc(5, sectors)
    succ = {"hub": ["hub"] + ["q:1,%d" % s for s in range(sectors)]}
    for s in range(sectors):
        succ["q:1,%d" % s] = ["q:2,%d" % s]
        succ["q:2,%d" % s] = ["q:2,%d" % s]
        succ["q:3,%d" % s] = ["q:2,%d" % s]
        succ["q:4,%d" % s] = ["q:3,%d" % s, "q:4,%d" % ((s + 1) % sectors)]
    flow = CombinatorialFlow(cx, succ, name="planar-annulus")
    flow.meta["family"] = "planar"
    return flow, ["q:2,%d" % s for s in range(sectors)]


# -- hypersurface flows -------------------------------------------------------


def _sides(cx, circ, z):
    """{edge: (top on side a, top on side b)} along one z-circle. The tops
    at the circle's vertices, cut along z and along every face that misses
    the circle, fall into exactly two halves when the circle has a product
    collar, and each edge of the circle then has one coface in each. Side a
    is the half that holds the least coface of the circle's least edge."""
    fan = cx.star_tops(circ)
    verts = set().union(*map(cx.vertices_of, circ))
    cut = set(z)
    for t in fan:
        cut.update(f for f in cx.boundary[t]
                   if verts.isdisjoint(cx.vertices_of(f)))
    halves = cx.components(fan, cut)
    a = next(h for h in halves if min(cx.top_cofaces(circ[0])) in h)
    sides = {e: tuple(sorted(cx.top_cofaces(e), key=lambda t: t not in a))
             for e in circ}
    if len(halves) != 2 or any(t not in a or u in a
                               for t, u in sides.values()):
        raise ConstructionError("one-sided", "the cycle has no product collar")
    return sides


def hypersurface_flow(cx, z, name=None):
    """Creep-and-return flow across a two-sided cycle of codim-1 cells.

    K is the complement of four open bands swept out from z. The K side
    of z creeps across, the bands march away from the seam, and the last
    band lands back in K. Raises separating-cycle when cutting along z
    disconnects the complex."""
    z = frozenset(z)
    for e in sorted(z):
        if cx.cells.get(e) != cx.top_dim - 1:
            raise ConstructionError("bad-cycle",
                                    "%s is not a codim-1 cell" % e)
        if len(cx.top_cofaces(e)) != 2:
            raise ConstructionError("bad-cycle",
                                    "%s is not interior two-sided" % e)
    tops = cx.top_cells()
    if len(cx.components(tops, z)) != 1:
        raise ConstructionError(
            "separating-cycle",
            "cutting along the cycle disconnects the complex")
    collars = []  # (sides, bands) of each circle of z
    used_all = set()
    for circ in cx.components(z):
        sides = _sides(cx, sorted(circ), z)
        lanes = [{b for _, b in sides.values()}]
        used = {a for a, _ in sides.values()} | lanes[0]
        for _ in range(3):  # the bands after the first
            nxt = set()
            for t in lanes[-1]:
                for f in cx.boundary[t]:
                    for t2 in cx.top_cofaces(f):
                        if t2 != t and t2 not in used:
                            nxt.add(t2)
            if not nxt:
                raise ConstructionError("collar-too-tight",
                                        "the swept bands wrap into K")
            lanes.append(nxt)
            used |= nxt
        if used & used_all:
            raise ConstructionError("collars-overlap",
                                    "the cycle collars are not disjoint")
        used_all |= used
        collars.append((sides, lanes))
    kset = set(tops).difference(*(band for _, lanes in collars
                                  for band in lanes))
    succ = {t: [t] for t in sorted(kset)}
    for sides, lanes in collars:
        # each side-a cell t is in K: its own bands leave out `used`, and the
        # overlap check keeps it out of every other circle's bands
        for t, t2 in sides.values():
            if t2 not in succ[t]:
                succ[t].append(t2)
        for i, band in enumerate(lanes):
            nxtset = lanes[i + 1] if i + 1 < len(lanes) else kset
            for t in sorted(band):
                outs = []
                for f in sorted(cx.boundary[t]):
                    for t2 in sorted(cx.top_cofaces(f)):
                        if t2 in nxtset and t2 != t and t2 not in outs:
                            outs.append(t2)
                if not outs:
                    raise ConstructionError("collar-too-tight",
                                            "a band cell has nowhere to go")
                succ[t] = outs
    flow = CombinatorialFlow(cx, succ, name=name or "hypersurface")
    flow.meta["family"] = "hypersurface"
    return flow, sorted(kset)


# -- modifiers ----------------------------------------------------------------


def add_uniform_component(flow, k):
    """Glue a drifting strip onto a free seam of K.

    Adds one uniform component to the basin without touching K or the
    homoclinic count. The flow must advertise a seam with every coface in K;
    otherwise there is no room to attach. The strip's cells are prefixed
    "u<i>:", i counting the strips attached before it."""
    targets = flow.meta.get("strip_targets", [])
    used = flow.meta.get("strips", [])
    idx = len(used)
    kset = frozenset(k)
    if idx >= len(targets):
        raise ConstructionError("no-room",
                                "no room to attach a uniform strip")
    seam = targets[idx]
    edges, verts = seam["edges"], seam["vertices"]
    for e in edges:
        if not set(flow.cx.top_cofaces(e)) <= kset:
            raise ConstructionError(
                "no-room", "no room to attach a uniform strip: the seam at "
                "%s meets moving cells" % e)
    pre = "u%d:" % idx
    n = len(edges)
    tables = (dict(flow.cx.cells), dict(flow.cx.boundary),
              dict(flow.cx.coefficients))
    own = _copy(annulus(3, n), pre, tables)
    pairs = []
    for l in range(n):
        pairs.append((edges[l], own["v:0&e:%d" % l], 1))
        pairs.append((verts[l], own["v:0&v:%d" % l], 1))
    cx2 = quotient(flow.cx.name + "+u%d" % idx, *tables, pairs)
    succ = {c: list(flow.succ[c]) for c in sorted(flow.tops)}
    for l in range(n):
        c0 = pre + "e:0&e:%d" % l
        c1 = pre + "e:1&e:%d" % l
        c2 = pre + "e:2&e:%d" % l
        succ[c0] = sorted(flow.cx.top_cofaces(edges[l]))
        succ[c1] = [c0]
        succ[c2] = [c1, pre + "e:2&e:%d" % ((l + 1) % n)]
    out = CombinatorialFlow(cx2, succ, name=flow.name + "+strip%d" % idx)
    out.meta.update(flow.meta)
    out.meta["strips"] = list(used) + [pre]
    return out, sorted(kset)
