"""The named spaces: builders of cell complexes from tables and gluings.

Two table makers write the grid spaces. `_path` writes a row of edges, open
for `interval` and closed for `circle`. `_bands` writes a stack of square
bands: vertex circles, circle edges, edges between circles, squares and
grid positions, under four id prefixes given as data. `sphere` caps it off
at both ends, and `disc` at its inner circle with a hub.

The other builders glue tables, not complexes: `connected_sum`, `rp2` and
the catalog's strips hand plain cells/boundary tables to `quotient`, and a
mapping torus glues through a plain cell bijection of its fiber, with
solved signs. So each space becomes one CellComplex, and its one sweep
checks it, the glue's chain-map condition included.

Each builder makes each cell id once, in a table, and writes every face as
a reference to the same string; `quotient` maps a dropped face to its kept
cell as the table holds it. So a built complex keeps one string per id, as
a loaded one does. Each builder that allocates first hands the count of
cells its arguments imply to `complexes._check_size`, which refuses more
than `complexes.MAX_CELLS` with code too-large. Only the layers that build
a space import this module, so a command that loads a flow file never
compiles it.
"""

from collections import defaultdict

from .complexes import CellComplex, ComplexError, _check_size


def complete_map_signs(fiber, bijection):
    """The {cell: (image, sign)} table of a cell bijection of `fiber` onto
    itself. Vertices get +1; higher cells, one dimension at a time, take the
    sign that matches the first face their mapped boundary shares with their
    image's boundary. Whether the table is a chain map is not checked here."""
    table = {v: (bijection[v], 1) for v in fiber.cells_of_dim(0)}
    for d in range(1, fiber.top_dim + 1):
        for c in fiber.cells_of_dim(d):
            c2 = bijection[c]
            rhs = defaultdict(int)
            for f, k in fiber.boundary[c].items():
                f2, s2 = table[f]
                rhs[f2] += k * s2
            sign = None
            for f2, k2 in fiber.boundary[c2].items():
                if rhs.get(f2, 0):
                    sign = rhs[f2] // k2
                    break
            if sign not in (1, -1):
                raise ComplexError("cannot orient %s over %s" % (c, c2))
            table[c] = (c2, sign)
    return table


# -- elementary builders ----------------------------------------------------

def point():
    return CellComplex("point", {"v:0": 0}, {})


def _path(n, closed):
    """The cells and boundary of n edges e:i, each from v:i to the next
    vertex: v:0 .. v:n in a row, or around v:0 .. v:n-1 when `closed`."""
    vs = ["v:%d" % i for i in range(n if closed else n + 1)]
    es = ["e:%d" % i for i in range(n)]
    cells = dict.fromkeys(vs, 0)
    cells.update(dict.fromkeys(es, 1))
    ends = vs[1:] + vs[:1] if closed else vs[1:]
    return cells, {e: {b: 1, a: -1} for e, a, b in zip(es, vs, ends)}


def interval(n):
    """n edges in a row, vertices v:0 .. v:n."""
    assert n >= 1
    _check_size("interval(%d)" % n, 2 * n + 1)
    return CellComplex("interval(%d)" % n, *_path(n, False))


def circle(n):
    assert n >= 3, "need at least 3 edges for a regular circle"
    _check_size("circle(%d)" % n, 2 * n)
    return CellComplex("circle(%d)" % n, *_path(n, True))


def circle_reflection(n):
    """The reflection l -> -l of circle(n), as a cell bijection."""
    bij = {}
    for i in range(n):
        bij["v:%d" % i] = "v:%d" % ((n - i) % n)
        bij["e:%d" % i] = "e:%d" % ((n - 1 - i) % n)
    return bij


def _bands(first, last, cols, names):
    """(cells, boundary, grid, circles): the tables of the square bands
    between vertex rows first .. last, `cols` squares around. With names
    (w, h, v, f), row r has vertices w:r,l and circle edges h:r,l from w:r,l
    to w:r,l+1, and band r has edges v:r,l from w:r,l to w:r+1,l and
    squares f:r,l at grid position (r, l). `circles` is each row's circle
    edges, first row first."""
    rows = range(first, last + 1)
    # each id made once: vertices and circle edges by row, the edges
    # between circles and the squares by band
    w, h, v, f = [[[fmt % (r, l) for l in range(cols)] for r in span]
                  for fmt, span in zip([p + ":%d,%d" for p in names],
                                       (rows, rows, rows[:-1], rows[:-1]))]
    cells = {}
    bnd = {}
    for row in w:
        cells.update(dict.fromkeys(row, 0))
    # circle edges from each vertex to the next around its row, band edges
    # from each vertex to the one in the next row
    nxt = [ws[1:] + ws[:1] for ws in w]
    for lows, highs, edges in ((w, nxt, h), (w, w[1:], v)):
        for lo, hi, es in zip(lows, highs, edges):
            for a, b, e in zip(lo, hi, es):
                cells[e] = 1
                bnd[e] = {b: 1, a: -1}
    grid = {}
    for r, lo, hi, vs, fs in zip(rows, h, h[1:], v, f):
        for l, (a, b, c, d, sq) in enumerate(
                zip(lo, vs[1:] + vs[:1], hi, vs, fs)):
            cells[sq] = 2
            bnd[sq] = {a: 1, b: 1, c: -1, d: -1}
            grid[sq] = (r, l)
    return cells, bnd, grid, h


def sphere(rows, cols):
    """Grid sphere: `rows` bands of squares between two polygonal caps."""
    assert rows >= 1 and cols >= 3
    _check_size("sphere(%d,%d)" % (rows, cols), (4 * rows + 2) * cols + 2)
    cells, bnd, grid, circles = _bands(0, rows, cols, ("w", "eh", "ev", "f"))
    cells["cap:n"] = cells["cap:s"] = 2
    bnd["cap:n"] = dict.fromkeys(circles[0], 1)
    bnd["cap:s"] = dict.fromkeys(circles[-1], 1)
    grid.update({"cap:n": (-1, 0), "cap:s": (rows, 0)})
    cx = CellComplex("sphere(%d,%d)" % (rows, cols), cells, bnd)
    cx.meta["grid"] = grid
    cx.meta["cup"] = {"rings": {"z": [], "z2": []}}
    return cx


def sphere_reflection(rows, cols):
    """Longitude reflection l -> -l of the grid sphere, as a bijection."""
    bij = {"cap:n": "cap:n", "cap:s": "cap:s"}
    for r in range(rows + 1):
        for l in range(cols):
            bij["w:%d,%d" % (r, l)] = "w:%d,%d" % (r, (cols - l) % cols)
            bij["eh:%d,%d" % (r, l)] = "eh:%d,%d" % (r, (cols - 1 - l) % cols)
    for r in range(rows):
        for l in range(cols):
            bij["ev:%d,%d" % (r, l)] = "ev:%d,%d" % (r, (cols - l) % cols)
            bij["f:%d,%d" % (r, l)] = "f:%d,%d" % (r, (cols - 1 - l) % cols)
    return bij


def disc(rings, sectors):
    """Closed disc: a central polygon plus `rings - 1` quad rings."""
    assert rings >= 1 and sectors >= 3
    _check_size("disc(%d,%d)" % (rings, sectors),
                (4 * rings - 2) * sectors + 1)
    cells, bnd, grid, circles = _bands(1, rings, sectors,
                                       ("w", "c", "d", "q"))
    cells["hub"] = 2
    bnd["hub"] = dict.fromkeys(circles[0], 1)
    grid["hub"] = (0, 0)
    cx = CellComplex("disc(%d,%d)" % (rings, sectors), cells, bnd)
    cx.meta["grid"] = grid
    return cx


# -- combining builders ------------------------------------------------------
#
# `product` and `mapping_torus` write each boundary as the plain dict of its
# Leibniz terms: the terms of one cell name distinct cells, so none cancel.

def product(a, b, name=None):
    """Cell product with Leibniz boundary signs. Ids look like `ca&cb`."""
    name = name or "(%s)x(%s)" % (a.name, b.name)
    _check_size(name, len(a.cells) * len(b.cells))
    bcells = list(b.cells.items())
    at = {cb: j for j, (cb, _) in enumerate(bcells)}
    bfaces = [[(at[f], k) for f, k in b.boundary[cb].items()]
              for cb, _ in bcells]
    # one row of `ca&cb` ids for each cell of a, in b's order, made once
    rows = {ca: [ca + "&" + cb for cb, _ in bcells] for ca in a.cells}
    cells = {}
    bnd = {}
    for ca, da in a.cells.items():
        sgn = -1 if da % 2 else 1
        row = rows[ca]
        afaces = [(rows[f], k) for f, k in a.boundary[ca].items()]
        for j, (_, db) in enumerate(bcells):
            c = row[j]
            cells[c] = da + db
            faces = {fr[j]: k for fr, k in afaces}
            for g, k in bfaces[j]:
                faces[row[g]] = sgn * k
            bnd[c] = faces
    return CellComplex(name, cells, bnd)


def annulus(rows, cols):
    """rows bands of squares around a circle, two free boundary circles."""
    iv = interval(rows)
    ci = circle(cols)
    cx = product(iv, ci, name="annulus(%d,%d)" % (rows, cols))
    grid = {}
    for r in range(rows):
        for l in range(cols):
            grid["e:%d&e:%d" % (r, l)] = (r, l)
    cx.meta["grid"] = grid
    cx.meta["cup"] = {"rings": {"z": [[0]], "z2": [[0]]}}
    return cx


def quotient(name, cells, boundary, pairs):
    """The complex of the tables `cells` {id: dim} and `boundary` {id: {face:
    coeff}} with cells identified: pairs of (keep, drop, sign) meaning drop
    = sign * keep. The pairs resolve, with sign tracking, into one table of
    the dropped cells, every face is looked up there once, and a cell with
    no dropped face keeps its boundary dict. A dropped face becomes its
    class's kept cell as `cells` holds it, so the result keeps one string
    per id. The result is validated, so an identification that breaks del
    del = 0 raises."""
    target = {}

    def resolve(c):
        sign = 1
        while c in target:
            c, s = target[c]
            sign *= s
        return c, sign

    for keep, drop, sign in pairs:
        rk, sk = resolve(keep)
        rd, sd = resolve(drop)
        if rk == rd:
            if sk * sd != sign:
                raise ComplexError("contradictory identification at %s/%s" % (keep, drop))
            continue
        # drop rd in favor of rk
        target[rd] = (rk, sign * sk * sd)

    moved = {c: resolve(c) for c in target}
    # each kept cell as `cells` holds it, not as a pair names it
    reps = {rk for rk, _ in moved.values()}
    own = {c: c for c in filter(reps.__contains__, cells)}
    moved = {c: (own.get(rk, rk), s) for c, (rk, s) in moved.items()}
    kept = {}
    for c, d in cells.items():
        kept.setdefault(moved[c][0] if c in moved else c, d)
    bnd = {}
    for c in kept:
        faces = boundary.get(c, {})
        if not moved.keys().isdisjoint(faces):
            chain = defaultdict(int)
            for f, k in faces.items():
                f, s = moved.get(f, (f, 1))
                chain[f] += k * s
            faces = {f: k for f, k in chain.items() if k}
        bnd[c] = faces
    return CellComplex(name, kept, bnd,
                       identifications=[[k, d, s] for (k, d, s) in pairs])


def mapping_torus(fiber, glue, m, name=None):
    """Fiber x interval(m) with the top end glued back through `glue`, a
    cell bijection of the fiber onto itself (None for the identity).

    Cell ids: `sigma@v{i}` for the slice copies and `sigma@e{i}` for the band
    copies, i = 0..m-1. The gluing seam is the v0 slice. On the seam band
    sigma@e{m-1}, del del is +-(del phi - phi del)(sigma)@v0, so the
    complex's own del del = 0 sweep is the one chain-map check of the glue."""
    assert m >= 3
    name = name or "maptorus(%s,%d)" % (fiber.name, m)
    _check_size(name, 2 * m * len(fiber.cells))
    signs = ({c: (c, 1) for c in fiber.cells} if glue is None
             else complete_map_signs(fiber, glue))
    # each fiber cell's slice ids and band ids, made once
    vid = {c: ["%s@v%d" % (c, i) for i in range(m)] for c in fiber.cells}
    eid = {c: ["%s@e%d" % (c, i) for i in range(m)] for c in fiber.cells}
    cells = {}
    bnd = {}
    for c, d in fiber.cells.items():
        faces = [(vid[f], eid[f], k) for f, k in fiber.boundary[c].items()]
        sgn = -1 if d % 2 else 1
        c2, s = signs[c]
        vs, es = vid[c], eid[c]
        for i in range(m):
            v, e = vs[i], es[i]
            cells[v] = d
            cells[e] = d + 1
            if faces:
                bnd[v] = {fv[i]: k for fv, _, k in faces}
            band = {fe[i]: k for _, fe, k in faces}
            # the band ends on the next slice; the last one folds through
            # the glue onto the v0 slice
            if i + 1 < m:
                band[vs[i + 1]] = sgn
            else:
                band[vid[c2][0]] = sgn * s
            band[v] = -sgn
            bnd[e] = band
    cx = CellComplex(name, cells, bnd)
    cx.meta["mapping_torus"] = {"fiber_tops": sorted(fiber.top_cells()), "bands": m}
    if fiber.top_dim == 1:
        # fiber circle positions give a square grid
        grid = {}
        for c in fiber.top_cells():
            pos = int(c.split(":")[1])
            for i, e in enumerate(eid[c]):
                grid[e] = (pos, i)
        cx.meta["grid"] = grid
    return cx


def torus(n):
    name = "torus(%d,%d)" % (n, n)
    _check_size(name, 4 * n * n)  # before the fiber circle is built
    cx = mapping_torus(circle(n), None, n, name=name)
    cx.meta["cup"] = {"rings": {"z": [[0, 1], [-1, 0]],
                                "z2": [[0, 1], [1, 0]]}}
    return cx


def klein(n):
    name = "klein(%d,%d)" % (n, n)
    _check_size(name, 4 * n * n)
    cx = mapping_torus(circle(n), circle_reflection(n), n, name=name)
    cx.meta["cup"] = {"rings": {"z2": [[0, 1], [1, 1]]}}
    return cx


def rp2():
    """Antipodal quotient of sphere(4, 8): one fixed model, rp2(2,4)."""
    R, C = 2, 4
    sp = sphere(2 * R, 2 * C)
    pairs = []
    # (kind, rows of that kind, the row r goes to, sign of the identification)
    for kind, nrows, flip, sign in (("w", 2 * R + 1, 2 * R, 1),
                                    ("eh", 2 * R + 1, 2 * R, 1),
                                    ("ev", 2 * R, 2 * R - 1, -1),
                                    ("f", 2 * R, 2 * R - 1, -1)):
        for r in range(nrows):
            for l in range(2 * C):
                a = "%s:%d,%d" % (kind, r, l)
                b = "%s:%d,%d" % (kind, flip - r, (l + C) % (2 * C))
                if a < b:
                    pairs.append((a, b, sign))
    pairs.append(("cap:n", "cap:s", 1))
    cx = quotient("rp2(%d,%d)" % (R, C), sp.cells, sp.boundary, pairs)
    cx.meta["cup"] = {"rings": {"z2": [[1]]}}
    return cx


def _boundary_cycle(cx, cell):
    """Vertex cycle of a square-ish 2-cell, as an edge list walked in order."""
    edges = list(cx.boundary[cell])
    byv = defaultdict(list)
    for e in edges:
        for v in cx.boundary[e]:
            byv[v].append(e)
    start = min(byv)
    walk = []
    tried = set()
    v = start
    while True:
        nxt = [e for e in byv[v] if e not in tried]
        if not nxt:
            break
        e = min(nxt)
        tried.add(e)
        walk.append((v, e))
        ends = [w for w in cx.boundary[e] if w != v]
        if not ends:
            raise ComplexError("degenerate edge on boundary of %s" % cell)
        v = ends[0]
        if v == start:
            break
    if len(walk) != len(edges):
        raise ComplexError("boundary of %s is not a simple cycle" % cell)
    return walk


def connected_sum(a, b, cell_a, cell_b):
    """Remove one 2-cell from each closed orientable surface and glue the holes.

    The holes are matched one way, a's boundary walk against b's reversed,
    each edge glued with the sign that maps its boundary onto its partner's:
    a sum of orientable surfaces is orientable however the holes are
    matched. The cup table sums the inputs' tables, for each ring both carry."""
    for cx, hole in ((a, cell_a), (b, cell_b)):
        if cx.cells.get(hole) != 2:
            raise ComplexError("hole %s is not a 2-cell of %s"
                               % (hole, cx.name))
    walk_a = _boundary_cycle(a, cell_a)
    walk_b = _boundary_cycle(b, cell_b)
    if len(walk_a) != len(walk_b):
        raise ComplexError("hole boundaries have different lengths")
    k = len(walk_a)
    # both surfaces side by side as plain tables, cells prefixed "a:" and
    # "b:", each prefixed id made once, less the holes; `quotient` makes
    # the one complex
    ida = {c: "a:" + c for c in a.cells}
    idb = {c: "b:" + c for c in b.cells}
    cells = {}
    bnd = {}
    for own, cx, hole in ((ida, a, cell_a), (idb, b, cell_b)):
        for c, d in cx.cells.items():
            if c != hole:
                cells[own[c]] = d
                bnd[own[c]] = {own[f]: coeff
                               for f, coeff in cx.boundary[c].items()}

    verts_a = [ida[v] for (v, e) in walk_a]
    edges_a = [ida[e] for (v, e) in walk_a]
    vb = [idb[v] for (v, e) in reversed(walk_b)]
    # reversing the vertex cycle shifts which edge sits between consecutive
    # vertices
    eb = [idb[e] for (v, e) in reversed(walk_b)]
    eb = eb[1:] + eb[:1]
    pairs = list(zip(verts_a, vb, [1] * k))
    for i in range(k):
        # an endpoint off the hole maps to None, which matches nothing
        vmap = {vb[i]: verts_a[i], vb[(i + 1) % k]: verts_a[(i + 1) % k]}
        mapped = {vmap.get(w): kk for w, kk in bnd[eb[i]].items()}
        ca = bnd[edges_a[i]]
        if mapped == ca:
            pairs.append((edges_a[i], eb[i], 1))
        elif mapped == {w: -kk for w, kk in ca.items()}:
            pairs.append((edges_a[i], eb[i], -1))
        else:
            raise ComplexError("hole edges %s and %s do not match"
                               % (edges_a[i], eb[i]))
    out = quotient("sum(%s,%s)" % (a.name, b.name), cells, bnd, pairs)
    if not (out.is_closed_surface() and out.is_orientable()):
        raise ComplexError("glued complex is not an orientable surface")
    # the orthogonal sum of the two cup tables, ring by ring
    cup_a, cup_b = (cx.meta.get("cup", {}).get("rings", {}) for cx in (a, b))
    rings = {r: [row + [0] * len(cup_b[r]) for row in cup_a[r]] +
             [[0] * len(cup_a[r]) + row for row in cup_b[r]]
             for r in sorted(cup_a.keys() & cup_b.keys())}
    if rings:
        out.meta["cup"] = {"rings": rings}
    return out


def t3(n):
    name = "t3(%d,%d)" % (n, n)
    _check_size(name, 8 * n ** 3)
    cx = product(torus(n), circle(n), name=name)
    cx.meta["cup"] = {"rings": {"z": "exterior3", "z2": "exterior3"}}
    return cx


def genus2(n):
    """torus(n) summed with itself at its middle 2-cell; the a:/b:
    prefixes of `connected_sum` keep the two copies apart."""
    # two tori less the two holes, and less one rim's 4 vertices and 4
    # edges, which are glued onto the other's
    _check_size("sum(torus(%d,%d),torus(%d,%d))" % (n, n, n, n),
                8 * n * n - 10)
    t = torus(n)
    mid = "e:%d@e%d" % (n // 2, n // 2)
    return connected_sum(t, t, mid, mid)
