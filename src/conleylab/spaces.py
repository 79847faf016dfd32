"""The named spaces: builders of cell complexes from tables and gluings.

Three table makers write every space. `_path` writes a row of edges, open
for `interval` and closed for `circle`. `_bands` writes a stack of square
bands under four id prefixes given as data; `sphere` caps it off at both
ends, and `disc` at its inner circle with a hub. `_product` writes the
product of a complex with the tables of another: `product`'s, and a
mapping torus as its fiber times a loop of m edges, rewritten at the seam.
The ids come in rows from `_path_ids` and `_band_ids`, which the circle's
and sphere's reflections and `rp2` read too, so a map names built ids.

The gluings glue tables, not complexes: `connected_sum` and the catalog's
strips copy their pieces into plain cells/faces/coefficients tables
through `_copy`, `rp2` takes its sphere's, and `quotient` makes the one
complex. So each space becomes one CellComplex, and its one sweep checks
it, a glue's chain-map condition included.

Every builder writes a complex's two boundary tables itself: each cell's
faces as a tuple and their coefficients as a tuple that all cells of one
shape share, a constant or one `complexes._share` gives, so a grid space
holds a handful of coefficient tuples.

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
from itertools import repeat
from operator import add, itemgetter, neg

from .complexes import CellComplex, ComplexError, _check_size, _share

# the coefficients of an edge (head, tail) and of a square (a, b, c, d)
# with boundary a + b - c - d, each one tuple for every cell of its shape
_EDGE = (1, -1)
_SQUARE = (1, 1, -1, -1)
# the sphere's id prefixes: vertices, circle edges, band edges, squares
_SPHERE = ("w", "eh", "ev", "f")


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
            for f, k in fiber.chain(c).items():
                f2, s2 = table[f]
                rhs[f2] += k * s2
            sign = None
            for f2, k2 in fiber.chain(c2).items():
                if rhs.get(f2, 0):
                    sign = rhs[f2] // k2
                    break
            if sign not in (1, -1):
                raise ComplexError("cannot orient %s over %s" % (c, c2))
            table[c] = (c2, sign)
    return table


# -- elementary builders ----------------------------------------------------

def point():
    return CellComplex("point", {"v:0": 0}, {}, {})


def _path_ids(n, closed):
    """The rows (vs, es) of the ids of n edges e:i and their vertices:
    v:0 .. v:n in a row, or v:0 .. v:n-1 around when `closed`."""
    return (["v:%d" % i for i in range(n if closed else n + 1)],
            ["e:%d" % i for i in range(n)])


def _path(n, closed):
    """(cells, faces, coefficients): the tables of the `_path_ids` edges,
    each e:i from v:i to the next vertex."""
    vs, es = _path_ids(n, closed)
    cells = dict.fromkeys(vs, 0)
    cells.update(dict.fromkeys(es, 1))
    ends = vs[1:] + vs[:1] if closed else vs[1:]
    return cells, dict(zip(es, zip(ends, vs))), dict.fromkeys(es, _EDGE)


def interval(n):
    """n edges in a row, vertices v:0 .. v:n."""
    assert n >= 1
    _check_size("interval(%d)" % n, 2 * n + 1)
    return CellComplex("interval(%d)" % n, *_path(n, False))


def circle(n):
    assert n >= 3, "need at least 3 edges for a regular circle"
    _check_size("circle(%d)" % n, 2 * n)
    return CellComplex("circle(%d)" % n, *_path(n, True))


def _reflect(bij, vertices, edges):
    """Add l -> -l on a circle of vertices and the edges between them, edge
    l from vertex l to vertex l+1, to the bijection `bij`."""
    bij.update(zip(vertices, vertices[:1] + vertices[:0:-1]))
    bij.update(zip(edges, edges[::-1]))


def circle_reflection(n):
    """The reflection l -> -l of circle(n), as a cell bijection."""
    bij = {}
    _reflect(bij, *_path_ids(n, True))
    return bij


def _band_ids(first, last, cols, names):
    """The rows (w, h, v, f) of the ids of the square bands between vertex
    rows first .. last, `cols` squares around, each a list of rows, first
    row first. With names (w, h, v, f), row r has vertices w:r,l and
    circle edges h:r,l, and band r has edges v:r,l and squares f:r,l."""
    rows = range(first, last + 1)
    # vertices and circle edges by row, the edges between circles and the
    # squares by band
    return [[[fmt % (r, l) for l in range(cols)] for r in span]
            for fmt, span in zip([p + ":%d,%d" for p in names],
                                 (rows, rows, rows[:-1], rows[:-1]))]


def _bands(first, last, cols, names):
    """(cells, faces, coefficients, grid, circles): the tables of the
    `_band_ids` bands, each id made once. Circle edge h:r,l runs from
    w:r,l to w:r,l+1, band edge v:r,l from w:r,l to w:r+1,l, and square
    f:r,l sits at grid position (r, l). `circles` is each row's circle
    edges, first row first."""
    w, h, v, f = _band_ids(first, last, cols, names)
    cells = {}
    faces = {}
    coeffs = {}
    for row in w:
        cells.update(dict.fromkeys(row, 0))
    # circle edges from each vertex to the next around its row, band edges
    # from each vertex to the one in the next row
    nxt = [ws[1:] + ws[:1] for ws in w]
    for lows, highs, edges in ((w, nxt, h), (w, w[1:], v)):
        for lo, hi, es in zip(lows, highs, edges):
            cells.update(dict.fromkeys(es, 1))
            faces.update(zip(es, zip(hi, lo)))
            coeffs.update(dict.fromkeys(es, _EDGE))
    grid = {}
    for r, lo, hi, vs, fs in zip(range(first, last), h, h[1:], v, f):
        cells.update(dict.fromkeys(fs, 2))
        faces.update(zip(fs, zip(lo, vs[1:] + vs[:1], hi, vs)))
        coeffs.update(dict.fromkeys(fs, _SQUARE))
        grid.update(zip(fs, zip([r] * cols, range(cols))))
    return cells, faces, coeffs, grid, h


def sphere(rows, cols):
    """Grid sphere: `rows` bands of squares between two polygonal caps."""
    assert rows >= 1 and cols >= 3
    _check_size("sphere(%d,%d)" % (rows, cols), (4 * rows + 2) * cols + 2)
    cells, faces, coeffs, grid, circles = _bands(0, rows, cols, _SPHERE)
    # each cap bounded by its circle's edges, each with coefficient 1
    ones = (1,) * cols
    for cap, edges in (("cap:n", circles[0]), ("cap:s", circles[-1])):
        cells[cap] = 2
        faces[cap] = tuple(edges)
        coeffs[cap] = ones
    grid.update({"cap:n": (-1, 0), "cap:s": (rows, 0)})
    cx = CellComplex("sphere(%d,%d)" % (rows, cols), cells, faces, coeffs)
    cx.meta["grid"] = grid
    cx.meta["cup"] = {"rings": {"z": [], "z2": []}}
    return cx


def sphere_reflection(rows, cols):
    """Longitude reflection l -> -l of the grid sphere, as a bijection."""
    bij = {"cap:n": "cap:n", "cap:s": "cap:s"}
    w, h, v, f = _band_ids(0, rows, cols, _SPHERE)
    for row in zip(w, h):
        _reflect(bij, *row)
    for row in zip(v, f):
        _reflect(bij, *row)
    return bij


def disc(rings, sectors):
    """Closed disc: a central polygon plus `rings - 1` quad rings."""
    assert rings >= 1 and sectors >= 3
    _check_size("disc(%d,%d)" % (rings, sectors),
                (4 * rings - 2) * sectors + 1)
    cells, faces, coeffs, grid, circles = _bands(1, rings, sectors,
                                                 ("w", "c", "d", "q"))
    cells["hub"] = 2
    faces["hub"] = tuple(circles[0])
    coeffs["hub"] = (1,) * sectors
    grid["hub"] = (0, 0)
    cx = CellComplex("disc(%d,%d)" % (rings, sectors), cells, faces, coeffs)
    cx.meta["grid"] = grid
    return cx


# -- combining builders ------------------------------------------------------
#
# `_product` writes each boundary as the tuple of its Leibniz terms: the
# terms of one cell name distinct cells, so none cancel. Each cell's
# coefficients are its factors' coefficient tuples joined, so they take one
# tuple per pair of factor tuples, shared through `_share`. `product` and
# `mapping_torus` call it, and the mapping torus rewrites only its seam
# bands; the gluings copy their pieces through `_copy` into `quotient`.

def _picker(idx):
    """A C-level function of a tuple to the tuple of its items at the
    indices idx. An itemgetter of one index gives the bare item, so one
    index or none is taken as a slice."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return itemgetter(slice(idx[0], idx[0] + 1) if idx else slice(0))


def _product(a, cells_b, faces_b, coefficients_b, sep):
    """(cells, faces, coefficients, rows): the tables of the product of the
    complex a and the tables of b, ids `ca` + sep + `cb`, each made once;
    rows[ca] is the tuple of ca's ids in b's cell order. A cell of b the
    face tables do not name has no faces. The caller checks the size."""
    bids = list(cells_b)
    at = {cb: j for j, cb in enumerate(bids)}
    # each cell's faces from b, picked from the row of its cell of a
    picks = [_picker([at[f] for f in faces_b.get(cb, ())]) for cb in bids]
    bcoeffs = [coefficients_b.get(cb, ()) for cb in bids]
    # b's coefficients under each parity of a's dimension, and a's joined
    # to them: one list of tuples for each parity and each of a's tuples
    signed = (bcoeffs, [tuple(map(neg, ks)) for ks in bcoeffs])
    bdims = list(cells_b.values())
    joined = {}
    shared = {}
    seps = [sep + cb for cb in bids]
    rows = {ca: tuple([ca + s for s in seps]) for ca in a.cells}
    cells = {}
    faces = {}
    coeffs = {}
    for ca, da in a.cells.items():
        row = rows[ca]
        afaces = a.boundary[ca]
        ak = a.coefficients[ca]
        key = (ak, da % 2)
        if key not in joined:
            joined[key] = _share([ak + bk for bk in signed[da % 2]], shared)
        # each cell's faces from a, one tuple per cell of the row, then
        # its faces from b
        acols = zip(*map(rows.__getitem__, afaces)) if afaces else repeat(())
        cells.update(zip(row, map(add, repeat(da), bdims)))
        faces.update(zip(row, map(add, acols, [pick(row) for pick in picks])))
        coeffs.update(zip(row, joined[key]))
    return cells, faces, coeffs, rows


def product(a, b, name=None):
    """Cell product with Leibniz boundary signs. Ids look like `ca&cb`."""
    name = name or "(%s)x(%s)" % (a.name, b.name)
    _check_size(name, len(a.cells) * len(b.cells))
    return CellComplex(name, *_product(a, b.cells, b.boundary,
                                       b.coefficients, "&")[:3])


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


def _copy(cx, prefix, tables, skip=None):
    """Enter cx's cells, less `skip`, in the tables (cells, faces,
    coefficients) under `prefix`, each prefixed id made once; the {cell:
    prefixed id} map."""
    own = {c: prefix + c for c in cx.cells}
    cells, faces, coeffs = tables
    for c, d in cx.cells.items():
        if c != skip:
            cells[own[c]] = d
            faces[own[c]] = tuple(map(own.__getitem__, cx.boundary[c]))
            coeffs[own[c]] = cx.coefficients[c]
    return own


def quotient(name, cells, faces, coefficients, pairs):
    """The complex of the tables `cells` {id: dim}, `faces` {id: (face,
    ...)} and `coefficients` {id: (coeff, ...)} with cells identified:
    pairs of (keep, drop, sign) meaning drop = sign * keep. The pairs
    resolve, with sign tracking, into one table of the dropped cells, every
    face is looked up there once, and a cell with no dropped face keeps its
    tuples. A cell with a dropped face has its chain summed as a dict and
    written as two tuples once, its coefficients shared. A dropped
    face becomes its class's kept cell as `cells` holds it, so the result
    keeps one string per id. The result is validated, so an identification
    that breaks del del = 0 raises."""
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
    bnd, coeffs, summed = {}, {}, {}
    for c in kept:
        fs, ks = faces.get(c, ()), coefficients.get(c, ())
        if not moved.keys().isdisjoint(fs):
            chain = defaultdict(int)
            for f, k in zip(fs, ks):
                f, s = moved.get(f, (f, 1))
                chain[f] += k * s
            chain = {f: k for f, k in chain.items() if k}
            fs = tuple(chain)
            ks = summed[c] = tuple(chain.values())
        bnd[c] = fs
        coeffs[c] = ks
    coeffs.update(zip(summed, _share(list(summed.values()), {})))
    return CellComplex(name, kept, bnd, coeffs,
                       identifications=[[k, d, s] for (k, d, s) in pairs])


def mapping_torus(fiber, glue, m, name=None):
    """Fiber x interval(m) with the top end glued back through `glue`, a
    cell bijection of the fiber onto itself (None for the identity): the
    product of the fiber with a loop of m edges, rewritten at the seam.

    Cell ids: `sigma@v{i}` for the slice copies and `sigma@e{i}` for the band
    copies, i = 0..m-1. The gluing seam is the v0 slice. On the seam band
    sigma@e{m-1}, del del is +-(del phi - phi del)(sigma)@v0, so the
    complex's own del del = 0 sweep is the one chain-map check of the glue."""
    assert m >= 3
    name = name or "maptorus(%s,%d)" % (fiber.name, m)
    _check_size(name, 2 * m * len(fiber.cells))
    signs = None if glue is None else complete_map_signs(fiber, glue)
    # the loop: edge e{i} from v{i} to v{i+1}, in the order v0, e0, v1, e1,
    # ..., so each fiber cell's row runs sigma@v0, sigma@e0, sigma@v1, ...
    ids = [c for i in range(m) for c in ("v%d" % i, "e%d" % i)]
    vs, es = ids[::2], ids[1::2]
    loop = dict(zip(ids, (0, 1) * m))
    cells, faces, coeffs, rows = _product(
        fiber, loop, dict(zip(es, zip(vs[1:] + vs[:1], vs))),
        dict.fromkeys(es, _EDGE), "@")
    if signs:
        # each seam band sigma@e{m-1} ends on glue(sigma)@v0, its head's
        # coefficient times the solved sign, shared with the bands' tuples
        shared = {}
        seam = {}
        for c, (c2, s) in signs.items():
            e = rows[c][-1]
            fs, ks = faces[e], coeffs[e]
            faces[e] = fs[:-2] + (rows[c2][0], fs[-1])
            shared[ks] = ks
            if s < 0:
                seam[e] = ks[:-2] + (-ks[-2], ks[-1])
        coeffs.update(zip(seam, _share(list(seam.values()), shared)))
    cx = CellComplex(name, cells, faces, coeffs)
    cx.meta["mapping_torus"] = {"fiber_tops": sorted(fiber.top_cells()), "bands": m}
    if fiber.top_dim == 1:
        # fiber circle positions give a square grid
        grid = {}
        for c in fiber.top_cells():
            pos = int(c.split(":")[1])
            for i, e in enumerate(rows[c][1::2]):
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
    # each kind's id rows, and its sign: the antipode of cell l of the r-th
    # row is cell l + C of the r-th row from the other end
    for rows, sign in zip(_band_ids(0, 2 * R, 2 * C, _SPHERE),
                          (1, 1, -1, -1)):
        for row, opposite in zip(rows, rows[::-1]):
            for a, b in zip(row, opposite[C:] + opposite[:C]):
                if a < b:
                    pairs.append((a, b, sign))
    pairs.append(("cap:n", "cap:s", 1))
    cx = quotient("rp2(%d,%d)" % (R, C), sp.cells, sp.boundary,
                  sp.coefficients, pairs)
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
    # "b:", less the holes; `quotient` makes the one complex
    tables = ({}, {}, {})
    ida = _copy(a, "a:", tables, cell_a)
    idb = _copy(b, "b:", tables, cell_b)

    verts_a = [v for (v, e) in walk_a]
    edges_a = [e for (v, e) in walk_a]
    vb = [v for (v, e) in reversed(walk_b)]
    # reversing the vertex cycle shifts which edge sits between consecutive
    # vertices
    eb = [e for (v, e) in reversed(walk_b)]
    eb = eb[1:] + eb[:1]
    pairs = [(ida[v], idb[w], 1) for v, w in zip(verts_a, vb)]
    for i in range(k):
        # an endpoint off the hole maps to None, which matches nothing
        vmap = {vb[i]: verts_a[i], vb[(i + 1) % k]: verts_a[(i + 1) % k]}
        mapped = {vmap.get(w): kk for w, kk in b.chain(eb[i]).items()}
        ca = a.chain(edges_a[i])
        if mapped == ca:
            sign = 1
        elif mapped == {w: -kk for w, kk in ca.items()}:
            sign = -1
        else:
            raise ComplexError("hole edges %s and %s do not match"
                               % (ida[edges_a[i]], idb[eb[i]]))
        pairs.append((ida[edges_a[i]], idb[eb[i]], sign))
    out = quotient("sum(%s,%s)" % (a.name, b.name), *tables, pairs)
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
