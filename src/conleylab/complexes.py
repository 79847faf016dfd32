"""Finite regular CW complexes with integer incidence data.

Cells are string ids, each with a dimension and a boundary chain written as
{face_id: coefficient}. Every constructor validates the complex in one
sweep, lowest dimension first: each face is known, one dimension lower and
has a nonzero integer coefficient, and del o del = 0, so a bad sign in a
builder fails loudly at build time instead of corrupting homology later. A
boundary for a cell that is not declared is refused too. `from_json` turns
a file's [face, coeff] lists into the dicts the constructor keeps, popping
each list from the body as it goes.

Builders glue tables, not complexes: `connected_sum`, `rp2` and the catalog's
strips hand plain cells/boundary tables to `quotient`, so each space becomes
one CellComplex, checked once. A mapping torus glues through a plain cell
bijection of its fiber, with solved signs, and that sweep is its one
chain-map check.

Construction indexes only the cells by dimension. The top cofaces of each
codim-1 face, the vertex supports of the cells of dimension 2 and up and
the top cells at each vertex are built once, on their first query, so a
complex that only feeds homology never builds them. A vertex support is a
tuple of distinct vertices. The support of a vertex (itself) and of an edge
(its boundary) is derived on each query and never stored. `star_tops` is
the one closed-star query, a one-ring included, and it goes through the
vertices. `components` is the one connected-components walk: the components
of basin - k, the block sections, the circles of a cycle, the pieces a cycle
cuts a surface into and the two sides of a circle are all cells joined
through shared faces outside a cut, and it maps those faces from the set's
own boundaries. So `attractor.analyze` on a loaded file builds the vertex
supports and the vertex stars only: no coface index, and no complex stores a
ring per cell. A connected sum glues its holes by one matching.

Each builder that allocates counts the cells its arguments imply, and refuses
more than MAX_CELLS with code too-large before it allocates. A cell dimension
is refused too: a negative one with bad-complex, and one above MAX_CELLS
with too-large, since homology walks every degree up to the top one.
"""

from collections import defaultdict
from functools import cached_property
from itertools import chain


class ConleyError(ValueError):
    """Base of every error the command line reports as `error[code]`.

    It lives here, at the root of the import graph, so catching it loads no
    other module. Errors carry a short machine code on .code."""

    def __init__(self, code, msg=None):
        super().__init__(msg or code)
        self.code = code


class ComplexError(ConleyError):
    code = "bad-complex"

    def __init__(self, msg):
        super().__init__(self.code, msg)


class CellComplex:
    """Cells {id: dim} and boundaries {id: {face: coeff}}. The boundary
    dicts handed in are kept, not copied, and may be shared with the tables
    they came from: no boundary is changed after construction."""

    def __init__(self, name, cells, boundary, identifications=None):
        self.name = name
        self.cells = dict(cells)          # id -> dim
        undeclared = boundary.keys() - self.cells.keys()
        if undeclared:
            raise ComplexError("boundary given for undeclared cell %s"
                               % min(undeclared, key=str))
        # each cell's faces as {face: coeff}: the dict handed in, not a
        # copy, and an empty one for a cell given none
        self.boundary = {c: boundary.get(c) or {} for c in self.cells}
        self.identifications = list(identifications or [])
        self.meta = {}
        self._by_dim = defaultdict(list)
        for c, d in self.cells.items():
            if type(d) is not int:
                raise ComplexError("dimension of %s is not an integer: %r"
                                   % (c, d))
            self._by_dim[d].append(c)
        low = min(self._by_dim, default=0)
        self.top_dim = max(self._by_dim, default=0)
        if low < 0:
            raise ComplexError("dimension of %s is negative: %d"
                               % (self._by_dim[low][0], low))
        # homology walks every degree up to the top one
        if self.top_dim > MAX_CELLS:
            raise ConleyError("too-large",
                              "dimension of %s is %d; the limit is %d"
                              % (self._by_dim[self.top_dim][0],
                                 self.top_dim, MAX_CELLS))
        for d in self._by_dim:
            self._by_dim[d].sort()
        self._validate()

    # -- construction-time checks ------------------------------------------

    def _validate(self):
        """One sweep, lowest dimension first, after one look at all the
        coefficients (nonzero integers). The faces of each dimension's cells
        are checked together (known, one dimension lower), then each cell's
        del del is summed over faces the sweep has already checked. A face
        defect is reported before any del del != 0, each at the first
        defective cell in the order the cells were given."""
        cells, boundary = self.cells, self.boundary
        coeffs = set(chain.from_iterable(map(dict.values, boundary.values())))
        if 0 in coeffs or set(map(type, coeffs)) - {int}:
            self._face_defect()
        dd_bad = {}
        for d in sorted(self._by_dim):
            chains = list(map(boundary.__getitem__, self._by_dim[d]))
            if set(map(cells.get, chain.from_iterable(chains))) - {d - 1}:
                self._face_defect()
            # a cell with no cells two dimensions below it has faces
            # without faces, so its del del has nothing to sum
            if d - 2 not in self._by_dim:
                continue
            for c, faces in zip(self._by_dim[d], chains):
                acc = {}
                for f, coeff in faces.items():
                    for g, coeff2 in boundary[f].items():
                        acc[g] = acc.get(g, 0) + coeff * coeff2
                if any(acc.values()):
                    dd_bad[c] = {g: v for g, v in acc.items() if v != 0}
        if dd_bad:
            c = next(c for c in cells if c in dd_bad)
            raise ComplexError("del del != 0 at %s: %r" % (c, dd_bad[c]))

    def _face_defect(self):
        # the sweep found a bad face; name the first one in the given order
        for c, faces in self.boundary.items():
            dc = self.cells[c]
            for f, coeff in faces.items():
                if f not in self.cells:
                    raise ComplexError("boundary of %s mentions unknown cell %s" % (c, f))
                if self.cells[f] != dc - 1:
                    raise ComplexError("boundary of %s (dim %d) mentions %s (dim %d)"
                                       % (c, dc, f, self.cells[f]))
                if type(coeff) is not int:
                    raise ComplexError("coefficient of %s in %s is not an integer: %r"
                                       % (f, c, coeff))
                if coeff == 0:
                    raise ComplexError("zero coefficient stored for %s in %s" % (f, c))

    # -- indexes, each built on its first query ------------------------------

    @cached_property
    def _top_cofaces(self):
        # the top cells on each codim-1 face, from the top cells' boundaries;
        # top_cells() is sorted, so each list is too
        top_cofaces = defaultdict(list)
        for t in self.top_cells():
            for f in self.boundary[t]:
                top_cofaces[f].append(t)
        return top_cofaces

    @cached_property
    def _verts(self):
        # vertex support of each closed cell, for star and ring queries, as
        # a tuple of distinct vertices: stored for the cells of dimension 2
        # and up, each the union of its faces' supports (an edge's faces are
        # its vertices)
        boundary = self.boundary
        verts = _Supports(self.cells, boundary)
        for d in sorted(self._by_dim):
            if d < 2:
                continue
            faces_of = boundary.__getitem__ if d == 2 else verts.__getitem__
            for c in self._by_dim[d]:
                verts[c] = tuple(set(chain.from_iterable(
                    map(faces_of, boundary[c]))))
        return verts

    @cached_property
    def _vert_tops(self):
        # all top cells whose closure contains each vertex; a top cell is
        # listed once per vertex of its support, so no list repeats a cell
        vert_tops = {v: [] for v in self._by_dim.get(0, ())}
        for t in self.top_cells():
            for v in self._verts[t]:
                vert_tops[v].append(t)
        return vert_tops

    @cached_property
    def _bare_tops(self):
        # top cells with no vertex, so in no vertex's star: only a
        # degenerate complex has one
        return frozenset(t for t in self.top_cells() if not self._verts[t])

    # -- queries -----------------------------------------------------------

    def cells_of_dim(self, d):
        return list(self._by_dim.get(d, []))

    def top_cells(self):
        return list(self._by_dim.get(self.top_dim, []))

    def top_cofaces(self, c):
        return list(self._top_cofaces.get(c, ()))

    def closure(self, cellset):
        out = set()
        stack = list(cellset)
        while stack:
            c = stack.pop()
            if c in out:
                continue
            out.add(c)
            stack.extend(self.boundary[c])
        return out

    def vertices_of(self, c):
        """The vertices in the closure of c, as a tuple of distinct ids."""
        return self._verts[c]

    def star_tops(self, cellset):
        """Closed star: every top cell whose closure meets closure(cellset).
        A cell's vertex support already covers its closure, and every top
        cell is in the star of each of its vertices, so this is the union of
        the stars of the set's vertices. It is the one closed-star query:
        the one-ring of a cell c is star_tops((c,)), and no ring is kept."""
        verts = self._verts
        vs = set().union(*map(verts.__getitem__, cellset))
        out = set().union(*map(self._vert_tops.__getitem__, vs))
        if self._bare_tops:
            out |= self._bare_tops.intersection(cellset)
        return out

    def components(self, cells, cut=()):
        """Connected components of a set of cells of one dimension, two
        cells joined when their boundaries share a face outside `cut`, as
        frozensets ordered by each component's least cell. Each face is
        mapped to the cells of the set that own it, from those cells'
        boundaries alone, less the faces in `cut`, and the walk follows
        that map. On edges this is vertex adjacency."""
        boundary = self.boundary
        owners = defaultdict(list)
        for c in cells:
            for f in boundary[c]:
                owners[f].append(c)
        for f in cut:
            owners.pop(f, None)
        comps = []
        seen = set()
        for start in sorted(cells):
            if start in seen:
                continue
            seen.add(start)
            comp = [start]
            for u in comp:  # the list grows while it is walked
                for f in boundary[u]:
                    for v in owners[f]:
                        if v not in seen:
                            seen.add(v)
                            comp.append(v)
            comps.append(frozenset(comp))
        return comps

    def euler(self, cellset=None):
        """Euler characteristic of the closure of cellset (whole complex if None)."""
        cl = self.cells if cellset is None else self.closure(cellset)
        return sum((-1) ** self.cells[c] for c in cl)

    def is_closed_manifold(self):
        """Every codim-1 face sits in exactly two top cells."""
        return all(len(self.top_cofaces(f)) == 2
                   for f in self._by_dim.get(self.top_dim - 1, []))

    def is_closed_surface(self):
        return self.top_dim == 2 and self.is_closed_manifold()

    def is_orientable(self):
        """Propagate top-cell orientations across codim-1 faces; look for a clash.

        Only meaningful for pseudo-manifolds. Free faces (one top coface) put
        no constraint.
        """
        sign = {}
        tops = self.top_cells()
        for start in tops:
            if start in sign:
                continue
            sign[start] = 1
            stack = [start]
            while stack:
                u = stack.pop()
                for f in self.boundary[u]:
                    cof = self.top_cofaces(f)
                    if len(cof) != 2:
                        continue
                    v = cof[0] if cof[1] == u else cof[1]
                    if v == u:
                        continue
                    want = -sign[u] * self.boundary[u][f] * self.boundary[v][f]
                    if v in sign:
                        if sign[v] != want:
                            return False
                    else:
                        sign[v] = want
                        stack.append(v)
        return True

    def subcomplex(self, cellset):
        cl = self.closure(cellset)
        cells = {c: self.cells[c] for c in cl}
        bnd = {c: self.boundary[c] for c in cl}
        return CellComplex(self.name + ":sub", cells, bnd)

    # -- serialization -----------------------------------------------------

    def to_json(self):
        ids = sorted(self.cells)
        return {
            "name": self.name,
            "cells": [[c, self.cells[c]] for c in ids],
            "boundary": {c: sorted(self.boundary[c].items())
                         for c in ids if self.boundary[c]},
            "identifications": self.identifications,
        }

    @classmethod
    def from_json(cls, data):
        """The complex of a JSON body, which takes the body's `boundary`
        mapping apart: each cell's [face, coeff] list is popped from it as
        soon as it has become the dict the complex keeps, so a loader that
        owns its parsed file frees those lists while the complex is built.
        A caller that keeps its body hands over a copy of that mapping. The
        `cells` pairs go to the constructor as they stand; a mapping where a
        [face, coeff] list belongs would pass through dict() unnoticed, so
        it is refused here, before any list is popped."""
        cells, bnd = data["cells"], data.get("boundary", {})
        if type(cells) is not list:
            raise ComplexError("cells are not a list of [id, dim] pairs")
        if set(map(type, bnd.values())) - {list}:
            c = next(c for c, pairs in bnd.items() if type(pairs) is not list)
            raise ComplexError("boundary of %s is not a list of "
                               "[face, coeff] pairs" % c)
        # the keys in the body's order; each value replaced in place
        boundary = dict.fromkeys(bnd)
        for c in boundary:
            boundary[c] = dict(bnd.pop(c))
        return cls(data.get("name", "complex"), cells, boundary,
                   identifications=data.get("identifications"))


class _Supports(dict):
    """The stored vertex supports, {cell: tuple of distinct vertices}, which
    derives the support of a vertex (itself) or an edge (its boundary) on
    each lookup instead of storing it. It holds the complex's tables, not
    the complex, so it makes no reference cycle."""

    __slots__ = ("cells", "boundary")

    def __init__(self, cells, boundary):
        super().__init__()
        self.cells, self.boundary = cells, boundary

    def __missing__(self, c):
        return (c,) if self.cells[c] == 0 else tuple(self.boundary[c])


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

# The most cells a builder makes: five times torus(160, 160), the largest
# complex the benchmarks measure.
MAX_CELLS = 1 << 19


def _check_size(what, count):
    # a builder's refusal of its arguments, before it allocates
    if count > MAX_CELLS:
        raise ConleyError("too-large",
                          "%s would have %d cells; the limit is %d"
                          % (what, count, MAX_CELLS))


def point():
    return CellComplex("point", {"v:0": 0}, {})


def interval(n):
    """n edges in a row, vertices v:0 .. v:n."""
    assert n >= 1
    _check_size("interval(%d)" % n, 2 * n + 1)
    cells = {}
    bnd = {}
    for i in range(n + 1):
        cells["v:%d" % i] = 0
    for i in range(n):
        e = "e:%d" % i
        cells[e] = 1
        bnd[e] = {"v:%d" % (i + 1): 1, "v:%d" % i: -1}
    return CellComplex("interval(%d)" % n, cells, bnd)


def circle(n):
    assert n >= 3, "need at least 3 edges for a regular circle"
    _check_size("circle(%d)" % n, 2 * n)
    cells = {}
    bnd = {}
    for i in range(n):
        cells["v:%d" % i] = 0
    for i in range(n):
        e = "e:%d" % i
        cells[e] = 1
        bnd[e] = {"v:%d" % ((i + 1) % n): 1, "v:%d" % i: -1}
    return CellComplex("circle(%d)" % n, cells, bnd)


def circle_reflection(n):
    """The reflection l -> -l of circle(n), as a cell bijection."""
    bij = {}
    for i in range(n):
        bij["v:%d" % i] = "v:%d" % ((n - i) % n)
        bij["e:%d" % i] = "e:%d" % ((n - 1 - i) % n)
    return bij


def sphere(rows, cols):
    """Grid sphere: `rows` bands of squares between two polygonal caps."""
    assert rows >= 1 and cols >= 3
    _check_size("sphere(%d,%d)" % (rows, cols), (4 * rows + 2) * cols + 2)
    cells = {}
    bnd = {}
    for r in range(rows + 1):
        for l in range(cols):
            cells["w:%d,%d" % (r, l)] = 0
    for r in range(rows + 1):
        for l in range(cols):
            e = "eh:%d,%d" % (r, l)
            cells[e] = 1
            bnd[e] = {"w:%d,%d" % (r, (l + 1) % cols): 1, "w:%d,%d" % (r, l): -1}
    for r in range(rows):
        for l in range(cols):
            e = "ev:%d,%d" % (r, l)
            cells[e] = 1
            bnd[e] = {"w:%d,%d" % (r + 1, l): 1, "w:%d,%d" % (r, l): -1}
    for r in range(rows):
        for l in range(cols):
            f = "f:%d,%d" % (r, l)
            cells[f] = 2
            bnd[f] = {"eh:%d,%d" % (r, l): 1,
                      "ev:%d,%d" % (r, (l + 1) % cols): 1,
                      "eh:%d,%d" % (r + 1, l): -1,
                      "ev:%d,%d" % (r, l): -1}
    cells["cap:n"] = 2
    bnd["cap:n"] = {"eh:0,%d" % l: 1 for l in range(cols)}
    cells["cap:s"] = 2
    bnd["cap:s"] = {"eh:%d,%d" % (rows, l): 1 for l in range(cols)}
    cx = CellComplex("sphere(%d,%d)" % (rows, cols), cells, bnd)
    grid = {"cap:n": (-1, 0), "cap:s": (rows, 0)}
    for r in range(rows):
        for l in range(cols):
            grid["f:%d,%d" % (r, l)] = (r, l)
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
    cells = {}
    bnd = {}
    for r in range(1, rings + 1):
        for s in range(sectors):
            cells["w:%d,%d" % (r, s)] = 0
            e = "c:%d,%d" % (r, s)
            cells[e] = 1
            bnd[e] = {"w:%d,%d" % (r, (s + 1) % sectors): 1, "w:%d,%d" % (r, s): -1}
    for r in range(1, rings):
        for s in range(sectors):
            e = "d:%d,%d" % (r, s)
            cells[e] = 1
            bnd[e] = {"w:%d,%d" % (r + 1, s): 1, "w:%d,%d" % (r, s): -1}
    cells["hub"] = 2
    bnd["hub"] = {"c:1,%d" % s: 1 for s in range(sectors)}
    for r in range(1, rings):
        for s in range(sectors):
            f = "q:%d,%d" % (r, s)
            cells[f] = 2
            bnd[f] = {"c:%d,%d" % (r, s): 1,
                      "d:%d,%d" % (r, (s + 1) % sectors): 1,
                      "c:%d,%d" % (r + 1, s): -1,
                      "d:%d,%d" % (r, s): -1}
    cx = CellComplex("disc(%d,%d)" % (rings, sectors), cells, bnd)
    grid = {"hub": (0, 0)}
    for r in range(1, rings):
        for s in range(sectors):
            grid["q:%d,%d" % (r, s)] = (r, s)
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
    cells = {}
    bnd = {}
    for ca, da in a.cells.items():
        sgn = -1 if da % 2 else 1
        for cb, db in b.cells.items():
            c = ca + "&" + cb
            cells[c] = da + db
            faces = {f + "&" + cb: k for f, k in a.boundary[ca].items()}
            for f, k in b.boundary[cb].items():
                faces[ca + "&" + f] = sgn * k
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
    no dropped face keeps its boundary dict. The result is validated, so an
    identification that breaks del del = 0 raises."""
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
    cells = {}
    bnd = {}
    for c, d in fiber.cells.items():
        faces = fiber.boundary[c].items()
        sgn = -1 if d % 2 else 1
        c2, s = signs[c]
        for i in range(m):
            v, e = "%s@v%d" % (c, i), "%s@e%d" % (c, i)
            cells[v] = d
            cells[e] = d + 1
            bnd[v] = {"%s@v%d" % (f, i): k for f, k in faces}
            band = {"%s@e%d" % (f, i): k for f, k in faces}
            # the band ends on the next slice; the last one folds through
            # the glue onto the v0 slice
            if i + 1 < m:
                band["%s@v%d" % (c, i + 1)] = sgn
            else:
                band["%s@v0" % c2] = sgn * s
            band[v] = -sgn
            bnd[e] = band
    cx = CellComplex(name, cells, bnd)
    cx.meta["mapping_torus"] = {"fiber_tops": sorted(fiber.top_cells()), "bands": m}
    if fiber.top_dim == 1:
        # fiber circle positions give a square grid
        grid = {}
        for c in fiber.top_cells():
            pos = int(c.split(":")[1])
            for i in range(m):
                grid["%s@e%d" % (c, i)] = (pos, i)
        cx.meta["grid"] = grid
    return cx


def torus(n, m=None):
    m = m or n
    name = "torus(%d,%d)" % (n, m)
    _check_size(name, 4 * n * m)  # before the fiber circle is built
    cx = mapping_torus(circle(n), None, m, name=name)
    cx.meta["cup"] = {"rings": {"z": [[0, 1], [-1, 0]],
                                "z2": [[0, 1], [1, 0]]}}
    return cx


def klein(n, m=None):
    m = m or n
    name = "klein(%d,%d)" % (n, m)
    _check_size(name, 4 * n * m)
    cx = mapping_torus(circle(n), circle_reflection(n), m, name=name)
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
    # "b:", less the holes; `quotient` makes the one complex
    cells = {}
    bnd = {}
    for pre, cx, hole in (("a:", a, cell_a), ("b:", b, cell_b)):
        for c, d in cx.cells.items():
            if c != hole:
                cells[pre + c] = d
                bnd[pre + c] = {pre + f: coeff
                                for f, coeff in cx.boundary[c].items()}

    verts_a = ["a:" + v for (v, e) in walk_a]
    edges_a = ["a:" + e for (v, e) in walk_a]
    vb = ["b:" + v for (v, e) in reversed(walk_b)]
    # reversing the vertex cycle shifts which edge sits between consecutive
    # vertices
    eb = ["b:" + e for (v, e) in reversed(walk_b)]
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
    cx = product(torus(n, n), circle(n), name=name)
    cx.meta["cup"] = {"rings": {"z": "exterior3", "z2": "exterior3"}}
    return cx


def genus2(n):
    """torus(n, n) summed with itself at its middle 2-cell; the a:/b:
    prefixes of `connected_sum` keep the two copies apart."""
    # two tori less the two holes, and less one rim's 4 vertices and 4
    # edges, which are glued onto the other's
    _check_size("sum(torus(%d,%d),torus(%d,%d))" % (n, n, n, n),
                8 * n * n - 10)
    t = torus(n, n)
    mid = "e:%d@e%d" % (n // 2, n // 2)
    return connected_sum(t, t, mid, mid)


def named_space(name, resolution=None):
    """Catalog complexes addressable by bare name string.

    resolution scales the grid where the builder takes one, from 3 up
    (4 when it is None); below 3 is refused with code bad-resolution. rp2
    has a fixed small model and ignores it."""
    n = 4 if resolution is None else resolution
    builders = {
        "torus": lambda: torus(n, n),
        "klein": lambda: klein(n, n),
        "genus2": lambda: genus2(n),
        "sphere": lambda: sphere(n, 2 * n),
        "rp2": rp2,
        "annulus": lambda: annulus(max(2, n // 2), n),
        "s2xs1": lambda: mapping_torus(sphere(3, 6), None, n,
                                       name="s2xs1(%d)" % n),
        "s2xts1": lambda: mapping_torus(sphere(3, 6), sphere_reflection(3, 6),
                                        n, name="s2xts1(%d)" % n),
        "t3": lambda: t3(n),
    }
    if name not in builders:
        raise ComplexError("no catalog complex named %r" % name)
    if n < 3 and name != "rp2":
        raise ConleyError("bad-resolution",
                          "%s needs resolution >= 3" % name)
    return builders[name]()
