"""Finite regular CW complexes with integer incidence data.

Cells are string ids, each with a dimension and a boundary chain written as
{face_id: coefficient}. Every constructor validates the complex in one
sweep, lowest dimension first: each face is known, one dimension lower and
has a nonzero integer coefficient, and del o del = 0, so a bad sign in a
builder fails loudly at build time instead of corrupting homology later. A
boundary for a cell that is not declared is refused too. `from_json` turns
a body's [face, coeff] lists into the dicts the constructor keeps through
`boundary_table`, unless it is given the table. A `subcomplex` is the one
complex not swept: it is a closure of cells that passed the sweep, on
their own boundary dicts, so it is only indexed.

Construction indexes only the cells by dimension. The top cofaces of each
codim-1 face, the supports of the cells of dimension 2 and up and the top
cells at each base cell are built once, on their first query, so a complex
that only feeds homology never builds them. A base cell is a cell with an
empty boundary: every vertex, and in a degenerate complex a higher cell too
(an edge whose ends cancel, or the one 2-cell of a sphere made of a vertex
and a disc). The support of a cell is the tuple of distinct base cells in
its closure. Two closures meet exactly when their supports do: a cell they
share has its closure in both, and the lowest cell of that closure has no
faces. The support of a base cell (itself) and of an edge (its boundary) is
derived on each query and never stored. `star_tops` is the one closed-star
query, a one-ring included, and it goes through the supports. `components`
is the one connected-components walk: the components of basin - k, the
block sections, the circles of a cycle, the pieces a cycle cuts a surface
into and the two sides of a circle are all cells joined through shared
faces outside a cut, and it maps those faces from the set's own boundaries.
So `attractor.analyze` on a loaded file builds the supports and the stars of
the base cells only: no coface index, and no complex stores a ring per cell.

The builders of named spaces live in `spaces`; `named_space` imports it on
its first call, so a command that loads a flow file never compiles them.
Each builder that allocates counts the cells its arguments imply and calls
`_check_size`, which refuses more than MAX_CELLS with code too-large before
anything is allocated. A cell dimension is refused too: a negative one with
bad-complex, and one above MAX_CELLS with too-large, since homology walks
every degree up to the top one.
"""

import gc
from collections import defaultdict
from contextlib import contextmanager
from functools import cached_property
from itertools import chain, repeat


@contextmanager
def collector_paused():
    """Run the block, or the function it decorates, with the cyclic
    garbage collector paused, and restore the caller's state after it.

    What a build or a command makes is an acyclic graph that lives until it
    returns, so the collector could free none of it and only rescans it as
    it grows. An inner pause finds the collector off and leaves it off, so
    pauses nest. `cli.main`, `catalog.build`, `named_space` and
    `CombinatorialFlow.to_json` pause it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


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
    they came from, and every cell with an empty boundary (each vertex)
    shares one empty dict: no boundary is changed after construction."""

    def __init__(self, name, cells, boundary, identifications=None):
        self._index(name, cells, boundary, identifications)
        self._validate()

    def _index(self, name, cells, boundary, identifications):
        # the tables and the cells by dimension, without the sweep
        self.name = name
        self.cells = dict(cells)          # id -> dim
        undeclared = boundary.keys() - self.cells.keys()
        if undeclared:
            raise ComplexError("boundary given for undeclared cell %s"
                               % min(undeclared, key=str))
        # each cell's faces as {face: coeff}: the dict handed in, not a
        # copy, and for every cell given none one shared empty dict
        empty = {}
        self.boundary = {c: boundary.get(c) or empty for c in self.cells}
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
        # the support of each closed cell, for star and ring queries, as a
        # tuple of distinct base cells: stored for the cells of dimension 2
        # and up, each the union of its faces' supports, or the cell itself
        # when it has no faces. A 2-cell unites its edges' boundaries, unless
        # some edge has none and is its own support.
        boundary = self.boundary
        verts = _Supports(boundary)
        bare_edges = not all(map(boundary.__getitem__,
                                 self._by_dim.get(1, ())))
        for d in sorted(self._by_dim):
            if d < 2:
                continue
            faces_of = (boundary.__getitem__ if d == 2 and not bare_edges
                        else verts.__getitem__)
            for c in self._by_dim[d]:
                verts[c] = tuple(set(chain.from_iterable(
                    map(faces_of, boundary[c])))) or (c,)
        return verts

    @cached_property
    def _vert_tops(self):
        # all top cells whose closure contains each base cell, for the base
        # cells in some top cell's closure; a top cell is listed once per
        # cell of its support, so no list repeats a cell
        vert_tops = defaultdict(list)
        for t in self.top_cells():
            for v in self._verts[t]:
                vert_tops[v].append(t)
        return vert_tops

    # -- queries -----------------------------------------------------------

    def cells_of_dim(self, d):
        return list(self._by_dim.get(d, []))

    def top_cells(self):
        return list(self._by_dim.get(self.top_dim, []))

    def top_cofaces(self, c):
        return list(self._top_cofaces.get(c, ()))

    def closure(self, cellset):
        """The set of cellset's cells and all their faces, grown one level
        at a time: each level is the faces of the last one not yet in it."""
        faces_of = self.boundary.__getitem__
        out = set(cellset)
        level = out
        while level:
            level = set(chain.from_iterable(map(faces_of, level))) - out
            out |= level
        return out

    def vertices_of(self, c):
        """The support of c: the base cells in its closure, as a tuple of
        distinct ids. These are its vertices when every closure holds one."""
        return self._verts[c]

    def star_tops(self, cellset):
        """Closed star: every top cell whose closure meets closure(cellset).
        Two closures meet exactly when their supports do, and every top
        cell is in the star of each cell of its support, so this is the
        union of the stars of the set's support. It is the one closed-star
        query: the one-ring of a cell c is star_tops((c,)), and no ring is
        kept."""
        verts = self._verts
        vs = set().union(*map(verts.__getitem__, cellset))
        # .get: a base cell in no top cell's closure has an empty star
        return set().union(*map(self._vert_tops.get, vs, repeat(())))

    def components(self, cells, cut=()):
        """Connected components of a set of cells of one dimension, two
        cells joined when their boundaries share a face outside `cut`, as
        frozensets ordered by each component's least cell. On edges this
        is vertex adjacency.

        A union-find over the set's own boundaries (Tarjan 1975): each face
        outside `cut` keeps the first cell of the set seen on it, each later
        cell on that face is joined to that first one, and `parent` maps
        each joined cell toward its root, compressed on every find. So the
        memory is one entry per face and one per join, and no face keeps a
        list of its cells. Each join makes one cell a non-root, so the set
        is connected exactly when `parent` holds all its cells but one, and
        then it is returned as its one component, unsorted and uncopied."""
        boundary = self.boundary
        first = dict.fromkeys(cut)   # a cut face's first cell is None
        parent = {}

        def find(c):
            root = c
            while root in parent:
                root = parent[root]
            while c != root:
                parent[c], c = root, parent[c]
            return root

        for c in cells:
            for f in boundary[c]:
                o = first.setdefault(f, c)
                if o != c and o is not None:
                    a, b = find(o), find(c)
                    if a != b:
                        parent[b] = a
        del first
        if len(parent) == len(cells) - 1:
            return [frozenset(cells)]
        comps = {}
        for c in sorted(cells):
            comps.setdefault(find(c), []).append(c)
        return list(map(frozenset, comps.values()))

    def euler(self, cellset=None):
        """Euler characteristic of the closure of cellset (whole complex if None)."""
        cl = self.cells if cellset is None else self.closure(cellset)
        return sum((-1) ** self.cells[c] for c in cl)

    def is_closed_manifold(self):
        """Every codim-1 face sits in exactly two top cells."""
        top_cofaces = self._top_cofaces
        return all(len(top_cofaces.get(f, ())) == 2
                   for f in self._by_dim.get(self.top_dim - 1, ()))

    def is_closed_surface(self):
        return self.top_dim == 2 and self.is_closed_manifold()

    def is_orientable(self):
        """Propagate top-cell orientations across codim-1 faces; look for a clash.

        Only meaningful for pseudo-manifolds. Free faces (one top coface) put
        no constraint.
        """
        sign = {}
        top_cofaces = self._top_cofaces
        boundary = self.boundary
        for start in self._by_dim.get(self.top_dim, ()):
            if start in sign:
                continue
            sign[start] = 1
            stack = [start]
            while stack:
                u = stack.pop()
                for f, k in boundary[u].items():
                    cof = top_cofaces.get(f, ())
                    if len(cof) != 2:
                        continue
                    v = cof[0] if cof[1] == u else cof[1]
                    if v == u:
                        continue
                    want = -sign[u] * k * boundary[v][f]
                    if v in sign:
                        if sign[v] != want:
                            return False
                    else:
                        sign[v] = want
                        stack.append(v)
        return True

    def subcomplex(self, cellset):
        """The closure of cellset as a complex of its own, on this
        complex's cells and boundary dicts. A closure holds every face of
        its cells, so it keeps every check this complex passed, and it is
        indexed without a second sweep."""
        cl = self.closure(cellset)
        sub = CellComplex.__new__(CellComplex)
        sub._index(self.name + ":sub", {c: self.cells[c] for c in cl},
                   {c: self.boundary[c] for c in cl}, None)
        return sub

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
    def from_json(cls, data, *, cells=None, boundary=None):
        """The complex of a JSON body, which is not changed. The body's
        `cells` pairs go to the constructor as they stand, and its
        `boundary` through `boundary_table`. The flow reader, which decodes
        a body one member at a time, converts `cells` and `boundary` as
        they are decoded and passes the tables as `cells` ({id: dim}) and
        `boundary`, in place of the body's own. `cells` that are not a
        list of [id, dim] pairs with string ids, a `boundary` that is not a
        mapping of [face, coeff] lists, a `name` that is not a string, or
        `identifications` that are not a list, are refused, each naming
        its field."""
        if cells is None:
            cells = data["cells"]
            if type(cells) is not list or not all(
                    type(p) is list and len(p) == 2 and type(p[0]) is str
                    for p in cells):
                raise ComplexError("cells are not a list of [id, dim] pairs")
        if boundary is None:
            boundary = boundary_table(data.get("boundary", {}))
        name = data.get("name", "complex")
        if type(name) is not str:
            raise ComplexError("the complex's name is not a string")
        identifications = data.get("identifications")
        if identifications is not None and type(identifications) is not list:
            raise ComplexError("identifications are not a list")
        return cls(name, cells, boundary, identifications=identifications)


def boundary_table(bnd):
    """A body's boundary mapping of [face, coeff] lists as the {face: coeff}
    dicts a complex keeps. A mapping where a [face, coeff] list belongs
    would pass through dict() unnoticed, so it is refused here, as is a
    list dict() does not take, and so is a boundary that is no mapping."""
    if type(bnd) is not dict:
        raise ComplexError("boundary is not a mapping from cell ids to "
                           "lists of [face, coeff] pairs")
    table = {}
    for c, pairs in bnd.items():
        try:
            if type(pairs) is not list:
                raise TypeError
            table[c] = dict(pairs)
        except (TypeError, ValueError):
            raise ComplexError("boundary of %s is not a list of "
                               "[face, coeff] pairs" % c) from None
    return table


class _Supports(dict):
    """The stored supports, {cell: tuple of distinct base cells}, which
    derives the support of a vertex or an edge on each lookup instead of
    storing it: an edge's boundary holds only vertices, and a cell with an
    empty boundary is its own support. It holds the complex's boundary
    table, not the complex, so it makes no reference cycle."""

    __slots__ = ("boundary",)

    def __init__(self, boundary):
        super().__init__()
        self.boundary = boundary

    def __missing__(self, c):
        return tuple(self.boundary[c]) or (c,)


# -- size limit -------------------------------------------------------------

# The most cells a builder makes: five times torus(160, 160), the largest
# complex the benchmarks measure.
MAX_CELLS = 1 << 19


def _check_size(what, count):
    # a builder's refusal of its arguments, before it allocates
    if count > MAX_CELLS:
        raise ConleyError("too-large",
                          "%s would have %d cells; the limit is %d"
                          % (what, count, MAX_CELLS))


# named_space's builders by name, each called with the `spaces` module and
# the resolution: the names are known without compiling a builder
SPACES = {
    "torus": lambda sp, n: sp.torus(n, n),
    "klein": lambda sp, n: sp.klein(n, n),
    "genus2": lambda sp, n: sp.genus2(n),
    "sphere": lambda sp, n: sp.sphere(n, 2 * n),
    "rp2": lambda sp, n: sp.rp2(),
    "annulus": lambda sp, n: sp.annulus(max(2, n // 2), n),
    "s2xs1": lambda sp, n: sp.mapping_torus(
        sp.sphere(3, 6), None, n, name="s2xs1(%d)" % n),
    "s2xts1": lambda sp, n: sp.mapping_torus(
        sp.sphere(3, 6), sp.sphere_reflection(3, 6), n,
        name="s2xts1(%d)" % n),
    "t3": lambda sp, n: sp.t3(n),
}


@collector_paused()
def named_space(name, resolution=None):
    """Catalog complexes addressable by bare name string, the keys of
    SPACES.

    resolution scales the grid where the builder takes one, from 3 up
    (4 when it is None); below 3 is refused with code bad-resolution. rp2
    has a fixed small model and ignores it. The builders live in `spaces`,
    imported on the first call, so loading a flow file never compiles them."""
    n = 4 if resolution is None else resolution
    if name not in SPACES:
        raise ComplexError("no catalog complex named %r" % name)
    if n < 3 and name != "rp2":
        raise ConleyError("bad-resolution",
                          "%s needs resolution >= 3" % name)
    from . import spaces
    return SPACES[name](spaces, n)
