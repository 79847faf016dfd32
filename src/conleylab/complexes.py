"""Finite regular CW complexes with integer incidence data.

Cells are string ids, each with a dimension. A cell's boundary chain is
kept as two aligned tables: `boundary[c]` is the tuple of c's faces and
`coefficients[c]` the tuple of their coefficients, in the same order. A
cell with no faces has `()` in both, and `chain(c)` gives c's boundary as
a {face: coeff} dict. Equal coefficient tuples are one object wherever a
reader or a builder writes them, through `_share` or behind the span
reader's type test, so a grid complex holds a handful of coefficient
tuples however many cells it has. Only ints are shared: 1.0 and True
equal the 1 they would be shared with.
Every constructor validates the complex in one sweep, lowest dimension
first: each face is known and one dimension lower, each coefficient a
nonzero integer (checked once per distinct coefficient tuple), and del o
del = 0, so a bad sign in a builder fails loudly at build time instead of
corrupting homology later. A boundary for a cell that is not declared is
refused too, and so is a body's boundary that names a face twice.
`from_json` turns a body's [face, coeff] lists into the two tables through
`boundary_table`, unless it is given the tables; `chain_tables` makes them
from {face: coeff} chains. A `subcomplex` is the one complex not swept: it
is a closure of cells that passed the sweep, on their own tables, so it is
only indexed.

Construction indexes only the cells by dimension. Two indexes are built
once, on their first query, so a complex that only feeds homology never
builds them: the top cofaces of each codim-1 face, and the top cells at
each base cell, `_vert_tops`, as a tuple per base cell, made from the
list it is gathered in. A base cell is a cell with an empty boundary: every vertex,
and in a degenerate complex a higher cell too (an edge whose ends cancel,
or the one 2-cell of a sphere made of a vertex and a disc). The support of
a cell is the tuple of distinct base cells in its closure. Two closures
meet exactly when their supports do: a cell they share has its closure in
both, and the lowest cell of that closure has no faces. No support is
stored. One walk, `_bases`, finds the base cells of any set of cells a
level of faces at a time, and the top cells' supports are found in one
pass over all of them, to list the top cells at each base cell or to give
every top cell's star. `star_tops` is the one closed-star query, a
one-ring included: the star of a set is the top cells at the base cells of
its closure. `components` is the one connected-components walk: the
components of basin - k, the block sections, the circles of a cycle, the
pieces a cycle cuts a surface into and the two sides of a circle are all
cells joined through shared faces outside a cut, and it maps those faces
from the set's own boundaries. So `attractor.analyze` on a loaded file
stores the stars of the base cells only: no coface index, no support, and
no ring per cell.

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
from itertools import chain, compress, filterfalse, repeat
from operator import countOf, ne, not_


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
    """Cells {id: dim}, and each cell's faces {id: (face, ...)} and their
    coefficients {id: (coeff, ...)} as two aligned tables that name the
    same cells. The dicts handed in are kept, not copied, and may share
    their tuples with the tables they came from; once both are found to
    name only declared cells, and every dimension is a natural number, each
    is given () for every cell it does not name. No table is changed after
    construction."""

    def __init__(self, name, cells, boundary, coefficients,
                 identifications=None):
        self._index(name, cells, boundary, coefficients, identifications)
        self._validate()

    def _index(self, name, cells, boundary, coefficients, identifications):
        # the tables and the cells by dimension, without the sweep
        self.name = name
        self.cells = cells if type(cells) is dict else dict(cells)
        # the two tables name the same declared cells; once the dimensions
        # pass too, each is given () for every cell given no faces
        if not boundary.keys() <= self.cells.keys():
            raise ComplexError("boundary given for undeclared cell %s"
                               % min(boundary.keys() - self.cells.keys(),
                                     key=str))
        if coefficients.keys() != boundary.keys():
            c = min(boundary.keys() ^ coefficients.keys(), key=str)
            if c in boundary:
                raise ComplexError("boundary of %s is given no coefficients"
                                   % c)
            if c not in self.cells:
                raise ComplexError("boundary given for undeclared cell %s"
                                   % c)
            raise ComplexError("coefficients given for %s, which has no "
                               "boundary" % c)
        self.boundary = boundary
        self.coefficients = coefficients
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
        none = dict.fromkeys(filterfalse(boundary.__contains__, self.cells),
                             ())
        boundary.update(none)
        coefficients.update(none)

    # -- construction-time checks ------------------------------------------

    def _validate(self):
        """One sweep, lowest dimension first, after one look at the
        coefficients (nonzero integers) of each distinct coefficient tuple.
        The faces of each dimension's cells are checked together (known,
        one dimension lower, as many as their coefficients), then each
        cell's del del is summed over faces the sweep has already checked. A
        face defect is reported before any del del != 0, each at the first
        defective cell in the order the cells were given."""
        cells, boundary, coefficients = (self.cells, self.boundary,
                                         self.coefficients)
        # the tuples by identity, as a table of shared tuples holds a
        # handful; their coefficients as a list, not a set, where 1.0 and
        # True would pass as the 1 they equal
        tuples = coefficients.values()
        coeffs = list(chain.from_iterable(
            dict(zip(map(id, tuples), tuples)).values()))
        if 0 in coeffs or set(map(type, coeffs)) - {int}:
            self._face_defect()
        dd_bad = {}
        for d in sorted(self._by_dim):
            ids = self._by_dim[d]
            chains = list(map(boundary.__getitem__, ids))
            ks = list(map(coefficients.__getitem__, ids))
            if (set(map(cells.get, chain.from_iterable(chains))) - {d - 1}
                    or any(map(ne, map(len, chains), map(len, ks)))):
                self._face_defect()
            # a cell with no cells two dimensions below it has faces
            # without faces, so its del del has nothing to sum
            if d - 2 not in self._by_dim:
                continue
            for c, faces, kc in zip(ids, chains, ks):
                acc = {}
                for f, coeff in zip(faces, kc):
                    for g, coeff2 in zip(boundary[f], coefficients[f]):
                        acc[g] = acc.get(g, 0) + coeff * coeff2
                if any(acc.values()):
                    dd_bad[c] = {g: v for g, v in acc.items() if v != 0}
        if dd_bad:
            c = next(c for c in cells if c in dd_bad)
            raise ComplexError("del del != 0 at %s: %r" % (c, dd_bad[c]))

    def _face_defect(self):
        # the sweep found a bad face; name the first one in the given order
        for c, dc in self.cells.items():
            faces, coeffs = self.boundary[c], self.coefficients[c]
            if len(faces) != len(coeffs):
                raise ComplexError("boundary of %s has %d faces and %d "
                                   "coefficients" % (c, len(faces),
                                                     len(coeffs)))
            for f, coeff in zip(faces, coeffs):
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

    def _bases(self, cells):
        """The set of base cells in the closure of `cells`, cells of any
        dimensions: each level of faces adds its cells with an empty
        boundary, and the faces of the level are the next one. Every vertex
        is found on the level its dimension puts it, and so is each cell
        above dimension 0 that has no faces, in a degenerate complex."""
        faces_of = self.boundary.__getitem__
        bases = set()
        level = cells
        while level:
            faces = list(map(faces_of, level))
            # one scan for an empty boundary, with no call per cell, skips
            # the levels that hold no base cell
            if () in faces:
                bases.update(compress(level, map(not_, faces)))
            level = set().union(*faces)
        return bases

    def _top_bases(self):
        """The base cells of each top cell, in the order of top_cells().
        Where the vertices are the only cells without faces, each top
        cell's are the cells top_dim levels of faces below it, reached by
        one stage of unions per level over all the top cells. Otherwise
        each is walked on its own."""
        tops = self.top_cells()
        boundary = self.boundary
        if (not self.top_dim or countOf(boundary.values(), ())
                > len(self._by_dim.get(0, ()))):
            return map(self._bases, zip(tops))
        faces_of = boundary.__getitem__
        level = map(faces_of, tops)
        for _ in range(self.top_dim - 1):
            # each union unpacks a list: the tuple unpacked from a map is
            # made for ten items and shrunk, and the interpreter keeps up
            # to 2,000 such tuples of each size once freed
            level = (set().union(*list(map(faces_of, s))) for s in level)
        return level

    @cached_property
    def _vert_tops(self):
        # all top cells whose closure contains each base cell, for the base
        # cells in some top cell's closure, from each top cell's base cells
        # found here and not kept; a top cell is listed once per base cell,
        # so no tuple repeats a cell. Each list becomes a tuple in place.
        vert_tops = defaultdict(list)
        for t, vs in zip(self.top_cells(), self._top_bases()):
            for v in vs:
                vert_tops[v].append(t)
        for v, ts in vert_tops.items():
            vert_tops[v] = tuple(ts)
        return vert_tops

    # -- queries -----------------------------------------------------------

    def chain(self, c):
        """c's boundary chain as a {face: coeff} dict, made from the two
        tables on each call."""
        return dict(zip(self.boundary[c], self.coefficients[c]))

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
        distinct ids. These are its vertices when every closure holds one.
        No support is stored: each query walks c's closure."""
        return tuple(self._bases((c,)))

    def star_tops(self, cellset):
        """Closed star: every top cell whose closure meets closure(cellset).
        Two closures meet exactly when their supports do, and every top
        cell is in the star of each cell of its support, so this is the
        union of the stars of the base cells of the set, found in one walk
        down its closure. It is the one closed-star query: the one-ring of
        a cell c is star_tops((c,)), and no ring is kept."""
        # .get: a base cell in no top cell's closure has an empty star
        return set().union(*map(self._vert_tops.get, self._bases(cellset),
                                repeat(())))

    def top_stars(self):
        """star_tops((t,)) for each top cell t, in the order of top_cells(),
        from the base cells of all the top cells found in one pass, as for
        the top cells at each base cell, and not kept."""
        vert_tops = self._vert_tops
        return (set().union(*list(map(vert_tops.get, vs, repeat(()))))
                for vs in self._top_bases())

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
        boundary, coefficients = self.boundary, self.coefficients
        for start in self._by_dim.get(self.top_dim, ()):
            if start in sign:
                continue
            sign[start] = 1
            stack = [start]
            while stack:
                u = stack.pop()
                for f, k in self.chain(u).items():
                    cof = top_cofaces.get(f, ())
                    if len(cof) != 2:
                        continue
                    v = cof[0] if cof[1] == u else cof[1]
                    # f's coefficient in v, with no dict made per face
                    want = (-sign[u] * k
                            * coefficients[v][boundary[v].index(f)])
                    if v in sign:
                        if sign[v] != want:
                            return False
                    else:
                        sign[v] = want
                        stack.append(v)
        return True

    def subcomplex(self, cellset):
        """The closure of cellset as a complex of its own, on this
        complex's cells and boundary tuples. A closure holds every face of
        its cells, so it keeps every check this complex passed, and it is
        indexed without a second sweep."""
        cl = self.closure(cellset)
        sub = CellComplex.__new__(CellComplex)
        sub._index(self.name + ":sub", {c: self.cells[c] for c in cl},
                   {c: self.boundary[c] for c in cl},
                   {c: self.coefficients[c] for c in cl}, None)
        return sub

    # -- serialization -----------------------------------------------------

    def to_json(self):
        ids = sorted(self.cells)
        faces, coeffs = self.boundary, self.coefficients
        return {
            "name": self.name,
            "cells": [[c, self.cells[c]] for c in ids],
            "boundary": {c: sorted(zip(faces[c], coeffs[c]))
                         for c in ids if faces[c]},
            "identifications": self.identifications,
        }

    @classmethod
    def from_json(cls, data, *, cells=None, boundary=None,
                  coefficients=None):
        """The complex of a JSON body, which is not changed. The body's
        `cells` pairs go to the constructor as they stand, and its
        `boundary` through `boundary_table`. The flow reader, which decodes
        a body one member at a time, converts `cells` and `boundary` as
        they are decoded and passes the tables as `cells` ({id: dim}),
        `boundary` and `coefficients`, in place of the body's own. `cells`
        that are not a list of [id, dim] pairs with string ids, a
        `boundary` that is not a mapping of [face, coeff] lists, a `name`
        that is not a string, or `identifications` that are not a list,
        are refused, each naming its field, and so are `cells` that name an
        id twice."""
        if cells is None:
            pairs = data.get("cells")
            if type(pairs) is not list or not all(
                    type(p) is list and len(p) == 2 and type(p[0]) is str
                    for p in pairs):
                raise ComplexError("cells are not a list of [id, dim] pairs")
            cells = dict(pairs)
            if len(cells) < len(pairs):
                seen = set()
                for c, _ in pairs:
                    if c in seen:
                        raise ComplexError("cells name %s twice" % c)
                    seen.add(c)
        if boundary is None:
            boundary, coefficients = boundary_table(data.get("boundary", {}))
        name = data.get("name", "complex")
        if type(name) is not str:
            raise ComplexError("the complex's name is not a string")
        identifications = data.get("identifications")
        if identifications is not None and type(identifications) is not list:
            raise ComplexError("identifications are not a list")
        return cls(name, cells, boundary, coefficients,
                   identifications=identifications)


def boundary_table(bnd):
    """The (faces, coefficients) tables of a body's boundary mapping of
    [face, coeff] lists. A mapping where a [face, coeff] list belongs, or a
    two-letter string or two-key mapping where a pair belongs, would pass
    through dict() unnoticed, so an entry that is not a list of lists (or,
    in a body made in process, of tuples) is refused here, as is a list
    dict() does not take, a list that names a face twice, and a boundary
    that is no mapping."""
    if type(bnd) is not dict:
        raise ComplexError("boundary is not a mapping from cell ids to "
                           "lists of [face, coeff] pairs")
    chains = {}
    for c, pairs in bnd.items():
        try:
            if (type(pairs) is not list
                    or set(map(type, pairs)) - {list, tuple}):
                raise TypeError
            chains[c] = dict(pairs)
        except (TypeError, ValueError):
            raise ComplexError("boundary of %s is not a list of "
                               "[face, coeff] pairs" % c) from None
        if len(chains[c]) < len(pairs):
            seen = set()
            for f, _ in pairs:
                if f in seen:
                    raise ComplexError("boundary of %s names %s twice"
                                       % (c, f))
                seen.add(f)
    return chain_tables(chains)


def chain_tables(chains):
    """The (faces, coefficients) tables of {cell: {face: coeff}} chains,
    each cell's faces in its chain's order, equal coefficient tuples one
    object."""
    faces = {c: tuple(ch) for c, ch in chains.items()}
    coefficients = dict(zip(chains, _share(
        [tuple(ch.values()) for ch in chains.values()], {})))
    return faces, coefficients


def _share(tuples, shared):
    """The coefficient tuples of the list `tuples`, each as the equal tuple
    in `shared`, where it is entered if none is, so equal tuples are one
    object. Only ints are shared: 1.0 and True equal 1 and hash as it
    does, so a list that holds any other coefficient is given back as it
    is, and the complex's check names that coefficient."""
    if set(map(type, chain.from_iterable(tuples))) - {int}:
        return tuples
    return list(map(shared.setdefault, tuples, tuples))


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
    "torus": lambda sp, n: sp.torus(n),
    "klein": lambda sp, n: sp.klein(n),
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
