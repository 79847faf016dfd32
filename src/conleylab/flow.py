"""Combinatorial flows: multivalued successor maps on top cells.

The transition relation F is total and local (successors stay inside the
one-ring). P is the exact transpose. Every enclosure is computed by one graph
kernel, each part O(cells + edges) and asked one direction at a time: `reach`
(breadth-first reachability), strongly connected components and `trim` (a
worklist that peels off the cells with no successor, or no predecessor, left
inside a region). The components come from `reach` too: one depth-first
pass along F orders the cells by when they finish, and, latest finisher
first, each cell not yet placed takes its backward `reach` among the cells
not yet placed (Kosaraju-Sharir); a cell that no other unplaced cell
precedes is its own component, with no walk. Limit sets are eventual
images: the cells reached by arbitrarily long paths from a seed, which is
the reach of the recurrent part of the seed's reach.

One component pass over the whole flow, kept as `_sccs`, lists its
components in reverse topological order: a component of one cell as the
cell itself, with no tuple around it, and any other as a list of its
cells. It gives `recurrent_cells`, and, read forward for F and backward
for P, every cell's own eventual image: a cell on a cycle reaches its
image; any other cell's image is the union of its successors' images.
The image of a seed is the union of its cells' images, so J+(x) and J-(x),
the images of the one-ring of x, need no walk per cell: `theorems` counts
J-duality from these per-cell images. Enclosures relative to a region
(basin - k) are whole-set sweeps in `attractor`, composed from `reach` and
`recurrent_cells` of that region.

One-rings of top cells are symmetric (a is in the one-ring of b exactly
when b is in that of a), so the top cells whose one-ring meets a region are
the union of the region's one-rings: the complex's closed star,
`cx.star_tops`, in place of a test per cell or per pair. It goes through
supports: the cells with an empty boundary in the region's closure (its
vertices, in a complex that is not degenerate), then the top cells at each
of those. `one_ring(c)` is the same query on {c}, computed on each call and
never stored. Locality of F needs no ring: a successor that shares a
codim-1 face with its cell is local, as that face lies in both closures,
and only the other successors are tested on supports, each derived from
the cell's closure and not kept. So building a flow stores nothing on its
complex, and a rest flow, or a flow whose edges all cross faces (the
circulating band flows, the sphere flows), derives no support at all.

F and P are kept as two tables, `succ` and `pred`: each top cell's
successors, and its predecessors, as a sorted tuple of distinct cells.
Every id in them is the complex's own string, whatever strings the caller
gave, and a cell's 1-tuple is one object wherever it stands: the one
successor of a cell in `succ` and the one predecessor of a cell in `pred`
share it, so a flow whose cells mostly have one of each (every circulating
flow) holds one small tuple per cell, not two. `tops`, the set of top
cells, is the key view of `succ`, not a set of its own; it takes `in`,
`len` and the set operators with frozensets on either side, and a whole-
flow enclosure in `attractor` is that view itself. `pred` is built from
`succ` once it is complete.

A flow knows nothing of how it was built. A catalog flow carries its
`recipe` ({name, resolution}) in `meta` and in its JSON as provenance only;
rebuilding it finer is the catalog's job, by that (name, resolution) key.
"""

from functools import cached_property

from .complexes import ConleyError, collector_paused


class FlowError(ConleyError):
    pass


def _union(sets):
    """Union of frozensets; when they are all equal, that one set itself."""
    parts = set(sets)
    return parts.pop() if len(parts) == 1 else frozenset().union(*parts)


class CombinatorialFlow:
    def __init__(self, cx, successors, name=None, meta=None):
        self.cx = cx
        self.name = name or ("flow on " + cx.name)
        self.meta = dict(meta or {})
        tops = cx.top_cells()
        # each top cell's 1-tuple, of its id as the complex holds it: the
        # successors are read through it, so the tables share the
        # complex's strings, and a cell's one successor in succ and its one
        # predecessor in pred are the same tuple object
        own = {c: (c,) for c in tops}
        boundary = cx.boundary
        vertices_of = cx.vertices_of
        # succ is built in sorted top-cell order
        succ = self.succ = {}
        for c in tops:
            outs = successors.get(c)
            if not outs:
                raise FlowError("not-total", "cell %s has no successor" % c)
            out = outs if len(outs) == 1 else sorted(set(outs))
            # c's faces as a set, made on its first edge to another cell,
            # and c's support as a set, made on its first edge to a cell
            # that shares no face with it, so a rest flow builds no face
            # set and a flow whose edges all cross faces no support
            faces = near = None
            for d in out:
                if d not in own:
                    raise FlowError("bad-successor",
                                    "%s -> %s is not a top cell" % (c, d))
                if d == c:
                    continue
                # a shared codim-1 face lies in both closures
                if faces is None:
                    faces = set(boundary[c])
                if not faces.isdisjoint(boundary[d]):
                    continue
                # d in one_ring(c), tested on supports without the ring
                if near is None:
                    near = set(vertices_of(c))
                if near.isdisjoint(vertices_of(d)):
                    raise FlowError("not-local",
                                    "%s -> %s leaves the one-ring" % (c, d))
            succ[c] = (own[out[0]] if len(out) == 1 else
                       tuple([own[d][0] for d in out]))
        # every top cell has an entry, so any other entry names another cell
        if len(successors) > len(tops):
            extra = sorted(successors.keys() - own.keys())
            raise FlowError("bad-successor",
                            "successors given for non top cells: %s" % extra[:3])
        # pred from succ, walked in sorted order, so each tuple comes out
        # sorted and unique; a cell's second predecessor opens a list,
        # which becomes a tuple in place once all are found
        pred = self.pred = dict.fromkeys(tops, ())
        for c, out in succ.items():
            for d in out:
                p = pred[d]
                if not p:
                    pred[d] = own[c]
                elif type(p) is tuple:
                    pred[d] = [*p, c]
                else:
                    p.append(c)
        for d, p in pred.items():
            if type(p) is list:
                pred[d] = tuple(p)
        # the top cells as the key view of succ: no second set of them
        self.tops = succ.keys()
        self._images = {}

    # -- basic structure ----------------------------------------------------

    @property
    def fixed(self):
        return frozenset(c for c, out in self.succ.items() if out == (c,))

    def one_ring(self, c):
        return frozenset(self.cx.star_tops((c,)))

    def _table(self, direction):
        return self.succ if direction == "f" else self.pred

    # -- graph kernel ---------------------------------------------------------

    def reach(self, seed, direction="f", within=None, seen=None):
        """Cells reachable from the seed, inside `within` when given. With
        `seen`, a set already closed under reach, only cells outside it are
        walked: they are added to `seen` and returned as a list, in the
        order walked, so the walk keeps no second set of them."""
        table = self._table(direction)
        fresh = seen is not None
        if not fresh:
            seen = set()
        order = [c for c in seed
                 if c not in seen and (within is None or c in within)]
        seen.update(order)
        for c in order:  # the list grows while it is walked
            for d in table[c]:
                if d not in seen and (within is None or d in within):
                    seen.add(d)
                    order.append(d)
        return order if fresh else seen

    def recurrent_cells(self, within=None):
        """Cells on some F-cycle (self loops included), optionally of the
        subgraph induced on `within`. A cycle inside `within` is a cycle of
        the flow, so that search is confined to the recurrent cells of
        `within`."""
        if within is None:
            return self._rec
        return self._cyclic(self._components(self._rec.intersection(within)))

    @cached_property
    def _sccs(self):
        # the one whole-flow pass, reversed: each component comes after
        # every component it reaches
        comps = list(self._components(None))
        comps.reverse()
        return comps

    @cached_property
    def _rec(self):
        return self._cyclic(self._sccs)

    def _cyclic(self, comps):
        # a list of cells is a cycle; a lone cell is on one when it is its
        # own successor
        succ = self.succ
        return frozenset(c for comp in comps
                         for c in (comp if type(comp) is list else
                                   (comp,) if comp in succ[comp] else ()))

    def _components(self, within):
        """Strongly connected components of the subgraph induced on `within`
        (the whole flow when None), yielded in topological order, each
        before every component it reaches: a lone cell as the cell itself,
        any other component as a list of its cells.
        Kosaraju-Sharir: one depth-first pass along F records the order in
        which cells finish; then, latest finisher first, each cell not yet
        placed takes as its component the cells not yet placed that reach
        it."""
        cells = self.tops if within is None else within
        succ = self.succ
        finished = []
        seen = set()
        # the complex lists its top cells sorted already
        for root in self.cx.top_cells() if within is None else sorted(cells):
            if root in seen:
                continue
            seen.add(root)
            # the path from the root and an iterator over each of its
            # cells' successors, as two lists: no pair per step
            path, outs = [root], [iter(succ[root])]
            while outs:
                for d in outs[-1]:
                    if d not in seen and d in cells:
                        seen.add(d)
                        path.append(d)
                        outs.append(iter(succ[d]))
                        break
                else:
                    outs.pop()
                    finished.append(path.pop())
        # the pass visited every cell; now the set holds those not yet placed
        left = seen
        pred = self.pred
        for c in reversed(finished):
            if c in left:
                left.discard(c)
                # no other cell left reaches c: c is its own component
                if left.isdisjoint(pred[c]):
                    yield c
                    continue
                left.add(c)
                comp = list(self.reach((c,), "p", left))
                left.difference_update(comp)
                yield comp

    def eventual_images(self, direction="f"):
        """{cell: eventual image of {cell}} for every top cell, from the
        components in the order that has each after the ones it reaches. A
        cell on a cycle reaches its component, so its image is its reach;
        any other cell's image is the union of its successors' images. Equal
        images are one shared frozenset."""
        if direction not in self._images:
            table = self._table(direction)
            comps = self._sccs if direction == "f" else reversed(self._sccs)
            image = {}
            shared = {}
            for comp in comps:
                if type(comp) is not list:
                    comp = (comp,)
                c = comp[0]
                if len(comp) > 1 or c in table[c]:
                    s = frozenset(self.reach(comp, direction))
                else:
                    s = _union(image[d] for d in table[c])
                s = shared.setdefault(s, s)
                for c in comp:
                    image[c] = s
            self._images[direction] = image
        return self._images[direction]

    def trim(self, region, direction):
        """Largest subset of region in which every cell keeps a successor
        ("f") or a predecessor ("p"): one worklist pass, each removal
        decrementing the counts of its opposite neighbors. The invariant part
        of region is trim(region, "f") & trim(region, "p"): a cell with a
        backward path and a forward path inside region lies on the full path
        that joins them."""
        s = set(region)
        table = self._table(direction)
        # the cells whose count drops when c goes are c's opposite neighbors
        back = self._table("p" if direction == "f" else "f")
        count = {c: len(s.intersection(table[c])) for c in s}
        dead = [c for c, m in count.items() if not m]
        s.difference_update(dead)
        while dead:
            c = dead.pop()
            for e in back[c]:
                if e in s:
                    count[e] -= 1
                    if not count[e]:
                        s.discard(e)
                        dead.append(e)
        return frozenset(s)

    # -- serialization --------------------------------------------------------

    @collector_paused()
    def to_json(self):
        # the body is an acyclic graph of new lists and dicts, one per
        # cell, that the collector would only rescan as it grows
        body = {
            "schema": "1",
            "complex": self.cx.to_json(),
            # each successor tuple is sorted already
            "successors": {c: list(self.succ[c]) for c in sorted(self.succ)},
            "fixed": sorted(self.fixed),
        }
        if "recipe" in self.meta:
            body["recipe"] = self.meta["recipe"]
        return body

    @classmethod
    def from_json(cls, data):
        """The flow of a JSON body, read by `flowfile.load_body`."""
        from .flowfile import load_body
        return load_body(data)


def rest_flow(cx, name=None):
    """Every top cell is fixed."""
    return CombinatorialFlow(cx, {c: [c] for c in cx.top_cells()},
                             name=name or ("rest on " + cx.name))
