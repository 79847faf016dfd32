"""Isolating blocks: grow the star of k, trim grazing cells, label the
boundary faces as entrances and exits, and read off the asymptotic sets.
Each round takes two trims of n, the cells staying inside forward (n+) and
backward (n-); their intersection is the invariant part of n, which must
be k. A block is regular when n+ and n- cover n and its entrance and
exit faces are exactly the boundary faces of n+ and of n-."""

from .complexes import ConleyError


class NoBlockError(ConleyError):
    code = "no-block"

    def __init__(self, msg):
        super().__init__(self.code, msg)


class IsolatingBlock:
    def __init__(self, flow, k, n, faces, ni, no, nplus, nminus):
        self.flow = flow
        self.k = frozenset(k)
        self.n = frozenset(n)
        self.faces = dict(faces)        # face -> (inside cell, outside cell)
        self.ni = frozenset(ni)
        self.no = frozenset(no)
        self.nplus = frozenset(nplus)   # cells staying inside forward
        self.nminus = frozenset(nminus)
        self.nplus_faces = frozenset(f for f, (u, v) in faces.items() if u in self.nplus)
        self.nminus_faces = frozenset(f for f, (u, v) in faces.items() if u in self.nminus)
        self.regular = (self.nplus | self.nminus == self.n
                        and self.ni == self.nplus_faces
                        and self.no == self.nminus_faces)

    def boundary_faces(self):
        return frozenset(self.faces)


def _boundary_data(flow, n):
    """Codim-1 faces with one top coface inside n and one outside."""
    boundary = flow.cx.boundary
    top_cofaces = flow.cx._top_cofaces
    faces = {}
    for u in n:
        for f in boundary[u]:
            cof = top_cofaces.get(f, ())
            if len(cof) != 2:
                continue
            v = cof[0] if cof[1] == u else cof[1]
            if v not in n:
                faces[f] = (u, v)
    return faces


def _labels(flow, faces):
    ni = set()
    no = set()
    for f, (u, v) in faces.items():
        if u in flow.succ[v]:
            ni.add(f)
        if v in flow.succ[u]:
            no.add(f)
    return ni, no


def build_block(flow, k):
    """Isolating block around k, or NoBlockError when the budget runs out."""
    kset = frozenset(k)
    region = kset
    for _ in range(6):  # the budget: rounds of star growth around k
        region = frozenset(flow.cx.star_tops(set(region)))
        n = set(region)
        # trim boundary cells that neither enter nor exit across the
        # boundary; the last round leaves faces, ni and no for the final n
        while True:
            faces = _boundary_data(flow, n)
            ni, no = _labels(flow, faces)
            graze = {u for f, (u, v) in faces.items()
                     if f not in ni and f not in no and u not in kset}
            if not graze:
                break
            n -= graze
        if any(u in kset for u, v in faces.values()):
            continue  # k must be interior; a grazing face is on a k cell
        nplus = flow.trim(n, "f")
        nminus = flow.trim(n, "p")
        if nplus & nminus != kset:
            continue  # k is not the invariant part of n
        return IsolatingBlock(flow, kset, n, faces, ni, no, nplus, nminus)
    raise NoBlockError("no isolating block within budget around %d cells" % len(kset))


def conley_euler(block):
    """Euler characteristic of the index pair: chi(N) - chi(No)."""
    cx = block.flow.cx
    return cx.euler(block.n) - cx.euler(block.no)


def block_subcomplex(block):
    """The closed block as its own complex; its homology is the Cech
    cohomology carrier for k."""
    return block.flow.cx.subcomplex(set(block.n))
