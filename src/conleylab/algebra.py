"""Homology, cohomology ranks, and the small cup-product lookups.

Two coefficient rings are supported, named "z" and "z2". Every ring, degree
and relative pair goes through one pipeline:

1. The cells of the relative part are dropped.
2. Coreduction pairs are removed (Mrozek & Batko, DCG 2009): a cell whose
   boundary among the cells still present, read over the ring, is a unit
   times one face goes with that face. No other boundary changes, so the
   homology does not. A FIFO worklist holds the cells left with one face.
3. When the worklist runs dry, a remaining vertex is removed as a seed,
   which lowers rank H_0 by one. Seeds are taken only when every edge is
   v - u, +-v or empty over the ring, so that once no edge has one face
   left each vertex's class is a basis element of H_0. Edges a + b and
   a - b make H_0 = Z/2; then the whole complex less its pairs is left.
4. Each degree's boundary matrix on the cells left goes to one kernel, a
   pivot table keyed by each row's lowest column:

- Over z2 rows are int bitmasks; a row is XORed with the pivot of its low
  bit until that bit has no pivot, then stored as one.
- Over z rows are sparse dicts and only pivots with a unit (+-1) low entry
  are stored. A row whose low entry is not a unit and has no pivot is set
  aside. The stored pivots form an echelon block with unit leading entries,
  so once the set-aside rows are cleared in every pivot column the Smith
  normal form is the identity on that block plus the Smith form of the small
  remainder, which a dense elimination computes.

Torsion is reported as invariant factors d1 | d2 | ... with the 1s dropped.
"""

from collections import defaultdict, deque
from itertools import compress
from math import gcd

from .complexes import ConleyError

RINGS = ("z", "z2")


class AlgebraError(ConleyError):
    pass


def _check_ring(ring):
    if ring not in RINGS:
        raise AlgebraError("unsupported-ring", "ring must be one of %r" % (RINGS,))


# -- linear algebra ----------------------------------------------------------

def gf2_rank(rows):
    """Rank of a GF(2) matrix given as bitmask rows."""
    piv = {}
    for row in rows:
        while row:
            low = row & -row
            p = piv.get(low)
            if p is None:
                piv[low] = row
                break
            row ^= p
    return len(piv)


def _add_multiple(row, pivot, c):
    """row += c * pivot, dropping entries that cancel."""
    for j, v in pivot.items():
        w = row.get(j, 0) + c * v
        if w:
            row[j] = w
        else:
            del row[j]


def smith_normal_form(rows):
    """Rank and invariant factors (> 1) of an integer matrix given as sparse
    rows {column: value}."""
    piv = {}
    aside = []
    for row in rows:
        row = {j: v for j, v in row.items() if v}
        while row:
            low = min(row)
            p = piv.get(low)
            if p is None:
                if row[low] in (1, -1):
                    piv[low] = row
                else:
                    aside.append(row)
                break
            _add_multiple(row, p, -row[low] * p[low])
    rest = []
    for row in aside:
        # clearing the lowest pivot column only adds entries to its right
        hit = [j for j in row if j in piv]
        while hit:
            j = min(hit)
            _add_multiple(row, piv[j], -row[j] * piv[j][j])
            hit = [j for j in row if j in piv]
        if row:
            rest.append(row)
    diag = _diagonalize(rest)
    return len(piv) + len(diag), _invariant_factors(diag)


def _diagonalize(rows):
    """Nonzero diagonal of an integer matrix brought to diagonal form by
    dense row and column operations.

    Each round moves a smallest nonzero entry to the corner and divides its
    row and column by it; any nonzero remainder is smaller still, so the
    rounds end."""
    cols = sorted({j for r in rows for j in r})
    at = {j: k for k, j in enumerate(cols)}
    a = []
    for r in rows:
        dense = [0] * len(cols)
        for j, v in r.items():
            dense[at[j]] = v
        a.append(dense)
    diag = []
    while a:
        nonzero = [(abs(v), i, j) for i, r in enumerate(a)
                   for j, v in enumerate(r) if v]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        a[0], a[i] = a[i], a[0]
        for r in a:
            r[0], r[j] = r[j], r[0]
        top = a[0]
        p = top[0]
        clean = True
        for r in a[1:]:
            q = r[0] // p
            if q:
                for k, v in enumerate(top):
                    r[k] -= q * v
            clean = clean and not r[0]
        for k in range(1, len(top)):
            q = top[k] // p
            if q:
                for r in a:
                    r[k] -= q * r[0]
            clean = clean and not top[k]
        if clean:
            diag.append(abs(p))
            a = [r[1:] for r in a[1:]]
    return diag


def _invariant_factors(diag):
    """Invariant factors (> 1) of the group sum of Z/d for d in diag:
    replacing a pair by its gcd and lcm keeps the group, and one sweep leaves
    each entry dividing the next."""
    d = sorted(diag)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return [x for x in d if x > 1]


# -- chain complexes ---------------------------------------------------------

def _rank(chains, ring):
    """Rank and torsion of the matrix whose rows are the given chains."""
    if ring == "z2":
        return gf2_rank(sum(1 << i for i, k in ch.items() if k % 2)
                        for ch in chains), []
    return smith_normal_form(chains)


def homology(cx, ring="z", rel=None):
    """List over dimensions of {"rank": int, "torsion": [int, ...]}; torsion
    is the list of invariant factors."""
    _check_ring(ring)
    rel = set(rel or ())
    if rel and cx.closure(rel) != rel:
        raise AlgebraError("not-closed", "relative part is not closed")
    odd = ring == "z2"
    bnd, coeffs = cx.boundary, cx.coefficients
    # faces left per cell, nonzero over the ring, and each edge's
    # coefficients; whether a coefficient tuple is all odd is found once
    live = {}
    cofaces = defaultdict(list)
    shapes = set()
    all_odd = {}
    for c, dim in cx.cells.items():
        if c in rel:
            continue
        faces, ks = bnd[c], coeffs[c]
        if odd:
            whole = all_odd.get(ks)
            if whole is None:
                whole = all_odd[ks] = all(k % 2 for k in ks)
        if odd and not whole or rel and not rel.isdisjoint(faces):
            keep = [f not in rel and (k % 2 or not odd)
                    for f, k in zip(faces, ks)]
            faces = tuple(compress(faces, keep))
            ks = tuple(compress(ks, keep))
        live[c] = len(faces)
        for f in faces:
            cofaces[f].append(c)
        if dim == 1:
            shapes.add(ks)
    graph = all(len(ks) <= 2 if odd else sorted(ks) in ([], [-1], [1], [-1, 1])
                for ks in shapes)
    queue = deque(c for c, n in live.items() if n == 1)
    seeds = 0
    vertices = iter(cx.cells_of_dim(0) if graph else ())
    while True:
        if queue:
            c = queue.popleft()
            if live.get(c) != 1:
                continue
            for f, k in zip(bnd[c], coeffs[c]):
                if f in live and (k % 2 or not odd):
                    break
            if not odd and k not in (1, -1):
                continue
            pair = (c, f)
        else:
            v = next((v for v in vertices if v in live), None)
            if v is None:
                break
            seeds += 1
            pair = (v,)
        for x in pair:
            del live[x]
            for e in cofaces.get(x, ()):
                n = live.get(e)
                if n is not None:
                    live[e] = n - 1
                    if n == 2:
                        queue.append(e)
    gens = {d: [c for c in cx.cells_of_dim(d) if c in live]
            for d in range(cx.top_dim + 1)}
    index = {c: i for cs in gens.values() for i, c in enumerate(cs)}
    ranks, torsions = {}, {}
    for d in range(1, cx.top_dim + 1):
        ranks[d], torsions[d] = _rank(
            [{index[f]: k for f, k in zip(bnd[c], coeffs[c]) if f in live}
             for c in gens[d]], ring)
    out = [{"rank": len(gens[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0),
            "torsion": torsions.get(d + 1, [])}
           for d in range(cx.top_dim + 1)]
    out[0]["rank"] += seeds
    return out


def cohomology_ranks(cx, ring="z", rel=None):
    """Ranks of degree-k cohomology: the homology ranks, which over z are the
    free ranks (universal coefficients) and over z2 the GF(2) dimensions."""
    return [h["rank"] for h in homology(cx, ring=ring, rel=rel)]


# -- polynomials -------------------------------------------------------------

def poincare_polynomial(cx, rel=None, ring="z2"):
    """Cohomology Poincare polynomial of the (relative) complex, as a dict
    degree -> coefficient with zero entries dropped."""
    ranks = cohomology_ranks(cx, ring=ring, rel=rel)
    return {d: r for d, r in enumerate(ranks) if r}


def poly_to_string(p):
    if not p:
        return "0"
    parts = []
    for d in sorted(p, reverse=True):
        c = p[d]
        if d == 0:
            parts.append(str(c))
        elif d == 1:
            parts.append("t" if c == 1 else "%dt" % c)
        else:
            parts.append("t^%d" % d if c == 1 else "%dt^%d" % (c, d))
    return " + ".join(parts)


def poly_mul_t(p):
    return {d + 1: c for d, c in p.items()}


def poly_symmetric(p, n):
    """Check a_k == a_{n+1-k} for k = 1..n (degree-0 term must be absent)."""
    if p.get(0):
        return False
    for k in range(1, n + 1):
        if p.get(k, 0) != p.get(n + 1 - k, 0):
            return False
    return True


# -- cup products (catalog spaces only) ---------------------------------------

def cup_form_h1(cx, ring="z2"):
    """Cup pairing on H^1 for the supported catalog spaces.

    Returns either a square matrix (pairing into the top degree) or the tag
    ("exterior", rank) for torus-like spaces handled by the minor rule."""
    _check_ring(ring)
    cup = cx.meta.get("cup")
    if not cup:
        raise AlgebraError("unsupported-space",
                           "no cup presentation stored for %s" % cx.name)
    rings = cup.get("rings", {})
    if ring not in rings:
        raise AlgebraError("unsupported-ring",
                           "no %s cup presentation for %s" % (ring, cx.name))
    val = rings[ring]
    if val == "exterior3":
        return ("exterior", 3)
    return val


def max_null_system(form, ring="z2"):
    """Largest d with d independent classes alpha_i, all pairwise cup
    products zero: the largest totally isotropic subspace of the form.

    That is n - ceil(rank / 2) for a symmetric form over z2 and for a skew
    form over z, and every stored integer form is skew. Exterior
    presentations use the rule that two independent degree-1 classes have
    nonzero product."""
    _check_ring(ring)
    if isinstance(form, tuple) and form[0] == "exterior":
        return 1 if form[1] >= 1 else 0
    rank, _ = _rank([{j: v for j, v in enumerate(row) if v} for row in form],
                    ring)
    return len(form) - (rank + 1) // 2


# -- suspension helper --------------------------------------------------------

def suspension_pair_homology(x, ring="z"):
    """H_k(X x I, X x ends): should equal H_{k-1}(X) with torsion."""
    from . import spaces
    prod = spaces.product(x, spaces.interval(2))
    ends = set()
    for c in x.cells:
        ends.add(c + "&v:0")
        ends.add(c + "&v:2")
    ends = prod.closure(ends)
    pair = homology(prod, ring=ring, rel=ends)
    base = homology(x, ring=ring)
    return pair, base
