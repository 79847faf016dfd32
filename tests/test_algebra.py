from collections import defaultdict
from functools import lru_cache
from itertools import combinations, product
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from conleylab import algebra, catalog, complexes as cxm, spaces as spm
from test_flow import shared_entry


NAMED_SPACES = ("torus", "klein", "genus2", "sphere", "rp2", "annulus",
                "s2xs1", "s2xts1", "t3")


# -- reference implementations ---------------------------------------------------

def gf2_rank_sweep(rows):
    """GF(2) rank by sweeping every stored pivot over each row until no
    pivot's low bit is left in it."""
    rank = 0
    pivots = []
    for row in rows:
        while True:
            reduced = False
            for p in pivots:
                if (p & -p) & row:
                    row ^= p
                    reduced = True
            if not reduced:
                break
        if row:
            pivots.append(row)
            rank += 1
    return rank


def bareiss_det(m):
    """Determinant of a square integer matrix by fraction-free elimination."""
    a = [list(r) for r in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def determinantal_invariants(m):
    """Rank and invariant factors (> 1) of a dense integer matrix: the k-th
    determinantal divisor d_k is the gcd of all k x k minors, and the k-th
    invariant factor is d_k / d_(k-1)."""
    nr = len(m)
    nc = len(m[0]) if m else 0
    factors = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        d = 0
        for rs in combinations(range(nr), k):
            for cs in combinations(range(nc), k):
                d = gcd(d, bareiss_det([[m[i][j] for j in cs] for i in rs]))
        if d == 0:
            break
        factors.append(d // prev)
        prev = d
    return len(factors), [f for f in factors if f > 1]


def sweep_smith_normal_form(mat):
    """Rank and elementary divisors (> 1) of an integer matrix {(i, j): v},
    by repeated search for a smallest entry and clearing of its row and
    column. The divisors are sorted but not canonical."""
    a = {k: v for k, v in mat.items() if v}
    rows = defaultdict(set)
    cols = defaultdict(set)
    for (i, j) in a:
        rows[i].add(j)
        cols[j].add(i)

    def set_entry(i, j, v):
        if v:
            a[(i, j)] = v
            rows[i].add(j)
            cols[j].add(i)
        else:
            a.pop((i, j), None)
            rows[i].discard(j)
            cols[j].discard(i)

    def add_row(src, dst, mult):
        for j in list(rows[src]):
            set_entry(dst, j, a.get((dst, j), 0) + mult * a[(src, j)])

    def add_col(src, dst, mult):
        for i in list(cols[src]):
            set_entry(i, dst, a.get((i, dst), 0) + mult * a[(i, src)])

    def swap_rows(r1, r2):
        if r1 != r2:
            vals = {j: (a.get((r1, j), 0), a.get((r2, j), 0))
                    for j in rows[r1] | rows[r2]}
            for j, (v1, v2) in vals.items():
                set_entry(r1, j, v2)
                set_entry(r2, j, v1)

    def swap_cols(c1, c2):
        if c1 != c2:
            vals = {i: (a.get((i, c1), 0), a.get((i, c2), 0))
                    for i in cols[c1] | cols[c2]}
            for i, (v1, v2) in vals.items():
                set_entry(i, c1, v2)
                set_entry(i, c2, v1)

    divisors = []
    t = 0
    used = set()
    while True:
        free = [(abs(v), k) for k, v in a.items()
                if k[0] not in used and k[1] not in used]
        if not free:
            break
        pi, pj = min(free)[1]
        swap_rows(pi, t)
        swap_cols(pj, t)
        done = False
        while not done:
            done = True
            for i in list(cols[t]):
                if i == t or i in used:
                    continue
                q = a[(i, t)] // a[(t, t)]
                if q:
                    add_row(t, i, -q)
                if a.get((i, t), 0):
                    # the remainder is smaller than the pivot: it becomes
                    # the pivot, so the division above always uses a fresh one
                    swap_rows(t, i)
                    done = False
            for j in list(rows[t]):
                if j == t or j in used:
                    continue
                q = a[(t, j)] // a[(t, t)]
                if q:
                    add_col(t, j, -q)
                if a.get((t, j), 0):
                    swap_cols(t, j)
                    done = False
        divisors.append(abs(a[(t, t)]))
        used.add(t)
        t += 1
    divisors.sort()
    return len(divisors), [d for d in divisors if d > 1]


def full_chains(cx, rel=None):
    """Generator counts per dimension and, for each d >= 1, the boundary of
    every d-cell outside rel as {index of a (d-1)-cell: coefficient}: the
    whole chain complex, with no cell paired off."""
    rel = set(rel or ())
    gens = {d: [c for c in cx.cells_of_dim(d) if c not in rel]
            for d in range(cx.top_dim + 1)}
    index = {c: i for cs in gens.values() for i, c in enumerate(cs)}
    chains = {d: [{index[f]: k for f, k in cx.boundary[c].items()
                   if f not in rel} for c in gens[d]]
              for d in range(1, cx.top_dim + 1)}
    return {d: len(cs) for d, cs in gens.items()}, chains


def groups(sizes, ranks, torsions):
    return [{"rank": n - ranks.get(d, 0) - ranks.get(d + 1, 0),
             "torsion": torsions.get(d + 1, [])}
            for d, n in sorted(sizes.items())]


def sweep_homology(cx, ring="z", rel=None):
    """homology() computed with the sweep kernels on {(i, j): v} matrices."""
    sizes, chains = full_chains(cx, rel)
    ranks, torsions = {}, {}
    for d, rows in chains.items():
        mat = {(i, j): k for j, ch in enumerate(rows) for i, k in ch.items()}
        if ring == "z2":
            bits = defaultdict(int)
            for (i, j), v in mat.items():
                if v % 2:
                    bits[i] |= 1 << j
            ranks[d], torsions[d] = gf2_rank_sweep(list(bits.values())), []
        else:
            ranks[d], torsions[d] = sweep_smith_normal_form(mat)
    return groups(sizes, ranks, torsions)


def kernel_rank(chains, ring):
    """Rank and torsion from the pivot-table kernel alone."""
    if ring == "z2":
        return algebra.gf2_rank(sum(1 << i for i, k in ch.items() if k % 2)
                                for ch in chains), []
    return algebra.smith_normal_form(chains)


def kernel_homology(cx, ring="z", rel=None):
    """homology() with every full boundary matrix sent to the pivot-table
    kernel, with no coreduction before it."""
    sizes, chains = full_chains(cx, rel)
    ranks, torsions = {}, {}
    for d, rows in chains.items():
        ranks[d], torsions[d] = kernel_rank(rows, ring)
    return groups(sizes, ranks, torsions)


def graph_edges(chains, ring):
    """The rows as the ends of graph edges: [u, v] for {u: 1, v: -1} (either
    sign order), [u] for {u: +-1}, whose other end is the ground node, and []
    for an empty row. Over z2 the ends are the odd entries. None when some
    row has another shape."""
    edges = []
    for ch in chains:
        if ring == "z2":
            ends = [j for j, k in ch.items() if k % 2]
            if len(ends) > 2:
                return None
        else:
            ends = list(ch)
            if sorted(ch.values()) not in ([], [-1], [1], [-1, 1]):
                return None
        edges.append(ends)
    return edges


def forest_rank(edges):
    """Number of edges in a spanning forest, by union-find; a one-ended edge
    goes to the ground node -1."""
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = x = parent.get(parent[x], parent[x])
        return x

    rank = 0
    for ends in edges:
        if not ends:
            continue
        u = find(ends[0])
        v = find(ends[1]) if len(ends) == 2 else find(-1)
        if u != v:
            parent[u] = v
            rank += 1
    return rank


def prime_powers(factors):
    """Sorted prime-power divisors of the group sum of Z/f for f in
    factors; two lists name the same group exactly when these agree."""
    out = []
    for f in factors:
        p = 2
        while f > 1:
            q = 1
            while f % p == 0:
                f //= p
                q *= p
            if q > 1:
                out.append(q)
            p += 1
    return sorted(out)


def same_groups(hom, other):
    return [(h["rank"], prime_powers(h["torsion"])) for h in hom] == \
        [(h["rank"], prime_powers(h["torsion"])) for h in other]


def sparse_rows(m):
    return [{j: v for j, v in enumerate(r) if v} for r in m]


def ranks(hom):
    return [h["rank"] for h in hom]


def test_homology_pinned_spaces():
    assert ranks(algebra.homology(spm.circle(6))) == [1, 1]
    assert ranks(algebra.homology(spm.sphere(3, 6))) == [1, 0, 1]
    assert ranks(algebra.homology(spm.torus(4))) == [1, 2, 1]

    k = algebra.homology(spm.klein(4))
    assert ranks(k) == [1, 1, 0]
    assert k[1]["torsion"] == [2]
    assert ranks(algebra.homology(spm.klein(4), ring="z2")) == [1, 2, 1]

    r = algebra.homology(spm.rp2())
    assert ranks(r) == [1, 0, 0]
    assert r[1]["torsion"] == [2]
    assert ranks(algebra.homology(spm.rp2(), ring="z2")) == [1, 1, 1]

    assert ranks(algebra.homology(spm.t3(3))) == [1, 3, 3, 1]


def test_relative_disc_mod_boundary():
    d = spm.disc(2, 6)
    free = {e for e in d.cells_of_dim(1) if len(d.top_cofaces(e)) == 1}
    rim = d.closure(free)
    p = algebra.poincare_polynomial(d, rel=rim, ring="z")
    assert algebra.poly_to_string(p) == "t^2"
    rel = algebra.homology(d, rel=rim)
    assert ranks(rel) == [0, 0, 1]


def test_cohomology_ranks():
    assert algebra.cohomology_ranks(spm.torus(4)) == [1, 2, 1]
    # integral cohomology of the Klein bottle loses the torsion rank
    assert algebra.cohomology_ranks(spm.klein(4)) == [1, 1, 0]
    assert algebra.cohomology_ranks(spm.klein(4), ring="z2") == [1, 2, 1]
    # universal coefficients: free ranks agree both ways over z
    for cx in (spm.sphere(3, 6), spm.torus(4), spm.rp2(), spm.t3(3)):
        assert algebra.cohomology_ranks(cx) == ranks(algebra.homology(cx))


def test_euler_matches_polynomial_at_minus_one():
    for cx in (spm.torus(4), spm.sphere(3, 6), spm.klein(4),
               spm.rp2(), spm.t3(3)):
        p = algebra.poincare_polynomial(cx, ring="z2")
        assert sum(v * (-1) ** k for k, v in p.items()) == cx.euler()


def test_poly_helpers():
    assert algebra.poly_to_string({}) == "0"
    assert algebra.poly_to_string({1: 1}) == "t"
    assert algebra.poly_to_string({0: 1, 1: 1, 3: 1}) == "t^3 + t + 1"
    assert algebra.poly_to_string({1: 2, 2: 2}) == "2t^2 + 2t"
    assert algebra.poly_symmetric({1: 1, 2: 1}, 2)
    assert not algebra.poly_symmetric({1: 1, 2: 1}, 3)
    assert algebra.poly_mul_t({0: 1, 1: 2}) == {1: 1, 2: 2}


def test_smith_normal_form():
    rank, divisors = algebra.smith_normal_form([{0: 2, 1: 4}, {0: 6, 1: 8}])
    assert rank == 2 and divisors == [2, 4]
    rank, divisors = algebra.smith_normal_form([{0: 1}, {1: 1}])
    assert rank == 2 and divisors == []
    # torsion is canonical: invariant factors d1 | d2 | ...
    assert algebra.smith_normal_form([{0: 2}, {1: 3}]) == (2, [6])
    assert algebra.smith_normal_form([{0: 2}, {1: 10}, {2: 3}]) == (3, [2, 30])
    assert algebra.smith_normal_form([{0: 6}]) == (1, [6])


# a 7 x 7 matrix on which clearing a row and column with a divisor that has
# gone stale after a swap grows the entries without end
LOOP_D2 = [[-3, -1, -2, -4, 0, 4, 0],
           [-6, -3, 2, 0, 6, 0, -3],
           [3, -2, -6, 0, 0, 0, 0],
           [4, 3, 0, 0, 0, 0, 0],
           [0, -6, 0, 0, 0, -6, 4],
           [0, 3, 2, -2, -1, 6, 0],
           [0, 0, 0, 0, 0, 6, -5]]


def loop_complex(m):
    """One vertex, a loop edge (zero boundary) per row of m and a 2-cell
    per column whose boundary is that column, so that d2 = m."""
    cells = {"v": 0}
    cells.update(("e%d" % i, 1) for i in range(len(m)))
    cells.update(("f%d" % j, 2) for j in range(len(m[0])))
    bnd = {"f%d" % j: {"e%d" % i: r[j] for i, r in enumerate(m) if r[j]}
           for j in range(len(m[0]))}
    return cxm.CellComplex("loops", cells, bnd)


def test_smith_normal_form_terminates_on_stale_divisor_matrix():
    assert algebra.smith_normal_form(sparse_rows(LOOP_D2)) == \
        determinantal_invariants(LOOP_D2)


def test_determinantal_oracle_pinned():
    assert bareiss_det([[2, 1], [1, 1]]) == 1
    assert bareiss_det([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1
    assert determinantal_invariants([[2, 4], [6, 8]]) == (2, [2, 4])
    assert determinantal_invariants([[2, 0], [0, 3]]) == (2, [6])
    assert determinantal_invariants([[2, 4], [1, 2]]) == (1, [])
    assert gf2_rank_sweep([0b110, 0b011, 0b101]) == 2


int_matrices = st.integers(1, 5).flatmap(lambda nc: st.lists(
    st.lists(st.one_of(st.just(0), st.integers(-9, 9)),
             min_size=nc, max_size=nc),
    min_size=1, max_size=5))


@settings(max_examples=300, deadline=None)
@given(int_matrices)
def test_smith_normal_form_matches_determinantal_divisors(m):
    assert algebra.smith_normal_form(sparse_rows(m)) == \
        determinantal_invariants(m)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, (1 << 12) - 1), max_size=14))
def test_gf2_rank_matches_sweep(rows):
    assert algebra.gf2_rank(rows) == gf2_rank_sweep(rows)


NCOLS = 8
column = st.integers(0, NCOLS - 1)
sign = st.sampled_from([1, -1])
# rows of a reduced graph incidence matrix: an edge, a half edge whose
# other end lies in the relative part, or nothing
graph_rows = st.one_of(
    st.tuples(column, column, sign).filter(lambda t: t[0] != t[1])
    .map(lambda t: {t[0]: t[2], t[1]: -t[2]}),
    st.tuples(column, sign).map(lambda t: {t[0]: t[1]}),
    st.just({}))


def graph_complex(rows):
    """A vertex per column, the ground vertex g, and an edge per row: a
    one-ended row {u: s} is an edge from g, an empty row a loop."""
    cells = {"v%d" % j: 0 for j in range(NCOLS)}
    cells["g"] = 0
    bnd = {}
    for i, ch in enumerate(rows):
        cells["e%d" % i] = 1
        bnd["e%d" % i] = {"v%d" % j: k for j, k in ch.items()}
        if len(ch) == 1:
            bnd["e%d" % i]["g"] = -sum(ch.values())
    return cxm.CellComplex("graph", cells, bnd)


@settings(max_examples=200, deadline=None)
@given(st.lists(graph_rows, max_size=14))
def test_union_find_rank_matches_kernel(rows):
    # H_0 and H_1 of the graph mod its ground vertex are the column and
    # row counts less the rank of a spanning forest
    cx = graph_complex(rows)
    for ring in algebra.RINGS:
        edges = graph_edges(rows, ring)
        assert edges is not None
        r = forest_rank(edges)
        assert (r, []) == kernel_rank(rows, ring), ring
        assert algebra.homology(cx, ring, rel={"g"}) == \
            [{"rank": NCOLS - r, "torsion": []},
             {"rank": len(rows) - r, "torsion": []}][:cx.top_dim + 1], ring


def test_homology_of_named_spaces_matches_kernel():
    # the builders' own cell ids, in the order the builders number them
    for name in NAMED_SPACES:
        for res in (None, 8):
            cx = cxm.named_space(name, res)
            for ring in algebra.RINGS:
                assert algebra.homology(cx, ring) == \
                    kernel_homology(cx, ring), (name, res, ring)


@lru_cache(maxsize=None)
def small_space(name, res):
    return cxm.named_space(name, res)


def relabelled(cx, rng):
    """cx with its cell ids permuted within each dimension, so that the
    order of every worklist and seed changes."""
    perm = {}
    for d in range(cx.top_dim + 1):
        old = cx.cells_of_dim(d)
        new = list(old)
        rng.shuffle(new)
        perm.update(zip(old, new))
    return cxm.CellComplex(cx.name, {perm[c]: d for c, d in cx.cells.items()},
                           {perm[c]: {perm[f]: k for f, k in faces.items()}
                            for c, faces in cx.boundary.items()})


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(NAMED_SPACES), st.sampled_from((3, 4, 5)),
       st.sampled_from((0.05, 0.15, 0.4, 1.0)),
       st.sampled_from((0, 0.02, 0.1)),
       st.integers(0, 2 ** 32 - 1).map(Random))
def test_homology_matches_kernel_on_random_pairs(name, res, keep, rel_share,
                                                 rng):
    # the closure of a random set of top cells has several components and
    # free faces; rel is the closure of a random set of its cells
    cx = relabelled(small_space(name, res), rng)
    if keep < 1:
        cx = cx.subcomplex([t for t in cx.top_cells() if rng.random() < keep])
        # a subcomplex is not swept when it is taken; the sweep passes
        cx._validate()
    rel = cx.closure(c for c in sorted(cx.cells) if rng.random() < rel_share)
    for ring in algebra.RINGS:
        assert algebra.homology(cx, ring, rel=rel) == \
            kernel_homology(cx, ring, rel=rel), (name, res, ring)


def test_seeds_only_on_graph_shaped_edges():
    # edges a + b and a - b make H_0 = Z/2 over z, and an edge 2a next to
    # an isolated vertex c makes it Z + Z/2: neither has a vertex whose
    # class is a basis element, so no vertex may be removed as a seed
    cases = [
        (cxm.CellComplex("a+b,a-b", {"a": 0, "b": 0, "e": 1, "f": 1},
                         {"e": {"a": 1, "b": 1}, "f": {"a": 1, "b": -1}}),
         {"z": [{"rank": 0, "torsion": [2]}, {"rank": 0, "torsion": []}],
          "z2": [{"rank": 1, "torsion": []}, {"rank": 1, "torsion": []}]}),
        (cxm.CellComplex("2a,c", {"a": 0, "c": 0, "e": 1}, {"e": {"a": 2}}),
         {"z": [{"rank": 1, "torsion": [2]}, {"rank": 0, "torsion": []}],
          "z2": [{"rank": 2, "torsion": []}, {"rank": 1, "torsion": []}]}),
    ]
    for cx, want in cases:
        for ring in algebra.RINGS:
            assert algebra.homology(cx, ring) == want[ring] == \
                kernel_homology(cx, ring), (cx.name, ring)


def test_gf2_rank():
    assert algebra.gf2_rank([0b110, 0b011, 0b101]) == 2
    assert algebra.gf2_rank([0b1, 0b10, 0b100]) == 3
    assert algebra.gf2_rank([0, 0]) == 0


def test_cup_forms_and_max_null_system():
    genus2 = spm.connected_sum(spm.torus(4), spm.torus(4),
                               "e:2@e2", "e:2@e2")
    cases = [
        (spm.sphere(3, 6), 0),
        (spm.rp2(), 0),
        (spm.torus(4), 1),
        (genus2, 2),
    ]
    for cx, want in cases:
        form = algebra.cup_form_h1(cx)
        assert algebra.max_null_system(form) == want, cx.name
    assert algebra.cup_form_h1(spm.torus(4)) == [[0, 1], [1, 0]]
    assert algebra.cup_form_h1(spm.rp2()) == [[1]]
    # t3 carries an exterior-algebra presentation
    assert algebra.cup_form_h1(spm.t3(3)) == ("exterior", 3)
    assert algebra.max_null_system(("exterior", 3)) == 1


def null_system_search(form, ring):
    """Largest set of independent classes with all pairwise products zero,
    by exhaustive search: over z2 every vector, over z the coordinates
    {-1, 0, 1}, one of v and -v (they pair and reduce alike). Independence
    is tested mod 2, which over z is a proxy that is exact at these sizes.
    The search grows sets in index order and carries the candidates that
    are still compatible, so it stops once they cannot beat the best."""
    n = len(form)
    coords = (0, 1) if ring == "z2" else (-1, 0, 1)
    vecs = [v for v in product(coords, repeat=n)
            if any(v) and [x for x in v if x][0] == 1]

    def pair(u, v):
        p = sum(u[i] * form[i][j] * v[j] for i in range(n) for j in range(n))
        return p % 2 if ring == "z2" else p

    def indep(vs):
        return algebra.gf2_rank([sum((x % 2) << i for i, x in enumerate(v))
                                 for v in vs]) == len(vs)

    best = 0

    def extend(basis, cands):
        nonlocal best
        best = max(best, len(basis))
        for i, v in enumerate(cands):
            if best == n or len(basis) + len(cands) - i <= best:
                return
            extend(basis + [v],
                   [w for w in cands[i + 1:] if not pair(v, w)
                    and not pair(w, v) and indep(basis + [v, w])])

    extend([], [v for v in vecs if not pair(v, v)])
    return best


def test_max_null_system_matches_search_on_stored_forms():
    for name in NAMED_SPACES:
        cup = cxm.named_space(name).meta.get("cup", {"rings": {}})
        for form in cup["rings"].values():
            if form == "exterior3":
                continue
            for ring in algebra.RINGS:
                assert algebra.max_null_system(form, ring) == \
                    null_system_search(form, ring), (name, form, ring)


def square_forms(max_n, entry):
    return st.integers(0, max_n).flatmap(lambda n: st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


def symmetric(m):
    return [[m[min(i, j)][max(i, j)] for j in range(len(m))]
            for i in range(len(m))]


def skew(m):
    return [[m[i][j] if i < j else -m[j][i] if i > j else 0
             for j in range(len(m))] for i in range(len(m))]


@settings(max_examples=300, deadline=None)
@given(square_forms(5, st.integers(0, 1)))
def test_max_null_system_matches_search_on_symmetric_z2_forms(m):
    form = symmetric(m)
    assert algebra.max_null_system(form, "z2") == \
        null_system_search(form, "z2")


@settings(max_examples=300, deadline=None)
@given(square_forms(4, st.integers(-2, 2)))
def test_max_null_system_matches_search_on_skew_z_forms(m):
    form = skew(m)
    assert algebra.max_null_system(form, "z") == null_system_search(form, "z")


def test_algebra_errors():
    with pytest.raises(algebra.AlgebraError) as ei:
        algebra.homology(spm.torus(4), ring="q")
    assert ei.value.code == "unsupported-ring"
    with pytest.raises(algebra.AlgebraError) as ei:
        algebra.cup_form_h1(spm.circle(6))
    assert ei.value.code == "unsupported-space"


def test_suspension_pair_homology():
    pair, base = algebra.suspension_pair_homology(spm.circle(6))
    assert ranks(pair) == [0, 1, 1]
    assert ranks(base) == [1, 1]
    pair, base = algebra.suspension_pair_homology(spm.rp2())
    assert [h["torsion"] for h in pair] == [[], [], [2], []]


def _complex_cases():
    for name in NAMED_SPACES:
        yield name, cxm.named_space(name), None
    # boundary coefficients other than +-1: Z/2 on one cell, and LOOP_D2
    yield "z/2", loop_complex([[2]]), None
    yield "loops", loop_complex(LOOP_D2), None
    for name in catalog.names():
        entry = shared_entry(name)
        cx = entry["flow"].cx
        yield name, cx, cx.closure(entry["k"]) if entry["k"] else None


def test_homology_identities_on_spaces_and_catalog_pairs():
    for name, cx, rel in _complex_cases():
        chi = cx.euler() - (cx.euler(rel) if rel else 0)
        by_ring = {}
        for ring in algebra.RINGS:
            hom = algebra.homology(cx, ring=ring, rel=rel)
            assert same_groups(hom, sweep_homology(cx, ring=ring, rel=rel)), \
                (name, ring)
            assert sum((-1) ** d * h["rank"]
                       for d, h in enumerate(hom)) == chi, (name, ring)
            by_ring[ring] = hom
        z = by_ring["z"]
        for d, h in enumerate(by_ring["z2"]):
            # universal coefficients: Tor(H_(d-1), Z2) and H_d (x) Z2
            even = sum(1 for t in z[d]["torsion"] if t % 2 == 0)
            if d:
                even += sum(1 for t in z[d - 1]["torsion"] if t % 2 == 0)
            assert h["rank"] == z[d]["rank"] + even, (name, d)
