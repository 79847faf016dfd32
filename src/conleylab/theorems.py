"""Machine checks for the structural results the catalog was built to witness.

Every registered check recomputes both sides of one identity on the catalog
flows meeting its hypotheses. Flows are picked out by properties, not by
name. An external catalog entry joins the checks that select on properties
computed from its cells and its attractor report. It does not join the five
that select on tags of the built-in entries, since a loaded file keeps only
its `recipe`: cor5.8 and thm5.9 read `flow.meta["family"]`, the
open-manifold branch of prop3.2 `flow.meta["strips"]`, thm6.1
`cx.meta["mapping_torus"]` and the per-flow bound of the obstruction check
`cx.meta["cup"]`. A check that matches no instance fails loudly rather than
passing empty. A flow with no isolating block within budget is noted by
name in each check that reads the block, which goes on to the next flow.

`run` hands every check one population: the catalog entries the run builds,
one per (name, resolution), and a `FlowRecord` per catalog flow, each built
on first use and dropped when the run returns. A record derives each fact
the checks share (the closure of k, its cohomology ranks, the pair and
section polynomials, the isolating block, the manifold predicates) at most
once. A catalog file that cannot be read is skipped with a note naming it.
"""

import itertools
from functools import cached_property

from . import (algebra, attractor, blocks, catalog, complexes, constructions,
               spaces)

NOEXT = "NoExternalExplosions"

NO_UNSTABLE = "no unstable attractor without external explosions can exist"
AT_MOST = "at most %d homoclinic components"


class TheoremError(complexes.ConleyError):
    pass


class CheckResult:
    def __init__(self, check_id, title):
        self.id = check_id
        self.title = title
        self.status = "pass"
        self.instances = 0
        self.details = []

    def case(self, ok, text):
        self.instances += 1
        if not ok:
            self.status = "fail"
        self.details.append(("ok   " if ok else "FAIL ") + text)

    def note(self, text):
        self.details.append("note " + text)

    def to_json(self):
        return {"id": self.id, "title": self.title, "status": self.status,
                "instances": self.instances, "details": list(self.details)}


# -- shared plumbing ----------------------------------------------------------

class FlowRecord:
    """One catalog flow, its attractor report and the facts the checks derive
    from them. Each fact is computed on first use and kept as a small value
    (cell sets, ranks, polynomials, the block), never as a subcomplex, so
    the record costs little beyond the flow it describes."""

    def __init__(self, entry, rep=None):
        self.entry = entry
        self.rep = rep
        self.name = entry["name"]
        self.flow = entry["flow"]
        self.cx = self.flow.cx
        self.ring = entry["ring"]

    @cached_property
    def kbar(self):
        return frozenset(self.cx.closure(self.entry["k"]))

    @cached_property
    def k_ranks(self):
        """Cohomology ranks of the closed attractor candidate."""
        sub = self.cx.subcomplex(self.entry["k"])
        return algebra.cohomology_ranks(sub, ring=self.ring)

    @cached_property
    def chi_k(self):
        return self.cx.euler(self.kbar)

    @cached_property
    def chi_basin(self):
        return self.cx.euler(self.rep.basin)

    @cached_property
    def pair_poly(self):
        """Cohomology polynomial of the ambient complex relative to closed k."""
        return algebra.poincare_polynomial(self.cx, rel=self.kbar,
                                           ring=self.ring)

    @cached_property
    def block(self):
        """The isolating block around k, or None if none is found within
        the budget."""
        try:
            return blocks.build_block(self.flow, self.entry["k"])
        except blocks.NoBlockError:
            return None

    @cached_property
    def section_minus(self):
        return self._section("minus")

    @cached_property
    def section_plus(self):
        return self._section("plus")

    def _section(self, side):
        # Poincare polynomial of the exit (or entry) section of the block,
        # which the caller has checked exists
        blk = self.block
        faces = blk.nminus_faces if side == "minus" else blk.nplus_faces
        sub = self.cx.subcomplex(faces)
        return algebra.poincare_polynomial(sub, ring=self.ring)

    @cached_property
    def closed_manifold(self):
        return self.cx.is_closed_manifold()

    @cached_property
    def closed_surface(self):
        return self.cx.top_dim == 2 and self.closed_manifold

    @cached_property
    def orientable(self):
        return self.cx.is_orientable()

    @property
    def unstable(self):
        return self.rep.stabilization != self.rep.k


def _rank_at(ranks, i):
    return ranks[i] if 0 <= i < len(ranks) else 0


def _blockless(res, f):
    """Whether record f has no isolating block, noted on res when so: a
    check that reads the block skips that record and goes on."""
    if f.block is None:
        res.note("%s: no isolating block within budget" % f.name)
        return True
    return False


# -- shape feasibility --------------------------------------------------------

def shape_obstruction(m_ranks, k_ranks, r, ring="z2"):
    """Feasible basin pair polynomials for an attractor of a given shape.

    m_ranks and k_ranks are the cohomology ranks of the ambient closed
    manifold and of the candidate attractor. The exact sequence of the pair
    leaves a finite set of possible polynomials; keeping the ones with the
    duality symmetry and top coefficient r decides whether the shape can
    avoid external explosions at all.
    """
    d = len(m_ranks) - 1
    hm = list(m_ranks)
    hk = list(k_ranks) + [0] * (d + 1 - len(k_ranks))
    spans = []
    for k in range(d + 1):
        lo = max(0, hm[k] - hk[k])
        spans.append(range(lo, hm[k] + 1))
    candidates = []
    feasible = []
    for kers in itertools.product(*spans):
        p = {}
        bad = False
        for k in range(d + 1):
            coker = hk[k - 1] - (hm[k - 1] - kers[k - 1]) if k else 0
            if coker < 0:
                bad = True
                break
            a = kers[k] + coker
            if a:
                p[k] = a
        if bad or p.get(0):
            continue
        if p not in candidates:
            candidates.append(p)
        if algebra.poly_symmetric(p, d) and p.get(d, 0) == r:
            if p not in feasible:
                feasible.append(p)
    key = lambda p: sorted(p.items())
    out = {
        "dim": d,
        "r": r,
        "ring": ring,
        "candidates": [algebra.poly_to_string(p)
                       for p in sorted(candidates, key=key)],
        "feasible": [algebra.poly_to_string(p)
                     for p in sorted(feasible, key=key)],
    }
    out["verdict"] = "consistent" if feasible else "forced external explosions"
    return out


# -- the checks ---------------------------------------------------------------
#
# Each check takes its result and the run's `population`: calling it returns
# the records of the catalog flows and notes on res every catalog entry it
# skipped, and `population.built` holds the catalog entries the run built.

def _check_thm34(res, population):
    # global attractors with only internal explosions on closed manifolds:
    # the basin pair polynomial is palindromic, equals t * p(n-), and its
    # top coefficient counts the homoclinic components.
    for f in population(res):
        if not f.closed_manifold:
            continue
        if f.rep.classification != NOEXT or not f.rep.global_attractor:
            continue
        if _blockless(res, f):
            continue
        d = f.cx.top_dim
        p = f.pair_poly
        sec = f.section_minus
        ptxt = algebra.poly_to_string(p)
        ok = algebra.poly_symmetric(p, d)
        ok = ok and p.get(d, 0) == f.rep.r
        ok = ok and algebra.poly_mul_t(sec) == p
        pinned = f.entry["expected"].get("pair_poly")
        if pinned is not None:
            ok = ok and ptxt == pinned
        res.case(ok, "%s: p = %s, p(n-) = %s, r = %d"
                 % (f.name, ptxt, algebra.poly_to_string(sec), f.rep.r))


def _check_prop32(res, population):
    # r <= s <= rank H^{d-1}(k) and the higher cohomology of k vanishes.
    best = None
    for f in population(res):
        rep = f.rep
        if rep.classification != NOEXT or not f.unstable:
            continue
        if not (f.closed_manifold or f.flow.meta.get("strips")):
            continue
        d = f.cx.top_dim
        bound = _rank_at(f.k_ranks, d - 1)
        vanish = all(r == 0 for r in f.k_ranks[d:])
        ok = rep.r <= rep.s <= bound and vanish
        res.case(ok, "%s: r = %d, s = %d, rank = %d"
                 % (f.name, rep.r, rep.s, bound))
        if ok and rep.s == bound and (best is None or bound > best[1]):
            best = (f.name, bound)
    if best:
        res.note("upper bound attained by %s at rank %d" % best)


def _check_cor33(res, population):
    # rank one in degree d-1 pins everything down: one homoclinic
    # component and a basin covering the whole manifold.
    for f in population(res):
        rep = f.rep
        if rep.classification != NOEXT or not f.unstable:
            continue
        if not f.closed_manifold:
            continue
        if _rank_at(f.k_ranks, f.cx.top_dim - 1) != 1:
            continue
        ok = rep.global_attractor and rep.r == 1 and rep.s == 1
        res.case(ok, "%s: global = %s, r = %d, s = %d"
                 % (f.name, rep.global_attractor, rep.r, rep.s))


def _check_thm41(res, population):
    # on closed surfaces an unstable attractor explodes only internally
    # exactly when k and its closed basin have the same Euler number.
    for f in population(res):
        if not f.closed_surface or not f.unstable:
            continue
        if f.rep.classification == "Unknown":
            continue
        ok = (f.rep.classification == NOEXT) == (f.chi_k == f.chi_basin)
        res.case(ok, "%s: %s, chi(k) = %d, chi(basin) = %d"
                 % (f.name, f.rep.classification, f.chi_k, f.chi_basin))


def _check_thm42(res, population):
    # the first cohomology rank of such an attractor only sees the surface.
    for f in population(res):
        if not f.closed_surface or not f.unstable:
            continue
        if f.rep.classification != NOEXT:
            continue
        rank = _rank_at(f.k_ranks, 1)
        want = 1 - f.cx.euler()
        res.case(rank == want, "%s: rank H^1(k) = %d, 1 - chi = %d"
                 % (f.name, rank, want))


def obstruction_report(cx, ring="z2"):
    """Cup product bound on homoclinic components for the given space.

    r_max is the largest number of independent degree-1 classes with all
    pairwise products zero. Zero means the space admits no unstable
    attractor without external explosions at all.
    """
    form = algebra.cup_form_h1(cx, ring)
    rmax = algebra.max_null_system(form, ring)
    verdict = NO_UNSTABLE if rmax == 0 else AT_MOST % rmax
    return {"space": cx.name, "ring": ring, "r_max": rmax,
            "verdict": verdict}


def _check_obstruction(res, population):
    # cup products on H^1 bound the homoclinic count before any flow is
    # chosen. Spaces with a zero bound admit no such attractor at all.
    torus = spaces.torus(6)
    genus2 = catalog.build("hypersurface-genus2", None, population.built)
    cases = [
        ("sphere", spaces.sphere(2, 6), "z2", 0),
        ("projective plane", spaces.rp2(), "z2", 0),
        ("torus", torus, "z", 1),
        ("torus", torus, "z2", 1),
        ("klein bottle", spaces.klein(6), "z2", 1),
        ("three-torus", spaces.t3(3), "z", 1),
        ("genus two surface", genus2["flow"].cx, "z2", 2),
    ]
    for label, cx, ring, want in cases:
        rec = obstruction_report(cx, ring)
        res.case(rec["r_max"] == want,
                 "%s over %s: %s" % (label, ring, rec["verdict"]))
    records = population(res)
    for f in records:
        if not f.closed_surface or not f.cx.meta.get("cup"):
            continue
        if f.rep.classification != NOEXT or not f.unstable:
            continue
        rmax = obstruction_report(f.cx)["r_max"]
        res.case(f.rep.r <= rmax, "%s: r = %d within bound %d"
                 % (f.name, f.rep.r, rmax))
    for f in records:
        if f.closed_surface and f.cx.euler() == 2 and f.unstable:
            res.case(f.rep.classification != NOEXT,
                     "%s on the sphere: %s, as the zero bound demands"
                     % (f.name, f.rep.classification))


def _check_ex35(res, population):
    # a sphere-shaped attractor in the three-torus cannot avoid external
    # explosions: exactness forces a1 = 3 against a3 = r = 1.
    data = shape_obstruction([1, 3, 3, 1], [1, 0, 1, 0], 1)
    ok = data["verdict"] == "forced external explosions"
    ok = ok and data["candidates"] == ["t^3 + 2t^2 + 3t",
                                       "2t^3 + 3t^2 + 3t"]
    ok = ok and data["feasible"] == []
    res.case(ok, "three-torus, sphere-shaped k: %s (exact outcomes have "
             "a1 = 3, never a1 = r = 1)" % data["verdict"])


def _check_ex37(res, population):
    # a projective-plane shaped attractor in RP^2 x S^1 passes every test
    # the invariants can make, with the pinned polynomial pair.
    data = shape_obstruction([1, 2, 2, 1], [1, 1, 1, 0], 1, ring="z2")
    ok = data["verdict"] == "consistent"
    ok = ok and data["feasible"] == ["t^3 + t^2 + t"]
    sec = {0: 1, 1: 1, 2: 1}
    ok = ok and algebra.poly_to_string(sec) == "t^2 + t + 1"
    ok = ok and algebra.poly_to_string(algebra.poly_mul_t(sec)) \
        == "t^3 + t^2 + t"
    res.case(ok, "rp2 x s1 over z2: %s, p = %s = t(t^2 + t + 1)"
             % (data["verdict"], ", ".join(data["feasible"]) or "none"))
    res.note("the invariants leave existence open either way")


def _check_cor58(res, population):
    # flows on planar complexes: every catalog attractor there is stable,
    # matching the vanishing cup bound for subsets of the plane.
    for f in population(res):
        if f.flow.meta.get("family") != "planar":
            continue
        ok = f.rep.classification == "Stable" and f.chi_k == f.chi_basin
        res.case(ok, "%s: %s, chi(k) = %d = chi(basin) = %d"
                 % (f.name, f.rep.classification, f.chi_k, f.chi_basin))
    res.note("no planar catalog flow carries an unstable attractor")


def _check_thm59(res, population):
    # collar flows around a two-sided non-separating hypersurface produce
    # unstable attractors with internal explosions only. On the sphere no
    # such hypersurface exists and the construction must refuse.
    for f in population(res):
        if f.flow.meta.get("family") != "hypersurface":
            continue
        rep = f.rep
        ok = rep.classification == NOEXT and f.unstable and rep.r >= 1
        res.case(ok, "%s: %s, r = %d, s = %d"
                 % (f.name, rep.classification, rep.r, rep.s))
    sp = spaces.sphere(4, 8)
    z = {"eh:2,%d" % l for l in range(8)}
    try:
        constructions.hypersurface_flow(sp, z, name="sphere-band")
        res.case(False, "sphere equator: construction unexpectedly built")
    except constructions.ConstructionError as err:
        res.case(err.code == "separating-cycle",
                 "sphere equator refused with %r" % err.code)


def _check_thm61(res, population):
    # twisted and untwisted bundles over the circle carry the same
    # attractor fingerprint; only the ambient homology separates them.
    # dim 2: torus against klein bottle. dim 3: the two sphere bundles.
    want = {
        (2, True): ((1, 2, 1), None, "t^2 + t", {0: 1, 1: 1}),
        (2, False): ((1, 1, 0), 1, "t^2 + t", {0: 1, 1: 1}),
        (3, True): ((1, 1, 1, 1), None, "t^3 + t", {0: 1, 2: 1}),
        (3, False): ((1, 1, 0, 0), 2, "t^3 + t", {0: 1, 2: 1}),
    }
    seen = set()
    for f in population(res):
        if not f.cx.meta.get("mapping_torus") or not f.closed_manifold:
            continue
        if f.rep.classification != NOEXT or not f.rep.global_attractor:
            continue
        key = (f.cx.top_dim, f.orientable)
        if key not in want or _blockless(res, f):
            continue
        ranks, tordeg, ptxt, secpoly = want[key]
        hom = algebra.homology(f.cx, ring="z")
        ok = tuple(h["rank"] for h in hom) == ranks
        for d, h in enumerate(hom):
            if tordeg is not None and d == tordeg:
                ok = ok and h["torsion"] == [2]
            else:
                ok = ok and not h["torsion"]
        ok = ok and f.rep.r == 1
        p = algebra.poly_to_string(f.pair_poly)
        ok = ok and p == ptxt
        ok = ok and f.section_minus == secpoly and f.section_plus == secpoly
        seen.add(key)
        tag = "untwisted" if key[1] else "twisted"
        res.case(ok, "%s (%s, dim %d): H_* ranks %s, p = %s"
                 % (f.name, tag, key[0],
                    list(h["rank"] for h in hom), p))
    for d in (2, 3):
        if (d, True) in seen and (d, False) in seen:
            res.note("dim %d pair separated by ambient homology alone" % d)


def _check_lemma31(res, population):
    # Lefschetz duality on the block: H^k(n, boundary) matches H_{2-k}(n)
    # with mod 2 coefficients on closed orientable surfaces.
    for f in population(res):
        if not f.closed_surface or not f.orientable or _blockless(res, f):
            continue
        blk = f.block
        sub = blocks.block_subcomplex(blk)
        rim = f.cx.closure(set(blk.boundary_faces()))
        co = algebra.cohomology_ranks(sub, ring="z2", rel=rim)
        ho = [h["rank"] for h in algebra.homology(sub, ring="z2")]
        ok = all(_rank_at(co, k) == _rank_at(ho, 2 - k) for k in range(3))
        res.case(ok, "%s: rel ranks %s, dual ranks %s"
                 % (f.name, co, list(reversed(ho))))


def _check_lemma71(res, population):
    # the pair polynomial is an invariant of the flow, not of the grid:
    # rebuilding the same recipe twice as fine leaves it unchanged.
    for name in ("example22-torus", "example22-klein", "example22-circle",
                 "north-south"):
        fn, default, minimum = catalog._RECIPES[name]
        coarse = FlowRecord(catalog.build(name, minimum, population.built))
        fine = FlowRecord(catalog.build(name, 2 * minimum, population.built))
        p1 = algebra.poly_to_string(coarse.pair_poly)
        p2 = algebra.poly_to_string(fine.pair_poly)
        res.case(p1 == p2, "%s: %s at resolution %d and %d"
                 % (name, p1, minimum, 2 * minimum))


def _check_lemma72(res, population):
    # product with an interval relative to its ends shifts homology up one
    # degree, torsion included.
    for x, ring in ((spaces.point(), "z"), (spaces.circle(8), "z"),
                    (spaces.torus(4), "z"), (spaces.rp2(), "z")):
        pair, base = algebra.suspension_pair_homology(x, ring=ring)
        ok = pair[0]["rank"] == 0 and not pair[0]["torsion"]
        for k in range(1, len(pair)):
            b = base[k - 1] if k - 1 < len(base) else {"rank": 0,
                                                       "torsion": []}
            ok = ok and pair[k]["rank"] == b["rank"]
            ok = ok and pair[k]["torsion"] == b["torsion"]
        res.case(ok, "%s: shifted ranks %s" %
                 (x.name, [h["rank"] for h in pair]))


def _check_conley_euler(res, population):
    # chi(n) - chi(exit set) recovers the Euler number of the attractor on
    # every closed surface in the catalog that admits a block.
    for f in population(res):
        if not f.closed_surface or _blockless(res, f):
            continue
        ce = blocks.conley_euler(f.block)
        res.case(ce == f.chi_k, "%s: index pair gives %d, chi(k) = %d"
                 % (f.name, ce, f.chi_k))


def _check_jduality(res, population):
    # the prolongational sets come in a dual pair: y lies in the forward
    # set of x exactly when x lies in the backward set of y. Checked on
    # every ordered pair of top cells, up to 2,000 top cells: the count
    # holds a few n-bit masks per top cell.
    for f in population(res):
        flow = f.flow
        n = len(flow.tops)
        if n > 2000:
            res.note("%s skipped at %d top cells" % (f.name, n))
            continue
        bad = jduality_violations(flow.cx, flow.eventual_images("f"),
                                  flow.eventual_images("p"))
        res.case(bad == 0, "%s: %d pairs, %d violations"
                 % (f.name, n ** 2, bad))


def jduality_violations(cx, plus, minus):
    """Ordered pairs (x, y) of top cells where J+(x) touches y but J-(y) does
    not touch x, or the reverse. `plus` and `minus` map every top cell to its
    forward and backward eventual image, and J+(x), J-(x) are the unions of
    those images over the one-ring of x.

    No pair is enumerated. Top cells are numbered by their place in
    cx.top_cells(), and each set of them is an int bitmask. One-rings are
    symmetric, and a bare top cell's is itself, so the star of a set S (the
    top cells S touches) is the OR of the ring masks of S's cells.
    - Forward: J+(x) touches the OR, over w in ring(x), of star(plus[w]).
      Each distinct image is starred once.
    - Backward, transposed: J-(y) touches x exactly when y lies in
      star({z : minus[z] meets ring(x)}). So the cells z are grouped by
      their shared image I, the star of each group is ORed into B[w] for
      every w in I, and the y whose J-(y) touches x are the OR of B[w] over
      w in ring(x).
    The count is the number of bits set in one of x's two masks and not the
    other, summed over x.

    Cost: the stars of the top cells, made in one pass, then one n-bit OR
    per ring member, per member of a distinct image and per top cell in its
    group, where n is the number of top cells. Memory is a few n-bit masks
    per top cell, n^2 bits per side: 0.5 MB at the 2,000 top cells above
    which _check_jduality skips a flow, and unbounded without that cap,
    since MAX_CELLS allows half a million cells."""
    tops = cx.top_cells()
    pos = {x: i for i, x in enumerate(tops)}
    rings = [[pos[y] for y in ring] for ring in cx.top_stars()]
    ring_masks = [sum(1 << i for i in ring) for ring in rings]

    def star(cells):
        mask = 0
        for c in cells:
            mask |= ring_masks[pos[c]]
        return mask

    starred = {img: star(img) for img in set(plus.values())}
    fwd = [starred[plus[x]] for x in tops]
    groups = {}
    for z in tops:
        groups.setdefault(minus[z], []).append(z)
    back = [0] * len(tops)
    for img, members in groups.items():
        g = star(members)
        for w in img:
            back[pos[w]] |= g
    count = 0
    for ring in rings:
        t = d = 0
        for w in ring:
            t |= fwd[w]
            d |= back[w]
        count += (t ^ d).bit_count()
    return count


_REGISTRY = [
    ("thm3.4", "pair polynomial duality", _check_thm34),
    ("prop3.2", "component count bounds", _check_prop32),
    ("cor3.3", "rank one forces a global attractor", _check_cor33),
    ("thm4.1", "Euler characteristic test on closed surfaces", _check_thm41),
    ("thm4.2", "first cohomology of surface attractors", _check_thm42),
    ("obstruction", "cup product bound on homoclinic components",
     _check_obstruction),
    ("ex3.5", "shape forcing external explosions", _check_ex35),
    ("ex3.7", "shape consistent with internal explosions", _check_ex37),
    ("cor5.8", "planar attractors are stable", _check_cor58),
    ("thm5.9", "hypersurface collar flows", _check_thm59),
    ("thm6.1", "sphere bundle fingerprints", _check_thm61),
    ("lemma3.1", "Lefschetz duality on blocks", _check_lemma31),
    ("lemma7.1", "pair polynomial survives refinement", _check_lemma71),
    ("lemma7.2", "suspension shift", _check_lemma72),
    ("conley-euler", "block Euler characteristic", _check_conley_euler),
    ("jduality", "prolongation duality", _check_jduality),
]


def check_ids():
    return [cid for cid, _, _ in _REGISTRY]


def run(only=None):
    """Run all checks in registry order, or only the one with id `only`."""
    wanted = check_ids()
    if only is not None:
        if only not in wanted:
            raise TheoremError("unknown-check", "no check named %r" % only)
        wanted = [only]
    population = _Population()
    out = []
    for cid, title, fn in _REGISTRY:
        if cid not in wanted:
            continue
        res = CheckResult(cid, title)
        try:
            fn(res, population)
        except Exception as err:   # a crash is a failure, not a skip
            res.status = "fail"
            res.note("crashed: %s" % err)
        if res.instances == 0 and res.status == "pass":
            res.status = "fail"
            res.note("no instance matched the hypotheses")
        out.append(res)
    return out


class _Population:
    """One run's `population`; `built` holds the catalog entries it built."""

    def __init__(self):
        self.built = {}

    @cached_property
    def members(self):
        """(records, notes): a record for every catalog flow that analyzes
        cleanly, and a note for every catalog entry that could not be read."""
        out = []
        notes = []
        for name in catalog.names():
            try:
                entry = catalog.build(name, None, self.built)
            except catalog.CatalogError as err:
                notes.append("skipped catalog entry %s: %s" % (name, err))
                continue
            if not entry.get("k") or entry["expected"].get("error"):
                continue
            try:
                rep = catalog.analysis(entry)
            except (catalog.CatalogError, attractor.NotIsolatedError):
                continue
            out.append(FlowRecord(entry, rep))
        return out, notes

    def __call__(self, res):
        records, notes = self.members
        for text in notes:
            res.note(text)
        return records
