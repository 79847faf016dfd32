"""Machine checks for the structural results the catalog was built to witness.

Every registered check recomputes both sides of one identity on the catalog
flows meeting its hypotheses. Flows are picked out by properties of the
complex and of the attractor report, not by name, so external catalog entries
join the sweeps automatically. A check that matches no instance fails loudly
rather than passing empty.
"""

import itertools

from . import algebra, attractor, blocks, catalog, complexes, constructions

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

_BLOCKS = {}


def _population():
    """(entry, report) for every catalog flow that analyzes cleanly."""
    out = []
    for name in catalog.names():
        try:
            entry = catalog.build(name)
        except catalog.CatalogError:
            continue
        if not entry.get("k") or entry["expected"].get("error"):
            continue
        try:
            rep = catalog.analysis(entry["name"], entry["resolution"])
        except (catalog.CatalogError, attractor.NotIsolatedError):
            continue
        out.append((entry, rep))
    return out


def _block(entry):
    key = (entry["name"], entry["resolution"])
    if key not in _BLOCKS:
        _BLOCKS[key] = blocks.build_block(entry["flow"], entry["k"])
    return _BLOCKS[key]


def _kbar(entry):
    cx = entry["flow"].cx
    return cx.closure(entry["k"])


def _unstable(rep):
    return rep.stabilization != rep.k


def _rank_at(ranks, i):
    return ranks[i] if 0 <= i < len(ranks) else 0


def pair_polynomial(entry):
    """Cohomology polynomial of the ambient complex relative to closed k."""
    cx = entry["flow"].cx
    return algebra.poincare_polynomial(cx, rel=_kbar(entry),
                                       ring=entry["ring"])


def section_polynomial(entry, side="minus"):
    """Poincare polynomial of the exit (or entry) section of the block."""
    blk = _block(entry)
    faces = blk.nminus_faces if side == "minus" else blk.nplus_faces
    cx = entry["flow"].cx
    sub = cx.subcomplex(cx.closure(set(faces)),
                        name="%s:n-%s" % (entry["name"], side))
    return algebra.poincare_polynomial(sub, ring=entry["ring"])


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

def _check_thm34(res):
    # global attractors with only internal explosions on closed manifolds:
    # the basin pair polynomial is palindromic, equals t * p(n-), and its
    # top coefficient counts the homoclinic components.
    for entry, rep in _population():
        cx = entry["flow"].cx
        if not cx.is_closed_manifold():
            continue
        if rep.classification != NOEXT or not rep.global_attractor:
            continue
        d = cx.top_dim
        p = pair_polynomial(entry)
        sec = section_polynomial(entry, "minus")
        ptxt = algebra.poly_to_string(p)
        ok = algebra.poly_symmetric(p, d)
        ok = ok and p.get(d, 0) == rep.r
        ok = ok and algebra.poly_mul_t(sec) == p
        pinned = entry["expected"].get("pair_poly")
        if pinned is not None:
            ok = ok and ptxt == pinned
        res.case(ok, "%s: p = %s, p(n-) = %s, r = %d"
                 % (entry["name"], ptxt, algebra.poly_to_string(sec), rep.r))


def _check_prop32(res):
    # r <= s <= rank H^{d-1}(k) and the higher cohomology of k vanishes.
    best = None
    for entry, rep in _population():
        cx = entry["flow"].cx
        if rep.classification != NOEXT or not _unstable(rep):
            continue
        if not (cx.is_closed_manifold() or entry["flow"].meta.get("strips")):
            continue
        d = cx.top_dim
        sub = cx.subcomplex(_kbar(entry), name=entry["name"] + ":k")
        ranks = algebra.cohomology_ranks(sub, ring=entry["ring"])
        bound = _rank_at(ranks, d - 1)
        vanish = all(r == 0 for r in ranks[d:])
        ok = rep.r <= rep.s <= bound and vanish
        res.case(ok, "%s: r = %d, s = %d, rank = %d"
                 % (entry["name"], rep.r, rep.s, bound))
        if ok and rep.s == bound and (best is None or bound > best[1]):
            best = (entry["name"], bound)
    if best:
        res.note("upper bound attained by %s at rank %d" % best)


def _check_cor33(res):
    # rank one in degree d-1 pins everything down: one homoclinic
    # component and a basin covering the whole manifold.
    for entry, rep in _population():
        cx = entry["flow"].cx
        if rep.classification != NOEXT or not _unstable(rep):
            continue
        if not cx.is_closed_manifold():
            continue
        d = cx.top_dim
        sub = cx.subcomplex(_kbar(entry), name=entry["name"] + ":k")
        ranks = algebra.cohomology_ranks(sub, ring=entry["ring"])
        if _rank_at(ranks, d - 1) != 1:
            continue
        ok = rep.global_attractor and rep.r == 1 and rep.s == 1
        res.case(ok, "%s: global = %s, r = %d, s = %d"
                 % (entry["name"], rep.global_attractor, rep.r, rep.s))


def _check_thm41(res):
    # on closed surfaces an unstable attractor explodes only internally
    # exactly when k and its closed basin have the same Euler number.
    for entry, rep in _population():
        cx = entry["flow"].cx
        if not cx.is_closed_surface() or not _unstable(rep):
            continue
        if rep.classification == "Unknown":
            continue
        chi_k = cx.euler(_kbar(entry))
        chi_b = cx.euler(cx.closure(rep.basin))
        ok = (rep.classification == NOEXT) == (chi_k == chi_b)
        res.case(ok, "%s: %s, chi(k) = %d, chi(basin) = %d"
                 % (entry["name"], rep.classification, chi_k, chi_b))


def _check_thm42(res):
    # the first cohomology rank of such an attractor only sees the surface.
    for entry, rep in _population():
        cx = entry["flow"].cx
        if not cx.is_closed_surface() or not _unstable(rep):
            continue
        if rep.classification != NOEXT:
            continue
        sub = cx.subcomplex(_kbar(entry), name=entry["name"] + ":k")
        rank = _rank_at(algebra.cohomology_ranks(sub, ring=entry["ring"]), 1)
        want = 1 - cx.euler()
        res.case(rank == want, "%s: rank H^1(k) = %d, 1 - chi = %d"
                 % (entry["name"], rank, want))


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


def _check_obstruction(res):
    # cup products on H^1 bound the homoclinic count before any flow is
    # chosen. Spaces with a zero bound admit no such attractor at all.
    spaces = [
        ("sphere", complexes.sphere(2, 6), "z2", 0),
        ("projective plane", complexes.rp2(), "z2", 0),
        ("torus", complexes.torus(6, 6), "z", 1),
        ("torus", complexes.torus(6, 6), "z2", 1),
        ("klein bottle", complexes.klein(6, 6), "z2", 1),
        ("three-torus", complexes.t3(3, 3), "z", 1),
    ]
    try:
        g2 = catalog.build("hypersurface-genus2")["flow"].cx
        spaces.append(("genus two surface", g2, "z2", 2))
    except catalog.CatalogError:
        pass
    for label, cx, ring, want in spaces:
        rec = obstruction_report(cx, ring)
        res.case(rec["r_max"] == want,
                 "%s over %s: %s" % (label, ring, rec["verdict"]))
    for entry, rep in _population():
        cx = entry["flow"].cx
        if not cx.is_closed_surface() or not cx.meta.get("cup"):
            continue
        if rep.classification != NOEXT or not _unstable(rep):
            continue
        rmax = algebra.max_null_system(algebra.cup_form_h1(cx, "z2"), "z2")
        res.case(rep.r <= rmax, "%s: r = %d within bound %d"
                 % (entry["name"], rep.r, rmax))
    for entry, rep in _population():
        cx = entry["flow"].cx
        if cx.is_closed_surface() and cx.euler() == 2 and _unstable(rep):
            res.case(rep.classification != NOEXT,
                     "%s on the sphere: %s, as the zero bound demands"
                     % (entry["name"], rep.classification))


def _check_ex35(res):
    # a sphere-shaped attractor in the three-torus cannot avoid external
    # explosions: exactness forces a1 = 3 against a3 = r = 1.
    data = shape_obstruction([1, 3, 3, 1], [1, 0, 1, 0], 1)
    ok = data["verdict"] == "forced external explosions"
    ok = ok and data["candidates"] == ["t^3 + 2t^2 + 3t",
                                       "2t^3 + 3t^2 + 3t"]
    ok = ok and data["feasible"] == []
    res.case(ok, "three-torus, sphere-shaped k: %s (exact outcomes have "
             "a1 = 3, never a1 = r = 1)" % data["verdict"])


def _check_ex37(res):
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


def _check_cor58(res):
    # flows on planar complexes: every catalog attractor there is stable,
    # matching the vanishing cup bound for subsets of the plane.
    for entry, rep in _population():
        if entry["flow"].meta.get("family") != "planar":
            continue
        cx = entry["flow"].cx
        chi_k = cx.euler(_kbar(entry))
        chi_b = cx.euler(cx.closure(rep.basin))
        ok = rep.classification == "Stable" and chi_k == chi_b
        res.case(ok, "%s: %s, chi(k) = %d = chi(basin) = %d"
                 % (entry["name"], rep.classification, chi_k, chi_b))
    res.note("no planar catalog flow carries an unstable attractor")


def _check_thm59(res):
    # collar flows around a two-sided non-separating hypersurface produce
    # unstable attractors with internal explosions only. On the sphere no
    # such hypersurface exists and the construction must refuse.
    for entry, rep in _population():
        if entry["flow"].meta.get("family") != "hypersurface":
            continue
        ok = rep.classification == NOEXT and _unstable(rep) and rep.r >= 1
        res.case(ok, "%s: %s, r = %d, s = %d"
                 % (entry["name"], rep.classification, rep.r, rep.s))
    sp = complexes.sphere(4, 8)
    z = {"eh:2,%d" % l for l in range(8)}
    try:
        constructions.hypersurface_flow(sp, z, name="sphere-band")
        res.case(False, "sphere equator: construction unexpectedly built")
    except constructions.ConstructionError as err:
        res.case(err.code == "separating-cycle",
                 "sphere equator refused with %r" % err.code)


def _check_thm61(res):
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
    for entry, rep in _population():
        cx = entry["flow"].cx
        if not cx.meta.get("mapping_torus") or not cx.is_closed_manifold():
            continue
        if rep.classification != NOEXT or not rep.global_attractor:
            continue
        key = (cx.top_dim, cx.is_orientable())
        if key not in want:
            continue
        ranks, tordeg, ptxt, secpoly = want[key]
        hom = algebra.homology(cx, ring="z")
        ok = tuple(h["rank"] for h in hom) == ranks
        for d, h in enumerate(hom):
            if tordeg is not None and d == tordeg:
                ok = ok and h["torsion"] == [2]
            else:
                ok = ok and not h["torsion"]
        ok = ok and rep.r == 1
        p = algebra.poly_to_string(pair_polynomial(entry))
        ok = ok and p == ptxt
        for side in ("minus", "plus"):
            ok = ok and section_polynomial(entry, side) == secpoly
        seen.add(key)
        tag = "untwisted" if key[1] else "twisted"
        res.case(ok, "%s (%s, dim %d): H_* ranks %s, p = %s"
                 % (entry["name"], tag, key[0],
                    list(h["rank"] for h in hom), p))
    for d in (2, 3):
        if (d, True) in seen and (d, False) in seen:
            res.note("dim %d pair separated by ambient homology alone" % d)


def _check_lemma31(res):
    # Lefschetz duality on the block: H^k(n, boundary) matches H_{2-k}(n)
    # with mod 2 coefficients on closed orientable surfaces.
    for entry, rep in _population():
        cx = entry["flow"].cx
        if not cx.is_closed_surface() or not cx.is_orientable():
            continue
        try:
            blk = _block(entry)
        except blocks.NoBlockError:
            continue
        sub = blocks.block_subcomplex(blk)
        rim = cx.closure(set(blk.boundary_faces()))
        co = algebra.cohomology_ranks(sub, ring="z2", rel=rim)
        ho = [h["rank"] for h in algebra.homology(sub, ring="z2")]
        ok = all(_rank_at(co, k) == _rank_at(ho, 2 - k) for k in range(3))
        res.case(ok, "%s: rel ranks %s, dual ranks %s"
                 % (entry["name"], co, list(reversed(ho))))


def _check_lemma71(res):
    # the pair polynomial is an invariant of the flow, not of the grid:
    # rebuilding the same recipe twice as fine leaves it unchanged.
    for name in ("example22-torus", "example22-klein", "example22-circle",
                 "north-south"):
        fn, default, minimum = catalog._RECIPES[name]
        coarse = catalog.build(name, minimum)
        fine = catalog.build(name, 2 * minimum)
        p1 = algebra.poly_to_string(pair_polynomial(coarse))
        p2 = algebra.poly_to_string(pair_polynomial(fine))
        res.case(p1 == p2, "%s: %s at resolution %d and %d"
                 % (name, p1, minimum, 2 * minimum))


def _check_lemma72(res):
    # product with an interval relative to its ends shifts homology up one
    # degree, torsion included.
    for x, ring in ((complexes.point(), "z"), (complexes.circle(8), "z"),
                    (complexes.torus(4, 4), "z"), (complexes.rp2(), "z")):
        pair, base = algebra.suspension_pair_homology(x, ring=ring)
        ok = pair[0]["rank"] == 0 and not pair[0]["torsion"]
        for k in range(1, len(pair)):
            b = base[k - 1] if k - 1 < len(base) else {"rank": 0,
                                                       "torsion": []}
            ok = ok and pair[k]["rank"] == b["rank"]
            ok = ok and pair[k]["torsion"] == b["torsion"]
        res.case(ok, "%s: shifted ranks %s" %
                 (x.name, [h["rank"] for h in pair]))


def _check_conley_euler(res):
    # chi(n) - chi(exit set) recovers the Euler number of the attractor on
    # every closed surface in the catalog that admits a block.
    for entry, rep in _population():
        cx = entry["flow"].cx
        if not cx.is_closed_surface():
            continue
        try:
            blk = _block(entry)
        except blocks.NoBlockError:
            continue
        ce = blocks.conley_euler(blk)
        chi = cx.euler(_kbar(entry))
        res.case(ce == chi, "%s: index pair gives %d, chi(k) = %d"
                 % (entry["name"], ce, chi))


def _check_jduality(res):
    # the prolongational sets come in a dual pair: y lies in the forward
    # set of x exactly when x lies in the backward set of y. Checked on
    # every ordered pair of top cells.
    for entry, rep in _population():
        flow = entry["flow"]
        tops = sorted(flow.tops)
        if len(tops) > 2000:
            res.note("%s skipped at %d top cells" % (entry["name"],
                                                     len(tops)))
            continue
        bad = jduality_violations(flow.j_plus, flow.j_minus, tops)
        res.case(bad == 0, "%s: %d pairs, %d violations"
                 % (entry["name"], len(tops) ** 2, bad))


def jduality_violations(j_plus, j_minus, tops):
    """Ordered pairs (x, y) of top cells where j_plus(x) touches y but
    j_minus(y) does not touch x, or the reverse; `tops` lists every top cell.
    For each x the cells j_plus(x) touches are compared with dual[x], the
    cells y whose j_minus(y) touches x. Both sides come from the enclosures
    of every cell, and each distinct enclosure is expanded once."""
    touched = {}

    def touching(enc):
        if enc.cells not in touched:
            touched[enc.cells] = enc.flow.touching(enc.cells)
        return touched[enc.cells]

    dual = {x: set() for x in tops}
    for y in tops:
        for x in touching(j_minus(y)):
            dual[x].add(y)
    return sum(len(touching(j_plus(x)) ^ dual[x]) for x in tops)


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
    """Run all checks, or the ones named in `only`, in registry order."""
    if only is None:
        wanted = check_ids()
    else:
        wanted = [only] if isinstance(only, str) else list(only)
        known = set(check_ids())
        for w in wanted:
            if w not in known:
                raise TheoremError("unknown-check", "no check named %r" % w)
    out = []
    for cid, title, fn in _REGISTRY:
        if cid not in wanted:
            continue
        res = CheckResult(cid, title)
        try:
            fn(res)
        except Exception as err:   # a crash is a failure, not a skip
            res.status = "fail"
            res.note("crashed: %s" % err)
        if res.instances == 0 and res.status == "pass":
            res.status = "fail"
            res.note("no instance matched the hypotheses")
        out.append(res)
    return out
