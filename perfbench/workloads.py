"""The benchmark's workloads and the reference answers their outputs must match.

Every reference is written out here by hand: the verdict, `r`, `s` and
`global` pinned for each catalog family, and the Betti numbers and torsion of
each space from its known topology. None is computed by the code under test.

An input is a flow file; an operation is one CLI call on one input. The
first operation of a workload is its warm-up. Operations that carry a `fit`
tag feed a scaling exponent in the traced run.
"""

# -- analyze-ladder -----------------------------------------------------------

EXTERNAL = {"classification": "ExternalExplosions", "r": 1, "s": 1,
            "global": True}
INTERNAL = {"classification": "NoExternalExplosions", "r": 1, "s": 1,
            "global": True}
STRIP2 = {"classification": "NoExternalExplosions", "r": 1, "s": 3,
          "global": False}

# (catalog recipe, resolution, reference, fit tag)
ANALYZE = [
    ("hypersurface-genus2-strip2", 16, STRIP2, None),
    ("example22-s2xs1", 24, INTERNAL, None),
    ("homoclinic-sphere", 24, EXTERNAL, "attractor.classify.exp"),
    ("homoclinic-sphere", 32, EXTERNAL, "attractor.classify.exp"),
    ("homoclinic-sphere", 40, EXTERNAL, "attractor.classify.exp"),
    ("example22-torus", 48, INTERNAL, "attractor.basin.exp"),
    ("example22-torus", 96, INTERNAL, "attractor.basin.exp"),
]

ANALYZE_SMOKE = [
    ("hypersurface-genus2-strip2", 8, STRIP2, None),
    ("homoclinic-sphere", 12, EXTERNAL, "attractor.classify.exp"),
    ("homoclinic-sphere", 16, EXTERNAL, "attractor.classify.exp"),
    ("example22-torus", 8, INTERNAL, "attractor.basin.exp"),
    ("example22-torus", 12, INTERNAL, "attractor.basin.exp"),
]

# -- homology-ladder ----------------------------------------------------------

# homology rows as (rank, torsion) per degree
TORUS = [(1, []), (2, []), (1, [])]
KLEIN_Z = [(1, []), (1, [2]), (0, [])]
T3 = [(1, []), (3, []), (3, []), (1, [])]
GENUS2 = [(1, []), (4, []), (1, [])]
PAIR = "t^2 + t"      # example22 torus relative to its attractor

# (input kind, name, resolution, ring, rows, pair polynomial, fit tag).
# "space" inputs are rest flows over a named complex; "flow" inputs are the
# catalog flow with its candidate k, which makes the CLI compute the pair.
HOMOLOGY = [
    ("space", "genus2", 12, "z", GENUS2, None, None),
    ("space", "torus", 16, "z2", TORUS, None, "algebra.homology_z2.exp"),
    ("space", "torus", 32, "z2", TORUS, None, "algebra.homology_z2.exp"),
    ("space", "torus", 32, "z", TORUS, None, "algebra.homology_z.exp"),
    ("space", "torus", 64, "z", TORUS, None, "algebra.homology_z.exp"),
    ("space", "klein", 48, "z", KLEIN_Z, None, None),
    ("space", "t3", 8, "z2", T3, None, None),
    ("flow", "example22-torus", 32, "z2", TORUS, PAIR, None),
]

HOMOLOGY_SMOKE = [
    ("space", "genus2", 6, "z", GENUS2, None, None),
    ("space", "torus", 6, "z2", TORUS, None, "algebra.homology_z2.exp"),
    ("space", "torus", 12, "z2", TORUS, None, "algebra.homology_z2.exp"),
    ("space", "torus", 6, "z", TORUS, None, "algebra.homology_z.exp"),
    ("space", "torus", 12, "z", TORUS, None, "algebra.homology_z.exp"),
    ("space", "klein", 6, "z", KLEIN_Z, None, None),
    ("space", "t3", 4, "z2", T3, None, None),
    ("flow", "example22-torus", 8, "z2", TORUS, PAIR, None),
]

# -- verify-registry ----------------------------------------------------------

VERIFY_IDS = [
    "thm3.4", "prop3.2", "cor3.3", "thm4.1", "thm4.2", "obstruction",
    "ex3.5", "ex3.7", "cor5.8", "thm5.9", "thm6.1", "lemma3.1", "lemma7.1",
    "lemma7.2", "conley-euler", "jduality",
]

NAMES = ("analyze-ladder", "homology-ladder", "verify-registry")


def input_name(kind, name, res):
    """File name of one generated input."""
    return "%s-%s-%d.json" % (kind, name, res)


def inputs(workload, smoke=False):
    """(file name, kind, name, resolution) of every input, each once."""
    out = {}
    if workload == "analyze-ladder":
        for name, res, _, _ in (ANALYZE_SMOKE if smoke else ANALYZE):
            out[input_name("flow", name, res)] = ("flow", name, res)
    elif workload == "homology-ladder":
        for kind, name, res, *_ in (HOMOLOGY_SMOKE if smoke else HOMOLOGY):
            out[input_name(kind, name, res)] = (kind, name, res)
    return [(f,) + spec for f, spec in out.items()]


def operations(workload, smoke=False):
    """The operations of one pass, in order. Each is a dict with the CLI
    arguments (file names relative to the input directory), the reference
    and an optional fit tag."""
    ops = []
    if workload == "analyze-ladder":
        for name, res, ref, fit in (ANALYZE_SMOKE if smoke else ANALYZE):
            f = input_name("flow", name, res)
            ops.append({"id": "analyze %s@%d" % (name, res), "file": f,
                        "args": ["analyze", f, "--format", "json"],
                        "check": "analyze", "ref": ref,
                        "fit": fit})
    elif workload == "homology-ladder":
        for kind, name, res, ring, rows, pair, fit in (
                HOMOLOGY_SMOKE if smoke else HOMOLOGY):
            f = input_name(kind, name, res)
            ops.append({"id": "homology %s@%d %s" % (name, res, ring),
                        "file": f,
                        "args": ["homology", f, "--ring", ring,
                                 "--format", "json"],
                        "check": "homology",
                        "ref": {"ring": ring, "rows": rows, "pair": pair},
                        "fit": fit})
    elif workload == "verify-registry":
        ops.append({"id": "verify", "file": None,
                    "args": ["verify", "--format", "json"],
                    "check": "verify", "ref": {"ids": VERIFY_IDS},
                    "fit": None})
    else:
        raise ValueError("unknown workload %r" % workload)
    return ops
