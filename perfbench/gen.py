"""Write one workload's input files, relabelled under a seed.

    python perfbench/gen.py WORKLOAD SEED OUTDIR [--smoke]

Needs `src` on PYTHONPATH. Each input is a flow file in the format
`construct` writes (keys sorted, no indentation), except that the seed
permutes the cell ids of every dimension consistently across cells,
boundary, identifications, successors, `fixed` and `k`, and the `recipe` is
dropped, so the CLI sees a flow it cannot rebuild from the catalog.
OUTDIR/manifest.json records each input's name and `k`.
"""

import json
import os
import random
import sys

import workloads


def relabel(body, rng):
    """Flow file body with cell ids permuted within each dimension."""
    cx = body["complex"]
    by_dim = {}
    for c, d in cx["cells"]:
        by_dim.setdefault(d, []).append(c)
    new = {}
    for d in sorted(by_dim):
        old = sorted(by_dim[d])
        perm = list(old)
        rng.shuffle(perm)
        new.update(zip(old, perm))
    out = {
        "schema": body["schema"],
        "name": body["name"],
        "complex": {
            "name": cx["name"],
            "cells": sorted([new[c], d] for c, d in cx["cells"]),
            "boundary": {new[c]: sorted([new[f], k] for f, k in faces)
                         for c, faces in cx["boundary"].items()},
            "identifications": [[new.get(x, x) if isinstance(x, str) else x
                                 for x in entry]
                                for entry in cx["identifications"]],
        },
        "successors": {new[c]: sorted(new[d] for d in outs)
                       for c, outs in body["successors"].items()},
        "fixed": sorted(new[c] for c in body["fixed"]),
    }
    if body.get("k"):
        out["k"] = sorted(new[c] for c in body["k"])
    return out


def build(kind, name, res):
    """Flow file body of a catalog flow with its k, or of the rest flow on a
    named complex."""
    from conleylab import catalog
    from conleylab.complexes import named_space
    from conleylab.flow import rest_flow
    if kind == "flow":
        entry = catalog.build(name, res)
        body = entry["flow"].to_json()
        body["k"] = entry["k"]
    else:
        body = rest_flow(named_space(name, res)).to_json()
    body["name"] = "%s-%d" % (name, res)
    return body


def main(argv):
    workload, seed, outdir = argv[0], int(argv[1]), argv[2]
    smoke = "--smoke" in argv[3:]
    os.makedirs(outdir, exist_ok=True)
    manifest = {}
    for fname, kind, name, res in workloads.inputs(workload, smoke):
        body = relabel(build(kind, name, res),
                       random.Random("%d/%s" % (seed, fname)))
        with open(os.path.join(outdir, fname), "w") as fh:
            fh.write(json.dumps(body, sort_keys=True))
        manifest[fname] = {"k": body.get("k"), "name": body["name"]}
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
