"""Command line front end.

A target is either `catalog:NAME` (built-in recipes plus any flow files in
the directory named by CONLEYLAB_CATALOG) or the path of a flow file such as
the ones `construct` writes. Output bytes are deterministic for a fixed
input so runs can be diffed.

`--refine N` rebuilds a built-in catalog entry at twice its resolution, up
to N times, while the verdict is Unknown. A file or an external catalog
entry has no resolution and is analysed as it stands: a `recipe` it carries
is provenance, never a flow to substitute. `construct NAME --resolution R`
output refines as `catalog:NAME --resolution R`.

Output is streamed: a JSON report goes out as the encoder's chunks, about a
thousand per write, so no command holds its report as one string.

Each command imports the layers it calls inside its own function, so a call
loads only what its command runs: `analyze FILE` never compiles the
catalog, the checks or the plotting code, `homology NAME` on a bare space
name compiles the space builders alone, and only a command that reads a
file compiles the file reader, `flowfile.load_file`.

A command runs with the cyclic garbage collector paused, through the
`complexes.collector_paused` that `catalog.build` and `named_space` use too.
Everything it builds (the complex, the flow, the enclosures) is an acyclic
graph that lives until the command returns, so the collector could free
none of it and only rescans it as it grows. `main` restores the caller's
collector state on every exit. Two tests keep this safe: the cyclic garbage
one command, or one build, leaves is the same at two input sizes.
"""

import argparse
import json
import os
import sys
from itertools import islice

from .complexes import SPACES, ConleyError, collector_paused, named_space
from .flow import FlowError


def _load_file(path):
    # the CLI's one entry to file loading; perfbench times it as cli.load
    from .flowfile import load_file
    return load_file(path)


def _load_target(spec, resolution=None):
    if not spec.startswith("catalog:") and os.path.exists(spec):
        return _load_file(spec)
    from . import catalog
    if spec.startswith("catalog:"):
        return catalog.build(spec[len("catalog:"):], resolution)
    if spec in catalog.names():
        return catalog.build(spec, resolution)
    raise FlowError("unreadable-input",
                    "%r is neither a file nor a catalog name" % spec)


# chunks joined into one write: a 0.5 MB JSON report is tens of writes, not
# one per encoder chunk, which unbuffered stdout would make one syscall each
_BATCH = 1024


def _write(fh, chunks):
    it = iter(chunks)
    for batch in iter(lambda: list(islice(it, _BATCH)), []):
        fh.write("".join(batch))


def _emit(chunks, out):
    """Write the command's text, an iterable of str chunks, to the file
    `out` or to stdout, _BATCH chunks per write. Either one failing is
    error[unwritable-output]."""
    if out:
        try:
            with open(out, "w") as fh:
                _write(fh, chunks)
        except OSError as err:
            raise ConleyError("unwritable-output", "cannot write %s: %s"
                              % (out, err.strerror or err))
    elif sys.stdout is None:
        # Python's stdout when the process started with descriptor 1 closed
        raise ConleyError("unwritable-output", "cannot write stdout: "
                          "it is closed")
    else:
        try:
            _write(sys.stdout, chunks)
            sys.stdout.flush()
        except OSError as err:
            # a reader that closed the pipe (`| head`): the interpreter
            # flushes stdout again at exit, so stdout is pointed at
            # os.devnull first, as the `signal` module's docs advise
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise ConleyError("unwritable-output", "cannot write stdout: %s"
                              % (err.strerror or err))


def _json_dumps(payload):
    """The payload as JSON with sorted keys and an indent of 2, then a
    newline, yielded as the encoder's chunks: no report is held as one
    string."""
    yield from json.JSONEncoder(sort_keys=True, indent=2).iterencode(payload)
    yield "\n"


# -- analyze -------------------------------------------------------------------

def _analyze(entry, max_refines):
    """(report, refinements, the entry the report describes)."""
    from . import attractor
    if not entry["k"]:
        raise FlowError("no-candidate", "%s carries no attractor candidate"
                        % entry["name"])
    report = attractor.analyze(entry["flow"], entry["k"])
    refines = 0
    while report.classification == "Unknown" and refines < max_refines:
        if entry["resolution"] is None:
            report.notes.append("refinement unavailable, verdict stays open")
            break
        from . import catalog
        entry = catalog.build(entry["name"], 2 * entry["resolution"])
        refines += 1
        report = attractor.analyze(entry["flow"], entry["k"])
    return report, refines, entry


def _analyze_text(report, refines):
    lines = [
        "flow: %s" % report.flow.name,
        "classification: %s" % report.classification,
        "global attractor: %s" % ("yes" if report.global_attractor else "no"),
        "components: r = %d homoclinic, s = %d total" % (report.r, report.s),
        "cells: k %d, stabilization %d, basin %d, unstable manifold %d"
        % (len(report.k), len(report.stabilization), len(report.basin),
           len(report.unstable)),
    ]
    if refines:
        lines.append("refinements used: %d" % refines)
    if report.witness:
        lines.append("witness: %s via cycle of %d cells"
                     % (report.witness, len(report.witness_cycle)))
    for note in report.notes:
        lines.append("note: %s" % note)
    return "\n".join(lines) + "\n"


def cmd_analyze(args):
    entry = _load_target(args.target, args.resolution)
    report, refines, _ = _analyze(entry, args.refine)
    if args.format == "json":
        payload = report.to_json()
        payload["refinements"] = refines
        _emit(_json_dumps(payload), args.out)
    else:
        _emit([_analyze_text(report, refines)], args.out)
    return 0


# -- verify --------------------------------------------------------------------

def cmd_verify(args):
    from . import theorems
    results = theorems.run(only=args.only)
    failed = [r for r in results if r.status != "pass"]
    if args.format == "json":
        _emit(_json_dumps([r.to_json() for r in results]), args.out)
    else:
        lines = []
        for r in results:
            lines.append("[%s] %s: %s (%d cases)"
                         % (r.status.upper(), r.id, r.title, r.instances))
            lines.extend("    " + d for d in r.details)
        lines.append("result: %d/%d checks passed"
                     % (len(results) - len(failed), len(results)))
        _emit(["\n".join(lines) + "\n"], args.out)
    return 1 if failed else 0


# -- plot ----------------------------------------------------------------------

def cmd_plot(args):
    from . import blocks, svgplot
    entry = _load_target(args.target, args.resolution)
    report, _, entry = _analyze(entry, args.refine)
    if args.format == "csv":
        _emit([svgplot.csv_text(report)], args.out)
    elif args.format == "text":
        _emit([svgplot.text_grid(report)], args.out)
    elif args.format == "json":
        _emit(_json_dumps({"flow": report.flow.name,
                           "roles": svgplot.cell_roles(report)}), args.out)
    else:
        block = None
        try:
            block = blocks.build_block(entry["flow"], entry["k"])
        except blocks.NoBlockError:
            pass
        _emit(svgplot.svg_chunks(report, block=block), args.out)
    return 0


# -- construct -------------------------------------------------------------------

def cmd_construct(args):
    from . import catalog
    name = args.name
    if name.startswith("catalog:"):
        name = name[len("catalog:"):]
    entry = catalog.build(name, args.resolution)
    body = entry["flow"].to_json()
    body["name"] = entry["name"]
    body["ring"] = entry["ring"]
    if entry["k"]:
        body["k"] = sorted(entry["k"])
    _emit(_json_dumps(body), args.out)
    return 0


# -- homology --------------------------------------------------------------------

def _homology_rows(groups):
    rows = []
    for d, h in enumerate(groups):
        rows.append({"degree": d, "rank": h["rank"],
                     "torsion": list(h["torsion"])})
    return rows


def _homology_target(args):
    """(complex, default ring, k or None). A bare name of a space, one that
    is neither a file nor a `catalog:` spec, builds the space without
    consulting the catalog, whose names are disjoint from the spaces'; a
    file or `catalog:` spec that fails to load reports its error."""
    target = args.target
    is_spec = target.startswith("catalog:") or os.path.exists(target)
    if target in SPACES and not is_spec:
        return named_space(target, args.resolution), "z", None
    try:
        entry = _load_target(target, args.resolution)
    except FlowError:
        if is_spec:
            raise
        raise FlowError("unreadable-input",
                        "%r is neither a file, a catalog flow nor a "
                        "named complex" % target)
    return entry["flow"].cx, entry["ring"], entry["k"]


def cmd_homology(args):
    from . import algebra
    cx, default_ring, k = _homology_target(args)
    ring = args.ring or default_ring
    outside = sorted(set(k or ()).difference(cx.top_cells()))
    if outside:
        # the line analyze prints for the same file
        from .attractor import NotIsolatedError
        raise NotIsolatedError("k contains %s which is not a top cell"
                               % outside[0])
    rows = _homology_rows(algebra.homology(cx, ring=ring))
    pair = None
    if k:
        kbar = cx.closure(k)
        pair = algebra.poly_to_string(
            algebra.poincare_polynomial(cx, rel=kbar, ring=ring))
    if args.format == "json":
        payload = {"complex": cx.name, "ring": ring, "homology": rows}
        if pair is not None:
            payload["pair_polynomial"] = pair
        _emit(_json_dumps(payload), args.out)
    elif args.format == "csv":
        lines = ["degree,rank,torsion"]
        lines.extend("%d,%d,%s" % (r["degree"], r["rank"],
                                   ";".join(str(t) for t in r["torsion"]))
                     for r in rows)
        _emit(["\n".join(lines) + "\n"], args.out)
    else:
        lines = ["%s over %s" % (cx.name, ring)]
        for r in rows:
            tor = ("  torsion " + ",".join(str(t) for t in r["torsion"])
                   if r["torsion"] else "")
            lines.append("H_%d: rank %d%s" % (r["degree"], r["rank"], tor))
        if pair is not None:
            lines.append("pair polynomial relative to k: %s" % pair)
        _emit(["\n".join(lines) + "\n"], args.out)
    return 0


# -- wiring ----------------------------------------------------------------------

def _parser():
    ap = argparse.ArgumentParser(
        prog="conleylab",
        description="attractor classification over finite cell complexes")
    sub = ap.add_subparsers(dest="command", required=True)

    # each subcommand declares only the flags it reads
    def common(p, formats, default):
        p.add_argument("target",
                       help="catalog:NAME or a flow file path")
        p.add_argument("--resolution", type=int, default=None,
                       help="grid resolution for catalog recipes")
        p.add_argument("--format", choices=formats, default=default)
        p.add_argument("--out", default=None, help="write output to this file")

    def add_refine(p):
        p.add_argument("--refine", type=int, default=0,
                       help="times to rebuild a catalog entry at twice its "
                       "resolution while the verdict is Unknown")

    p = sub.add_parser("analyze", help="classify an attractor candidate")
    common(p, ["json", "text"], "text")
    add_refine(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("verify", help="run the structural result checks")
    p.add_argument("--only", default=None, help="run a single check id")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("plot", help="draw the analysis as svg, csv or text")
    common(p, ["svg", "csv", "text", "json"], "svg")
    add_refine(p)
    p.set_defaults(fn=cmd_plot)

    p = sub.add_parser("construct", help="write a catalog flow to a file")
    p.add_argument("name", help="catalog recipe name")
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("homology", help="homology of a flow's complex")
    common(p, ["json", "csv", "text"], "text")
    p.add_argument("--ring", choices=["z", "z2"], default=None,
                   help="coefficient ring (default: the entry's ring)")
    p.set_defaults(fn=cmd_homology)
    return ap


def main(argv=None):
    args = _parser().parse_args(argv)
    # the collector is paused for the command (see the module docstring)
    with collector_paused():
        try:
            return args.fn(args)
        except ConleyError as err:
            sys.stderr.write("error[%s]: %s\n" % (err.code, err))
            return 1


if __name__ == "__main__":
    sys.exit(main())
