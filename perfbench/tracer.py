"""Run one conleylab CLI call with spans around each module's public calls.

    python perfbench/tracer.py SPANS_OUT OP_ID CLI_ARG...

Needs `src` on PYTHONPATH. The process starts as cold as an untraced
`python -m conleylab.cli` call does. Wrappers are installed on module and
class attributes from here, so the package itself is not edited. Spans stay
in memory and are written to SPANS_OUT when the call returns or raises.
Each span has name, start, end, parent (index of the enclosing span or
None), the operation id shared by every span of the call, and the counts
the wrapper read off the call's arguments or result.
"""

import functools
import json
import sys
import time

clock = time.perf_counter


class Tracer:
    def __init__(self, op_id):
        self.op_id = op_id
        self.spans = []
        self.stack = []

    def record(self, name, start, end=None):
        span = {"name": name, "start": start, "end": end,
                "parent": self.stack[-1] if self.stack else None,
                "op": self.op_id, "counts": {}}
        self.spans.append(span)
        return span

    def wrap(self, name, fn, counts=None):
        """fn with a span around each call. `name` is a string or a function
        of the call's arguments; `counts(args, kwargs, result)` gives a dict."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.record(name(args, kwargs) if callable(name) else name,
                               clock())
            self.stack.append(len(self.spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span["end"] = clock()
            if counts is not None:
                span["counts"] = counts(args, kwargs, out)
            return out
        return traced

    def patch(self, owner, attr, name, counts=None):
        fn = getattr(owner, attr)
        if isinstance(owner, type) and isinstance(owner.__dict__[attr],
                                                  classmethod):
            setattr(owner, attr, classmethod(self.wrap(name, fn.__func__,
                                                       counts)))
        else:
            setattr(owner, attr, self.wrap(name, fn, counts))


def _ring(args, kwargs):
    ring = kwargs.get("ring", args[1] if len(args) > 1 else "z")
    return "algebra.homology_" + ring


def _sweep_cells(args, kwargs, report):
    # J+ enclosures over basin - k and J- over (K^ - k) & (basin - k);
    # a stable k returns before either sweep
    k = frozenset(args[1])
    if report.stabilization == k:
        return {"sweep_cells": 0}
    within = report.basin - k
    return {"sweep_cells": len(within)
            + len((report.stabilization - k) & within)}


def install(tr):
    """Wrap the public calls of every layer the benchmark reports on."""
    from conleylab import (algebra, attractor, blocks, catalog, cli,
                           complexes, flow, theorems)
    tr.patch(cli, "_load_file", "cli.load")
    tr.patch(cli, "_json_dumps", "cli.emit")
    tr.patch(cli, "_emit", "cli.emit")
    tr.patch(attractor.AttractorReport, "to_json", "cli.emit")
    tr.patch(theorems.CheckResult, "to_json", "cli.emit")
    tr.patch(complexes.CellComplex, "from_json", "complexes.from_json",
             lambda a, kw, cx: {
                 "cells": len(cx.cells),
                 "boundary_nnz": sum(len(b) for b in cx.boundary.values())})
    tr.patch(flow.CombinatorialFlow, "__init__", "flow.init",
             lambda a, kw, _: {
                 "tops": len(a[0].tops),
                 "edges": sum(len(s) for s in a[0].succ.values())})
    for stage in ("check_isolated", "stabilization", "basin",
                  "unstable_manifold", "components"):
        tr.patch(attractor, stage, "attractor." + stage)
    tr.patch(attractor, "classify", "attractor.classify", _sweep_cells)
    tr.patch(blocks, "build_block", "blocks.build_block",
             lambda a, kw, block: {"n_cells": len(block.n),
                                   "flow": a[0].name})
    tr.patch(algebra, "homology", _ring)
    tr.patch(algebra, "poincare_polynomial", "algebra.poincare_polynomial")
    tr.patch(catalog, "build", "catalog.build")
    tr.patch(catalog, "analysis", "catalog.analysis")
    theorems._REGISTRY[:] = [(cid, title, tr.wrap("theorems." + cid, fn))
                             for cid, title, fn in theorems._REGISTRY]
    return cli


def main(argv):
    out_path, op_id, cli_args = argv[0], argv[1], argv[2:]
    tr = Tracer(op_id)
    start = clock()
    import conleylab.cli  # noqa: F401  (the timed cold import)
    tr.record("cli.import", start, clock())
    cli = install(tr)
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tr.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
