"""conleylab benchmark: closed-loop CLI workloads, checked outputs, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from `src`.
NAME is one of analyze-ladder, homology-ladder, verify-registry, or `all`
for each in turn. One client runs one CLI operation at a time, each in a
fresh `python -m conleylab.cli` process, and waits for it. See
perfbench/README.md for the workloads, the metrics and the layer map.

With --trace 0 the run measures the end-to-end metrics of NAME. With
--trace 1 it profiles one pass of every workload, each operation once
untraced and once under perfbench/tracer.py, and reports the per-layer
metrics. The last line of stdout is one JSON object; a human summary and
perfbench/_out/result-*.json come before it.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")

# Wall time of one pass, its speed probes included, at the commit that
# defined the benchmark on a 2-CPU Xeon. A run is round(seconds / PASS_S)
# whole passes, so every run of every commit times the same operations and
# the percentiles keep their rank.
PASS_S = {"analyze-ladder": 10.0, "homology-ladder": 8.5,
          "verify-registry": 1.4}
SETUP_REPS = 3
# The speed of a shared machine drifts by half or more over tens of seconds,
# which no count of passes in a 30 s run averages out. So every set-up and
# operation is bracketed by runs of perfbench/probe.py, fixed work that
# follows only the machine, and its wall time is reported scaled to a
# machine on which the probe takes PROBE_S: wall * PROBE_S / (mean of the
# probes before and after it). PROBE_S is the probe's median on a quiet
# 2-CPU Xeon; raw wall times go to the result file next to the scaled ones.
PROBE = os.path.join(HERE, "probe.py")
PROBE_S = 0.21
PROBE_OUT = "37660 37660"
# No pass starts after this many seconds, and an operation still running at
# HARD_S is killed and counted as failed, so a run ends well inside 180 s.
STOP_S = 120.0
HARD_S = 165.0

E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
             "ops_per_s": "1/s", "peak_rss_mb": "MB"}

LAYER_TIMES = (["cli.load", "cli.emit", "complexes.from_json", "flow.init"]
               + ["attractor." + s for s in (
                   "check_isolated", "stabilization", "basin",
                   "unstable_manifold", "components", "classify")]
               + ["blocks.build_block", "algebra.homology_z",
                  "algebra.homology_z2", "algebra.poincare_polynomial",
                  "catalog.build", "catalog.analysis"]
               + ["theorems." + cid for cid in workloads.VERIFY_IDS])
# Layer times are inclusive, except these: the file read and JSON parse of
# `_load_file`, without the from_json validation reported by its own layers.
SELF_TIMED = {"cli.load"}
# count metric -> (span it is read from, count key)
LAYER_COUNTS = {"complexes.cells": ("complexes.from_json", "cells"),
                "complexes.boundary_nnz": ("complexes.from_json",
                                           "boundary_nnz"),
                "flow.tops": ("flow.init", "tops"),
                "flow.edges": ("flow.init", "edges"),
                "attractor.sweep_cells": ("attractor.classify",
                                          "sweep_cells"),
                "blocks.n_cells": ("blocks.build_block", "n_cells")}
# fit tag -> (span timed, size read from the op's first span of this name)
FITS = {"attractor.classify.exp": ("attractor.classify", "flow.init", "tops"),
        "attractor.basin.exp": ("attractor.basin", "flow.init", "tops"),
        "algebra.homology_z.exp": ("algebra.homology_z",
                                   "complexes.from_json", "cells"),
        "algebra.homology_z2.exp": ("algebra.homology_z2",
                                    "complexes.from_json", "cells")}
# The ROADMAP asks for flow stages linear in cells plus edges and homology
# near-linear after reduction; fitted exponents are printed against this.
FIT_TARGET = 1.2


class BenchError(RuntimeError):
    pass


# -- child processes ----------------------------------------------------------

def child_env(seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # same seed, same string hashing, so a run's work is reproducible
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    return env


def spawn(argv, env, cwd, stdout_path, stderr_path, deadline):
    """Run argv to completion. Returns (wall seconds, exit code, peak RSS in
    MB of that child alone, from its wait4 rusage)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=cwd)
        killer = threading.Timer(max(0.1, deadline - time.monotonic()),
                                 proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


# -- output checks --------------------------------------------------------------

def check_output(op, code, stdout, stderr, manifest):
    """None when the operation's output matches its reference, else why."""
    if code != 0:
        return "exit %d: %s" % (code, stderr.strip()[-200:])
    if "Traceback" in stderr:
        return "traceback on stderr"
    try:
        out = json.loads(stdout)
    except ValueError as exc:
        return "stdout is not json: %s" % exc
    ref = op["ref"]
    if op["check"] == "analyze":
        info = manifest[op["file"]]
        got = {key: out.get(key) for key in ("classification", "r", "s",
                                             "global")}
        if got != ref:
            return "got %s, expected %s" % (got, ref)
        if out.get("k") != info["k"] or out.get("flow") != info["name"]:
            return "k or flow name not echoed"
        if out.get("refinements") != 0:
            return "refined without --refine"
    elif op["check"] == "homology":
        rows = [(r["rank"], r["torsion"]) for r in out.get("homology", [])]
        want = [(rank, list(tor)) for rank, tor in ref["rows"]]
        if out.get("ring") != ref["ring"] or rows != want:
            return "homology %s over %s, expected %s" % (
                rows, out.get("ring"), want)
        if out.get("pair_polynomial") != ref["pair"]:
            return "pair polynomial %r, expected %r" % (
                out.get("pair_polynomial"), ref["pair"])
    else:
        ids = [r.get("id") for r in out]
        bad = [r.get("id") for r in out if r.get("status") != "pass"]
        if ids != ref["ids"] or bad:
            return "checks %s, failing %s" % (ids, bad)
    return None


class Runner:
    """Runs and checks operations of one workload from one input directory."""

    def __init__(self, workload, seed, smoke, work, deadline):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.work = work
        self.deadline = deadline
        self.env = child_env(seed)
        self.ops = workloads.operations(workload, smoke)
        self.manifest = {}
        self.attempted = 0
        self.failures = []

    def setup(self, indir):
        """Generate the inputs into indir and run the warm-up operation.
        Returns the wall time of both."""
        start = time.perf_counter()
        argv = [sys.executable, os.path.join(HERE, "gen.py"), self.workload,
                str(self.seed), indir] + (["--smoke"] if self.smoke else [])
        log = os.path.join(self.work, "gen")
        _, code, _ = spawn(argv, self.env, ROOT, log + ".out", log + ".err",
                           self.deadline)
        if code != 0:
            with open(log + ".err") as fh:
                raise BenchError("input generation failed: %s"
                                 % fh.read()[-400:])
        with open(os.path.join(indir, "manifest.json")) as fh:
            self.manifest = json.load(fh)
        self.indir = indir
        self.run_op(self.ops[0])
        return time.perf_counter() - start

    def probe(self):
        """Wall time of one run of the speed probe."""
        base = os.path.join(self.work, "probe")
        wall, code, _ = spawn([sys.executable, PROBE], self.env, ROOT,
                              base + ".out", base + ".err", self.deadline)
        with open(base + ".out") as fh:
            if code != 0 or fh.read().strip() != PROBE_OUT:
                raise BenchError("speed probe failed (exit %d)" % code)
        return wall

    def argv(self, op, trace_to=None):
        args = [os.path.join(self.indir, a) if a == op["file"] else a
                for a in op["args"]]
        if trace_to is None:
            return [sys.executable, "-m", "conleylab.cli"] + args
        return ([sys.executable, os.path.join(HERE, "tracer.py"), trace_to,
                 op["id"]] + args)

    def run_op(self, op, trace_to=None):
        """Run one operation; returns (wall, peak RSS MB, ok)."""
        base = os.path.join(self.work, "op")
        wall, code, rss = spawn(self.argv(op, trace_to), self.env, ROOT,
                                base + ".out", base + ".err", self.deadline)
        with open(base + ".out") as fh:
            stdout = fh.read()
        with open(base + ".err") as fh:
            stderr = fh.read()
        try:
            why = check_output(op, code, stdout, stderr, self.manifest)
        except (AttributeError, KeyError, TypeError) as exc:
            why = "output not in the expected shape: %r" % exc
        self.attempted += 1
        if why:
            self.failures.append("%s: %s" % (op["id"], why))
        return wall, rss, why is None


# -- statistics -----------------------------------------------------------------

def tail(walls):
    """(value, percentile, n): the highest-ranked sample that still has ten
    samples above it; with fewer than eleven samples, the smallest."""
    s = sorted(walls)
    i = max(0, len(s) - 11)
    return s[i], 100.0 * (i + 1) / len(s), len(s)


def slope(points):
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


# -- end-to-end run ---------------------------------------------------------------

def scaled(wall, before, after):
    """wall on a machine where the probe takes PROBE_S (see PROBE_S)."""
    return wall * 2.0 * PROBE_S / (before + after)


def run_e2e(workload, args, work, deadline):
    r = Runner(workload, args.seed, args.smoke, work, deadline)
    probes = [r.probe()]
    setups, raw_setups = [], []
    for i in range(1 if args.smoke else SETUP_REPS):
        indir = os.path.join(work, "in%d" % i)
        raw_setups.append(r.setup(indir))
        probes.append(r.probe())
        setups.append(scaled(raw_setups[-1], probes[-2], probes[-1]))
        if i:
            shutil.rmtree(os.path.join(work, "in%d" % (i - 1)))
    warm = r.attempted
    passes = max(1, round(args.seconds / PASS_S[workload]))
    walls, raw, rss, per_op = [], [], [], {}
    ok, done = 0, 0
    started = time.monotonic()
    for p in range(passes):
        if p and time.monotonic() - started > STOP_S:
            break
        cut = False
        for op in r.ops:
            cut = time.monotonic() >= deadline
            if cut:
                r.failures.append("time limit reached in pass %d" % p)
                break
            wall, peak, good = r.run_op(op)
            probes.append(r.probe())
            walls.append(scaled(wall, probes[-2], probes[-1]))
            raw.append(wall)
            rss.append(peak)
            ok += good
            per_op.setdefault(op["id"], []).append(walls[-1])
        if cut:
            break
        done += 1
    if not done:
        raise BenchError("no pass of %s completed in time" % workload)
    value, pct, n = tail(walls)
    metrics = {"setup_s": statistics.median(setups),
               "op_p50_s": statistics.median(walls),
               "op_tail_s": value,
               "ops_per_s": ok / sum(walls),
               "peak_rss_mb": max(rss)}
    detail = {
        "passes": done, "ops_timed": len(walls),
        "warmup_ops": warm, "setup_samples_s": setups,
        "op_tail": {"percentile": pct, "samples": n},
        "fail_ratio": len(r.failures) / r.attempted,
        "per_op_median_s": {k: statistics.median(v)
                            for k, v in per_op.items()},
        "raw_wall": {"setup_s": statistics.median(raw_setups),
                     "op_p50_s": statistics.median(raw),
                     "op_tail_s": tail(raw)[0],
                     "ops_per_s": ok / sum(raw)},
        "probe_s": {"median": statistics.median(probes),
                    "min": min(probes), "max": max(probes),
                    "samples": len(probes)},
        "failures": r.failures}
    return r, metrics, detail


# -- traced run --------------------------------------------------------------------

def self_times(spans):
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def outermost(spans):
    """Indices of spans with no enclosing span of the same name, so nested
    calls of one function are not counted twice."""
    keep = []
    for i, s in enumerate(spans):
        p = s["parent"]
        while p is not None and spans[p]["name"] != s["name"]:
            p = spans[p]["parent"]
        if p is None:
            keep.append(i)
    return keep


def run_trace(args, work, deadline):
    """One pass of every workload; each operation untraced, then traced."""
    runners, ops = [], []
    for w in workloads.NAMES:
        r = Runner(w, args.seed, args.smoke, os.path.join(work, w), deadline)
        os.makedirs(r.work)
        r.setup(os.path.join(r.work, "in"))
        runners.append(r)
        for op in r.ops:
            spans_path = os.path.join(r.work, "spans.json")
            plain, _, _ = r.run_op(op)
            traced, _, _ = r.run_op(op, trace_to=spans_path)
            with open(spans_path) as fh:
                spans = json.load(fh)
            ops.append({"workload": w, "op": op, "plain": plain,
                        "traced": traced, "spans": spans})
    totals = {name: 0.0 for name in LAYER_TIMES}
    counts = {name: 0 for name in LAYER_COUNTS}
    imports, fit_points, shares, blocks = [], {t: [] for t in FITS}, [], []
    for rec in ops:
        spans = rec["spans"]
        own = self_times(spans)
        for i in outermost(spans):
            s = spans[i]
            if s["name"] in totals:
                totals[s["name"]] += (own[i] if s["name"] in SELF_TIMED
                                      else s["end"] - s["start"])
        for s in spans:
            if s["name"] == "cli.import":
                imports.append(s["end"] - s["start"])
            for metric, (name, key) in LAYER_COUNTS.items():
                if s["name"] == name:
                    counts[metric] += s["counts"][key]
            if s["name"] == "blocks.build_block":
                blocks.append({"flow": s["counts"]["flow"],
                               "s": s["end"] - s["start"],
                               "n_cells": s["counts"]["n_cells"]})
        selfs = {}
        for s, t in zip(spans, own):
            selfs[s["name"]] = selfs.get(s["name"], 0.0) + t
        top = sorted(selfs.items(), key=lambda kv: -kv[1])[:4]
        shares.append({"op": rec["op"]["id"], "traced_s": rec["traced"],
                       "self_share": {k: v / rec["traced"] for k, v in top}})
        tag = rec["op"]["fit"]
        if tag:
            stage, size_span, key = FITS[tag]
            size = next(s["counts"][key] for s in spans
                        if s["name"] == size_span)
            fit_points[tag].append(
                (size, sum(s["end"] - s["start"] for s in spans
                           if s["name"] == stage)))
    metrics = {"cli.import_s": statistics.median(imports)}
    metrics.update((name + "_s", v) for name, v in totals.items())
    metrics.update(counts)
    fits = {}
    for tag, points in fit_points.items():
        by_size = {}
        for size, t in points:
            by_size.setdefault(size, []).append(t)
        med = sorted((size, statistics.median(ts))
                     for size, ts in by_size.items())
        metrics[tag] = slope(med)
        fits[tag] = {"points": med, "target": FIT_TARGET}
    metrics["trace.overhead_ratio"] = (sum(o["traced"] for o in ops)
                                       / sum(o["plain"] for o in ops))
    detail = {"ops_traced": len(ops), "fits": fits, "shares": shares,
              "blocks": blocks,
              "failures": [f for r in runners for f in r.failures]}
    with open(os.path.join(OUT, "spans-seed%d.json" % args.seed), "w") as fh:
        json.dump([s for rec in ops for s in rec["spans"]], fh)
    return runners, metrics, detail


# -- reporting -----------------------------------------------------------------------

def provenance(args, op_counts):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ,
                     GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
        commit = commit.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"seed": args.seed, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit,
            "smoke": args.smoke, "seconds": args.seconds,
            "operations": op_counts}


def units(metrics):
    out = {}
    for name, value in metrics.items():
        if name in E2E_UNITS:
            unit = E2E_UNITS[name]
        elif name.endswith("_s"):
            unit = "s"
        elif name.endswith(".exp"):
            unit = "slope"
        elif name.endswith("_ratio"):
            unit = "ratio"
        else:
            unit = "count"
        out[name] = {"value": value, "unit": unit}
    return out


def print_e2e(workload, metrics, detail):
    fail = detail["fail_ratio"]
    print("%s: %d passes, %d ops timed, fail_ratio %.4g ratio"
          % (workload, detail["passes"], detail["ops_timed"], fail))
    for name, m in units(metrics).items():
        extra = ""
        if name in detail["raw_wall"]:
            extra = "  (raw wall %.6g)" % detail["raw_wall"][name]
        if name == "op_tail_s":
            extra += "  (p%.1f of %d samples)" % (
                detail["op_tail"]["percentile"], detail["op_tail"]["samples"])
        print("  %-12s %12.6g %s%s" % (name, m["value"], m["unit"], extra))
    probe = detail["probe_s"]
    print("  probe: median %.4g s, min %.4g s, max %.4g s over %d runs"
          % (probe["median"], probe["min"], probe["max"], probe["samples"]))
    for f in detail["failures"]:
        print("  FAILED %s" % f)


def print_trace(metrics, detail):
    for row in detail["shares"]:
        parts = ", ".join("%s %.0f%%" % (k, 100 * v)
                          for k, v in row["self_share"].items())
        print("  %-40s %8.3f s  self: %s" % (row["op"], row["traced_s"],
                                              parts))
    for tag, fit in detail["fits"].items():
        print("  %-26s slope %.3f over %s (target <= %.1f)"
              % (tag, metrics[tag],
                 ", ".join("%d:%.4fs" % p for p in fit["points"]),
                 fit["target"]))
    for name, m in units(metrics).items():
        print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    for f in detail["failures"]:
        print("  FAILED %s" % f)


def write_result(name, payload):
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.NAMES) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny ladders, one pass: the benchmark's own test")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "conleylab", "cli.py")):
        sys.stderr.write("perfbench: no conleylab sources under %s\n" % SRC)
        return 2
    deadline = time.monotonic() + HARD_S
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(work)
    try:
        if args.trace:
            runners, metrics, detail = run_trace(args, work, deadline)
            print_trace(metrics, detail)
            write_result("result-trace-seed%d.json" % args.seed, {
                "metrics": units(metrics), "detail": detail,
                "provenance": provenance(
                    args, {r.workload: r.attempted for r in runners})})
            final = units(metrics)
        else:
            names = (workloads.NAMES if args.workload == "all"
                     else [args.workload])
            runners, final = [], {}
            for w in names:
                wdir = os.path.join(work, w)
                os.makedirs(wdir)
                r, metrics, detail = run_e2e(w, args, wdir, deadline)
                print_e2e(w, metrics, detail)
                write_result("result-%s-seed%d.json" % (w, args.seed), {
                    "workload": w, "metrics": units(metrics),
                    "detail": detail,
                    "provenance": provenance(args, {w: r.attempted})})
                runners.append(r)
                prefix = w + "/" if len(names) > 1 else ""
                final.update((prefix + k, v)
                             for k, v in units(metrics).items())
    except BenchError as err:
        sys.stderr.write("perfbench: %s\n" % err)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(len(r.failures) for r in runners)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r.attempted for r in runners),
                      "failed": failed, "metrics": final}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
