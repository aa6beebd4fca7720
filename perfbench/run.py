#!/usr/bin/env python3
"""Repository benchmark of the GraphDynS reproduction.

    python3 perfbench/run.py --workload dense|road|matrix --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the measuring program (perfbench.cc, against ../src) into
.bench_build/, runs one workload in scratch space there, certifies every
simulated output, and prints each metric by name and unit. The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics of BENCHMARK.json under --trace 0
and its per-layer metrics under --trace 1. Any certification failure
makes the exit status 1. The traced run also writes its spans as Chrome
trace-event JSON to .bench_build/results/.

Workloads (rationale in BENCHMARK.json):
  dense   PR (10 iterations) and CC on four Graph500 RMAT graphs of
          scale 14 generated from --seed; GraphDynS, Graphicionado and
          Gunrock.
  road    BFS and SSSP over paths of road-network diameter with seeded
          weights and source; GraphDynS on a long road, all three
          systems on a short one.
  matrix  the cold Fig. 6 evaluation matrix (90 cells) at GDS_SCALE=64
          on one worker per CPU, then the same call served warm from the
          result cache. Its inputs are the Table 4 registry seeds.
"""

import argparse
import ctypes
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import metrics as M

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("dense", "road", "matrix")
MATRIX_SCALE = "64"
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000  # <sys/personality.h>
SPEEDUP_METRIC = {"Graphicionado": "speedup_gi", "Gunrock": "speedup_gunrock"}
SURROGATE_NOTE = ("inputs are scaled synthetic surrogates, so the error "
                  "measures the shape of the result, not a validated model")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cpus():
    return len(os.sched_getaffinity(0))


def fixed_layout():
    """Run the child at a fixed address-space layout, so that its host
    times do not also vary with where the loader put heap, stack and
    libraries in this particular process."""
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)


def build():
    """Configure once, then bring the measuring program up to date."""
    tree = BUILD / "perfbench"
    if not (tree / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(tree),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(tree), "-j", str(cpus())],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return tree / "perfbench"


def bench_env(workload):
    """The simulator's knobs come only from here, never from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GDS_")}
    env["GDS_SCALE"] = MATRIX_SCALE
    env["GDS_JOBS"] = str(cpus()) if workload == "matrix" else "1"
    return env


def measure(binary, workload, seed, seconds, trace):
    """Run the measuring program; return its raw output and manifests."""
    work = BUILD / "work" / ("%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload, seed, trace)
    raw_path = results / (stem + ".raw.json")
    trace_path = results / (stem + ".trace.json")
    log_path = results / (stem + ".log")
    for stale in (raw_path, trace_path):
        stale.unlink(missing_ok=True)
    with open(log_path, "w") as err:
        proc = subprocess.run(
            [str(binary), "run", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--out", str(raw_path), "--trace-file", str(trace_path)],
            cwd=work, env=bench_env(workload), stdout=err, stderr=err,
            timeout=RUN_TIMEOUT_S, preexec_fn=fixed_layout)
    if proc.returncode != 0:
        log(log_path.read_text()[-4000:])
        raise RuntimeError("measuring program exited %d" % proc.returncode)
    raw = json.loads(raw_path.read_text())
    manifests = [json.loads((work / rep["manifest"]).read_text())
                 for rep in raw["reps"] if rep["manifest"]]
    warm = work / "manifest_warm.json"
    raw["warm_manifest"] = json.loads(warm.read_text()) if warm.exists() else None
    spans = (M.spans_from_trace(json.loads(trace_path.read_text()))
             if trace else [])
    shutil.rmtree(work)
    return raw, manifests, spans, trace_path


def cells_of(raw, manifests):
    """Per untraced-or-traced repetition: its cells as dicts."""
    if raw["workload"] == "matrix":
        return [M.matrix_cells(raw["records"], m) for m in manifests]
    return [rep["runs"] for rep in raw["reps"]]


def end_to_end(raw, manifests):
    reps = raw["reps"]
    untraced = [i for i, r in enumerate(reps) if not r["traced"]]
    cells = cells_of(raw, manifests)
    first = cells[0]
    out = {
        "setup_s": M.median([s["wall_s"] for s in raw["setup"]]),
        "wall_s": M.median([reps[i]["wall_s"] for i in untraced]),
        "cpu_s": M.median([reps[i]["cpu_s"] for i in untraced]),
        "peak_rss_mb": raw["peak_rss_bytes"] / M.MIB,
        "sim_cycles_per_s": M.median(
            [M.cycles_per_second(cells[i]) for i in untraced]),
        "sim_gteps": M.geomean(
            c["gteps"] for c in first if c["system"] == "GraphDynS"),
    }
    ratios = {}
    for system, paper in M.PAPER_SPEEDUP.items():
        measured = M.geomean(M.speedups(first, system))
        ratios[system] = (measured, paper)
        out[SPEEDUP_METRIC[system]] = measured
    return out, ratios


def per_layer(raw, manifests, spans):
    runs = M.group_runs(spans)
    reps = raw["reps"]
    matrix = raw["workload"] == "matrix"
    # Where the simulator cells run under the benchmark's own spans: the
    # timed repetitions of dense/road; for the matrix, whose cells run
    # inside the harness, the directly re-simulated FR column.
    sim_kind = "bench.probe" if matrix else "bench.rep"
    check_kind = "bench.probe" if matrix else "bench.certify"
    total = lambda kind, name: M.span_total(runs, kind, name)
    out = {
        "graph.generate_s": total("bench.setup", "graph.generate"),
        "graph.save_s": total("bench.setup", "graph.save"),
        "graph.load_s": total("bench.setup", "graph.load"),
        "graph.heap_mb": raw["setup"][0]["heap_bytes"] / M.MIB,
        "graph.mapped_mb": raw["setup"][0]["mapped_bytes"] / M.MIB,
        "harness.warm_s": raw["warm"]["wall_s"],
        "core.run_s": total(sim_kind, "core.run"),
        "baseline.gi_run_s": total(sim_kind, "baseline.gi_run"),
        "energy.model_s": total(sim_kind, "energy.model"),
        "algo.validate_s": total(check_kind, "algo.validate"),
        "trace.overhead_s":
            M.median([r["wall_s"] for r in reps if r["traced"]]) -
            M.median([r["wall_s"] for r in reps if not r["traced"]]),
    }
    if matrix:
        sim_runs = raw["probes"]
        per_rep = []
        for rep, manifest in zip(reps, manifests):
            cells = [c for c in manifest["cells"] if not c["cached"]]
            walls = [c["wallLoadSeconds"] + c["wallSimSeconds"] +
                     c["wallValidateSeconds"] for c in cells]
            sim = lambda system: sum(c["wallSimSeconds"] for c in cells
                                     if c["system"] == system)
            per_rep.append({
                "harness.cell_load_s": sum(c["wallLoadSeconds"]
                                           for c in cells),
                "harness.cell_sim_s.gds": sim("GraphDynS"),
                "harness.cell_sim_s.gi": sim("Graphicionado"),
                "harness.cell_sim_s.gunrock": sim("Gunrock"),
                "harness.cell_model_s": sum(c["wallValidateSeconds"]
                                            for c in cells),
                "harness.longest_cell_s": max(walls),
                "harness.worker_busy": M.worker_busy(walls, rep["wall_s"],
                                                     raw["jobs"]),
            })
        for key in per_rep[0]:
            out[key] = M.median([p[key] for p in per_rep])
        warm = raw["warm_manifest"]["cells"]
        out["harness.warm_hit_ratio"] = (
            sum(1 for c in warm if c["cached"]) / len(warm))
    else:
        sim_runs = reps[0]["runs"]
        timed = [members for kind, members in runs.values()
                 if kind == "bench.rep"]
        cell = lambda members: [s["dur"] for s in members
                                if s["name"] == "bench.cell"]
        root = lambda members: next(s["dur"] for s in members
                                    if s["parent"] == 0)
        out.update({
            "harness.cell_load_s": total("bench.rep", "graph.load"),
            "harness.cell_sim_s.gds": out["core.run_s"],
            "harness.cell_sim_s.gi": out["baseline.gi_run_s"],
            "harness.cell_sim_s.gunrock":
                total("bench.rep", "baseline.gunrock_run"),
            "harness.cell_model_s": out["energy.model_s"],
            "harness.longest_cell_s": M.median([max(cell(m)) for m in timed]),
            "harness.worker_busy": M.median(
                [M.worker_busy(cell(m), root(m), 1) for m in timed]),
            "harness.warm_hit_ratio":
                raw["warm"]["hits"] / raw["warm"]["lookups"],
        })
    counts = M.count_metrics(sim_runs)
    out.update(counts)
    gds = [r for r in sim_runs if r["system"] == "GraphDynS"]
    gi = [r for r in sim_runs if r["system"] == "Graphicionado"]
    out["core.ns_per_stepped_cycle"] = out["core.run_s"] * 1e9 / sum(
        r["stepped_cycles"] for r in gds)
    out["core.ns_per_edge"] = out["core.run_s"] * 1e9 / counts["core.edges"]
    out["core.us_per_iteration"] = (out["core.run_s"] * 1e6 /
                                    counts["core.iterations"])
    out["baseline.gi_ns_per_stepped_cycle"] = out["baseline.gi_run_s"] * \
        1e9 / sum(r["stepped_cycles"] for r in gi)
    for layer, seconds in M.layer_self_seconds(runs).items():
        out[layer + ".self_s"] = seconds
    return out


def fmt(value):
    return "%.6g" % value


def report(raw, spec, e2e, ratios, layers, trace, trace_path):
    failures = raw["certify"]["failures"]
    attempted = raw["certify"]["attempted"]
    reps = raw["reps"]
    log("workload %s, seed %d: %d set-ups, %d repetitions (%d traced)"
        % (raw["workload"], raw["seed"], len(raw["setup"]), len(reps),
           sum(1 for r in reps if r["traced"])))
    shown = [(m, e2e) for m in spec["end_to_end"]]
    if trace:
        shown += [(m, layers) for m in spec["per_layer"]]
    for m, values in shown:
        print("  %-34s %14s %s" % (m["name"], fmt(values[m["name"]]),
                                   m["unit"]))
    for system, (measured, paper) in ratios.items():
        print("  GraphDynS over %-14s GM speed-up %.3fx, paper %.1fx, "
              "relative error %.3f" % (system, measured, paper,
                                       M.paper_error(measured, paper)))
    print("  note: " + SURROGATE_NOTE)
    print("  fail_ratio %d/%d (certification checks failed / attempted)"
          % (len(failures), attempted))
    for f in failures[:20]:
        print("  FAILED: " + f)
    if trace:
        print("  spans: " + str(trace_path.relative_to(ROOT)))


def result_line(raw, chosen, values):
    """The final JSON object: certification verdict and chosen metrics."""
    failed = len(raw["certify"]["failures"])
    return {
        "correct": failed == 0,
        "attempted": raw["certify"]["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in chosen},
    }


def self_test():
    """Unit tests of metrics.py, then the certification self-test."""
    here = Path(__file__).resolve().parent
    suite = unittest.defaultTestLoader.discover(str(here),
                                                pattern="test_*.py")
    ok = unittest.TextTestRunner(stream=sys.stderr).run(suite).wasSuccessful()
    work = BUILD / "work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ok = subprocess.run([str(build()), "selftest"], cwd=work,
                        env=bench_env("selftest")).returncode == 0 and ok
    shutil.rmtree(work)
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        binary = build()
        raw, manifests, spans, trace_path = measure(
            binary, args.workload, args.seed, args.seconds, args.trace)
    except (subprocess.SubprocessError, RuntimeError, OSError) as e:
        log("perfbench: %s" % e)
        return 2
    try:
        e2e, ratios = end_to_end(raw, manifests)
        layers = per_layer(raw, manifests, spans) if args.trace else {}
    except (ValueError, ZeroDivisionError) as e:
        # Only a failed run lacks the cells a metric needs.
        log("perfbench: no metrics (%s); certification failures: %s"
            % (e, raw["certify"]["failures"][:20]))
        return 1
    report(raw, spec, e2e, ratios, layers, args.trace, trace_path)
    line = result_line(raw, spec["per_layer"] if args.trace
                       else spec["end_to_end"], layers if args.trace else e2e)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
