"""Arithmetic of the benchmark: every metric is derived here from the raw
output of the measuring program (raw JSON, span trace, matrix manifests).

Kept free of I/O so test_metrics.py can check each formula by hand.
"""

import math
import statistics

# Paper's geometric-mean speed-ups of GraphDynS (EXPERIMENTS.md, Fig. 6).
PAPER_SPEEDUP = {"Graphicionado": 1.9, "Gunrock": 4.4}

# Systems whose runs are cycle-level simulations (GunrockSim is a model).
CYCLE_SYSTEMS = ("GraphDynS", "Graphicionado")

# Layers that own spans: the simulator's modules plus the benchmark's
# own glue ("bench").
SPAN_LAYERS = ("bench", "graph", "harness", "core", "baseline", "energy",
               "algo")

MIB = float(1 << 20)


def median(values):
    return statistics.median(values)


def geomean(values):
    """Geometric mean; every value must be positive."""
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values, got %r" % values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def skip_fraction(stepped, skipped):
    """Share of simulated cycles the fast-forward engine skipped."""
    total = stepped + skipped
    return skipped / total if total else 0.0


def paper_error(measured, paper):
    """Relative distance of a measured ratio from the paper's value."""
    return abs(measured / paper - 1.0)


def worker_busy(cell_seconds, wall_seconds, workers):
    """Share of the workers' time spent inside cells."""
    return sum(cell_seconds) / (wall_seconds * workers)


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, end = 0.0, lo
    for a, b in clipped:
        a = max(a, end)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Span id -> its duration minus the part its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(
            (s["start"], s["start"] + s["dur"]))
    return {s["id"]: s["dur"] - covered(children.get(s["id"], []),
                                        s["start"], s["start"] + s["dur"])
            for s in spans}


def spans_from_trace(trace):
    """Chrome trace-event JSON -> span dicts (times in seconds)."""
    return [{"name": e["name"], "start": e["ts"] * 1e-6,
             "dur": e["dur"] * 1e-6, "id": e["args"]["id"],
             "parent": e["args"]["parent"], "run": e["args"]["run"]}
            for e in trace["traceEvents"] if e.get("ph") == "X"]


def group_runs(spans):
    """Workload runs: run id -> (kind, spans), kind = its root's name."""
    runs = {}
    for s in spans:
        runs.setdefault(s["run"], [None, []])[1].append(s)
        if s["parent"] == 0:
            runs[s["run"]][0] = s["name"]
    return {rid: (kind, members) for rid, (kind, members) in runs.items()}


def span_total(runs, kind, name):
    """Median, over the runs of one kind, of the summed duration of the
    spans called `name` (0 for a run that makes no such call)."""
    return median([sum(s["dur"] for s in members if s["name"] == name)
                   for k, members in runs.values() if k == kind])


def layer_self_seconds(runs):
    """Layer -> self time of one workload pass: per run kind, the median
    over runs of that kind of the layer's summed self time, then summed
    over kinds (set-up + repetition + certification + warm pass ...)."""
    by_kind = {}
    for kind, members in runs.values():
        selfs = self_times(members)
        per_layer = {layer: 0.0 for layer in SPAN_LAYERS}
        for s in members:
            layer = s["name"].split(".", 1)[0]
            if layer in per_layer:
                per_layer[layer] += selfs[s["id"]]
        by_kind.setdefault(kind, []).append(per_layer)
    return {layer: sum(median([p[layer] for p in passes])
                       for passes in by_kind.values())
            for layer in SPAN_LAYERS}


def speedups(results, baseline):
    """Baseline-over-GraphDynS simulated-time ratios, matched by
    (algorithm, dataset). `results` are dicts with system, algorithm,
    dataset and sim_seconds."""
    gds = {(r["algorithm"], r["dataset"]): r["sim_seconds"]
           for r in results if r["system"] == "GraphDynS"}
    return [r["sim_seconds"] / gds[(r["algorithm"], r["dataset"])]
            for r in results
            if r["system"] == baseline
            and (r["algorithm"], r["dataset"]) in gds]


def weighted_mean(values, weights):
    total = sum(weights)
    return sum(v * w for v, w in zip(values, weights)) / total if total else 0.0


def count_metrics(runs):
    """Simulated statistics of one repetition's cells (deterministic)."""
    gds = [r for r in runs if r["system"] == "GraphDynS"]
    cyc = [r for r in runs if r["system"] in CYCLE_SYSTEMS]
    stepped = sum(r["stepped_cycles"] for r in cyc)
    skipped = sum(r["skipped_cycles"] for r in cyc)
    traffic = [r["read_bytes"] + r["write_bytes"] for r in gds]
    return {
        "core.sim_cycles": sum(r["cycles"] for r in gds),
        "core.iterations": sum(r["iterations"] for r in gds),
        "core.edges": sum(r["edges"] for r in gds),
        "core.sched_ops": sum(r["sched_ops"] for r in gds),
        "core.atomic_stalls": sum(r["atomic_stalls"] for r in gds),
        "core.updates_skipped": sum(r["updates_skipped"] for r in gds),
        "sim.stepped_cycles": stepped,
        "sim.skipped_cycles": skipped,
        "sim.skip_windows": sum(r["skip_windows"] for r in cyc),
        "sim.skip_fraction": skip_fraction(stepped, skipped),
        "mem.read_mb": sum(r["read_bytes"] for r in gds) / MIB,
        "mem.write_mb": sum(r["write_bytes"] for r in gds) / MIB,
        "mem.row_hit_rate": weighted_mean(
            [r["row_hit_rate"] for r in gds], traffic),
        "mem.bw_util": weighted_mean([r["bw_util"] for r in gds],
                                     [r["cycles"] for r in gds]),
        "mem.xbar_conflicts": sum(r["xbar_conflicts"] for r in gds),
        "energy.gds_mj": sum(r["energy_j"] for r in gds) * 1e3,
    }


def cycles_per_second(runs):
    """Simulated cycles per host second over the cycle-level cells."""
    cyc = [r for r in runs if r["system"] in CYCLE_SYSTEMS]
    return sum(r["cycles"] for r in cyc) / sum(r["run_s"] for r in cyc)


def matrix_cells(records, manifest):
    """Join the matrix's records (simulated results) with its manifest
    (wall-clock split) into cell dicts shaped like the direct runs."""
    walls = {(c["system"], c["algorithm"], c["dataset"]): c
             for c in manifest["cells"]}
    cells = []
    for r in records:
        m = walls[(r["system"], r["algorithm"], r["dataset"])]
        cells.append({
            "system": r["system"], "algorithm": r["algorithm"],
            "dataset": r["dataset"], "sim_seconds": r["seconds"],
            "gteps": r["gteps"], "cycles": r["seconds"] * 1e9,
            "run_s": m["wallSimSeconds"],
        })
    return cells
