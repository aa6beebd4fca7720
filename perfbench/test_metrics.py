"""Self-tests of the benchmark's own arithmetic.

Run with `python3 perfbench/run.py --self-test`, which also runs the
measuring program's certification self-test (a corrupted property vector
and a drifted statistic must both be rejected).
"""

import unittest

import metrics as M
import run


def span(sid, name, start, end, parent=0, run_id=1):
    return {"id": sid, "name": name, "start": start, "dur": end - start,
            "parent": parent, "run": run_id}


def cell(system, algorithm, dataset, sim_seconds, **counts):
    base = {"system": system, "algorithm": algorithm, "dataset": dataset,
            "sim_seconds": sim_seconds, "cycles": 0, "stepped_cycles": 0,
            "skipped_cycles": 0, "skip_windows": 0, "iterations": 0,
            "edges": 0, "sched_ops": 0, "atomic_stalls": 0,
            "updates_skipped": 0, "read_bytes": 0.0, "write_bytes": 0.0,
            "row_hit_rate": 0.0, "bw_util": 0.0, "xbar_conflicts": 0.0,
            "energy_j": 0.0, "run_s": 1.0}
    base.update(counts)
    return base


class Arithmetic(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(M.geomean([1.0, 4.0, 16.0]), 4.0)
        self.assertAlmostEqual(M.geomean([2.5]), 2.5)
        for bad in ([], [1.0, 0.0], [2.0, -1.0]):
            with self.assertRaises(ValueError):
                M.geomean(bad)

    def test_skip_fraction(self):
        self.assertEqual(M.skip_fraction(250, 750), 0.75)
        self.assertEqual(M.skip_fraction(1000, 0), 0.0)
        self.assertEqual(M.skip_fraction(0, 0), 0.0)

    def test_paper_error(self):
        self.assertAlmostEqual(M.paper_error(1.9, 1.9), 0.0)
        self.assertAlmostEqual(M.paper_error(2.85, 1.9), 0.5)
        self.assertAlmostEqual(M.paper_error(2.2, 4.4), 0.5)

    def test_worker_busy(self):
        # 12 cell-seconds on 4 workers over a 4-second wall.
        self.assertAlmostEqual(M.worker_busy([3.0, 4.0, 5.0], 4.0, 4), 0.75)

    def test_self_time_subtracts_what_children_cover(self):
        spans = [
            span(1, "bench.rep", 0.0, 10.0),
            span(2, "core.run", 1.0, 4.0, parent=1),
            span(3, "energy.model", 3.0, 6.0, parent=1),  # overlaps 2
            span(4, "graph.load", 2.0, 3.0, parent=2),
            span(5, "algo.validate", 9.0, 12.0, parent=1),  # past the end
        ]
        selfs = M.self_times(spans)
        # Children of the root cover [1, 6] and [9, 10]: 6 of 10 s.
        self.assertAlmostEqual(selfs[1], 4.0)
        self.assertAlmostEqual(selfs[2], 2.0)  # minus its grandchild
        self.assertAlmostEqual(selfs[3], 3.0)
        self.assertAlmostEqual(selfs[4], 1.0)
        self.assertAlmostEqual(selfs[5], 3.0)

    def test_layer_self_time_is_median_per_kind_summed(self):
        spans = [
            span(1, "bench.setup", 0.0, 2.0, run_id=1),
            span(2, "graph.generate", 0.0, 1.5, parent=1, run_id=1),
            span(3, "bench.rep", 2.0, 6.0, run_id=2),
            span(4, "core.run", 2.0, 5.0, parent=3, run_id=2),
            span(5, "bench.rep", 6.0, 12.0, run_id=3),
            span(6, "core.run", 6.0, 11.0, parent=5, run_id=3),
            span(7, "bench.rep", 12.0, 20.0, run_id=4),
            span(8, "core.run", 12.0, 19.0, parent=7, run_id=4),
        ]
        runs = M.group_runs(spans)
        self.assertEqual(sorted(k for k, _ in runs.values()),
                         ["bench.rep"] * 3 + ["bench.setup"])
        selfs = M.layer_self_seconds(runs)
        self.assertAlmostEqual(selfs["core"], 5.0)   # median of 3, 5, 7
        self.assertAlmostEqual(selfs["graph"], 1.5)
        self.assertAlmostEqual(selfs["bench"], 1.5)  # 0.5 + median(1,1,1)
        self.assertEqual(selfs["algo"], 0.0)
        self.assertAlmostEqual(M.span_total(runs, "bench.rep", "core.run"),
                               5.0)
        self.assertEqual(M.span_total(runs, "bench.setup", "core.run"), 0.0)

    def test_speedups_pair_cells_by_algorithm_and_dataset(self):
        cells = [
            cell("GraphDynS", "PR", "A", 1.0),
            cell("Graphicionado", "PR", "A", 2.0),
            cell("GraphDynS", "CC", "A", 2.0),
            cell("Graphicionado", "CC", "A", 8.0),
            cell("Graphicionado", "CC", "B", 5.0),  # no GraphDynS partner
            cell("Gunrock", "PR", "A", 4.4),
        ]
        self.assertEqual(sorted(M.speedups(cells, "Graphicionado")),
                         [2.0, 4.0])
        self.assertAlmostEqual(
            M.geomean(M.speedups(cells, "Graphicionado")), 8.0 ** 0.5)
        self.assertAlmostEqual(M.paper_error(
            M.geomean(M.speedups(cells, "Gunrock")), 4.4), 0.0)

    def test_counts_skip_fraction_over_cycle_level_systems(self):
        cells = [
            cell("GraphDynS", "BFS", "A", 1.0, stepped_cycles=100,
                 skipped_cycles=300, cycles=400, read_bytes=64.0,
                 row_hit_rate=0.5, bw_util=0.25),
            cell("GraphDynS", "SSSP", "A", 1.0, stepped_cycles=100,
                 skipped_cycles=100, cycles=200, read_bytes=192.0,
                 row_hit_rate=1.0, bw_util=1.0),
            cell("Graphicionado", "BFS", "A", 1.0, stepped_cycles=200,
                 skipped_cycles=200, cycles=400),
            cell("Gunrock", "BFS", "A", 1.0),
        ]
        counts = M.count_metrics(cells)
        self.assertEqual(counts["sim.stepped_cycles"], 400)
        self.assertEqual(counts["sim.skipped_cycles"], 600)
        self.assertAlmostEqual(counts["sim.skip_fraction"], 0.6)
        self.assertEqual(counts["core.sim_cycles"], 600)
        # Row hits weighted by bytes moved, utilisation by cycles.
        self.assertAlmostEqual(counts["mem.row_hit_rate"], 0.875)
        self.assertAlmostEqual(counts["mem.bw_util"], 0.5)
        self.assertAlmostEqual(M.cycles_per_second(cells), 1000 / 3.0)

    def test_failed_check_makes_the_run_incorrect(self):
        spec = [{"name": "wall_s", "unit": "s"}]
        raw = {"certify": {"attempted": 12,
                           "failures": ["GraphDynS/BFS/A: level"]}}
        line = run.result_line(raw, spec, {"wall_s": 1.5})
        self.assertEqual(line, {"correct": False, "attempted": 12,
                                "failed": 1, "metrics": {
                                    "wall_s": {"value": 1.5, "unit": "s"}}})
        raw["certify"]["failures"] = []
        self.assertTrue(run.result_line(raw, spec, {"wall_s": 1.5})["correct"])


if __name__ == "__main__":
    unittest.main()
