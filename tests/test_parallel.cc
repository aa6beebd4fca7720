/**
 * @file
 * Tests for the parallel experiment runner: the GDS_JOBS worker-count
 * policy, the ThreadPool/parallelFor scheduler, concurrent access to the
 * thread-safe result cache, the determinism guarantee that a parallel
 * evaluationMatrix returns records byte-identical to the serial order,
 * and the bound its dataset-major execution order puts on resident
 * graphs.
 * These are the tests CI also runs under GDS_SANITIZE=thread.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "algo/vcpm.hh"
#include "common/jsonio.hh"
#include "common/parallel.hh"
#include "common/rss.hh"
#include "graph/datasets.hh"
#include "harness/experiment.hh"

namespace gds::harness
{
namespace
{

/** Build "<prefix><i>" by appending, not operator+: GCC 12's -Wrestrict
 *  false positive (PR105651) fires on `"lit" + std::string&&` at -O2. */
std::string
keyOf(const char *prefix, std::size_t i)
{
    std::string key = prefix;
    key += std::to_string(i);
    return key;
}

TEST(Parallel, JobCountReadsEnvWithFallback)
{
    ::setenv("GDS_JOBS", "3", 1);
    EXPECT_EQ(common::jobCount(), 3u);
    ::setenv("GDS_JOBS", "0", 1); // invalid: falls back, stays positive
    EXPECT_GE(common::jobCount(), 1u);
    ::setenv("GDS_JOBS", "junk", 1);
    EXPECT_GE(common::jobCount(), 1u);
    ::unsetenv("GDS_JOBS");
    EXPECT_GE(common::jobCount(), 1u);
}

TEST(Parallel, ParallelForCoversEveryIndexExactlyOnce)
{
    constexpr std::size_t n = 500;
    std::vector<std::atomic<int>> hits(n);
    common::parallelFor(n, 8, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Parallel, ParallelForIsSerialInOrderWithOneJob)
{
    std::vector<std::size_t> order;
    common::parallelFor(5, 1, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Parallel, ParallelForPropagatesTaskException)
{
    std::atomic<int> completed{0};
    EXPECT_THROW(common::parallelFor(64, 4,
                                     [&](std::size_t i) {
                                         if (i == 17)
                                             throw ConfigError("boom");
                                         completed.fetch_add(1);
                                     }),
                 ConfigError);
    // The queue drained before rethrow: every other index still ran.
    EXPECT_EQ(completed.load(), 63);
}

TEST(Parallel, ThreadPoolDrainsAndIsReusableAfterWait)
{
    common::ThreadPool pool(4);
    EXPECT_EQ(pool.workerCount(), 4u);
    std::atomic<int> sum{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { sum.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(sum.load(), 100);
    pool.submit([&] { sum.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(sum.load(), 101);
}

/** Run cache/matrix tests in a scratch directory (they write CWD files). */
class ParallelHarnessTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        original = std::filesystem::current_path();
        scratch = std::filesystem::temp_directory_path() /
                  ("gds_parallel_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(scratch);
        std::filesystem::current_path(scratch);
    }

    void
    TearDown() override
    {
        std::filesystem::current_path(original);
        std::filesystem::remove_all(scratch);
        ::unsetenv("GDS_JOBS");
        ::unsetenv("GDS_SCALE");
    }

    std::filesystem::path original;
    std::filesystem::path scratch;
};

TEST_F(ParallelHarnessTest, ConcurrentStoresOnDistinctKeys)
{
    constexpr std::size_t n = 64;
    {
        ResultCache cache;
        common::parallelFor(n, 8, [&](std::size_t i) {
            RunRecord r;
            r.system = "S";
            r.algorithm = "A";
            r.dataset = keyOf("D", i);
            r.gteps = static_cast<double>(i);
            cache.store(keyOf("k", i), r);
        });
        for (std::size_t i = 0; i < n; ++i) {
            const auto found = cache.lookup(keyOf("k", i));
            ASSERT_TRUE(found.has_value()) << "key k" << i;
            EXPECT_DOUBLE_EQ(found->gteps, static_cast<double>(i));
        }
    }
    // Everything survived the journal + compaction round trip.
    ResultCache reloaded;
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_TRUE(reloaded.lookup(keyOf("k", i)).has_value());
}

TEST_F(ParallelHarnessTest, ConcurrentGetOrRunOnTheSameKeyIsConsistent)
{
    constexpr std::size_t n = 16;
    std::atomic<int> calls{0};
    std::vector<RunRecord> results(n);
    {
        ResultCache cache;
        common::parallelFor(n, 8, [&](std::size_t i) {
            results[i] = cache.getOrRun("shared", [&] {
                calls.fetch_add(1);
                RunRecord r;
                r.system = "S";
                r.algorithm = "A";
                r.dataset = "D";
                r.gteps = 7.5;
                return r;
            });
        });
    }
    // Racing computations are allowed (cells are deterministic), but
    // every caller observes the same record and one entry persists.
    EXPECT_GE(calls.load(), 1);
    for (const RunRecord &r : results)
        EXPECT_DOUBLE_EQ(r.gteps, 7.5);
    ResultCache reloaded;
    const auto found = reloaded.lookup("shared");
    ASSERT_TRUE(found.has_value());
    EXPECT_DOUBLE_EQ(found->gteps, 7.5);
}

TEST_F(ParallelHarnessTest, MatrixParallelMatchesSerialByteForByte)
{
    // Tiny datasets (the scale clamps at 64 vertices / 256 edges) keep
    // two cold 90-cell matrix runs fast enough for a unit test.
    ::setenv("GDS_SCALE", "16384", 1);

    ::setenv("GDS_JOBS", "1", 1);
    std::string serial_json;
    {
        ResultCache cache;
        const auto records = evaluationMatrix(cache);
        EXPECT_EQ(records.size(), 90u);
        std::ostringstream os;
        dumpRecordsJson(records, os);
        serial_json = os.str();
    }

    // Drop the result cache so the parallel run is cold too (the binary
    // dataset cache stays: the pool still guards it with once-only
    // loading).
    std::filesystem::remove("gds_bench_cache_v1.csv");

    ::setenv("GDS_JOBS", "4", 1);
    std::string parallel_json;
    {
        ResultCache cache;
        const auto records = evaluationMatrix(cache);
        std::ostringstream os;
        dumpRecordsJson(records, os);
        parallel_json = os.str();
    }

    EXPECT_EQ(serial_json, parallel_json);
}

TEST_F(ParallelHarnessTest, WarmMatrixNeedsNoSimulationAndStaysOrdered)
{
    ::setenv("GDS_SCALE", "16384", 1);
    ::setenv("GDS_JOBS", "4", 1);
    std::string cold_json;
    {
        ResultCache cache;
        std::ostringstream os;
        dumpRecordsJson(evaluationMatrix(cache), os);
        cold_json = os.str();
    }
    // Same cache file, warm rerun: identical records in identical order.
    {
        ResultCache cache;
        std::ostringstream os;
        dumpRecordsJson(evaluationMatrix(cache), os);
        EXPECT_EQ(cold_json, os.str());
    }
}

/** Parse the manifest.json the last evaluationMatrix call wrote. */
common::JsonValue
readManifest()
{
    std::ifstream in("manifest.json");
    std::ostringstream text;
    text << in.rdbuf();
    auto parsed = common::parseJson(text.str());
    EXPECT_TRUE(parsed.ok()) << parsed.status().message();
    return parsed.ok() ? parsed.value() : common::JsonValue{};
}

/** A manifest's DatasetPool high-water mark for @p field; -1 if absent. */
double
poolHighWater(const common::JsonValue &manifest, const char *field)
{
    const common::JsonValue *marks = manifest.find("datasetPoolHighWater");
    const common::JsonValue *value = marks ? marks->find(field) : nullptr;
    return value && value->isNumber() ? value->asNumber() : -1.0;
}

TEST_F(ParallelHarnessTest, ColdMatrixHoldsAtMostOneGraphPerWorker)
{
    ::setenv("GDS_SCALE", "16384", 1);

    // One worker runs each input's cells back to back: one graph at a
    // time, although the matrix touches twelve.
    ::setenv("GDS_JOBS", "1", 1);
    {
        ResultCache cache;
        evaluationMatrix(cache);
    }
    const common::JsonValue serial = readManifest();
    EXPECT_EQ(poolHighWater(serial, "resident"), 1.0);
    EXPECT_GT(poolHighWater(serial, "mappedBytes") +
                  poolHighWater(serial, "heapBytes"),
              0.0);

    std::filesystem::remove("gds_bench_cache_v1.csv");
    ::setenv("GDS_JOBS", "4", 1);
    {
        ResultCache cache;
        evaluationMatrix(cache);
    }
    const double resident = poolHighWater(readManifest(), "resident");
    EXPECT_GE(resident, 1.0);
    EXPECT_LE(resident, 4.0);
}

TEST_F(ParallelHarnessTest, CellPeakRssIsStampedWhenEachCellFinishes)
{
    ::setenv("GDS_SCALE", "16384", 1);
    ::setenv("GDS_JOBS", "1", 1);
    {
        ResultCache cache;
        evaluationMatrix(cache);
    }
    const double process_peak = static_cast<double>(common::peakRssBytes());
    const common::JsonValue manifest = readManifest();
    const common::JsonValue *cells_json = manifest.find("cells");
    ASSERT_NE(cells_json, nullptr);
    const auto &cells = cells_json->asArray();
    ASSERT_EQ(cells.size(), 90u);

    // The documented execution order: (dataset, weighted) groups in
    // descending edge count, the weighted copy first, canonical order
    // inside a group. One worker runs the cells in exactly this order.
    const unsigned divisor = graph::datasetScaleDivisor();
    const auto rank = [&](const common::JsonValue &cell) {
        const graph::DatasetSpec &spec =
            graph::datasetByName(cell.find("dataset")->asString());
        bool weighted = false;
        for (const algo::AlgorithmId id : algo::allAlgorithms) {
            if (algo::algorithmName(id) == cell.find("algorithm")->asString())
                weighted = algo::makeAlgorithm(id)->usesWeights();
        }
        // Larger edge counts rank first, hence the negation.
        return std::tuple(-static_cast<double>(spec.scaledEdges(divisor)),
                          &spec - graph::realWorldDatasets().data(),
                          !weighted);
    };
    std::vector<std::size_t> order(cells.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return rank(cells[a]) < rank(cells[b]);
                     });

    double previous = 0.0;
    for (const std::size_t i : order) {
        const double stamped = cells[i].find("peakRssBytes")->asNumber();
        EXPECT_GE(stamped, previous) << cells[i].find("key")->asString();
        EXPECT_LE(stamped, process_peak);
        previous = stamped;
    }
}

} // namespace
} // namespace gds::harness
