/**
 * @file
 * Tests for the parallel experiment runner: the GDS_JOBS worker-count
 * policy, the ThreadPool/parallelFor scheduler, concurrent access to the
 * thread-safe result cache, and the determinism guarantee that a parallel
 * evaluationMatrix returns records byte-identical to the serial order.
 * These are the tests CI also runs under GDS_SANITIZE=thread.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.hh"
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

} // namespace
} // namespace gds::harness
