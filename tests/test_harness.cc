/**
 * @file
 * Tests for the experiment harness: variant configuration mapping,
 * iteration/source policies, the disk-backed result cache (round-trip,
 * persistence across instances), dataset caching, geometric means and
 * table formatting.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/jsonio.hh"
#include "graph/generators.hh"
#include "span_eq.hh"
#include "harness/experiment.hh"

namespace gds::harness
{
namespace
{

/** Run tests in a scratch directory so cache files don't pollute CWD. */
class HarnessTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        original = std::filesystem::current_path();
        scratch = std::filesystem::temp_directory_path() /
                  ("gds_harness_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(scratch);
        std::filesystem::current_path(scratch);
    }

    void
    TearDown() override
    {
        std::filesystem::current_path(original);
        std::filesystem::remove_all(scratch);
    }

    std::filesystem::path original;
    std::filesystem::path scratch;
};

TEST(Harness, SystemNames)
{
    EXPECT_EQ(systemName(SystemId::GraphDynS), "GraphDynS");
    EXPECT_EQ(systemName(SystemId::Graphicionado), "Graphicionado");
    EXPECT_EQ(systemName(SystemId::Gunrock), "Gunrock");
}

TEST(Harness, VariantConfigurations)
{
    const core::GdsConfig wb =
        applyVariant(core::GdsConfig{}, GdsVariant::Wb);
    EXPECT_TRUE(wb.workloadBalance);
    EXPECT_FALSE(wb.exactPrefetch);
    EXPECT_FALSE(wb.zeroStallAtomics);
    EXPECT_FALSE(wb.updateScheduling);

    const core::GdsConfig we =
        applyVariant(core::GdsConfig{}, GdsVariant::We);
    EXPECT_TRUE(we.exactPrefetch);
    EXPECT_FALSE(we.zeroStallAtomics);

    const core::GdsConfig wea =
        applyVariant(core::GdsConfig{}, GdsVariant::Wea);
    EXPECT_TRUE(wea.zeroStallAtomics);
    EXPECT_FALSE(wea.updateScheduling);

    const core::GdsConfig full =
        applyVariant(core::GdsConfig{}, GdsVariant::Full);
    EXPECT_TRUE(full.workloadBalance && full.exactPrefetch &&
                full.zeroStallAtomics && full.updateScheduling);

    const core::GdsConfig no_wb =
        applyVariant(core::GdsConfig{}, GdsVariant::NoWb);
    EXPECT_FALSE(no_wb.workloadBalance);
    EXPECT_TRUE(no_wb.exactPrefetch);
}

TEST(Harness, IterationCapPolicy)
{
    EXPECT_EQ(iterationCap(algo::AlgorithmId::Pr), 10u);
    EXPECT_EQ(iterationCap(algo::AlgorithmId::Bfs), 1000u);
}

TEST(Harness, SourcePolicy)
{
    const auto g = graph::uniform(100, 1000, 3, true);
    EXPECT_EQ(sourceFor(algo::AlgorithmId::Bfs, g),
              algo::defaultSource(g));
    EXPECT_EQ(sourceFor(algo::AlgorithmId::Cc, g), 0u);
    EXPECT_EQ(sourceFor(algo::AlgorithmId::Pr, g), 0u);
}

TEST(Harness, GeometricMean)
{
    EXPECT_DOUBLE_EQ(geometricMean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geometricMean({8.0}), 8.0);
    EXPECT_NEAR(geometricMean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    EXPECT_EQ(geometricMean({}), 0.0);
    // Non-positive values are ignored.
    EXPECT_DOUBLE_EQ(geometricMean({0.0, 4.0, 1.0}), 2.0);
}

TEST(Harness, TableNumFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(10.0, 0), "10");
}

TEST_F(HarnessTest, CacheRoundTripsRecords)
{
    RunRecord r;
    r.system = "GraphDynS";
    r.algorithm = "BFS";
    r.dataset = "FR";
    r.iterations = 7;
    r.seconds = 0.00123;
    r.gteps = 45.5;
    r.memoryBytes = 1e8;
    r.footprintBytes = 2e8;
    r.bandwidthUtilization = 0.56;
    r.energyJoules = 0.012;
    r.schedulingOps = 1000;
    r.atomicStalls = 5;
    r.updatesSkipped = 99;
    r.vertexUpdates = 1234;
    r.edgesProcessed = 5678;

    {
        ResultCache cache;
        cache.store("k1", r);
    }
    ResultCache reloaded;
    const auto found = reloaded.lookup("k1");
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->system, "GraphDynS");
    EXPECT_EQ(found->algorithm, "BFS");
    EXPECT_EQ(found->dataset, "FR");
    EXPECT_EQ(found->iterations, 7u);
    EXPECT_DOUBLE_EQ(found->seconds, 0.00123);
    EXPECT_DOUBLE_EQ(found->gteps, 45.5);
    EXPECT_DOUBLE_EQ(found->bandwidthUtilization, 0.56);
    EXPECT_DOUBLE_EQ(found->edgesProcessed, 5678);
}

/**
 * A record whose every field holds a distinct value that a 6-digit
 * rendering would round: 1234567 iterations, then 1234568.1, 1234569.1,
 * ... in field order.
 */
RunRecord
distinctRecord()
{
    RunRecord r;
    r.system = "sys-A";
    r.algorithm = "alg-B";
    r.dataset = "ds-C";
    r.status = "ok";
    r.configHash = "hash-D";
    r.iterations = 1234567;
    double *numbers[] = {
        &r.seconds,         &r.gteps,          &r.memoryBytes,
        &r.footprintBytes,  &r.bandwidthUtilization,
        &r.energyJoules,    &r.schedulingOps,  &r.atomicStalls,
        &r.updatesSkipped,  &r.vertexUpdates,  &r.edgesProcessed,
        &r.wallLoadSeconds, &r.wallSimSeconds, &r.wallValidateSeconds};
    for (int k = 0; k < 14; ++k)
        *numbers[k] = 1234567.1 + (k + 1);
    return r;
}

/** The format-3 journal the previous release's ResultCache wrote after
 *  storing distinctRecord() under "fixture-key". */
constexpr const char *kPreviousJournal =
    "# gds-bench-cache format 3\n"
    "# key,system,algorithm,dataset,status,iterations,seconds,gteps,"
    "memoryBytes,footprintBytes,bandwidthUtilization,energyJoules,"
    "schedulingOps,atomicStalls,updatesSkipped,vertexUpdates,"
    "edgesProcessed,configHash,wallLoadSeconds,wallSimSeconds,"
    "wallValidateSeconds\n"
    "fixture-key,sys-A,alg-B,ds-C,ok,1234567,1234568.1000000001,"
    "1234569.1000000001,1234570.1000000001,1234571.1000000001,"
    "1234572.1000000001,1234573.1000000001,1234574.1000000001,"
    "1234575.1000000001,1234576.1000000001,1234577.1000000001,"
    "1234578.1000000001,hash-D,1234579.1000000001,1234580.1000000001,"
    "1234581.1000000001\n";

/** Every member compared by name, so a member missing from
 *  RunRecord::fields fails here. */
void
expectSameRecord(const RunRecord &got, const RunRecord &want)
{
    EXPECT_EQ(got.system, want.system);
    EXPECT_EQ(got.algorithm, want.algorithm);
    EXPECT_EQ(got.dataset, want.dataset);
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.seconds, want.seconds);
    EXPECT_EQ(got.gteps, want.gteps);
    EXPECT_EQ(got.memoryBytes, want.memoryBytes);
    EXPECT_EQ(got.footprintBytes, want.footprintBytes);
    EXPECT_EQ(got.bandwidthUtilization, want.bandwidthUtilization);
    EXPECT_EQ(got.energyJoules, want.energyJoules);
    EXPECT_EQ(got.schedulingOps, want.schedulingOps);
    EXPECT_EQ(got.atomicStalls, want.atomicStalls);
    EXPECT_EQ(got.updatesSkipped, want.updatesSkipped);
    EXPECT_EQ(got.vertexUpdates, want.vertexUpdates);
    EXPECT_EQ(got.edgesProcessed, want.edgesProcessed);
    EXPECT_EQ(got.configHash, want.configHash);
    EXPECT_EQ(got.wallLoadSeconds, want.wallLoadSeconds);
    EXPECT_EQ(got.wallSimSeconds, want.wallSimSeconds);
    EXPECT_EQ(got.wallValidateSeconds, want.wallValidateSeconds);
}

std::string
readFile(const char *path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST_F(HarnessTest, EveryFieldRoundTripsThroughCacheAndJson)
{
    const RunRecord r = distinctRecord();
    {
        ResultCache cache;
        cache.store("k", r);
    }
    ResultCache reloaded;
    const auto found = reloaded.lookup("k");
    ASSERT_TRUE(found.has_value());
    expectSameRecord(*found, r);

    std::ostringstream os;
    dumpRecordsJson({r}, os);
    const auto parsed = common::parseJson(os.str());
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    ASSERT_EQ(parsed.value().asArray().size(), 1u);
    const common::JsonValue &obj = parsed.value().asArray()[0];
    const auto text = [&obj](const char *name) {
        const common::JsonValue *v = obj.find(name);
        return v && v->isString() ? v->asString() : "<absent>";
    };
    const auto number = [&obj](const char *name) {
        const common::JsonValue *v = obj.find(name);
        return v && v->isNumber() ? v->asNumber()
                                  : std::numeric_limits<double>::quiet_NaN();
    };
    EXPECT_EQ(text("system"), r.system);
    EXPECT_EQ(text("algorithm"), r.algorithm);
    EXPECT_EQ(text("dataset"), r.dataset);
    EXPECT_EQ(text("status"), r.status);
    EXPECT_EQ(number("iterations"), r.iterations);
    EXPECT_EQ(number("seconds"), r.seconds);
    EXPECT_EQ(number("gteps"), r.gteps);
    EXPECT_EQ(number("memoryBytes"), r.memoryBytes);
    EXPECT_EQ(number("footprintBytes"), r.footprintBytes);
    EXPECT_EQ(number("bandwidthUtilization"), r.bandwidthUtilization);
    EXPECT_EQ(number("energyJoules"), r.energyJoules);
    EXPECT_EQ(number("schedulingOps"), r.schedulingOps);
    EXPECT_EQ(number("atomicStalls"), r.atomicStalls);
    EXPECT_EQ(number("updatesSkipped"), r.updatesSkipped);
    EXPECT_EQ(number("vertexUpdates"), r.vertexUpdates);
    EXPECT_EQ(number("edgesProcessed"), r.edgesProcessed);
    EXPECT_EQ(text("configHash"), r.configHash);
    // Provenance stays out of the record JSON.
    EXPECT_EQ(obj.find("wallLoadSeconds"), nullptr);
    EXPECT_EQ(obj.find("wallSimSeconds"), nullptr);
    EXPECT_EQ(obj.find("wallValidateSeconds"), nullptr);
    EXPECT_EQ(obj.asObject().size(), 17u);
}

TEST_F(HarnessTest, CacheLoadsJournalWrittenByThePreviousRelease)
{
    {
        std::ofstream out("gds_bench_cache_v1.csv");
        out << kPreviousJournal;
    }
    const ResultCache cache;
    const auto found = cache.lookup("fixture-key");
    ASSERT_TRUE(found.has_value());
    expectSameRecord(*found, distinctRecord());
}

TEST_F(HarnessTest, CacheJournalBytesMatchThePreviousRelease)
{
    {
        ResultCache cache;
        cache.store("fixture-key", distinctRecord());
    }
    EXPECT_EQ(readFile("gds_bench_cache_v1.csv"), kPreviousJournal);
}

TEST_F(HarnessTest, CacheMissReturnsNullopt)
{
    ResultCache cache;
    EXPECT_FALSE(cache.lookup("missing").has_value());
}

TEST_F(HarnessTest, GetOrRunComputesOnceThenCaches)
{
    ResultCache cache;
    int calls = 0;
    auto compute = [&] {
        ++calls;
        RunRecord r;
        r.system = "X";
        r.algorithm = "Y";
        r.dataset = "Z";
        r.gteps = 1.5;
        return r;
    };
    const auto first = cache.getOrRun("key", compute);
    const auto second = cache.getOrRun("key", compute);
    EXPECT_EQ(calls, 1);
    EXPECT_DOUBLE_EQ(first.gteps, second.gteps);
}

TEST_F(HarnessTest, CellKeyIncludesScale)
{
    const std::string key = cellKey("gds", algo::AlgorithmId::Bfs, "FR");
    EXPECT_NE(key.find("gds|BFS|FR|s"), std::string::npos);
}

TEST_F(HarnessTest, RunGdsProducesConsistentRecord)
{
    const auto g = graph::powerLaw(1000, 8000, 0.6, 5, true);
    const auto r = runGds(algo::AlgorithmId::Bfs, "toy", g);
    EXPECT_EQ(r.system, "GraphDynS");
    EXPECT_EQ(r.algorithm, "BFS");
    EXPECT_EQ(r.dataset, "toy");
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_GT(r.gteps, 0.0);
    EXPECT_GT(r.energyJoules, 0.0);
    EXPECT_GT(r.memoryBytes, 0.0);
}

TEST_F(HarnessTest, VariantRecordsCarryVariantTag)
{
    const auto g = graph::powerLaw(500, 4000, 0.6, 6, true);
    const auto r = runGds(algo::AlgorithmId::Bfs, "toy", g,
                          GdsVariant::We);
    EXPECT_EQ(r.system, "GraphDynS-WE");
}

TEST_F(HarnessTest, AllThreeSystemsRunnable)
{
    const auto g = graph::powerLaw(800, 6400, 0.6, 7, true);
    const auto gds = runGds(algo::AlgorithmId::Sssp, "toy", g);
    const auto gi = runGraphicionado(algo::AlgorithmId::Sssp, "toy", g);
    const auto gpu = runGunrock(algo::AlgorithmId::Sssp, "toy", g);
    EXPECT_GT(gds.seconds, 0.0);
    EXPECT_GT(gi.seconds, 0.0);
    EXPECT_GT(gpu.seconds, 0.0);
    // The headline ordering on a skewed graph.
    EXPECT_LT(gds.seconds, gi.seconds);
}

TEST_F(HarnessTest, FindRecordLocatesCells)
{
    std::vector<RunRecord> records(2);
    records[0].system = "A";
    records[0].algorithm = "BFS";
    records[0].dataset = "FR";
    records[1].system = "B";
    records[1].algorithm = "PR";
    records[1].dataset = "LJ";
    EXPECT_EQ(&findRecord(records, "B", "PR", "LJ"), &records[1]);
}

TEST_F(HarnessTest, DatasetLoaderCachesBinary)
{
    ::setenv("GDS_SCALE", "512", 1);
    const auto g1 = loadDataset("FR", false);
    EXPECT_TRUE(std::filesystem::exists("gds_dataset_FR_s512_u_g2.bin"));
    const auto g2 = loadDataset("FR", false);
    EXPECT_SPAN_EQ(g1.neighborArray(), g2.neighborArray());
    ::unsetenv("GDS_SCALE");
}

TEST_F(HarnessTest, DatasetCacheWriteIsAtomicAndLeavesNoTempFiles)
{
    ::setenv("GDS_SCALE", "16384", 1);
    loadDataset("FR", false);
    EXPECT_TRUE(std::filesystem::exists("gds_dataset_FR_s16384_u_g2.bin"));
    for (const auto &entry : std::filesystem::directory_iterator(".")) {
        EXPECT_EQ(entry.path().string().find(".tmp"), std::string::npos)
            << "leftover temp file " << entry.path();
    }
    ::unsetenv("GDS_SCALE");
}

namespace
{

std::vector<std::string>
fileLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

RunRecord
simpleRecord(double gteps)
{
    RunRecord r;
    r.system = "S";
    r.algorithm = "A";
    r.dataset = "D";
    r.gteps = gteps;
    return r;
}

} // namespace

TEST_F(HarnessTest, CacheJournalAppendsThenCompactsOnExit)
{
    constexpr const char *file = "gds_bench_cache_v1.csv";
    {
        ResultCache cache;
        cache.store("kb", simpleRecord(1.0));
        cache.store("ka", simpleRecord(2.0));
        cache.store("kb", simpleRecord(3.0)); // overwrite appends too
        // Mid-run (pre-destructor) the journal already holds every store
        // in append order — interrupted runs keep their progress, and
        // stores never rewrite the file (a rewrite would be key-sorted).
        const auto lines = fileLines(file);
        ASSERT_EQ(lines.size(), 5u); // format + columns + 3 appends
        EXPECT_EQ(lines[2].rfind("kb,", 0), 0u);
        EXPECT_EQ(lines[3].rfind("ka,", 0), 0u);
        EXPECT_EQ(lines[4].rfind("kb,", 0), 0u);
    }
    // On exit the journal is compacted once: each key exactly once,
    // last write wins.
    const auto lines = fileLines(file);
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_EQ(lines[2].rfind("ka,", 0), 0u);
    EXPECT_EQ(lines[3].rfind("kb,", 0), 0u);
    ResultCache reloaded;
    ASSERT_TRUE(reloaded.lookup("kb").has_value());
    EXPECT_DOUBLE_EQ(reloaded.lookup("kb")->gteps, 3.0);
    EXPECT_DOUBLE_EQ(reloaded.lookup("ka")->gteps, 2.0);
}

TEST_F(HarnessTest, CacheJournalSurvivesAcrossInstances)
{
    {
        ResultCache first;
        first.store("k1", simpleRecord(1.5));
    }
    {
        ResultCache second; // append to the compacted file
        EXPECT_TRUE(second.lookup("k1").has_value());
        second.store("k2", simpleRecord(2.5));
    }
    ResultCache third;
    ASSERT_TRUE(third.lookup("k1").has_value());
    ASSERT_TRUE(third.lookup("k2").has_value());
    EXPECT_DOUBLE_EQ(third.lookup("k1")->gteps, 1.5);
    EXPECT_DOUBLE_EQ(third.lookup("k2")->gteps, 2.5);
}

TEST_F(HarnessTest, CacheRefusesDelimiterAndControlCharacterFields)
{
    ResultCache cache;
    RunRecord r = simpleRecord(1.0);
    r.system = "Graph,DynS"; // would re-parse with shifted columns
    EXPECT_THROW(cache.store("k", r), ConfigError);
    r = simpleRecord(1.0);
    r.dataset = "F\nR";
    EXPECT_THROW(cache.store("k", r), ConfigError);
    r = simpleRecord(1.0);
    r.status = "bad\tstatus";
    EXPECT_THROW(cache.store("k", r), ConfigError);
    EXPECT_THROW(cache.store("a,b", simpleRecord(1.0)), ConfigError);
    // The refused stores left no trace, in memory or on disk.
    EXPECT_FALSE(cache.lookup("k").has_value());
    EXPECT_FALSE(std::filesystem::exists("gds_bench_cache_v1.csv"));
}

} // namespace
} // namespace gds::harness
