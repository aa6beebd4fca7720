/**
 * @file
 * Tests of the typed-error layer and every input-hardening path built on
 * it: Status/Result plumbing, the SimError hierarchy, Csr array
 * validation, bounded binary-graph loading, edge-list parsing with line
 * numbers, and the crash-safe result cache (format versioning, corrupt
 * line skipping, atomic saves).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hh"
#include "span_eq.hh"
#include "graph/generators.hh"
#include "graph/loader.hh"
#include "harness/experiment.hh"

namespace gds
{
namespace
{

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Status / Result / error codes.
// ---------------------------------------------------------------------

TEST(ErrorCode, StableNames)
{
    EXPECT_STREQ(errorCodeName(ErrorCode::Ok), "ok");
    EXPECT_STREQ(errorCodeName(ErrorCode::Deadlock), "deadlock");
    EXPECT_STREQ(errorCodeName(ErrorCode::Livelock), "livelock");
    EXPECT_STREQ(errorCodeName(ErrorCode::CycleLimit), "cycle-limit");
    EXPECT_STREQ(errorCodeName(ErrorCode::CorruptInput), "corrupt-input");
    EXPECT_STREQ(errorCodeName(ErrorCode::Config), "config");
    EXPECT_STREQ(errorCodeName(ErrorCode::Internal), "internal");
}

TEST(Status, DefaultIsOk)
{
    const Status s;
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::Ok);
    EXPECT_EQ(s.toString(), "ok");
}

TEST(Status, FailureCarriesCodeAndMessage)
{
    const Status s = Status::failure(ErrorCode::Config, "bad knob");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::Config);
    EXPECT_EQ(s.message(), "bad knob");
    EXPECT_EQ(s.toString(), "config: bad knob");
}

TEST(ResultT, ValueRoundTrip)
{
    Result<int> r(42);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(static_cast<bool>(r));
    EXPECT_EQ(r.value(), 42);
    EXPECT_EQ(r.valueOr(7), 42);
    EXPECT_TRUE(r.status().ok());
}

TEST(ResultT, FailurePropagatesStatus)
{
    const Result<int> r(
        Status::failure(ErrorCode::CorruptInput, "short read"));
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::CorruptInput);
    EXPECT_EQ(r.valueOr(7), 7);
}

TEST(SimErrorHierarchy, CodesAndStatusConversion)
{
    const DeadlockError dead("stuck");
    EXPECT_EQ(dead.code(), ErrorCode::Deadlock);
    EXPECT_STREQ(dead.what(), "stuck");
    EXPECT_EQ(dead.toStatus().code(), ErrorCode::Deadlock);

    EXPECT_EQ(LivelockError("l").code(), ErrorCode::Livelock);
    EXPECT_EQ(CycleLimitError("c").code(), ErrorCode::CycleLimit);
    EXPECT_EQ(ConfigError("k").code(), ErrorCode::Config);
}

TEST(SimErrorHierarchy, CorruptInputDescribesLocation)
{
    const CorruptInputError with_line("graph.el", 17, "bad edge");
    EXPECT_EQ(with_line.path(), "graph.el");
    EXPECT_EQ(with_line.line(), 17u);
    EXPECT_STREQ(with_line.what(), "graph.el:17: bad edge");

    const CorruptInputError binary("graph.bin", 0, "bad magic");
    EXPECT_STREQ(binary.what(), "graph.bin: bad magic");

    const CorruptInputError bare("", 0, "just a message");
    EXPECT_STREQ(bare.what(), "just a message");
}

TEST(ThrowStatus, DispatchesToMatchingSubclass)
{
    EXPECT_THROW(
        throwStatus(Status::failure(ErrorCode::Deadlock, "d")),
        DeadlockError);
    EXPECT_THROW(
        throwStatus(Status::failure(ErrorCode::Livelock, "l")),
        LivelockError);
    EXPECT_THROW(
        throwStatus(Status::failure(ErrorCode::CycleLimit, "c")),
        CycleLimitError);
    EXPECT_THROW(
        throwStatus(Status::failure(ErrorCode::CorruptInput, "i")),
        CorruptInputError);
    EXPECT_THROW(throwStatus(Status::failure(ErrorCode::Config, "k")),
                 ConfigError);
    EXPECT_THROW(throwStatus(Status::failure(ErrorCode::Internal, "x")),
                 SimError);
}

// ---------------------------------------------------------------------
// Csr validation.
// ---------------------------------------------------------------------

/** Brace-friendly shim: validateArrays takes spans, which have no
 *  initializer_list constructor. */
Status
validateArrays(const std::vector<EdgeId> &offsets,
               const std::vector<VertexId> &neighbors,
               const std::vector<Weight> &weights)
{
    return graph::Csr::validateArrays(offsets, neighbors, weights);
}

TEST(CsrValidate, AcceptsWellFormedArrays)
{
    EXPECT_TRUE(validateArrays({0, 2, 3}, {1, 0, 0}, {}).ok());
    EXPECT_TRUE(
        validateArrays({0, 2, 3}, {1, 0, 0}, {5, 6, 7}).ok());
    EXPECT_TRUE(graph::uniform(100, 500, 1, true).validate().ok());
}

TEST(CsrValidate, RejectsEachBrokenInvariant)
{
    // No offsets at all (needs V+1 >= 1 entries).
    EXPECT_FALSE(validateArrays({}, {}, {}).ok());
    // Offsets not starting at zero.
    EXPECT_FALSE(validateArrays({1, 2}, {0}, {}).ok());
    // End of the offset array disagreeing with the edge count.
    EXPECT_FALSE(validateArrays({0, 5}, {0}, {}).ok());
    // Decreasing offsets.
    EXPECT_FALSE(
        validateArrays({0, 2, 1, 3}, {0, 1, 2}, {}).ok());
    // Edge destination out of range.
    const Status dest =
        validateArrays({0, 1, 2}, {1, 9}, {});
    EXPECT_FALSE(dest.ok());
    EXPECT_EQ(dest.code(), ErrorCode::CorruptInput);
    // Weight array of the wrong size.
    EXPECT_FALSE(
        validateArrays({0, 1, 2}, {1, 0}, {3}).ok());
}

// ---------------------------------------------------------------------
// Binary graph loader.
// ---------------------------------------------------------------------

/** Unique scratch file that cleans itself up. */
class ScratchFile
{
  public:
    explicit ScratchFile(const std::string &name)
        : _path((fs::temp_directory_path() /
                 ("gds_test_" + name + "_" +
                  std::to_string(::getpid())))
                    .string())
    {}

    ~ScratchFile()
    {
        std::error_code ec;
        fs::remove(_path, ec);
    }

    const std::string &path() const { return _path; }

  private:
    std::string _path;
};

template <typename T>
void
writePod(std::ofstream &os, const T &value)
{
    os.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

template <typename T>
void
writeVec(std::ofstream &os, const std::vector<T> &v)
{
    writePod<std::uint64_t>(os, v.size());
    os.write(reinterpret_cast<const char *>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(T)));
}

/** Write a GDSB file with the given header and arrays. */
void
writeGdsb(const std::string &path, std::uint32_t magic,
          std::uint32_t version, const std::vector<EdgeId> &offsets,
          const std::vector<VertexId> &neighbors,
          const std::vector<Weight> &weights)
{
    std::ofstream out(path, std::ios::binary);
    writePod(out, magic);
    writePod(out, version);
    writeVec(out, offsets);
    writeVec(out, neighbors);
    writeVec(out, weights);
}

constexpr std::uint32_t gdsbMagic = 0x42534447;

TEST(LoadBinary, RoundTripsThroughSaveBinary)
{
    const ScratchFile file("roundtrip.bin");
    const auto g = graph::powerLaw(500, 4000, 0.6, 3, true);
    graph::saveBinaryAtomic(g, file.path());
    const auto loaded = graph::loadBinary(file.path());
    EXPECT_EQ(loaded.numVertices(), g.numVertices());
    EXPECT_EQ(loaded.numEdges(), g.numEdges());
    EXPECT_SPAN_EQ(loaded.offsetArray(), g.offsetArray());
    EXPECT_SPAN_EQ(loaded.neighborArray(), g.neighborArray());
    EXPECT_SPAN_EQ(loaded.weightArray(), g.weightArray());
}

TEST(LoadBinary, MissingFileIsConfigError)
{
    EXPECT_THROW((void)graph::loadBinary("/nonexistent/graph.bin"),
                 ConfigError);
}

TEST(LoadBinary, RejectsForeignMagic)
{
    const ScratchFile file("magic.bin");
    writeGdsb(file.path(), 0xDEADBEEF, 1, {0, 1}, {0}, {});
    EXPECT_THROW((void)graph::loadBinary(file.path()), CorruptInputError);
}

TEST(LoadBinary, RejectsUnsupportedVersion)
{
    const ScratchFile file("version.bin");
    writeGdsb(file.path(), gdsbMagic, 99, {0, 1}, {0}, {});
    EXPECT_THROW((void)graph::loadBinary(file.path()), CorruptInputError);
}

TEST(LoadBinary, RejectsTruncatedFile)
{
    const ScratchFile file("truncated.bin");
    const auto g = graph::uniform(200, 1600, 4, false);
    graph::saveBinaryAtomic(g, file.path());
    fs::resize_file(file.path(), fs::file_size(file.path()) / 2);
    EXPECT_THROW((void)graph::loadBinary(file.path()), CorruptInputError);
}

TEST(LoadBinary, RejectsOversizedLengthField)
{
    // A header whose offset-array length claims more data than the file
    // holds must fail before any giant allocation is attempted.
    const ScratchFile file("oversized.bin");
    std::ofstream out(file.path(), std::ios::binary);
    writePod(out, gdsbMagic);
    writePod<std::uint32_t>(out, 1);
    writePod<std::uint64_t>(out, ~0ULL); // offset count
    out.close();
    EXPECT_THROW((void)graph::loadBinary(file.path()), CorruptInputError);
}

TEST(LoadBinary, RejectsCorruptedContents)
{
    // Structurally valid file whose arrays break the CSR invariants
    // (destination 9 with only two vertices).
    const ScratchFile file("corrupt.bin");
    writeGdsb(file.path(), gdsbMagic, 1, {0, 1, 2}, {1, 9}, {});
    try {
        (void)graph::loadBinary(file.path());
        FAIL() << "expected CorruptInputError";
    } catch (const CorruptInputError &e) {
        EXPECT_EQ(e.path(), file.path());
        EXPECT_NE(std::string(e.what()).find("edge destination"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// Edge-list loader.
// ---------------------------------------------------------------------

void
writeText(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    out << text;
}

TEST(LoadEdgeList, ParsesCommentsAndWeights)
{
    const ScratchFile file("edges.el");
    writeText(file.path(), "# comment\n0 1 5\n1 2 7\n% more\n2 0 9\n");
    const auto g = graph::loadEdgeList(file.path(), 0, true);
    EXPECT_EQ(g.numVertices(), 3u);
    EXPECT_EQ(g.numEdges(), 3u);
    EXPECT_TRUE(g.hasWeights());
}

TEST(LoadEdgeList, MalformedLineCarriesLineNumber)
{
    const ScratchFile file("bad.el");
    writeText(file.path(), "0 1\n1 2\nnot an edge\n");
    try {
        (void)graph::loadEdgeList(file.path());
        FAIL() << "expected CorruptInputError";
    } catch (const CorruptInputError &e) {
        EXPECT_EQ(e.line(), 3u);
    }
}

TEST(LoadEdgeList, MissingWeightIsCorruptInput)
{
    const ScratchFile file("noweight.el");
    writeText(file.path(), "0 1 5\n1 2\n");
    EXPECT_THROW((void)graph::loadEdgeList(file.path(), 0, true),
                 CorruptInputError);
}

TEST(LoadEdgeList, EndpointBeyondDeclaredVertexCount)
{
    const ScratchFile file("range.el");
    writeText(file.path(), "0 1\n1 5\n");
    EXPECT_THROW((void)graph::loadEdgeList(file.path(), 3),
                 CorruptInputError);
}

TEST(LoadEdgeList, MissingFileIsConfigError)
{
    EXPECT_THROW((void)graph::loadEdgeList("/nonexistent/edges.el"),
                 ConfigError);
}

// ---------------------------------------------------------------------
// Result cache.
// ---------------------------------------------------------------------

/** Runs each test in a private scratch directory (the cache file name is
 *  fixed, so the working directory must be isolated). */
class ResultCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        previous = fs::current_path();
        scratch = fs::temp_directory_path() /
                  ("gds_cache_test_" + std::to_string(::getpid()));
        fs::create_directories(scratch);
        fs::current_path(scratch);
    }

    void
    TearDown() override
    {
        fs::current_path(previous);
        std::error_code ec;
        fs::remove_all(scratch, ec);
    }

    static harness::RunRecord
    record(const std::string &status)
    {
        harness::RunRecord r;
        r.system = "GraphDynS";
        r.algorithm = "BFS";
        r.dataset = "test";
        r.status = status;
        r.iterations = 3;
        r.seconds = 0.5;
        r.gteps = 2.0;
        return r;
    }

    static constexpr const char *cacheName = "gds_bench_cache_v1.csv";

    fs::path previous;
    fs::path scratch;
};

TEST_F(ResultCacheTest, RoundTripsThroughDisk)
{
    {
        harness::ResultCache cache;
        cache.store("k1", record("ok"));
    }
    EXPECT_TRUE(fs::exists(cacheName));
    // The atomic save must not leave its temp file behind.
    EXPECT_FALSE(fs::exists(std::string(cacheName) + ".tmp"));

    harness::ResultCache reloaded;
    const auto hit = reloaded.lookup("k1");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->system, "GraphDynS");
    EXPECT_EQ(hit->status, "ok");
    EXPECT_EQ(hit->iterations, 3u);
    EXPECT_DOUBLE_EQ(hit->seconds, 0.5);
}

TEST_F(ResultCacheTest, GetOrRunCachesOnlySuccesses)
{
    harness::ResultCache cache;
    int runs = 0;
    const auto failing = [&] {
        ++runs;
        return record("deadlock");
    };
    EXPECT_EQ(cache.getOrRun("bad", failing).status, "deadlock");
    EXPECT_EQ(cache.getOrRun("bad", failing).status, "deadlock");
    EXPECT_EQ(runs, 2) << "failed cells must be retried, not cached";

    const auto succeeding = [&] {
        ++runs;
        return record("ok");
    };
    EXPECT_EQ(cache.getOrRun("good", succeeding).status, "ok");
    EXPECT_EQ(cache.getOrRun("good", succeeding).status, "ok");
    EXPECT_EQ(runs, 3) << "successful cells are cached after one run";
}

TEST_F(ResultCacheTest, SkipsCorruptLinesKeepsGoodOnes)
{
    {
        harness::ResultCache cache;
        cache.store("good", record("ok"));
    }
    // Append garbage: every bad line must be skipped without losing
    // "good". The negative and overflowing iteration counts and the
    // extra trailing columns each sit in an otherwise well-formed line,
    // which the control line "fine" shows loads.
    {
        std::ofstream out(cacheName, std::ios::app);
        out << "mangled,line,without,enough,fields\n";
        out << "key2,Sys,BFS,test,ok,not_a_number,x,x,x,x,x,x,x,x,x,x,x\n";
        out << "fine,Sys,BFS,test,ok,4,1,1,1,1,1,1,1,1,1,1,1,h,0,0,0\n";
        out << "neg,Sys,BFS,test,ok,-1,1,1,1,1,1,1,1,1,1,1,1,h,0,0,0\n";
        out << "wide,Sys,BFS,test,ok,4294967296,1,1,1,1,1,1,1,1,1,1,1,h,"
               "0,0,0\n";
        out << "extra,Sys,BFS,test,ok,4,1,1,1,1,1,1,1,1,1,1,1,h,0,0,0,"
               "JUNK,MORE\n";
    }
    harness::ResultCache reloaded;
    EXPECT_TRUE(reloaded.lookup("good").has_value());
    EXPECT_FALSE(reloaded.lookup("key2").has_value());
    ASSERT_TRUE(reloaded.lookup("fine").has_value());
    EXPECT_EQ(reloaded.lookup("fine")->iterations, 4u);
    EXPECT_FALSE(reloaded.lookup("neg").has_value());
    EXPECT_FALSE(reloaded.lookup("wide").has_value());
    EXPECT_FALSE(reloaded.lookup("extra").has_value());
}

TEST_F(ResultCacheTest, IgnoresCacheWithForeignFormatLine)
{
    {
        std::ofstream out(cacheName);
        out << "# some other format\n";
        out << "k,Sys,BFS,test,ok,1,1,1,1,1,1,1,1,1,1,1,1\n";
    }
    harness::ResultCache cache;
    EXPECT_FALSE(cache.lookup("k").has_value());
}

TEST_F(ResultCacheTest, EmptyOrMissingFileIsFine)
{
    harness::ResultCache cache;
    EXPECT_FALSE(cache.lookup("anything").has_value());
}

// ---------------------------------------------------------------------
// JSON record dump.
// ---------------------------------------------------------------------

TEST(DumpRecordsJson, EmitsStatusAndEscapes)
{
    harness::RunRecord r;
    r.system = "GraphDynS";
    r.algorithm = "BFS";
    r.dataset = "a\"b";
    r.status = "livelock";
    r.gteps = 1.5;
    std::ostringstream os;
    harness::dumpRecordsJson({r}, os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"status\":\"livelock\""), std::string::npos);
    EXPECT_NE(json.find("\"dataset\":\"a\\\"b\""), std::string::npos);
    EXPECT_NE(json.find("\"gteps\":1.5"), std::string::npos);
    EXPECT_EQ(json.front(), '[');
}

} // namespace
} // namespace gds
