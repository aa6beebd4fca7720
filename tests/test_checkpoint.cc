/**
 * @file
 * End-to-end checkpoint/restore tests: resume exactness across the
 * accelerator x telemetry x fault-injection x fast-forward matrix,
 * SIGKILL crash injection at arbitrary cycles (including mid-checkpoint-
 * write tears), typed rejection of corrupt checkpoint files, fallback to
 * the previous good checkpoint, and the graceful-stop final snapshot.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "algo/vcpm.hh"
#include "baseline/graphicionado.hh"
#include "common/bitutil.hh"
#include "core/checkpoint_session.hh"
#include "core/gds_accel.hh"
#include "graph/generators.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "sim/checkpoint.hh"

namespace gds
{
namespace
{

/** One point of the resume-exactness matrix. */
struct Scenario
{
    bool graphicionado = false;
    bool telemetry = false;
    bool faults = false;
    bool fastForward = true;
    /** Shrink on-chip storage so the test graph runs in two slices. */
    bool sliced = false;

    std::string
    tag() const
    {
        std::string t = graphicionado ? "gio" : "gds";
        t += telemetry ? "_tel" : "_notel";
        t += faults ? "_flt" : "_noflt";
        t += fastForward ? "_ff" : "_noff";
        t += sliced ? "_sl" : "_nosl";
        return t;
    }
};

/** Everything a run produces that resume exactness is judged on. */
struct RunArtifacts
{
    core::RunResult result;
    std::string stats;   ///< full statsGroup() dump
    std::string samples; ///< sampler CSV (telemetry scenarios)
    std::string trace;   ///< tracer JSON (telemetry scenarios)
    std::string finalState; ///< debugState() where the run stopped
};

constexpr Cycle kSampleInterval = 512;
constexpr Cycle kCounterInterval = 2048;

core::RunOptions
baseOptions(const Scenario &sc, const graph::Csr &g)
{
    core::RunOptions o;
    o.source = algo::defaultSource(g);
    o.fastForward = sc.fastForward;
    if (sc.faults) {
        o.faults.seed = 9;
        o.faults.delayResponseProb = 0.02;
        o.faults.delayCycles = 64;
    }
    return o;
}

/** Run one scenario to completion (or the given budget) and collect the
 *  exactness artifacts. */
RunArtifacts
runScenario(const Scenario &sc, const graph::Csr &g, algo::AlgorithmId id,
            const core::CheckpointOptions &ckpt, Cycle cycle_budget = 0)
{
    auto a = algo::makeAlgorithm(id);
    core::RunOptions o = baseOptions(sc, g);
    o.checkpoint = ckpt;
    if (cycle_budget != 0)
        o.cycleBudget = cycle_budget;

    obs::Sampler sampler;
    obs::Tracer tracer;
    std::optional<obs::ScopedActiveTracer> trace_scope;
    if (sc.telemetry) {
        sampler.setInterval(kSampleInterval);
        o.sampler = &sampler;
        trace_scope.emplace(&tracer);
        o.traceCounterInterval = kCounterInterval;
    }

    RunArtifacts art;
    std::ostringstream stats;
    // Both sliced configurations hold 128 of the 256 test vertices.
    if (sc.graphicionado) {
        baseline::GraphicionadoConfig cfg;
        if (sc.sliced)
            cfg.onChipBytes = 128 * bytesPerWord;
        baseline::GraphicionadoAccel accel(cfg, g, *a);
        art.result = accel.run(o);
        accel.statsGroup().dump(stats);
        art.finalState = accel.debugState();
    } else {
        core::GdsConfig cfg;
        if (sc.sliced)
            cfg.vbBytesPerUe = bytesPerWord; // 128 UEs x one word each
        core::GdsAccel accel(cfg, g, *a);
        art.result = accel.run(o);
        accel.statsGroup().dump(stats);
        art.finalState = accel.debugState();
    }
    art.stats = stats.str();
    if (sc.telemetry) {
        std::ostringstream csv;
        sampler.writeCsv(csv);
        art.samples = csv.str();
        std::ostringstream tr;
        tracer.write(tr);
        art.trace = tr.str();
    }
    return art;
}

void
expectExactMatch(const RunArtifacts &resumed, const RunArtifacts &ref)
{
    EXPECT_TRUE(resumed.result.completed());
    EXPECT_EQ(resumed.result.properties, ref.result.properties);
    EXPECT_EQ(resumed.result.cycles, ref.result.cycles);
    EXPECT_EQ(resumed.result.iterations, ref.result.iterations);
    EXPECT_EQ(resumed.result.edgesProcessed, ref.result.edgesProcessed);
    EXPECT_EQ(resumed.result.memoryBytes, ref.result.memoryBytes);
    EXPECT_EQ(resumed.stats, ref.stats);
    EXPECT_EQ(resumed.samples, ref.samples);
    EXPECT_EQ(resumed.trace, ref.trace);
}

/** Tests run in a scratch directory (checkpoints are CWD-relative). */
class CheckpointTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        original = std::filesystem::current_path();
        scratch = std::filesystem::temp_directory_path() /
                  ("gds_ckpt_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(scratch);
        std::filesystem::current_path(scratch);
    }

    void
    TearDown() override
    {
        sim::clearStopRequest();
        std::filesystem::current_path(original);
        std::filesystem::remove_all(scratch);
    }

    std::filesystem::path original;
    std::filesystem::path scratch;
};

/** Small deterministic test graph (weights feed SSSP-style algorithms). */
graph::Csr
testGraph()
{
    return graph::rmat(8, 8, 42, {}, true);
}

// --- Resume exactness across the full matrix ------------------------------

TEST_F(CheckpointTest, ResumeIsBitExactAcrossTheMatrix)
{
    const graph::Csr g = testGraph();
    const algo::AlgorithmId id = algo::AlgorithmId::Sssp;

    // Every combination of the five scenario switches.
    for (unsigned bits = 0; bits < 32; ++bits) {
        const Scenario sc{(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0,
                          (bits & 8) != 0, (bits & 16) != 0};
        SCOPED_TRACE(sc.tag());
        const RunArtifacts ref = runScenario(sc, g, id, {});
        ASSERT_TRUE(ref.result.completed());
        ASSERT_GT(ref.result.cycles, 10u);

        // Interrupt at two different depths of the run.
        for (const double frac : {0.3, 0.7}) {
            SCOPED_TRACE(frac);
            const Cycle budget = std::max<Cycle>(
                2, static_cast<Cycle>(
                       frac * static_cast<double>(ref.result.cycles)));
            core::CheckpointOptions ck;
            ck.dir = "ckpt";
            ck.basename = sc.tag();
            ck.interval = std::max<Cycle>(1, budget / 3);
            const RunArtifacts cut = runScenario(sc, g, id, ck, budget);
            ASSERT_FALSE(cut.result.completed());

            ck.resume = true;
            ck.interval = 0;
            const RunArtifacts resumed = runScenario(sc, g, id, ck);
            expectExactMatch(resumed, ref);

            // A completed run leaves nothing to resume.
            const sim::CheckpointStore store("ckpt", sc.tag());
            EXPECT_FALSE(std::filesystem::exists(store.currentPath()));
            EXPECT_FALSE(std::filesystem::exists(store.previousPath()));
        }
    }
}

/**
 * Checkpoint exactly at cycle @p cut (a periodic checkpoint lands on it
 * and the budget stops the run one cycle later), resume, and require the
 * uninterrupted run's artifacts.
 */
void
expectResumeAtCycleIsExact(const Scenario &sc, const graph::Csr &g,
                           algo::AlgorithmId id, Cycle cut,
                           const RunArtifacts &ref, const std::string &base)
{
    core::CheckpointOptions ck;
    ck.dir = "ckpt";
    ck.basename = base;
    ck.interval = cut;
    const RunArtifacts stopped = runScenario(sc, g, id, ck, cut + 1);
    ASSERT_FALSE(stopped.result.completed());
    const sim::CheckpointStore store("ckpt", ck.basename);
    const auto loaded = store.loadLatest();
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->meta.cycle, cut);

    ck.resume = true;
    ck.interval = 0;
    expectExactMatch(runScenario(sc, g, id, ck), ref);
}

TEST_F(CheckpointTest, ResumeMidSecondSliceScatterIsBitExact)
{
    // Checkpoint exactly at a cycle where the second slice's scatter has
    // work queued, so the resumed run must rebuild its derived scheduling
    // state mid-slice and keep reading edges from that slice's subgraph.
    const graph::Csr g = testGraph();
    const algo::AlgorithmId id = algo::AlgorithmId::Sssp;
    for (const bool gio : {false, true}) {
        Scenario sc;
        sc.graphicionado = gio;
        sc.sliced = true;
        SCOPED_TRACE(sc.tag());
        const RunArtifacts ref = runScenario(sc, g, id, {});
        ASSERT_TRUE(ref.result.completed());

        // The first cut point in scatter of slice 1 with a non-empty
        // stream (GI) or PE edge queue (GDS).
        const std::string idle_queue = gio ? "streams=0]" : " edge=0 ";
        Cycle cut = 0;
        for (Cycle k = 1; k < 64 && cut == 0; ++k) {
            const Cycle budget = ref.result.cycles * k / 64;
            const RunArtifacts probe = runScenario(sc, g, id, {}, budget);
            const std::string &st = probe.finalState;
            if (st.find("phase=scatter") != std::string::npos &&
                st.find("slice=1/2") != std::string::npos &&
                st.find(idle_queue) == std::string::npos)
                cut = budget;
        }
        ASSERT_NE(cut, 0u) << "no mid-slice-1 scatter state found";
        expectResumeAtCycleIsExact(sc, g, id, cut, ref, sc.tag() + "_mid");
    }
}

TEST_F(CheckpointTest, ResumeWithRawStalledStreamsIsBitExact)
{
    // Cut Graphicionado PR where streams RAW-stall in the last tick before
    // the checkpoint and in the first one after it: streams parked until
    // their RAW window closes must resume with their head registers
    // mid-record and keep counting one stall per cycle.
    const graph::Csr g = testGraph();
    const algo::AlgorithmId id = algo::AlgorithmId::Pr;
    Scenario sc;
    sc.graphicionado = true;
    const RunArtifacts ref = runScenario(sc, g, id, {});
    ASSERT_TRUE(ref.result.completed());
    ASSERT_GT(ref.result.atomicStalls, 0u);

    const auto stalls_at = [&](Cycle budget) {
        return runScenario(sc, g, id, {}, budget).result.atomicStalls;
    };
    Cycle cut = 0;
    for (Cycle b = 2; b + 1 < ref.result.cycles && cut == 0; b += 5) {
        const std::uint64_t at = stalls_at(b);
        if (stalls_at(b - 1) < at && at < stalls_at(b + 1))
            cut = b;
    }
    ASSERT_NE(cut, 0u) << "no cycle with RAW stalls on both sides found";
    expectResumeAtCycleIsExact(sc, g, id, cut, ref, "raw_stalled");
}

TEST_F(CheckpointTest, ResumeWithQueuedUeFlitsIsBitExact)
{
    // Cut GraphDynS PR in scatter while UE inboxes hold flits: the resumed
    // run must rebuild which UEs have work before its first reduce.
    const graph::Csr g = testGraph();
    const algo::AlgorithmId id = algo::AlgorithmId::Pr;
    const Scenario sc;
    const RunArtifacts ref = runScenario(sc, g, id, {});
    ASSERT_TRUE(ref.result.completed());

    Cycle cut = 0;
    for (Cycle k = 1; k < 256 && cut == 0; ++k) {
        const Cycle budget = ref.result.cycles * k / 256;
        const std::string st =
            runScenario(sc, g, id, {}, budget).finalState;
        if (st.find("phase=scatter") != std::string::npos &&
            st.find(" ue=0]") == std::string::npos)
            cut = budget;
    }
    ASSERT_NE(cut, 0u) << "no scatter state with queued UE flits found";
    expectResumeAtCycleIsExact(sc, g, id, cut, ref, "ue_queued");
}

TEST_F(CheckpointTest, ResumeWithInFlightVbListsIsBitExact)
{
    // Cut GraphDynS PR in its first Apply phase while vertex lists sit in
    // the PEs' VB read stage: their maturity stamps are cycles of the
    // accelerator clock, and the resumed run must rebuild which PEs are
    // busy before it can apply them.
    const graph::Csr g = testGraph();
    const algo::AlgorithmId id = algo::AlgorithmId::Pr;
    const Scenario sc;
    const RunArtifacts ref = runScenario(sc, g, id, {});
    ASSERT_TRUE(ref.result.completed());

    Cycle cut = 0;
    for (Cycle b = 1; b < ref.result.cycles && cut == 0; ++b) {
        const std::string st = runScenario(sc, g, id, {}, b).finalState;
        if (st.find("phase=apply") != std::string::npos &&
            st.find(" vb=0 ") == std::string::npos)
            cut = b;
    }
    ASSERT_NE(cut, 0u) << "no Apply state with lists in the VB stage found";
    expectResumeAtCycleIsExact(sc, g, id, cut, ref, "vb_in_flight");
}

TEST_F(CheckpointTest, ResumeWithEdgePartsOutstandingIsBitExact)
{
    // Cut each model in Scatter while a record's edge list is fetched in
    // parts, some requested and in flight, the rest not yet requested:
    // the resumed run must count the outstanding parts and request the
    // remaining ones from where the cut left off.
    const graph::Csr g = graph::rmat(9, 16, 42, {}, true);
    const algo::AlgorithmId id = algo::AlgorithmId::Pr;
    for (const bool gio : {false, true}) {
        Scenario sc;
        sc.graphicionado = gio;
        SCOPED_TRACE(sc.tag());
        const RunArtifacts ref = runScenario(sc, g, id, {});
        ASSERT_TRUE(ref.result.completed());

        Cycle cut = 0;
        for (Cycle b = 1; b < 2000 && cut == 0; ++b) {
            const std::string st = runScenario(sc, g, id, {}, b).finalState;
            if (st.find("phase=scatter") != std::string::npos &&
                st.find(" partialFetches=0]") == std::string::npos)
                cut = b;
        }
        ASSERT_NE(cut, 0u) << "no Scatter state with a partly fetched "
                              "edge list found";
        expectResumeAtCycleIsExact(sc, g, id, cut, ref,
                                   sc.tag() + "_parts");
    }
}

// --- Identity and corruption handling -------------------------------------

TEST_F(CheckpointTest, MismatchedIdentityStartsCleanAndStillCompletes)
{
    const graph::Csr g = testGraph();
    const algo::AlgorithmId id = algo::AlgorithmId::Bfs;
    const Scenario sc;
    const RunArtifacts ref = runScenario(sc, g, id, {});
    ASSERT_TRUE(ref.result.completed());

    core::CheckpointOptions ck;
    ck.dir = "ckpt";
    ck.basename = "ident";
    ck.identity = "config-A";
    ck.interval = std::max<Cycle>(1, ref.result.cycles / 4);
    const RunArtifacts cut =
        runScenario(sc, g, id, ck, ref.result.cycles / 2);
    ASSERT_FALSE(cut.result.completed());

    // A different identity salt refuses the checkpoint (with a warning)
    // and restarts from cycle zero — never resumes foreign state.
    ck.identity = "config-B";
    ck.resume = true;
    ck.interval = 0;
    const RunArtifacts resumed = runScenario(sc, g, id, ck);
    expectExactMatch(resumed, ref);
}

TEST_F(CheckpointTest, CorruptCheckpointFilesAreRejectedWithTypedErrors)
{
    const graph::Csr g = testGraph();
    const algo::AlgorithmId id = algo::AlgorithmId::Bfs;
    const Scenario sc;
    const RunArtifacts ref = runScenario(sc, g, id, {});

    core::CheckpointOptions ck;
    ck.dir = "ckpt";
    ck.basename = "corrupt";
    ck.interval = std::max<Cycle>(1, ref.result.cycles / 4);
    runScenario(sc, g, id, ck, ref.result.cycles / 2);
    const sim::CheckpointStore store("ckpt", "corrupt");
    ASSERT_TRUE(std::filesystem::exists(store.currentPath()));

    // The pristine file parses.
    EXPECT_NO_THROW(sim::CheckpointStore::readFile(store.currentPath()));

    auto corrupted_copy = [&](const char *name,
                              const std::function<void(std::string)> &mutate) {
        const std::string path = std::string("ckpt/") + name;
        std::filesystem::copy_file(store.currentPath(), path);
        mutate(path);
        return path;
    };

    // Truncated: the trailing checksum (at least) is gone.
    const auto size = std::filesystem::file_size(store.currentPath());
    const std::string truncated =
        corrupted_copy("truncated.ckpt", [&](const std::string &p) {
            std::filesystem::resize_file(p, size / 2);
        });
    EXPECT_THROW(sim::CheckpointStore::readFile(truncated), CheckpointError);

    // One flipped payload byte: the checksum no longer matches.
    const std::string flipped =
        corrupted_copy("flipped.ckpt", [&](const std::string &p) {
            std::fstream f(p, std::ios::in | std::ios::out |
                                  std::ios::binary);
            f.seekp(static_cast<std::streamoff>(size / 2));
            f.put('\x5a');
        });
    EXPECT_THROW(sim::CheckpointStore::readFile(flipped), CheckpointError);

    // A wrong magic is not a checkpoint at all.
    const std::string wrong_magic =
        corrupted_copy("magic.ckpt", [&](const std::string &p) {
            std::fstream f(p, std::ios::in | std::ios::out |
                                  std::ios::binary);
            f.seekp(0);
            f.write("NOTACKPT", 8);
        });
    EXPECT_THROW(sim::CheckpointStore::readFile(wrong_magic),
                 CheckpointError);

    // An empty file is rejected, not misparsed.
    { std::ofstream empty("ckpt/empty.ckpt"); }
    EXPECT_THROW(sim::CheckpointStore::readFile("ckpt/empty.ckpt"),
                 CheckpointError);
}

TEST(CheckpointCounts, HugeCountsThrowTypedErrors)
{
    // A corrupt count of 2^62 fails as CheckpointError; it must never
    // reach an allocation (std::length_error / std::bad_alloc).
    constexpr std::uint64_t kHuge = std::uint64_t{1} << 62;
    {
        sim::Serializer s;
        s.writeU64(kHuge); // track count
        obs::Tracer tracer;
        sim::Deserializer d(s.bytes());
        EXPECT_THROW(tracer.restoreState(d), CheckpointError);
    }
    {
        sim::Serializer s;
        s.writeBool(false); // sealed
        s.writeU64(kHuge);  // column count
        obs::Sampler sampler;
        sim::Deserializer d(s.bytes());
        EXPECT_THROW(sampler.restoreState(d), CheckpointError);
    }
    for (const std::uint64_t outer : {kHuge, std::uint64_t{1}}) {
        sim::Serializer s;
        s.writeU64(outer);
        s.writeU64(kHuge); // first inner vector
        std::vector<std::vector<std::uint32_t>> nested;
        sim::Deserializer d(s.bytes());
        EXPECT_THROW(d(nested), CheckpointError);
    }
}

TEST(CheckpointCounts, OverfullStreamQueueIsRejected)
{
    // A Graphicionado stream queue is hardware of streamQueueRecords
    // entries: a checkpoint holding more than that is refused with a
    // typed error, not loaded as an impossible state. One stream takes
    // every record, so its queue fills past 64 within a few hundred
    // cycles.
    const graph::Csr g = testGraph();
    auto a = algo::makeAlgorithm(algo::AlgorithmId::Pr);
    baseline::GraphicionadoConfig cfg;
    cfg.numStreams = 1;
    cfg.streamQueueRecords = 128;
    std::vector<std::uint8_t> payload;
    for (Cycle budget = 64; budget <= 4096 && payload.empty();
         budget += 64) {
        baseline::GraphicionadoAccel accel(cfg, g, *a);
        core::RunOptions o;
        o.source = algo::defaultSource(g);
        o.cycleBudget = budget;
        accel.run(o);
        const std::string st = accel.debugState();
        const auto at = st.find("streams=");
        ASSERT_NE(at, std::string::npos);
        if (std::stoul(st.substr(at + 8)) > 64) {
            sim::Serializer s;
            accel.saveState(s);
            payload = s.bytes();
        }
    }
    ASSERT_FALSE(payload.empty()) << "the stream queue never passed 64";

    cfg.streamQueueRecords = 64;
    baseline::GraphicionadoAccel small(cfg, g, *a);
    sim::Deserializer d(payload);
    EXPECT_THROW(small.restoreState(d), CheckpointError);
}

// --- Payload determinism --------------------------------------------------

/** Payload of the checkpoint a scenario leaves at half its full run. */
std::vector<std::uint8_t>
halfwayPayload(const Scenario &sc, const graph::Csr &g, algo::AlgorithmId id,
               Cycle full_cycles, const std::string &base)
{
    core::CheckpointOptions ck;
    ck.dir = "ckpt";
    ck.basename = base;
    ck.interval = std::max<Cycle>(1, full_cycles / 4);
    runScenario(sc, g, id, ck, full_cycles / 2);
    const sim::CheckpointStore store("ckpt", base);
    return sim::CheckpointStore::readFile(store.currentPath()).payload;
}

TEST_F(CheckpointTest, IdenticalRunsWriteIdenticalPayloads)
{
    // No padding byte reaches a payload, so the same run checkpoints the
    // same bytes every time. The sizes and hashes are pinned beside the
    // state version: a layout change has to update both on purpose.
    static_assert(core::kStateVersion == 8,
                  "re-pin the payload sizes and hashes below");
    struct Pinned
    {
        Scenario sc;
        algo::AlgorithmId id;
        std::size_t size;
        std::uint64_t fnv;
    };
    const Scenario noisy{false, true, true, true, true};
    const Pinned cases[] = {
        {Scenario{}, algo::AlgorithmId::Pr, 28104, 0xf772ee5ce918d192ULL},
        {noisy, algo::AlgorithmId::Bfs, 19925, 0xb6ea8f6fbcbb80bdULL},
        {Scenario{true}, algo::AlgorithmId::Pr, 36732, 0x10df004b2085e794ULL},
        {Scenario{true, true, true, true, true}, algo::AlgorithmId::Sssp,
         25548, 0xe2ee0ca974b95744ULL},
    };
    const graph::Csr g = testGraph();
    for (const Pinned &c : cases) {
        SCOPED_TRACE(c.sc.tag());
        const RunArtifacts ref = runScenario(c.sc, g, c.id, {});
        ASSERT_TRUE(ref.result.completed());
        const auto first = halfwayPayload(c.sc, g, c.id, ref.result.cycles,
                                          c.sc.tag() + "_first");
        const auto second = halfwayPayload(c.sc, g, c.id, ref.result.cycles,
                                           c.sc.tag() + "_second");
        ASSERT_EQ(first.size(), second.size());
        std::size_t differing = 0;
        for (std::size_t i = 0; i < first.size(); ++i)
            differing += first[i] != second[i] ? 1 : 0;
        EXPECT_EQ(differing, 0u);
        EXPECT_EQ(first.size(), c.size);
        EXPECT_EQ(fnv1a64(first.data(), first.size()), c.fnv);
    }
}

TEST_F(CheckpointTest, TornCurrentFallsBackToPreviousAndResumesExactly)
{
    const graph::Csr g = testGraph();
    const algo::AlgorithmId id = algo::AlgorithmId::Bfs;
    const Scenario sc;
    const RunArtifacts ref = runScenario(sc, g, id, {});
    ASSERT_TRUE(ref.result.completed());

    // Enough checkpoints that both current and .prev exist.
    core::CheckpointOptions ck;
    ck.dir = "ckpt";
    ck.basename = "torn";
    ck.interval = std::max<Cycle>(1, ref.result.cycles / 8);
    runScenario(sc, g, id, ck, (ref.result.cycles * 3) / 4);
    const sim::CheckpointStore store("ckpt", "torn");
    ASSERT_TRUE(std::filesystem::exists(store.currentPath()));
    ASSERT_TRUE(std::filesystem::exists(store.previousPath()));

    // Tear the current file the way an interrupted non-durable writer
    // would; the loader must report the fallback, not an error.
    const auto size = std::filesystem::file_size(store.currentPath());
    std::filesystem::resize_file(store.currentPath(), size / 2);
    std::string reason;
    const auto loaded = store.loadLatest(&reason);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_TRUE(loaded->usedFallback);
    EXPECT_FALSE(reason.empty());

    ck.resume = true;
    ck.interval = 0;
    const RunArtifacts resumed = runScenario(sc, g, id, ck);
    expectExactMatch(resumed, ref);
}

// --- Crash injection: SIGKILL mid-run and mid-checkpoint-write ------------

/** Fork; the child runs the scenario and must die by SIGKILL. */
void
runChildExpectingSigkill(const std::function<void()> &child_body)
{
    ::fflush(nullptr);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
        child_body();
        // Reaching here means the kill never fired; signal failure
        // without running atexit/gtest teardown in the child.
        ::_exit(7);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "child exited with status " << status << " instead of a signal";
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
}

TEST_F(CheckpointTest, SigkillAtArbitraryCyclesThenResumeIsExact)
{
    const graph::Csr g = testGraph();
    const algo::AlgorithmId id = algo::AlgorithmId::Sssp;
    const Scenario sc;
    const RunArtifacts ref = runScenario(sc, g, id, {});
    ASSERT_TRUE(ref.result.completed());

    for (const double frac : {0.25, 0.55, 0.85}) {
        SCOPED_TRACE(frac);
        core::CheckpointOptions ck;
        ck.dir = "ckpt";
        ck.basename = "kill" + std::to_string(static_cast<int>(frac * 100));
        ck.interval = std::max<Cycle>(1, ref.result.cycles / 10);
        const Cycle kill_at = std::max<Cycle>(
            1,
            static_cast<Cycle>(frac *
                               static_cast<double>(ref.result.cycles)));
        runChildExpectingSigkill([&] {
            auto a = algo::makeAlgorithm(id);
            core::RunOptions o = baseOptions(sc, g);
            o.checkpoint = ck;
            o.killAtCycle = kill_at;
            core::GdsConfig cfg;
            core::GdsAccel accel(cfg, g, *a);
            accel.run(o);
        });

        ck.resume = true;
        ck.interval = 0;
        const RunArtifacts resumed = runScenario(sc, g, id, ck);
        expectExactMatch(resumed, ref);
    }
}

TEST_F(CheckpointTest, SigkillMidCheckpointWriteUsesPreviousGoodFile)
{
    const graph::Csr g = testGraph();
    const algo::AlgorithmId id = algo::AlgorithmId::Bfs;
    const Scenario sc;
    const RunArtifacts ref = runScenario(sc, g, id, {});
    ASSERT_TRUE(ref.result.completed());

    core::CheckpointOptions ck;
    ck.dir = "ckpt";
    ck.basename = "midwrite";
    ck.interval = std::max<Cycle>(1, ref.result.cycles / 6);
    runChildExpectingSigkill([&] {
        // The third checkpoint write truncates the freshly published
        // file to half its size and SIGKILLs the process.
        ::setenv("GDS_CKPT_KILL_MID_WRITE", "3", 1);
        auto a = algo::makeAlgorithm(id);
        core::RunOptions o = baseOptions(sc, g);
        o.checkpoint = ck;
        core::GdsConfig cfg;
        core::GdsAccel accel(cfg, g, *a);
        accel.run(o);
    });

    // The tear is detected and the previous good checkpoint supplies the
    // resume state.
    const sim::CheckpointStore store("ckpt", "midwrite");
    std::string reason;
    const auto loaded = store.loadLatest(&reason);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_TRUE(loaded->usedFallback);
    EXPECT_FALSE(reason.empty());

    ck.resume = true;
    ck.interval = 0;
    const RunArtifacts resumed = runScenario(sc, g, id, ck);
    expectExactMatch(resumed, ref);
}

// --- Graceful stop --------------------------------------------------------

TEST_F(CheckpointTest, GracefulStopWritesFinalCheckpointAndResumes)
{
    const graph::Csr g = testGraph();
    const algo::AlgorithmId id = algo::AlgorithmId::Bfs;
    const Scenario sc;
    const RunArtifacts ref = runScenario(sc, g, id, {});
    ASSERT_TRUE(ref.result.completed());

    // A pre-raised stop flag halts the run at the first watchdog boundary
    // (the same path a SIGINT/SIGTERM handler takes) and writes a final
    // checkpoint even with no periodic interval configured.
    core::CheckpointOptions ck;
    ck.dir = "ckpt";
    ck.basename = "stop";
    sim::requestStop();
    const RunArtifacts stopped = runScenario(sc, g, id, ck);
    sim::clearStopRequest();
    ASSERT_FALSE(stopped.result.completed());
    EXPECT_EQ(stopped.result.report.outcome, sim::RunOutcome::Stopped);
    const sim::CheckpointStore store("ckpt", "stop");
    EXPECT_TRUE(std::filesystem::exists(store.currentPath()));

    ck.resume = true;
    const RunArtifacts resumed = runScenario(sc, g, id, ck);
    expectExactMatch(resumed, ref);
}

} // namespace
} // namespace gds
